#include "core/progressive_hashtable.h"

#include <algorithm>
#include <bit>

#include "common/predication.h"

namespace progidx {

ProgressiveHashTable::ProgressiveHashTable(const Column& column,
                                           const BudgetSpec& budget,
                                           const ProgressiveOptions& options)
    : column_(column),
      options_(options),
      model_(options.Machine(), column.size(), options.bucket_count,
             options.block_capacity),
      budget_(budget, model_) {
  // Slot count: next power of two >= n (load factor <= 1 on distinct
  // values).
  const size_t n = std::max<size_t>(column_.size(), 1);
  const size_t slots = std::bit_ceil(n);
  slots_.assign(slots, -1);
  shift_ = 64 - std::countr_zero(slots);
  pool_.reserve(std::min<size_t>(n, 1 << 20));
}

double ProgressiveHashTable::indexed_fraction() const {
  return column_.empty() ? 1.0
                         : static_cast<double>(copy_pos_) /
                               static_cast<double>(column_.size());
}

void ProgressiveHashTable::Insert(value_t v) {
  const size_t slot = SlotOf(v);
  for (int32_t e = slots_[slot]; e >= 0; e = pool_[e].next) {
    if (pool_[e].value == v) {
      pool_[e].count++;
      return;
    }
  }
  pool_.push_back(Entry{v, 1, slots_[slot]});
  slots_[slot] = static_cast<int32_t>(pool_.size() - 1);
  entries_++;
}

int64_t ProgressiveHashTable::LookupCount(value_t v) const {
  const size_t slot = SlotOf(v);
  for (int32_t e = slots_[slot]; e >= 0; e = pool_[e].next) {
    if (pool_[e].value == v) return pool_[e].count;
  }
  return 0;
}

void ProgressiveHashTable::DoWorkSecs(double secs) {
  const size_t n = column_.size();
  if (copy_pos_ == n) return;
  // Inserting an element costs about one bucket-append (hash + chased
  // chain head + write).
  const double unit =
      ClampWorkUnit(model_.BucketAppendSecs() / static_cast<double>(n));
  // One-shot grant (no retry loop): round so delta = 1 inserts exactly
  // n elements even when the quotient lands one ULP below the integer.
  size_t elems = UnitsForSecs(secs + 0.5 * unit, unit);
  elems = std::min(elems, n - copy_pos_);
  for (size_t i = 0; i < elems; i++) Insert(column_[copy_pos_ + i]);
  copy_pos_ += elems;
}

QueryResult ProgressiveHashTable::Query(const RangeQuery& q) {
  if (column_.empty()) return {};
  const size_t n = column_.size();
  const MachineConstants& mc = model_.constants();
  const double rho = indexed_fraction();
  const bool usable = q.IsPoint();
  // Answer-cost estimate: a point query pays one probe plus the
  // unindexed remainder; a range query always pays a full scan.
  const double answer_est =
      usable ? mc.random_access_secs +
                   mc.seq_read_secs * static_cast<double>(n - copy_pos_)
             : mc.seq_read_secs * static_cast<double>(n);
  double delta = 0;
  if (!converged()) {
    delta = budget_.DeltaForQuery(model_.BucketAppendSecs(), answer_est);
  }
  (void)rho;
  predicted_ = answer_est + delta * model_.BucketAppendSecs();
  if (delta > 0) DoWorkSecs(delta * model_.BucketAppendSecs());

  if (q.IsPoint()) {
    const int64_t indexed_count = LookupCount(q.low);
    const QueryResult rest = PredicatedRangeSum(
        column_.data() + copy_pos_, n - copy_pos_, q);
    // The product wraps mod 2^64, like every SUM.
    const uint64_t indexed_sum = static_cast<uint64_t>(q.low) *
                                 static_cast<uint64_t>(indexed_count);
    QueryResult result{static_cast<int64_t>(indexed_sum), indexed_count};
    result += rest;
    return result;
  }
  // Range queries bypass the hash table entirely.
  return PredicatedRangeSum(column_.data(), n, q);
}

}  // namespace progidx
