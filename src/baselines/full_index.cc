#include "baselines/full_index.h"

#include <algorithm>
#include <string>
#include <vector>

#include "common/validate.h"
#include "parallel/primitives.h"
#include "persist/io.h"

namespace progidx {

FullIndex::FullIndex(const Column& column, size_t fanout)
    : column_(column), fanout_(fanout) {
  if (fanout < 2) {
    FailInvalidArgument("FullIndex: btree_fanout " + std::to_string(fanout) +
                        " must be >= 2");
  }
}

QueryResult FullIndex::Query(const RangeQuery& q) {
  if (!built_) {
    sorted_ = column_.values();
    // O(N · passes) LSD radix sort on the dispatched histogram/scatter
    // kernels instead of O(N log N) comparison sorting, with the passes
    // split across the thread pool; this baseline's build time is
    // Table 3's "first query" cost, so it deserves the same kernel
    // treatment as the progressive indexes.
    std::vector<value_t> scratch(sorted_.size());
    parallel::RadixSortFlat(sorted_.data(), scratch.data(), sorted_.size(),
                            column_.min_value(), column_.max_value());
    btree_ = BPlusTree(sorted_.data(), sorted_.size(), fanout_);
    btree_.BuildAll();
    built_ = true;
  }
  return btree_.RangeSum(q);
}

void FullIndex::SaveState(persist::Writer* w) const {
  w->WriteBool(built_);
  if (!built_) return;  // unbuilt baseline has no state beyond the flag
  w->WriteValueVector(sorted_);
  btree_.SaveState(w);
}

bool FullIndex::LoadState(persist::Reader* r) {
  built_ = r->ReadBool();
  if (!r->ok()) return false;
  if (!built_) return true;
  const size_t n = column_.size();
  // The B+-tree replay below checks only the keys it samples; an
  // unsorted leaf would still answer from the wrong positions.
  if (!r->ReadValueVector(&sorted_) || sorted_.size() != n ||
      !std::is_sorted(sorted_.begin(), sorted_.end())) {
    return false;
  }
  btree_ = BPlusTree(sorted_.data(), n, fanout_);
  return btree_.LoadState(r);
}

}  // namespace progidx
