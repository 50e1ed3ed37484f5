#include "btree/btree.h"

#include <algorithm>
#include <limits>
#include <utility>

#include "kernels/kernels.h"
#include "parallel/primitives.h"
#include "persist/io.h"

namespace progidx {

BPlusTree::BPlusTree(const value_t* sorted, size_t n, size_t fanout)
    : sorted_(sorted), n_(n), fanout_(fanout) {
  PROGIDX_CHECK(fanout_ >= 2);
  // A column that fits in a single node needs no internal levels.
  if (n_ <= fanout_) complete_ = true;
}

void BPlusTree::BuildAll() {
  ProgressiveBTreeBuilder builder(this);
  while (!builder.done()) builder.DoWork(n_ + 1);
}

size_t BPlusTree::TotalInternalKeys() const {
  size_t total = 0;
  size_t level = n_;
  while (level > fanout_) {
    level = (level + fanout_ - 1) / fanout_;
    total += level;
  }
  return total;
}

size_t BPlusTree::LowerBound(value_t v) const {
  if (n_ == 0) return 0;
  if (!complete_ || levels_.empty()) {
    return static_cast<size_t>(
        std::lower_bound(sorted_, sorted_ + n_, v) - sorted_);
  }
  // Descend from the root level. At each level, keys[i] is the first
  // element of node i one level below, so with idx = lower_bound(keys,
  // v): keys[idx-1] < v <= keys[idx], and the target position lies in
  // ((idx-1)·β, idx·β]. We carry that window down.
  size_t lo = 0;
  size_t hi = levels_.back().size();
  for (size_t li = levels_.size(); li-- > 0;) {
    const std::vector<value_t>& keys = levels_[li];
    const size_t idx = static_cast<size_t>(
        std::lower_bound(keys.begin() + lo, keys.begin() + hi, v) -
        keys.begin());
    const size_t next_size = (li == 0) ? n_ : levels_[li - 1].size();
    const size_t prev = (idx == 0) ? 0 : idx - 1;
    lo = prev * fanout_;
    hi = std::min(next_size, idx * fanout_ + 1);
  }
  return static_cast<size_t>(
      std::lower_bound(sorted_ + lo, sorted_ + hi, v) - sorted_);
}

size_t BPlusTree::UpperBound(value_t v) const {
  return v == std::numeric_limits<value_t>::max() ? n_ : LowerBound(v + 1);
}

QueryResult BPlusTree::RangeSum(const RangeQuery& q) const {
  const size_t begin = LowerBound(q.low);
  const size_t end = UpperBound(q.high);
  if (begin >= end) return {};
  // The serial kernel, never PredicatedRangeSum: read epochs call this
  // from client threads (ProgressiveIndex::TryReadOnlyQuery) while the
  // thread pool belongs to the scheduler's write epoch — the same seam
  // exec::ZeroBudgetScan stays off.
  return kernels::Dispatch().range_sum_predicated(sorted_ + begin,
                                                  end - begin, q);
}

void BPlusTree::SaveState(persist::Writer* w) const {
  w->WriteU64(n_);
  w->WriteU64(fanout_);
  w->WriteBool(complete_);
  w->WriteU64(levels_.size());
  for (const auto& level : levels_) w->WriteValueVector(level);
}

bool BPlusTree::LoadState(persist::Reader* r) {
  const uint64_t n = r->ReadU64();
  const uint64_t fanout = r->ReadU64();
  const bool complete = r->ReadBool();
  const uint64_t level_count = r->ReadU64();
  if (!r->ok() || n != n_ || fanout != fanout_ || level_count > 64) {
    return false;
  }
  std::vector<std::vector<value_t>> levels(level_count);
  size_t keys = 0;
  for (auto& level : levels) {
    if (!r->ReadValueVector(&level)) return false;
    keys += level.size();
  }
  // Replay the build: the only levels a consolidation can have saved.
  BPlusTree derived(sorted_, n_, fanout_);
  if (level_count > 0) ProgressiveBTreeBuilder(&derived).DoWork(keys);
  if (levels != derived.levels_ || complete != derived.complete_) {
    return false;
  }
  levels_ = std::move(levels);
  complete_ = complete;
  return true;
}

ProgressiveBTreeBuilder::ProgressiveBTreeBuilder(BPlusTree* tree)
    : tree_(tree) {
  remaining_ = tree_->TotalInternalKeys();
  if (remaining_ == 0) tree_->complete_ = true;
}

void ProgressiveBTreeBuilder::SaveState(persist::Writer* w) const {
  w->WriteU64(source_pos_);
  w->WriteU64(remaining_);
}

bool ProgressiveBTreeBuilder::LoadState(persist::Reader* r) {
  source_pos_ = r->ReadU64();
  remaining_ = r->ReadU64();
  // The level under construction holds every fanout-th key of its
  // source up to the cursor; the keys not yet copied remain.
  const auto& levels = tree_->levels_;
  size_t built = 0;
  for (const auto& level : levels) built += level.size();
  const size_t cursor =
      levels.empty() ? 0 : levels.back().size() * tree_->fanout_;
  return r->ok() && source_pos_ == cursor &&
         remaining_ == tree_->TotalInternalKeys() - built;
}

const value_t* ProgressiveBTreeBuilder::CurrentSource(
    size_t* source_size) const {
  // The source of the level under construction (levels_.back()) is the
  // level below it, or the base sorted array for the first level.
  if (tree_->levels_.size() <= 1) {
    *source_size = tree_->n_;
    return tree_->sorted_;
  }
  const std::vector<value_t>& below =
      tree_->levels_[tree_->levels_.size() - 2];
  *source_size = below.size();
  return below.data();
}

size_t ProgressiveBTreeBuilder::DoWork(size_t max_keys) {
  if (tree_->complete_) return 0;
  size_t copied = 0;
  if (tree_->levels_.empty()) {
    tree_->levels_.emplace_back();
    source_pos_ = 0;
  }
  while (copied < max_keys) {
    size_t source_size = 0;
    const value_t* source = CurrentSource(&source_size);
    std::vector<value_t>& building = tree_->levels_.back();
    // Copy every fanout-th key of the source into the level being
    // built: the random read + sequential write of the cost model.
    // Bulk strided gather — splits across the thread pool for big
    // levels, with the keys landing at the same positions (and
    // source_pos_ at the same final value) as the one-by-one loop.
    if (source_pos_ < source_size) {
      const size_t f = tree_->fanout_;
      const size_t avail = (source_size - source_pos_ + f - 1) / f;
      const size_t take = std::min(avail, max_keys - copied);
      const size_t base = building.size();
      building.resize(base + take);
      parallel::StridedGather(source, source_pos_, f, take,
                              building.data() + base);
      source_pos_ += take * f;
      copied += take;
      remaining_ = remaining_ > take ? remaining_ - take : 0;
    }
    if (source_pos_ < source_size) break;  // budget exhausted mid-level
    // Level finished: either it is the root or we start its parent.
    if (building.size() <= tree_->fanout_) {
      tree_->complete_ = true;
      remaining_ = 0;
      break;
    }
    tree_->levels_.emplace_back();
    source_pos_ = 0;
  }
  return copied;
}

}  // namespace progidx
