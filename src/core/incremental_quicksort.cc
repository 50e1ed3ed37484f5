#include "core/incremental_quicksort.h"

#include <algorithm>
#include <utility>

#include "cost/cost_model.h"
#include "kernels/kernels.h"
#include "parallel/thread_pool.h"
#include "persist/io.h"

namespace progidx {

void IncrementalQuicksort::Init(value_t* data, size_t n, value_t min_v,
                                value_t max_v, size_t l1_elements) {
  data_ = data;
  n_ = n;
  l1_elements_ = l1_elements > 0 ? l1_elements : 1;
  height_ = 0;
  root_ = MakeNode(0, n, min_v, max_v, 1);
}

void IncrementalQuicksort::InitPrePartitioned(value_t* data, size_t n,
                                              value_t pivot, size_t boundary,
                                              value_t min_v, value_t max_v,
                                              size_t l1_elements) {
  data_ = data;
  n_ = n;
  l1_elements_ = l1_elements > 0 ? l1_elements : 1;
  height_ = 1;
  root_ = std::make_unique<Node>();
  root_->start = 0;
  root_->end = n;
  root_->pivot = pivot;
  root_->min_v = min_v;
  root_->max_v = max_v;
  root_->partitioned = true;
  // A pivot at INT64_MIN leaves the left side empty; its bound wraps.
  root_->left = MakeNode(0, boundary, min_v,
                         static_cast<value_t>(static_cast<uint64_t>(pivot) - 1),
                         2);
  root_->right = MakeNode(boundary, n, pivot, max_v, 2);
  if (root_->left->sorted && root_->right->sorted) {
    root_->sorted = true;
    root_->left.reset();
    root_->right.reset();
  }
}

std::unique_ptr<IncrementalQuicksort::Node> IncrementalQuicksort::MakeNode(
    size_t start, size_t end, value_t min_v, value_t max_v, size_t depth) {
  auto node = std::make_unique<Node>();
  node->start = start;
  node->end = end;
  node->min_v = min_v;
  node->max_v = max_v;
  height_ = std::max(height_, depth);
  const size_t size = end - start;
  if (size <= 1 || min_v >= max_v) {
    // Nothing to do: single element, or all values equal (the value
    // range has collapsed — happens with heavily duplicated data).
    node->sorted = true;
    return node;
  }
  // Pivot = value-range midpoint, rounded up so both halves of the
  // range are non-empty and recursion always terminates. The width is
  // taken in uint64_t: a full 64-bit range exceeds INT64_MAX.
  const uint64_t width =
      static_cast<uint64_t>(max_v) - static_cast<uint64_t>(min_v);
  node->pivot = static_cast<value_t>(static_cast<uint64_t>(min_v) +
                                     width / 2 + (width & 1));
  node->lo = start;
  node->hi = end - 1;
  return node;
}

size_t IncrementalQuicksort::AdvancePartition(Node* node, size_t budget) {
  // Budgeted predicated crack (§3: predication for robust execution
  // times), via the dispatched kernel layer. On completion the kernel
  // classifies the final element and leaves the boundary in `lo`.
  size_t lo = node->lo;
  size_t hi = node->hi;
  bool done = false;
  const size_t steps =
      kernels::CrackInPlace(data_, &lo, &hi, node->pivot, budget, &done);
  node->lo = lo;
  node->hi = hi;
  if (done) node->partitioned = true;
  return steps;
}

void IncrementalQuicksort::FinishPartition(Node* node, size_t depth) {
  const size_t boundary = node->lo;
  node->left = MakeNode(node->start, boundary, node->min_v, node->pivot - 1,
                        depth + 1);
  node->right =
      MakeNode(boundary, node->end, node->pivot, node->max_v, depth + 1);
}

size_t IncrementalQuicksort::WorkOn(Node* node, size_t budget,
                                    const RangeQuery& hint, size_t depth) {
  if (node == nullptr || node->sorted || budget == 0) return 0;
  size_t used = 0;
  if (!node->partitioned) {
    const size_t size = node->end - node->start;
    if (size <= l1_elements_) {
      // Small nodes are sorted outright — an atomic unit of work that
      // may overshoot the budget by one leaf. A leaf is charged
      // size·log2(size) sort units, and the budget is denominated in
      // swap-equivalent units, so charge them times the calibrated
      // sort-unit-to-crack-step ratio (measured on kernels::SortLeaf,
      // the sort that runs here; without the ratio, per-query times
      // drift off the indexing budget whenever refinement reaches the
      // leaves).
      if (defer_leaf_sorts_) {
        pending_leaf_sorts_.emplace_back(node->start, node->end);
      } else {
        kernels::SortLeaf(data_ + node->start, node->end - node->start);
      }
      node->sorted = true;
      return LeafSortUnits(size);
    }
    used += AdvancePartition(node, budget);
    if (!node->partitioned) return used;
    FinishPartition(node, depth);
  }
  Node* first = node->left.get();
  Node* second = node->right.get();
  const bool left_relevant = hint.low < node->pivot;
  const bool right_relevant = hint.high >= node->pivot;
  if (right_relevant && !left_relevant) std::swap(first, second);
  if (used < budget) used += WorkOn(first, budget - used, hint, depth + 1);
  if (used < budget) used += WorkOn(second, budget - used, hint, depth + 1);
  if (node->left->sorted && node->right->sorted) {
    // Both halves done: the whole span is sorted; prune the children
    // (§3.1: "leaf nodes will keep on being sorted and pruned").
    node->sorted = true;
    node->left.reset();
    node->right.reset();
  }
  return used;
}

size_t IncrementalQuicksort::DoWork(size_t max_elements,
                                    const RangeQuery& hint) {
  if (root_ == nullptr || root_->sorted || max_elements == 0) return 0;
  // With more than one lane configured, the traversal defers its leaf
  // sorts (disjoint spans, each fully sorted afterwards) and flushes
  // them concurrently — per-leaf task granularity over the pool's
  // chunk-claiming loop. Selection order, charged units, and the final
  // array are identical to the serial path.
  defer_leaf_sorts_ = parallel::EffectiveLanes() > 1;
  const size_t used = WorkOn(root_.get(), max_elements, hint, 1);
  defer_leaf_sorts_ = false;
  if (!pending_leaf_sorts_.empty()) {
    const size_t leaves = pending_leaf_sorts_.size();
    parallel::ParallelFor(0, leaves, 1, std::min(parallel::EffectiveLanes(),
                                                 leaves),
                          [&](size_t b, size_t e) {
                            for (size_t i = b; i < e; i++) {
                              const auto& [start, end] =
                                  pending_leaf_sorts_[i];
                              kernels::SortLeaf(data_ + start, end - start);
                            }
                          });
    pending_leaf_sorts_.clear();
  }
  return used;
}

size_t IncrementalQuicksort::LeafSortUnits(size_t size) const {
  const double units = static_cast<double>(SortUnits(size)) * sort_unit_scale_;
  return std::max<size_t>(static_cast<size_t>(units), 1);
}

size_t IncrementalQuicksort::NextLeafSortUnits(const RangeQuery& hint) const {
  const Node* node = root_.get();
  while (node != nullptr && !node->sorted) {
    if (!node->partitioned) {
      const size_t size = node->end - node->start;
      if (size > l1_elements_) return 0;  // next work: resumable crack
      return LeafSortUnits(size);
    }
    // Mirror WorkOn's descent order: the hint-relevant child first,
    // skipping already-sorted subtrees.
    const Node* first = node->left.get();
    const Node* second = node->right.get();
    if (hint.high >= node->pivot && hint.low >= node->pivot) {
      std::swap(first, second);
    }
    if (first != nullptr && !first->sorted) {
      node = first;
    } else {
      node = second;
    }
  }
  return 0;
}

void IncrementalQuicksort::CollectRangesImpl(
    const Node* node, const RangeQuery& q, std::vector<ScanRange>* out) const {
  if (node == nullptr || node->start == node->end) return;
  // Value-bound pruning: the node can only contain values in
  // [min_v, max_v].
  if (q.high < node->min_v || q.low > node->max_v) return;
  if (node->sorted) {
    out->push_back({node->start, node->end, /*sorted=*/true});
    return;
  }
  if (!node->partitioned) {
    // Mid-partition: left and right fringes are classified relative to
    // the pivot, the middle is unknown and always scanned.
    if (node->lo > node->start && q.low < node->pivot) {
      out->push_back({node->start, node->lo, false});
    }
    if (node->lo <= node->hi) {
      out->push_back({node->lo, node->hi + 1, false});
    }
    if (node->hi + 1 < node->end && q.high >= node->pivot) {
      out->push_back({node->hi + 1, node->end, false});
    }
    return;
  }
  if (q.low < node->pivot) CollectRangesImpl(node->left.get(), q, out);
  if (q.high >= node->pivot) CollectRangesImpl(node->right.get(), q, out);
}

void IncrementalQuicksort::CollectRanges(const RangeQuery& q,
                                         std::vector<ScanRange>* out) const {
  CollectRangesImpl(root_.get(), q, out);
}

size_t IncrementalQuicksort::SortedIn(const Node* node) {
  if (node == nullptr) return 0;
  if (node->sorted) return node->end - node->start;
  return SortedIn(node->left.get()) + SortedIn(node->right.get());
}

void IncrementalQuicksort::SaveNode(const Node* node,
                                    persist::Writer* w) const {
  w->WriteBool(node != nullptr);
  if (node == nullptr) return;
  w->WriteU64(node->start);
  w->WriteU64(node->end);
  w->WriteI64(node->pivot);
  w->WriteI64(node->min_v);
  w->WriteI64(node->max_v);
  w->WriteU64(node->lo);
  w->WriteU64(node->hi);
  w->WriteBool(node->partitioned);
  w->WriteBool(node->sorted);
  SaveNode(node->left.get(), w);
  SaveNode(node->right.get(), w);
}

bool IncrementalQuicksort::LoadNode(persist::Reader* r,
                                    std::unique_ptr<Node>* out) const {
  if (!r->ReadBool()) {
    out->reset();
    return r->ok();
  }
  auto node = std::make_unique<Node>();
  node->start = r->ReadU64();
  node->end = r->ReadU64();
  node->pivot = r->ReadI64();
  node->min_v = r->ReadI64();
  node->max_v = r->ReadI64();
  node->lo = r->ReadU64();
  node->hi = r->ReadU64();
  node->partitioned = r->ReadBool();
  node->sorted = r->ReadBool();
  // Reject spans that would index outside the bound array; lo/hi are
  // only meaningful mid-partition, where the unclassified region
  // [lo, hi] is non-empty and inside the span (a finished partition
  // may leave hi wrapped to SIZE_MAX, but then the node is partitioned
  // and its children carry on).
  if (!r->ok() || node->end > n_ || node->start > node->end) return false;
  if (!node->sorted && !node->partitioned && node->end > node->start &&
      (node->lo < node->start || node->lo > node->hi ||
       node->hi >= node->end)) {
    return false;
  }
  if (!LoadNode(r, &node->left) || !LoadNode(r, &node->right)) return false;
  if (node->partitioned && !node->sorted &&
      (node->left == nullptr || node->right == nullptr)) {
    return false;
  }
  *out = std::move(node);
  return true;
}

void IncrementalQuicksort::SaveState(persist::Writer* w) const {
  w->WriteU64(n_);
  w->WriteU64(l1_elements_);
  w->WriteDouble(sort_unit_scale_);
  w->WriteU64(height_);
  SaveNode(root_.get(), w);
}

bool IncrementalQuicksort::LoadState(persist::Reader* r, value_t* data,
                                     size_t n) {
  n_ = r->ReadU64();
  l1_elements_ = r->ReadU64();
  sort_unit_scale_ = r->ReadDouble();
  height_ = r->ReadU64();
  if (!r->ok() || n_ != n || l1_elements_ == 0 || sort_unit_scale_ <= 0) {
    return false;
  }
  data_ = data;
  pending_leaf_sorts_.clear();
  defer_leaf_sorts_ = false;
  return LoadNode(r, &root_) && r->ok();
}

}  // namespace progidx
