#ifndef PROGIDX_CORE_INCREMENTAL_QUICKSORT_H_
#define PROGIDX_CORE_INCREMENTAL_QUICKSORT_H_

#include <cstddef>
#include <memory>
#include <vector>

#include "common/types.h"

namespace progidx {

namespace persist {
class Writer;
class Reader;
}  // namespace persist

/// A contiguous region of an index array a query must inspect, produced
/// by IncrementalQuicksort::CollectRanges.
struct ScanRange {
  size_t start = 0;  ///< inclusive
  size_t end = 0;    ///< exclusive
  /// True when the region is fully sorted, so the caller may binary
  /// search instead of scanning with the full predicate.
  bool sorted = false;
};

/// The refinement-phase engine of Progressive Quicksort (§3.1): an
/// interruptible in-place quicksort over a span of the index array,
/// organized as a binary tree of pivot nodes.
///
///  * Each node partitions its span around a pivot with predicated
///    swaps; partitioning can stop mid-way and resume later.
///  * Nodes smaller than the L1 cache are sorted outright instead of
///    recursing (§3.1: "we sort the entire node instead of recursing"),
///    by kernels::SortLeaf.
///  * When both children of a node are sorted, the node is marked
///    sorted and its children pruned.
///
/// Progressive Quicksort uses one engine over the whole index array
/// (with the root pre-partitioned by the creation phase); Progressive
/// Bucketsort runs one engine per bucket segment during its merge.
class IncrementalQuicksort {
 public:
  IncrementalQuicksort() = default;

  /// Starts a sort of data[0, n) whose values lie in [min_v, max_v].
  /// Pivots are chosen as value-range midpoints (never from query
  /// predicates — the paper's robustness argument). `l1_elements` is
  /// the sort-outright threshold.
  void Init(value_t* data, size_t n, value_t min_v, value_t max_v,
            size_t l1_elements);

  /// Like Init, but the root span is already partitioned around
  /// `pivot` at `boundary` (the creation phase of Progressive Quicksort
  /// leaves the array in exactly this state).
  void InitPrePartitioned(value_t* data, size_t n, value_t pivot,
                          size_t boundary, value_t min_v, value_t max_v,
                          size_t l1_elements);

  /// Performs up to `max_elements` units of refinement work (one unit ≈
  /// one element visited by partitioning or sorting). Work on spans
  /// overlapping [hint.low, hint.high] is performed first, mirroring
  /// the paper's "focus on refining parts of the index that are
  /// required for query processing". Returns units consumed; may
  /// overshoot slightly when finishing an L1-sized node sort.
  ///
  /// When the parallel subsystem is configured with more than one lane,
  /// the sort-outright leaves selected by one DoWork call are sorted
  /// concurrently on the thread pool (the leaves are disjoint spans and
  /// each ends fully sorted, so the resulting array — and the charged
  /// units — are bit-identical to the serial order for any lane count).
  /// Partitioning work stays sequential: it is resumable mid-node and
  /// its budget accounting is inherently ordered.
  size_t DoWork(size_t max_elements, const RangeQuery& hint);

  /// Work units (element visits x sort_unit_scale) of the next atomic
  /// sort-outright leaf the hint-directed traversal would reach, or 0
  /// when the next unit of work is resumable partitioning. A leaf sort
  /// cannot be split across queries, so per-query *predictions* must
  /// charge at least this much once refinement reaches the leaves —
  /// max(budget, next leaf cost), the cost-model floor the fig8
  /// experiments rely on.
  size_t NextLeafSortUnits(const RangeQuery& hint) const;

  /// Sets how many work units one leaf-sort element-visit costs (the
  /// calibrated MachineConstants::sort_unit_scale). Units are priced at
  /// swap_secs by the budget controllers, and a size·log2(size) unit
  /// of kernels::SortLeaf costs a different time than a crack step
  /// (~0.7-0.9 crack steps on the avx512 tier; std::sort leaves cost
  /// ~3.5-5.5), so charging leaves at the calibrated ratio keeps
  /// per-query time on budget through late refinement. 1.0 (the
  /// default) charges a leaf unit as one crack step.
  void set_sort_unit_scale(double scale) {
    sort_unit_scale_ = scale > 0 ? scale : 1.0;
  }

  /// True once the whole span is a single sorted run.
  bool done() const { return root_ == nullptr || root_->sorted; }

  /// Appends the regions a query on [q.low, q.high] must inspect.
  void CollectRanges(const RangeQuery& q, std::vector<ScanRange>* out) const;

  /// Height of the pivot tree (h in the refinement cost model).
  size_t height() const { return height_; }

  /// Elements in sorted runs of the pivot tree: a walk of its unsorted
  /// part, for progress telemetry. Never falls between DoWork calls.
  size_t SortedElements() const { return SortedIn(root_.get()); }

  /// Serializes the pivot tree and resumable partition cursors in
  /// preorder (docs/recovery.md). Must only be called between DoWork
  /// calls (pending_leaf_sorts_ is empty then, by invariant).
  void SaveState(persist::Writer* w) const;
  /// Restores a sort saved by SaveState, rebinding it to `data[0, n)`
  /// (the owning index's reloaded array). Returns false on a corrupt
  /// payload, a sort over any other length, or an impossible node span.
  bool LoadState(persist::Reader* r, value_t* data, size_t n);

 private:
  struct Node {
    size_t start = 0;
    size_t end = 0;  // exclusive
    value_t pivot = 0;
    value_t min_v = 0;
    value_t max_v = 0;
    // Partition cursors: [start, lo) holds values < pivot, (hi, end)
    // holds values >= pivot, [lo, hi] is still unpartitioned.
    size_t lo = 0;
    size_t hi = 0;  // inclusive
    bool partitioned = false;
    bool sorted = false;
    std::unique_ptr<Node> left;
    std::unique_ptr<Node> right;
  };

  std::unique_ptr<Node> MakeNode(size_t start, size_t end, value_t min_v,
                                 value_t max_v, size_t depth);
  /// Work units one sort-outright leaf of `size` elements is charged
  /// (SortUnits(size)·sort_unit_scale, min 1). Shared by the charging
  /// path (WorkOn) and the prediction path (NextLeafSortUnits): the
  /// cost-model floor is only correct while both charge identically.
  size_t LeafSortUnits(size_t size) const;
  /// Budgeted work on one subtree, the hint-relevant child first;
  /// returns units consumed.
  size_t WorkOn(Node* node, size_t budget, const RangeQuery& hint,
                size_t depth);
  /// Advances the node's partition by at most `budget` steps.
  size_t AdvancePartition(Node* node, size_t budget);
  void FinishPartition(Node* node, size_t depth);
  void CollectRangesImpl(const Node* node, const RangeQuery& q,
                         std::vector<ScanRange>* out) const;
  static size_t SortedIn(const Node* node);
  void SaveNode(const Node* node, persist::Writer* w) const;
  bool LoadNode(persist::Reader* r, std::unique_ptr<Node>* out) const;

  value_t* data_ = nullptr;
  size_t n_ = 0;
  size_t l1_elements_ = 4096;
  double sort_unit_scale_ = 1.0;
  std::unique_ptr<Node> root_;
  size_t height_ = 0;
  /// Leaf spans selected (and already marked sorted) by the current
  /// DoWork traversal, flushed — possibly in parallel — before DoWork
  /// returns. Empty between calls.
  std::vector<std::pair<size_t, size_t>> pending_leaf_sorts_;
  bool defer_leaf_sorts_ = false;
};

}  // namespace progidx

#endif  // PROGIDX_CORE_INCREMENTAL_QUICKSORT_H_
