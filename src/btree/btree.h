#ifndef PROGIDX_BTREE_BTREE_H_
#define PROGIDX_BTREE_BTREE_H_

#include <cstddef>
#include <vector>

#include "common/types.h"

namespace progidx {

namespace persist {
class Writer;
class Reader;
}  // namespace persist

/// A read-only B+-tree over an externally owned *sorted* array, in the
/// implicit layout of the paper's consolidation phase (§3.1,
/// "Consolidation Phase"): level k+1 holds every β-th key of level k,
/// so node boundaries are implicit and the structure is three flat
/// arrays at most a few MB in size.
///
/// The tree is built progressively by ProgressiveBTreeBuilder; before
/// the build completes, callers fall back to binary search over the
/// sorted array (the builder exposes `done()`).
class BPlusTree {
 public:
  BPlusTree() = default;

  /// Creates an empty tree over `sorted[0, n)` with the given fanout β.
  /// The caller keeps ownership of the array, which must outlive the
  /// tree and stay sorted.
  BPlusTree(const value_t* sorted, size_t n, size_t fanout);

  /// Bulk-builds all levels at once (used by the Full Index baseline,
  /// which pays the whole construction cost on the first query).
  void BuildAll();

  /// True when all levels have been built and lookups descend the tree.
  bool complete() const { return complete_; }

  size_t fanout() const { return fanout_; }
  size_t height() const { return levels_.size(); }

  /// The underlying sorted leaf array (externally owned). The batch
  /// executor turns each query's matched region into a leaf run over
  /// this array so overlapping regions scan once per batch.
  const value_t* leaf_data() const { return sorted_; }

  /// Internal levels as built so far (levels_[0] from the base array,
  /// root last); exposed for construction-parity tests.
  const std::vector<std::vector<value_t>>& levels() const { return levels_; }

  /// Total number of keys copied into internal levels by a full build:
  /// Ncopy = Σ_{i≥1} n/β^i. Used by the consolidation cost model.
  size_t TotalInternalKeys() const;

  /// Index of the first element >= v in the underlying sorted array
  /// (equivalent to std::lower_bound, but via tree descent when the
  /// tree is complete).
  size_t LowerBound(value_t v) const;

  /// Index of the first element > v: LowerBound(v + 1), or the leaf
  /// count when v is the top of the domain. A query's matched leaf run
  /// is [LowerBound(q.low), UpperBound(q.high)) — empty when it does
  /// not begin before it ends (q.low > q.high, or no match).
  size_t UpperBound(value_t v) const;

  /// SUM/COUNT of elements in [q.low, q.high]: two descents bound the
  /// matched leaf run, and one pass of the dispatched kernel sums it —
  /// every element in the run qualifies, so the predicate never rejects
  /// and the pass reads the run at memory speed. Serial on the calling
  /// thread; safe to call from many threads at once.
  QueryResult RangeSum(const RangeQuery& q) const;

  /// Serializes n_, fanout and the internal levels built so far
  /// (docs/recovery.md). The leaf array is external and saved by the
  /// owning index.
  void SaveState(persist::Writer* w) const;
  /// Restores a tree saved by SaveState into this one, constructed by
  /// the owner over the reloaded leaf array with its own leaf count and
  /// fanout. Returns false on a corrupt payload, and on one whose leaf
  /// count, fanout, levels or completeness differ from what a
  /// ProgressiveBTreeBuilder derives from the leaf array by copying as
  /// many keys: any other level geometry would send LowerBound's
  /// descent window past the level below.
  bool LoadState(persist::Reader* r);

 private:
  friend class ProgressiveBTreeBuilder;

  const value_t* sorted_ = nullptr;
  size_t n_ = 0;
  size_t fanout_ = 64;
  /// levels_[0] is built from the base array; levels_.back() is the
  /// root level (size <= fanout_).
  std::vector<std::vector<value_t>> levels_;
  bool complete_ = false;
};

/// Incrementally constructs the internal levels of a BPlusTree, copying
/// at most a caller-chosen number of keys per step — the consolidation
/// phase's unit of budgeted work.
class ProgressiveBTreeBuilder {
 public:
  /// `tree` must outlive the builder. The tree must either be freshly
  /// constructed (no levels built) or have LoadState applied, with this
  /// builder's own LoadState restoring the matching build position.
  explicit ProgressiveBTreeBuilder(BPlusTree* tree);

  /// Copies up to `max_keys` keys into internal levels; returns the
  /// number actually copied (0 when already done).
  size_t DoWork(size_t max_keys);

  bool done() const { return tree_->complete_; }

  /// Keys remaining to copy until the tree is complete.
  size_t remaining() const { return remaining_; }

  /// Serializes the build position (the level contents live in the
  /// tree's own SaveState).
  void SaveState(persist::Writer* w) const;
  /// Restores the build position saved by SaveState; call after the
  /// tree itself has been restored with BPlusTree::LoadState. Returns
  /// false unless the position is the one a build reaches with the
  /// tree's levels.
  bool LoadState(persist::Reader* r);

 private:
  /// Source array of the level currently being built.
  const value_t* CurrentSource(size_t* source_size) const;

  BPlusTree* tree_;
  size_t source_pos_ = 0;  ///< next key index to sample in the source
  size_t remaining_ = 0;
};

}  // namespace progidx

#endif  // PROGIDX_BTREE_BTREE_H_
