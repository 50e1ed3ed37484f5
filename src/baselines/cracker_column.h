#ifndef PROGIDX_BASELINES_CRACKER_COLUMN_H_
#define PROGIDX_BASELINES_CRACKER_COLUMN_H_

#include <cstddef>
#include <map>
#include <vector>

#include "common/types.h"
#include "storage/column.h"

namespace progidx {

/// The shared substrate of all adaptive-indexing baselines: a private
/// copy of the base column that queries physically reorder, plus the
/// cracker index of piece boundaries (Idreos et al. [16]).
///
/// A boundary (key, pos) records that every element left of `pos` is
/// < `key` and every element at or right of `pos` is >= `key`. The
/// index only ever asks for the boundaries around a value (the greatest
/// key <= v and the smallest key > v) and walks them in key order, so
/// it is an ordered map: one `upper_bound` finds a piece.
///
/// The copy is materialized lazily on first use so that the copy cost
/// lands on the first query, as in the paper's measurements (adaptive
/// techniques "perform a significant amount of work copying the data
/// ... on the first query").
class CrackerColumn {
 public:
  /// Crack value -> boundary position, in key order.
  using Index = std::map<value_t, size_t>;

  /// Half-open position interval [start, end) of the copy.
  struct Piece {
    size_t start = 0;
    size_t end = 0;
  };

  explicit CrackerColumn(const Column& column) : column_(column) {}

  /// Copies the base column if not done yet. Returns true if the copy
  /// happened now.
  bool EnsureMaterialized();
  bool materialized() const { return materialized_; }

  size_t size() const { return column_.size(); }
  value_t* data() { return data_.data(); }
  const value_t* data() const { return data_.data(); }

  const Index& index() const { return index_; }

  /// Records the boundary (key, pos); a key already present keeps its
  /// first position.
  void AddBoundary(value_t key, size_t pos) { index_.emplace(key, pos); }

  /// Piece that would hold value v: [pos of the greatest boundary key
  /// <= v or 0, pos of the smallest boundary key > v or size()).
  Piece PieceFor(value_t v) const;

  /// Partitions data[start, end) so values < pivot precede values
  /// >= pivot, with the dispatched kernels::CrackInPlace, and returns
  /// the boundary position. Records nothing.
  size_t Crack(size_t start, size_t end, value_t pivot);

  /// The crack-and-record step of every baseline: a no-op when `pivot`
  /// is already a boundary; otherwise cracks the piece that holds
  /// `pivot` and records (pivot, boundary). Afterwards PieceFor(pivot)
  /// starts at pivot's boundary. Requires the copy.
  void CrackAt(value_t pivot);

  /// Smallest piece-aligned region covering [q.low, q.high].
  Piece Cover(const RangeQuery& q) const;

  /// Answers q with a predicated scan of Cover(q). Correct for exact
  /// and inexact (stochastic) boundaries alike.
  QueryResult Answer(const RangeQuery& q) const;

 private:
  const Column& column_;
  std::vector<value_t> data_;
  Index index_;
  bool materialized_ = false;
};

}  // namespace progidx

#endif  // PROGIDX_BASELINES_CRACKER_COLUMN_H_
