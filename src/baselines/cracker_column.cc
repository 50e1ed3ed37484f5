#include "baselines/cracker_column.h"

#include <iterator>
#include <limits>

#include "common/predication.h"
#include "kernels/kernels.h"

namespace progidx {

bool CrackerColumn::EnsureMaterialized() {
  if (materialized_) return false;
  data_ = column_.values();
  materialized_ = true;
  return true;
}

CrackerColumn::Piece CrackerColumn::PieceFor(value_t v) const {
  const auto above = index_.upper_bound(v);
  return Piece{above == index_.begin() ? 0 : std::prev(above)->second,
               above == index_.end() ? size() : above->second};
}

size_t CrackerColumn::Crack(size_t start, size_t end, value_t pivot) {
  if (start >= end) return start;
  size_t lo = start;
  size_t hi = end - 1;
  bool done = false;
  kernels::CrackInPlace(data_.data(), &lo, &hi, pivot,
                        std::numeric_limits<size_t>::max(), &done);
  return lo;
}

void CrackerColumn::CrackAt(value_t pivot) {
  if (index_.contains(pivot)) return;
  const Piece piece = PieceFor(pivot);
  index_.emplace(pivot, Crack(piece.start, piece.end, pivot));
}

CrackerColumn::Piece CrackerColumn::Cover(const RangeQuery& q) const {
  const auto above_low = index_.upper_bound(q.low);
  const auto above_high = index_.upper_bound(q.high);
  return Piece{above_low == index_.begin() ? 0 : std::prev(above_low)->second,
               above_high == index_.end() ? size() : above_high->second};
}

QueryResult CrackerColumn::Answer(const RangeQuery& q) const {
  if (!materialized_) {
    return PredicatedRangeSum(column_.data(), size(), q);
  }
  const Piece cover = Cover(q);
  if (cover.start >= cover.end) return {};
  return PredicatedRangeSum(data_.data() + cover.start,
                            cover.end - cover.start, q);
}

}  // namespace progidx
