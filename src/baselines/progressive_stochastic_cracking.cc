#include "baselines/progressive_stochastic_cracking.h"

#include "kernels/kernels.h"

namespace progidx {

PartialCrack BeginPartialCrack(size_t start, size_t end, value_t pivot) {
  PartialCrack crack;
  crack.pivot = pivot;
  crack.lo = start;
  crack.hi = end > start ? end - 1 : start;
  if (start >= end) {
    crack.done = true;
    crack.boundary = start;
  }
  return crack;
}

size_t AdvancePartialCrack(value_t* data, PartialCrack* crack,
                           size_t max_swaps) {
  if (crack->done) return 0;
  size_t lo = crack->lo;
  size_t hi = crack->hi;
  bool done = false;
  const size_t steps =
      kernels::CrackInPlace(data, &lo, &hi, crack->pivot, max_swaps, &done);
  crack->lo = lo;
  crack->hi = hi;
  if (done) {
    crack->boundary = lo;
    crack->done = true;
  }
  return steps;
}

void ProgressiveStochasticCracking::BudgetedCrackAt(value_t v,
                                                    size_t* swap_budget) {
  if (*swap_budget == 0) return;
  const CrackerColumn::Piece piece = cracker_.PieceFor(v);
  const size_t piece_size = piece.end - piece.start;
  if (piece_size <= min_piece_size_) return;

  // Resume an in-flight partial crack of this piece, if any.
  auto it = partial_.find(piece.start);
  if (it != partial_.end()) {
    PartialCrack& crack = it->second;
    *swap_budget -= AdvancePartialCrack(cracker_.data(), &crack,
                                        *swap_budget);
    if (crack.done) {
      cracker_.AddBoundary(crack.pivot, crack.boundary);
      partial_.erase(it);
    }
    return;
  }

  const size_t pick =
      piece.start + rng_.NextBounded(piece_size);
  const value_t pivot = cracker_.data()[pick];
  if (cracker_.index().contains(pivot)) return;

  if (piece_size <= l2_elements_) {
    // Pieces that fit in L2 are always cracked completely, regardless
    // of the remaining budget (§2.2). The pivot lies in v's piece, so
    // CrackAt cracks that same piece.
    cracker_.CrackAt(pivot);
    const size_t cost = piece_size;
    *swap_budget -= cost < *swap_budget ? cost : *swap_budget;
    return;
  }

  PartialCrack crack = BeginPartialCrack(piece.start, piece.end, pivot);
  *swap_budget -= AdvancePartialCrack(cracker_.data(), &crack,
                                      *swap_budget);
  if (crack.done) {
    cracker_.AddBoundary(pivot, crack.boundary);
  } else {
    partial_[piece.start] = crack;
  }
}

QueryResult ProgressiveStochasticCracking::Query(const RangeQuery& q) {
  cracker_.EnsureMaterialized();
  size_t swap_budget = static_cast<size_t>(
      swap_fraction_ * static_cast<double>(cracker_.size()));
  if (swap_budget == 0) swap_budget = 1;
  BudgetedCrackAt(q.low, &swap_budget);
  BudgetedCrackAt(q.high, &swap_budget);
  return cracker_.Answer(q);
}

}  // namespace progidx
