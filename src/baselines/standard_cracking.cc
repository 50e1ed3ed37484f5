#include "baselines/standard_cracking.h"

#include <algorithm>
#include <limits>

#include "baselines/cracking_kernels.h"

namespace progidx {

void StandardCracking::CrackAt(value_t v) {
  if (cracker_.index().Contains(v)) return;
  const AvlTree::Piece piece = cracker_.PieceFor(v);
  const size_t boundary =
      CrackInTwoPredicated(cracker_.data(), piece.start, piece.end, v);
  cracker_.index().Insert(v, boundary);
}

QueryResult StandardCracking::Query(const RangeQuery& q) {
  QueryResult r;
  QueryBatch(&q, 1, &r);
  return r;
}

void StandardCracking::CrackForBatch(const RangeQuery* qs, size_t count) {
  cracker_.EnsureMaterialized();
  constexpr value_t kTop = std::numeric_limits<value_t>::max();
  // Every member's crack targets: q.low and, unless saturated, the
  // exclusive upper bound q.high + 1 — the same two values the
  // sequential stream would have cracked on, for every query instead
  // of just the head.
  scratch_bounds_.clear();
  for (size_t i = 0; i < count; i++) {
    scratch_bounds_.push_back(qs[i].low);
    if (qs[i].high != kTop) scratch_bounds_.push_back(qs[i].high + 1);
  }
  // Ascending (order-preserving mapped) bound order makes the
  // multi-pivot crack deterministic in the batch's query order, and
  // means each crack's piece lookup lands in the already-narrowed
  // upper remainder.
  std::sort(scratch_bounds_.begin(), scratch_bounds_.end());
  scratch_bounds_.erase(
      std::unique(scratch_bounds_.begin(), scratch_bounds_.end()),
      scratch_bounds_.end());
  for (size_t i = 0; i < scratch_bounds_.size();) {
    const value_t lo = scratch_bounds_[i];
    if (cracker_.index().Contains(lo)) {
      i++;
      continue;
    }
    // Pair with the next unknown bound when both fall into the same
    // piece: one three-way crack instead of two two-way passes (the
    // classic crack-in-three of Idreos et al. [16]).
    if (i + 1 < scratch_bounds_.size()) {
      const value_t hi = scratch_bounds_[i + 1];
      if (!cracker_.index().Contains(hi) &&
          cracker_.PieceFor(lo).start == cracker_.PieceFor(hi).start) {
        const AvlTree::Piece piece = cracker_.PieceFor(lo);
        const CrackInThreeResult r =
            CrackInThree(cracker_.data(), piece.start, piece.end, lo, hi);
        cracker_.index().Insert(lo, r.lo_boundary);
        cracker_.index().Insert(hi, r.hi_boundary);
        i += 2;
        continue;
      }
    }
    CrackAt(lo);
    i++;
  }
}

void StandardCracking::QueryBatch(const RangeQuery* qs, size_t count,
                                  QueryResult* out) {
  if (count == 0) return;
  CrackForBatch(qs, count);
  std::fill(out, out + count, QueryResult{});
  const size_t n = cracker_.size();
  // Piece-aligned covering region per query, merged so overlapping
  // regions — early on, most of the column for every query — are
  // loaded once. A piece outside a query's region cannot hold values
  // in its [low, high], so the shared predicate re-check adds exactly
  // zero there and totals stay bit-identical to the per-query scans.
  scratch_regions_.clear();
  for (size_t i = 0; i < count; i++) {
    const size_t start = cracker_.index().LowerPos(qs[i].low);
    const size_t end = cracker_.index().UpperPos(qs[i].high, n);
    if (start < end) scratch_regions_.push_back({start, end});
  }
  exec::MergePosRanges(&scratch_regions_);
  pset_.Reset(qs, count);
  for (const exec::PosRange& r : scratch_regions_) {
    pset_.Scan(cracker_.data() + r.begin, r.end - r.begin);
  }
  pset_.AccumulateInto(out);
}

}  // namespace progidx
