#include "baselines/standard_cracking.h"

#include <algorithm>
#include <limits>
#include <utility>

namespace progidx {

CrackInThreeResult CrackInThree(value_t* data, size_t start, size_t end,
                                value_t lo_pivot, value_t hi_pivot) {
  PROGIDX_CHECK(lo_pivot <= hi_pivot);
  // Dutch national flag: lt = frontier of the < region, gt = frontier
  // of the >= hi region, i = scan cursor over the unknown middle.
  size_t lt = start;
  size_t gt = end;
  size_t i = start;
  while (i < gt) {
    const value_t v = data[i];
    if (v < lo_pivot) {
      std::swap(data[i], data[lt]);
      lt++;
      i++;
    } else if (v >= hi_pivot) {
      gt--;
      std::swap(data[i], data[gt]);
    } else {
      i++;
    }
  }
  return CrackInThreeResult{lt, gt};
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
    if (cracker_.index().contains(lo)) {
      i++;
      continue;
    }
    // Pair with the next unknown bound when both fall into the same
    // piece: one three-way crack instead of two two-way passes (the
    // classic crack-in-three of Idreos et al. [16]).
    if (i + 1 < scratch_bounds_.size()) {
      const value_t hi = scratch_bounds_[i + 1];
      if (!cracker_.index().contains(hi) &&
          cracker_.PieceFor(lo).start == cracker_.PieceFor(hi).start) {
        const CrackerColumn::Piece piece = cracker_.PieceFor(lo);
        const CrackInThreeResult r =
            CrackInThree(cracker_.data(), piece.start, piece.end, lo, hi);
        cracker_.AddBoundary(lo, r.lo_boundary);
        cracker_.AddBoundary(hi, r.hi_boundary);
        i += 2;
        continue;
      }
    }
    cracker_.CrackAt(lo);
    i++;
  }
}

void StandardCracking::QueryBatch(const RangeQuery* qs, size_t count,
                                  QueryResult* out) {
  if (count == 0) return;
  CrackForBatch(qs, count);
  std::fill(out, out + count, QueryResult{});
  // Piece-aligned covering region per query, merged so overlapping
  // regions — early on, most of the column for every query — are
  // loaded once. A piece outside a query's region cannot hold values
  // in its [low, high], so the shared predicate re-check adds exactly
  // zero there and totals stay bit-identical to the per-query scans.
  scratch_regions_.clear();
  for (size_t i = 0; i < count; i++) {
    const CrackerColumn::Piece cover = cracker_.Cover(qs[i]);
    if (cover.start < cover.end) {
      scratch_regions_.push_back({cover.start, cover.end});
    }
  }
  exec::MergePosRanges(&scratch_regions_);
  pset_.Reset(qs, count);
  for (const exec::PosRange& r : scratch_regions_) {
    pset_.Scan(cracker_.data() + r.begin, r.end - r.begin);
  }
  pset_.AccumulateInto(out);
}

}  // namespace progidx
