#include "baselines/adaptive_adaptive.h"

#include <algorithm>
#include <limits>
#include <vector>

namespace progidx {

void AdaptiveAdaptiveIndexing::RangePartition(size_t start, size_t end,
                                              size_t fanout) {
  if (end - start < 2 || fanout < 2) return;
  value_t* data = cracker_.data();
  value_t lo = data[start];
  value_t hi = data[start];
  for (size_t i = start; i < end; i++) {
    lo = std::min(lo, data[i]);
    hi = std::max(hi, data[i]);
  }
  if (lo == hi) return;
  // Equal-width value partition, materialized out of place (AA's
  // radix-partition step with software-managed buffers reduces to this
  // on a value domain). Offsets from lo are uint64_t, which holds a
  // domain spanning all of int64; width = span / fanout + 1 is
  // ceil((span + 1) / fanout) without overflowing, so every bucket id
  // stays below fanout.
  const uint64_t base = static_cast<uint64_t>(lo);
  const uint64_t width = (static_cast<uint64_t>(hi) - base) / fanout + 1;
  std::vector<std::vector<value_t>> parts(fanout);
  const size_t expected = (end - start) / fanout + 1;
  for (auto& part : parts) part.reserve(expected);
  for (size_t i = start; i < end; i++) {
    parts[(static_cast<uint64_t>(data[i]) - base) / width].push_back(data[i]);
  }
  size_t pos = start;
  for (size_t p = 0; p < fanout; p++) {
    // A boundary goes in only with values on both sides of it, so some
    // value's offset is >= p * width: the boundary lies in [lo, hi].
    if (p > 0 && pos > start && pos < end) {
      cracker_.AddBoundary(static_cast<value_t>(base + p * width), pos);
    }
    for (const value_t v : parts[p]) data[pos++] = v;
  }
}

void AdaptiveAdaptiveIndexing::CrackAt(value_t v) {
  if (cracker_.index().contains(v)) return;
  const CrackerColumn::Piece piece = cracker_.PieceFor(v);
  // Eagerly sub-partition large touched pieces (AA invests extra work
  // per query to converge quickly), then crack exactly.
  if (piece.end - piece.start > l2_elements_) {
    RangePartition(piece.start, piece.end, refine_fanout_);
  }
  cracker_.CrackAt(v);
}

QueryResult AdaptiveAdaptiveIndexing::Query(const RangeQuery& q) {
  if (!initialized_) {
    cracker_.EnsureMaterialized();
    RangePartition(0, cracker_.size(), first_fanout_);
    initialized_ = true;
  }
  CrackAt(q.low);
  if (q.high != std::numeric_limits<value_t>::max()) CrackAt(q.high + 1);
  return cracker_.Answer(q);
}

}  // namespace progidx
