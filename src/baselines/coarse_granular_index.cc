#include "baselines/coarse_granular_index.h"

#include <algorithm>
#include <limits>

namespace progidx {

void CoarseGranularIndex::EqualSplit(size_t start, size_t end,
                                     size_t depth) {
  if (depth == 0 || end - start < 2) return;
  value_t* data = cracker_.data();
  // Exact median via nth_element, then a strict crack at that value so
  // the cracker invariant (< key | >= key) holds even with duplicates.
  const size_t mid = start + (end - start) / 2;
  std::nth_element(data + start, data + mid, data + end);
  const value_t median = data[mid];
  const size_t boundary = cracker_.Crack(start, end, median);
  if (boundary > start && boundary < end) {
    cracker_.AddBoundary(median, boundary);
    EqualSplit(start, boundary, depth - 1);
    EqualSplit(boundary, end, depth - 1);
  }
}

QueryResult CoarseGranularIndex::Query(const RangeQuery& q) {
  if (!initialized_) {
    cracker_.EnsureMaterialized();
    size_t depth = 0;
    while ((size_t{1} << depth) < partitions_) depth++;
    EqualSplit(0, cracker_.size(), depth);
    initialized_ = true;
  }
  cracker_.CrackAt(q.low);
  if (q.high != std::numeric_limits<value_t>::max()) {
    cracker_.CrackAt(q.high + 1);
  }
  return cracker_.Answer(q);
}

}  // namespace progidx
