#include "common/predication.h"

#include <algorithm>

#include "kernels/kernels.h"
#include "parallel/primitives.h"

namespace progidx {

QueryResult PredicatedRangeSum(const value_t* data, size_t n,
                               const RangeQuery& q) {
  // Large scans split across the thread pool (tiled reduction over the
  // dispatched kernel, bit-identical for every lane count); small ones
  // go straight to the kernel. This one seam threads the full-scan
  // baseline, every unrefined-region scan inside the progressive
  // indexes, and the cracking baselines' piece scans.
  return parallel::RangeSumPredicated(data, n, q);
}

QueryResult SortedRangeSum(const value_t* data, size_t n,
                           const RangeQuery& q) {
  const value_t* lo = std::lower_bound(data, data + n, q.low);
  const value_t* hi = std::upper_bound(lo, data + n, q.high);
  // Every element of [lo, hi) qualifies, so the predicated kernel over
  // the slice returns exactly its sum — vectorized, unlike a naive
  // accumulate loop.
  return kernels::Dispatch().range_sum_predicated(
      lo, static_cast<size_t>(hi - lo), q);
}

}  // namespace progidx
