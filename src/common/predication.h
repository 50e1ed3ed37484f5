#ifndef PROGIDX_COMMON_PREDICATION_H_
#define PROGIDX_COMMON_PREDICATION_H_

#include <cstddef>

#include "common/types.h"

namespace progidx {

// Branch-free scan kernels in the style of Ross [22] / MonetDB-X100 [3].
// The paper relies on predication for robust, selectivity-independent
// query times ("we avoid branches in the code and use predication");
// these kernels are shared by the full-scan baseline and by every
// progressive/adaptive index when scanning unrefined data.
//
// They are thin wrappers over the runtime-dispatched implementations in
// kernels/kernels.h (AVX-512, AVX2 or cache-blocked scalar, selected by
// CPUID at startup); large predicated scans split across the thread
// pool (parallel/primitives.h). All tiers and lane counts return
// bit-identical results; PROGIDX_FORCE_KERNEL=scalar pins the scalar
// tier for testing.

/// Predicated SUM + COUNT of values in [q.low, q.high] over
/// data[0, n). Cost is independent of selectivity.
QueryResult PredicatedRangeSum(const value_t* data, size_t n,
                               const RangeQuery& q);

/// SUM + COUNT over a *sorted* run: binary-searches the boundaries and
/// accumulates only the qualifying slice.
QueryResult SortedRangeSum(const value_t* data, size_t n,
                           const RangeQuery& q);

}  // namespace progidx

#endif  // PROGIDX_COMMON_PREDICATION_H_
