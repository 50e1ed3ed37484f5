#ifndef PROGIDX_EXEC_BATCH_REFINE_H_
#define PROGIDX_EXEC_BATCH_REFINE_H_

#include <cstddef>
#include <vector>

#include "btree/btree.h"
#include "common/types.h"
#include "exec/shared_scan.h"

namespace progidx {
namespace exec {

/// Consolidation/converged-phase batch answer. Each query's matched
/// region in the tree's sorted leaf array is a leaf run
/// [LowerBound(low), UpperBound(high)). The distinct run endpoints cut
/// the union of the runs into segments; each covered segment is summed
/// once by the dispatched kernel (through PredicatedRangeSum, so a
/// large segment splits across the thread pool), with no per-query
/// predicate — every leaf in a run qualifies. A query's answer is the
/// difference of the segment prefix sums at its run's ends, its count
/// the run's length. Adds into out[0, count) (callers zero-fill).
/// Bit-identical to per-query BPlusTree::RangeSum: sums are exact
/// 64-bit integers, wrapping mod 2^64.
///
/// Returns the number of leaves summed — the size of the runs' union,
/// which prices the batch (docs/batching.md). `pset` and `scratch` go
/// unused; they keep existing callers compiling.
size_t BatchBTreeRangeSum(const BPlusTree& tree, const RangeQuery* qs,
                          size_t count, QueryResult* out, PredicateSet* pset,
                          std::vector<PosRange>* scratch);

}  // namespace exec
}  // namespace progidx

#endif  // PROGIDX_EXEC_BATCH_REFINE_H_
