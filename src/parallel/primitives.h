#ifndef PROGIDX_PARALLEL_PRIMITIVES_H_
#define PROGIDX_PARALLEL_PRIMITIVES_H_

#include <cstddef>
#include <cstdint>
#include <cstring>
#include <memory>

#include "common/types.h"
#include "kernels/kernels.h"
#include "parallel/thread_pool.h"
#include "storage/bucket_chain.h"

// Parallel composite primitives layered on the single-threaded kernel
// tiers (kernels/kernels.h): each one splits its input into chunks,
// runs the *dispatched* kernel per chunk on the pool, and recombines
// deterministically. Results are bit-identical to the serial kernel for
// every lane count — sums are exact mod 2^64, and scatter, copy and
// gather chunks land in precomputed disjoint output slices — so the
// progressive indexes can split a per-query indexing budget across
// workers without their state ever depending on the thread count (the
// parity tests in tests/parallel_test.cc enforce exactly this for T in
// {1, 2, 4, 8}). Only paths that measured faster on real cores are
// here; the two-sided partition and the bucket-chain appends stay
// serial (docs/parallel.md).
//
// Every primitive falls back to the serial kernel below a size
// threshold (or when only one lane is configured), so small budgeted
// slices never pay fork/join overhead.

namespace progidx {
namespace parallel {

/// Inputs below this element count stay on the serial kernels. It is
/// a floor, not the break-even: a 32 Ki-element scan takes ~5-7 us on
/// one lane and ~9-16 us on two to four (the `lanes` rows of
/// BENCH_kernels.json, 4-vCPU Xeon), and scans lose at four lanes up
/// to ~128 Ki elements.
constexpr size_t kMinParallelElements = size_t{1} << 15;

/// Fixed chunk geometry. Chunk boundaries never depend on the lane
/// count (lanes only claim chunks), which is what makes every
/// recombination bit-deterministic across T.
constexpr size_t kScanGrain = size_t{1} << 14;

/// Lanes a primitive will actually use for an input of `n` elements
/// (1 when the serial fast path applies). The cost model prices a
/// query's threaded work units with this, so predictions track what
/// execution really does.
size_t PlannedLanes(size_t n);

/// Tiled parallel SUM + COUNT of values in [q.low, q.high]: each chunk
/// reduces through the dispatched kernel; partials add exactly
/// (mod 2^64), so the total is bit-identical to the serial scan.
QueryResult RangeSumPredicated(const value_t* data, size_t n,
                               const RangeQuery& q);

/// RangeSumPredicated pinned to a lane count (calibration and the
/// thread-sweep benchmark).
QueryResult RangeSumPredicatedWithLanes(const value_t* data, size_t n,
                                        const RangeQuery& q, size_t lanes);

/// The serial two-sided partition (kernels/kernels.h) under the name
/// perfbench's layer probe calls; nothing in src/ uses it. Delete once
/// that call names kernels::PartitionTwoSided (ROADMAP item 3).
using kernels::PartitionTwoSided;

/// Parallel radix histogram: per-chunk private tables, summed in chunk
/// order. `counts` is added to, not reset (serial contract). `lanes` =
/// 0 means the effective lane count.
void RadixHistogram(const value_t* src, size_t n, value_t base, int shift,
                    uint32_t mask, uint64_t* counts, size_t lanes = 0);

/// Parallel stable radix scatter: two-pass (per-chunk histogram +
/// prefix sums give every (chunk, bucket) pair a disjoint dst slice,
/// then chunks scatter concurrently). Output and final `offsets` are
/// bit-identical to the serial stable scatter. `lanes` = 0 means the
/// effective lane count.
void RadixScatter(const value_t* src, size_t n, value_t base, int shift,
                  uint32_t mask, value_t* dst, size_t* offsets,
                  size_t lanes = 0);

/// Stable LSD radix sort built on the parallel histogram/scatter passes
/// (kernels::RadixSortFlat with the passes parallelized); same
/// contract, bit-identical output.
void RadixSortFlat(value_t* data, value_t* scratch, size_t n, value_t min_v,
                   value_t max_v);

/// A contiguous source slice: `len` elements at `data`. The run-list
/// copy below consumes lists of them (the budgeted bucket drains hand
/// over block runs from BucketChain cursors, gathered by
/// exec::CollectChainRuns), and so does the batch
/// executor's PredicateSet::ScanRuns — bucket-chain block runs,
/// cracked pieces, B+-tree leaf runs scanned as one logical sequence.
struct SrcRun {
  const value_t* data = nullptr;
  size_t len = 0;
};

/// The serial radix chain scatter (storage/bucket_chain.h) under the
/// name perfbench's layer probe calls; nothing in src/ uses it. Delete
/// once that call names progidx::ScatterToChains (ROADMAP item 3).
using progidx::ScatterToChains;

/// ScatterToChainsBatched with the id lookup — the part that pays on
/// the pool — resolved in parallel chunks: `fill_ids(batch, len, ids)`
/// must be callable concurrently on disjoint batches (Progressive
/// Bucketsort's branch-free equi-height lookup is). The appends then
/// run the serial WC-staged scatter over the resolved ids on the
/// calling thread, so the chains are bit-identical to the serial
/// scatter's for every lane count. Below the lane gate it is the
/// serial scatter.
template <typename FillIds>
void ScatterToChainsBatched(FillIds&& fill_ids, const value_t* src, size_t n,
                            BucketChain* chains, size_t num_chains) {
  const size_t lanes = PlannedLanes(n);
  if (lanes <= 1 || num_chains == 0) {
    progidx::ScatterToChainsBatched(fill_ids, src, n, chains, num_chains);
    return;
  }
  const std::unique_ptr<uint32_t[]> ids =
      std::make_unique_for_overwrite<uint32_t[]>(n);
  ParallelFor(0, n, kScanGrain, lanes, [&](size_t b, size_t e) {
    fill_ids(src + b, e - b, ids.get() + b);
  });
  progidx::ScatterToChainsBatched(
      [&](const value_t* batch, size_t len, uint32_t* out) {
        std::memcpy(out, ids.get() + (batch - src), len * sizeof(uint32_t));
      },
      src, n, chains, num_chains);
}

/// Lays runs[0], runs[1], ... end-to-end at `dst` (block memcpys) and
/// returns the total elements copied. Large totals split across the
/// pool by whole runs — every run's destination offset is the prefix
/// sum of the lengths before it, so chunks write disjoint slices and
/// the result is bit-identical to the serial copy for every lane
/// count. The LSD merge and bucketsort fill drains feed their chain
/// block runs through this.
size_t CopyRunsTo(const SrcRun* runs, size_t num_runs, value_t* dst);

/// dst[j] = src[start + j * stride] for j in [0, count): the strided
/// gather of the progressive B+-tree consolidation build (every
/// fanout-th key of a level). Splits across the pool above the
/// parallel threshold; trivially deterministic (disjoint dst slots).
void StridedGather(const value_t* src, size_t start, size_t stride,
                   size_t count, value_t* dst);

}  // namespace parallel
}  // namespace progidx

#endif  // PROGIDX_PARALLEL_PRIMITIVES_H_
