#ifndef PROGIDX_EXEC_SHARED_SCAN_H_
#define PROGIDX_EXEC_SHARED_SCAN_H_

#include <cstddef>
#include <cstdint>
#include <vector>

#include "common/types.h"
#include "parallel/primitives.h"
#include "storage/bucket_chain.h"

namespace progidx {
namespace exec {

/// A half-open range of array positions [begin, end) that a batch must
/// scan. Produced per query (pivot-tree ranges, cracker pieces, ...),
/// merged with MergePosRanges so overlapping regions are loaded once.
struct PosRange {
  size_t begin = 0;
  size_t end = 0;
};

/// Sorts `ranges` by begin and coalesces overlapping or adjacent
/// entries in place. Scanning the merged list visits every position of
/// the input list exactly once.
void MergePosRanges(std::vector<PosRange>* ranges);

/// Appends `chain`'s contiguous block runs from `*cursor` onward onto
/// `out` (append order, like the per-query chain scans) — at most
/// `budget` elements, the last run clipped to fit — and advances
/// `*cursor` past them. Returns the elements appended.
size_t CollectChainRuns(const BucketChain& chain, BucketChain::Cursor* cursor,
                        size_t budget, std::vector<parallel::SrcRun>* out);
/// All of `chain` from `cursor` (default: the whole chain).
inline void CollectChainRuns(const BucketChain& chain,
                             BucketChain::Cursor cursor,
                             std::vector<parallel::SrcRun>* out) {
  CollectChainRuns(chain, &cursor, SIZE_MAX, out);
}
inline void CollectChainRuns(const BucketChain& chain,
                             std::vector<parallel::SrcRun>* out) {
  CollectChainRuns(chain, BucketChain::Cursor{}, out);
}

/// The shared-scan heart of the batch executor (src/exec/): N range
/// predicates serviced by one pass over unrefined data, so every cache
/// line is loaded once no matter how many queries it matches.
///
/// Two regimes, picked per batch:
///
///  * Small/medium batches (N <= kTiledBatchMax) tile the data into
///    L1-resident blocks and run the dispatched vector kernel once per
///    predicate per tile: one load of the bytes from memory, N cheap
///    in-cache SIMD passes. Integer sums make every tile split exact,
///    so the per-query totals are bit-identical to N independent
///    full-speed scans.
///  * Large batches switch to an elementary-interval index: the 2N
///    predicate endpoints split the value domain into at most 2N + 1
///    intervals, each with one SUM/COUNT accumulator, and a query's
///    answer is the accumulator total over the O(N) consecutive
///    intervals its [low, high] covers. A scanned element then costs
///    one branchless binary search over the L1-resident bounds
///    (O(log N)) instead of N predicate checks — the regime where
///    per-element work must stop growing with the batch.
///
/// Determinism: accumulators are exact 64-bit integers, so any scan
/// order (including the chunked parallel split) produces bit-identical
/// totals. With a single predicate, Scan degenerates to the dispatched
/// PredicatedRangeSum kernel, so a single query — a batch of one —
/// scans at the plain kernel's speed.
class PredicateSet {
 public:
  PredicateSet() = default;

  /// Rebuilds the interval index for qs[0, count) and clears the
  /// accumulators. Scratch capacity is reused across calls.
  void Reset(const RangeQuery* qs, size_t count);

  size_t query_count() const { return query_count_; }
  bool empty() const { return query_count_ == 0; }

  /// Accumulates data[0, n) into the elementary-interval accumulators:
  /// one shared pass, every predicate serviced. Large inputs split
  /// across the thread pool in fixed-geometry chunks whose integer
  /// partials merge exactly, so results never depend on the lane count.
  /// May be called many times between Reset and AccumulateInto (once
  /// per unrefined region).
  void Scan(const value_t* data, size_t n);

  /// Scans runs[0, count) as one logical sequence: every block is
  /// loaded once and serves all predicates — the refinement-phase
  /// counterpart of Scan for data that lives in discontiguous blocks
  /// (bucket-chain runs, cracked pieces). Large run
  /// lists split across the thread pool by whole runs, grouped into
  /// fixed-geometry spans whose integer partials merge exactly, so the
  /// totals are bit-identical to the serial walk at any lane count.
  void ScanRuns(const parallel::SrcRun* runs, size_t count);

  /// Adds each query's share of everything scanned since Reset into
  /// out[0, query_count()). Does not clear the accumulators.
  void AccumulateInto(QueryResult* out) const;

  /// Elements accumulated since Reset (the shared-scan volume; feeds
  /// the batch stats and the cost-model comparison in the bench).
  size_t scanned_elements() const { return scanned_; }

  /// Interval bounds currently indexed (0 in the tiled-kernel regime,
  /// which needs no interval index; for tests and the cost model's
  /// log2(bounds) lookup term).
  size_t bound_count() const { return bounds_.size(); }

  /// Batches up to this size take the tiled-kernel path; beyond it the
  /// interval index wins (N in-cache SIMD passes vs one O(log N)
  /// search per element).
  static constexpr size_t kTiledBatchMax = 48;

 private:
  void ScanSerialInto(const value_t* data, size_t n, uint64_t* sums,
                      int64_t* counts) const;
  void ScanTiledInto(const value_t* data, size_t n, uint64_t* sums,
                     int64_t* counts) const;
  /// runs[begin, end) through the regime's per-element routine.
  void ScanRunsInto(const parallel::SrcRun* runs, size_t begin, size_t end,
                    uint64_t* sums, int64_t* counts) const;

  size_t query_count_ = 0;
  RangeQuery single_;  ///< the one predicate when query_count_ == 1
  /// All predicates, for the tiled-kernel regime.
  std::vector<RangeQuery> queries_;
  /// True when accumulators are per *query* (tiled regime) instead of
  /// per elementary interval.
  bool tiled_ = false;
  /// Sorted unique interval starts, in the order-preserving unsigned
  /// image of value_t (u = v XOR 2^63): every q.low and, unless q.high
  /// saturates the domain, every q.high + 1.
  std::vector<uint64_t> bounds_;
  /// True when some q.high == INT64_MAX: the last interval then extends
  /// to the top of the domain instead of being an exclusive end.
  bool open_top_ = false;
  /// Per-query [first, end) span of elementary-interval indexes.
  std::vector<std::pair<uint32_t, uint32_t>> spans_;
  /// Per-interval accumulators (index i covers [bounds_[i],
  /// bounds_[i+1]); the last is live only when open_top_). Sums wrap
  /// mod 2^64, like the kernels'.
  std::vector<uint64_t> sums_;
  std::vector<int64_t> counts_;
  size_t scanned_ = 0;
  /// Per-span partials of the parallel run-list scan (span-major).
  std::vector<uint64_t> scratch_sums_;
  std::vector<int64_t> scratch_counts_;
  /// First-run index of each span of the parallel run-list scan.
  std::vector<size_t> scratch_span_starts_;
  /// Scan's input cut into fixed-size runs for ScanRuns.
  std::vector<parallel::SrcRun> scratch_runs_;
};

}  // namespace exec
}  // namespace progidx

#endif  // PROGIDX_EXEC_SHARED_SCAN_H_
