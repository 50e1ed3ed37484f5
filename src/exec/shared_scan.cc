#include "exec/shared_scan.h"

#include <algorithm>
#include <limits>

#include "common/predication.h"
#include "kernels/kernels.h"
#include "parallel/primitives.h"
#include "parallel/thread_pool.h"

namespace progidx {
namespace exec {
namespace {

/// Order-preserving map of value_t into uint64_t, so that q.high + 1
/// can be formed without signed overflow at the top of the domain.
inline uint64_t MapValue(value_t v) {
  return static_cast<uint64_t>(v) ^ (uint64_t{1} << 63);
}

/// Count of bounds[0, n) that are <= u, as a branchless halving search:
/// the bounds array is small (at most 2N entries, L1-resident), so the
/// per-element cost of the interval regime is a handful of conditional
/// moves instead of a data-dependent branch per probe.
inline size_t CountLessEq(const uint64_t* bounds, size_t n, uint64_t u) {
  size_t low = 0;
  while (n > 1) {
    const size_t half = n / 2;
    low += (bounds[low + half - 1] <= u) ? half : 0;
    n -= half;
  }
  return low + (bounds[low] <= u ? 1 : 0);
}

/// Tile of the tiled-kernel regime: 2048 elements = 16 KiB, half the
/// typical L1, so a tile loaded by the first predicate's kernel pass
/// stays cache-hot for the remaining N - 1 passes.
constexpr size_t kTileElements = size_t{1} << 11;

/// Chunk geometry of the parallel shared scan. Wider than kScanGrain:
/// each chunk owns a private accumulator table, and a bigger grain
/// keeps the table count (and the serial merge) small.
constexpr size_t kSharedScanGrain = size_t{1} << 16;

}  // namespace

size_t CollectChainRuns(const BucketChain& chain, BucketChain::Cursor* cursor,
                        size_t budget, std::vector<parallel::SrcRun>* out) {
  size_t collected = 0;
  while (collected < budget && !chain.AtEnd(*cursor)) {
    const value_t* run = nullptr;
    const size_t len =
        std::min(chain.ContiguousRun(*cursor, &run), budget - collected);
    out->push_back({run, len});
    chain.Advance(cursor, len);
    collected += len;
  }
  return collected;
}

void MergePosRanges(std::vector<PosRange>* ranges) {
  if (ranges->size() <= 1) return;
  std::sort(ranges->begin(), ranges->end(),
            [](const PosRange& a, const PosRange& b) {
              return a.begin < b.begin;
            });
  size_t out = 0;
  for (size_t i = 1; i < ranges->size(); i++) {
    PosRange& last = (*ranges)[out];
    const PosRange& cur = (*ranges)[i];
    if (cur.begin <= last.end) {
      last.end = std::max(last.end, cur.end);
    } else {
      (*ranges)[++out] = cur;
    }
  }
  ranges->resize(out + 1);
}

void PredicateSet::Reset(const RangeQuery* qs, size_t count) {
  query_count_ = count;
  scanned_ = 0;
  bounds_.clear();
  spans_.clear();
  open_top_ = false;
  queries_.assign(qs, qs + count);
  if (count == 0) return;
  if (count == 1) single_ = qs[0];
  tiled_ = count <= kTiledBatchMax;
  if (tiled_) {
    // Per-query accumulators; no interval index to build.
    sums_.assign(count, 0);
    counts_.assign(count, 0);
    return;
  }
  constexpr value_t kTop = std::numeric_limits<value_t>::max();
  bounds_.reserve(2 * count);
  for (size_t i = 0; i < count; i++) {
    bounds_.push_back(MapValue(qs[i].low));
    if (qs[i].high != kTop) {
      bounds_.push_back(MapValue(qs[i].high) + 1);
    } else {
      open_top_ = true;
    }
  }
  std::sort(bounds_.begin(), bounds_.end());
  bounds_.erase(std::unique(bounds_.begin(), bounds_.end()), bounds_.end());
  spans_.reserve(count);
  for (size_t i = 0; i < count; i++) {
    const uint32_t first = static_cast<uint32_t>(
        std::lower_bound(bounds_.begin(), bounds_.end(),
                         MapValue(qs[i].low)) -
        bounds_.begin());
    const uint32_t end =
        qs[i].high == kTop
            ? static_cast<uint32_t>(bounds_.size())
            : static_cast<uint32_t>(
                  std::lower_bound(bounds_.begin(), bounds_.end(),
                                   MapValue(qs[i].high) + 1) -
                  bounds_.begin());
    spans_.emplace_back(first, end);
  }
  sums_.assign(bounds_.size(), 0);
  counts_.assign(bounds_.size(), 0);
}

void PredicateSet::ScanSerialInto(const value_t* data, size_t n,
                                  uint64_t* sums, int64_t* counts) const {
  const uint64_t* bounds = bounds_.data();
  const size_t nb = bounds_.size();
  const uint64_t lo = bounds[0];
  const uint64_t hi = bounds[nb - 1];
  const bool open_top = open_top_;
  for (size_t i = 0; i < n; i++) {
    const value_t v = data[i];
    const uint64_t u = MapValue(v);
    if (u < lo) continue;
    if (u >= hi && !open_top) continue;
    const size_t idx = CountLessEq(bounds, nb, u) - 1;
    sums[idx] += static_cast<uint64_t>(v);
    counts[idx] += 1;
  }
}

void PredicateSet::ScanTiledInto(const value_t* data, size_t n,
                                 uint64_t* sums, int64_t* counts) const {
  const kernels::KernelOps& ops = kernels::Dispatch();
  const size_t nq = query_count_;
  for (size_t t = 0; t < n; t += kTileElements) {
    const size_t len = std::min(kTileElements, n - t);
    for (size_t qi = 0; qi < nq; qi++) {
      const QueryResult part =
          ops.range_sum_predicated(data + t, len, queries_[qi]);
      sums[qi] += static_cast<uint64_t>(part.sum);
      counts[qi] += part.count;
    }
  }
}

void PredicateSet::ScanRunsInto(const parallel::SrcRun* runs, size_t begin,
                                size_t end, uint64_t* sums,
                                int64_t* counts) const {
  for (size_t i = begin; i < end; i++) {
    if (tiled_) {
      ScanTiledInto(runs[i].data, runs[i].len, sums, counts);
    } else {
      ScanSerialInto(runs[i].data, runs[i].len, sums, counts);
    }
  }
}

void PredicateSet::Scan(const value_t* data, size_t n) {
  if (n == 0 || query_count_ == 0) return;
  if (query_count_ == 1) {
    // Single predicate: the dispatched (vectorized, thread-tiled)
    // kernel is both fastest and bit-identical to the per-index
    // single-query scan paths.
    scanned_ += n;
    const QueryResult r = PredicatedRangeSum(data, n, single_);
    sums_[0] += static_cast<uint64_t>(r.sum);
    counts_[0] += r.count;
    return;
  }
  // Cut [0, n) into kSharedScanGrain runs: ScanRuns groups each into a
  // span of its own, so the chunks and their merge order are the
  // fixed-geometry ones of a chunked scan.
  scratch_runs_.clear();
  for (size_t b = 0; b < n; b += kSharedScanGrain) {
    scratch_runs_.push_back({data + b, std::min(kSharedScanGrain, n - b)});
  }
  ScanRuns(scratch_runs_.data(), scratch_runs_.size());
}

void PredicateSet::ScanRuns(const parallel::SrcRun* runs, size_t count) {
  if (query_count_ == 0) return;
  size_t total = 0;
  for (size_t i = 0; i < count; i++) total += runs[i].len;
  if (total == 0) return;
  scanned_ += total;
  if (query_count_ == 1) {
    // Single predicate: the dispatched kernel per run, exactly like the
    // per-query block-wise chain scans (integer sums make the run split
    // irrelevant to the totals).
    QueryResult part;
    for (size_t i = 0; i < count; i++) {
      if (runs[i].len == 0) continue;
      part += PredicatedRangeSum(runs[i].data, runs[i].len, single_);
    }
    sums_[0] += static_cast<uint64_t>(part.sum);
    counts_[0] += part.count;
    return;
  }
  const size_t stride = tiled_ ? query_count_ : bounds_.size();
  const size_t lanes = parallel::PlannedLanes(total);
  if (lanes <= 1 || total <= kSharedScanGrain) {
    ScanRunsInto(runs, 0, count, sums_.data(), counts_.data());
    return;
  }
  // Parallel run-list scan: whole runs group into spans of at least
  // kSharedScanGrain elements; each span accumulates into a private
  // table, merged in span order. Span boundaries depend only on the
  // run list, never the lane count, and integer partials add exactly,
  // so the totals are bit-identical to the serial walk for every T.
  scratch_span_starts_.clear();
  size_t acc = 0;
  for (size_t i = 0; i < count; i++) {
    if (acc == 0) scratch_span_starts_.push_back(i);
    acc += runs[i].len;
    if (acc >= kSharedScanGrain) acc = 0;
  }
  const size_t spans = scratch_span_starts_.size();
  scratch_sums_.assign(spans * stride, 0);
  scratch_counts_.assign(spans * stride, 0);
  parallel::ParallelFor(
      0, spans, 1, std::min(lanes, spans), [&](size_t b, size_t e) {
        for (size_t s = b; s < e; s++) {
          ScanRunsInto(runs, scratch_span_starts_[s],
                       s + 1 < spans ? scratch_span_starts_[s + 1] : count,
                       scratch_sums_.data() + s * stride,
                       scratch_counts_.data() + s * stride);
        }
      });
  for (size_t s = 0; s < spans; s++) {
    const uint64_t* ps = scratch_sums_.data() + s * stride;
    const int64_t* pc = scratch_counts_.data() + s * stride;
    for (size_t k = 0; k < stride; k++) {
      sums_[k] += ps[k];
      counts_[k] += pc[k];
    }
  }
}

void PredicateSet::AccumulateInto(QueryResult* out) const {
  if (tiled_) {
    for (size_t i = 0; i < query_count_; i++) {
      out[i] += {static_cast<int64_t>(sums_[i]), counts_[i]};
    }
    return;
  }
  for (size_t i = 0; i < query_count_; i++) {
    const auto [first, end] = spans_[i];
    uint64_t sum = 0;
    int64_t count = 0;
    for (uint32_t k = first; k < end; k++) {
      sum += sums_[k];
      count += counts_[k];
    }
    out[i] += {static_cast<int64_t>(sum), count};
  }
}

}  // namespace exec
}  // namespace progidx
