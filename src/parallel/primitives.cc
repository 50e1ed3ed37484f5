#include "parallel/primitives.h"

#include <cstring>
#include <vector>

#include "kernels/kernels.h"

namespace progidx {
namespace parallel {
namespace {

/// Histograms and flat scatters chunk coarser than scans: each chunk
/// carries a private bucket table (so fewer, bigger chunks bound the
/// table memory), and a flat-scatter chunk must stay big enough that
/// the kernel's write-combining + streaming-store path still engages
/// per chunk (kWcStreamMinBytes = 4 MiB).
constexpr size_t kHistogramChunk = size_t{1} << 16;
constexpr size_t kFlatScatterChunk = size_t{1} << 19;

/// Bucket tables beyond this stay serial (per-chunk tables would dwarf
/// the data); every caller in the tree uses 64 or 256 buckets.
constexpr uint32_t kMaxParallelMask = 1023;

size_t ChunkCount(size_t n, size_t chunk) { return (n + chunk - 1) / chunk; }

}  // namespace

size_t PlannedLanes(size_t n) {
  if (n < kMinParallelElements) return 1;
  return EffectiveLanes();
}

QueryResult RangeSumPredicatedWithLanes(const value_t* data, size_t n,
                                        const RangeQuery& q, size_t lanes) {
  const kernels::KernelOps& ops = kernels::Dispatch();
  if (lanes <= 1 || n < kMinParallelElements) {
    return ops.range_sum_predicated(data, n, q);
  }
  const size_t chunks = ChunkCount(n, kScanGrain);
  // Reused scratch. The raw pointer is hoisted deliberately: a lambda
  // does not capture thread_local storage, it re-resolves it on
  // whichever thread runs — which on a pool worker is a different
  // (empty) vector.
  static thread_local std::vector<QueryResult> partials_store;
  if (partials_store.size() < chunks) partials_store.resize(chunks);
  QueryResult* const partials = partials_store.data();
  ParallelFor(0, n, kScanGrain, lanes, [&](size_t b, size_t e) {
    partials[b / kScanGrain] = ops.range_sum_predicated(data + b, e - b, q);
  });
  // Partials combine exactly: sums are associative mod 2^64, counts are
  // integers — bit-identical to the serial scan for any chunking.
  uint64_t sum = 0;
  int64_t count = 0;
  for (size_t c = 0; c < chunks; c++) {
    sum += static_cast<uint64_t>(partials[c].sum);
    count += partials[c].count;
  }
  return {static_cast<int64_t>(sum), count};
}

QueryResult RangeSumPredicated(const value_t* data, size_t n,
                               const RangeQuery& q) {
  return RangeSumPredicatedWithLanes(data, n, q, PlannedLanes(n));
}

void RadixHistogram(const value_t* src, size_t n, value_t base, int shift,
                    uint32_t mask, uint64_t* counts, size_t lanes) {
  const kernels::KernelOps& ops = kernels::Dispatch();
  if (lanes == 0) lanes = PlannedLanes(n);
  if (lanes <= 1 || mask > kMaxParallelMask) {
    ops.radix_histogram(src, n, base, shift, mask, counts);
    return;
  }
  const size_t buckets = static_cast<size_t>(mask) + 1;
  const size_t chunks = ChunkCount(n, kHistogramChunk);
  std::vector<uint64_t> tables(chunks * buckets, 0);
  ParallelFor(0, n, kHistogramChunk, lanes, [&](size_t b, size_t e) {
    ops.radix_histogram(src + b, e - b, base, shift, mask,
                        tables.data() + (b / kHistogramChunk) * buckets);
  });
  for (size_t c = 0; c < chunks; c++) {
    const uint64_t* t = tables.data() + c * buckets;
    for (size_t d = 0; d < buckets; d++) counts[d] += t[d];
  }
}

void RadixScatter(const value_t* src, size_t n, value_t base, int shift,
                  uint32_t mask, value_t* dst, size_t* offsets,
                  size_t lanes) {
  const kernels::KernelOps& ops = kernels::Dispatch();
  if (lanes == 0) lanes = PlannedLanes(n);
  if (lanes <= 1 || mask > kMaxParallelMask || n < 2 * kFlatScatterChunk) {
    ops.radix_scatter(src, n, base, shift, mask, dst, offsets);
    return;
  }
  const size_t buckets = static_cast<size_t>(mask) + 1;
  const size_t chunks = ChunkCount(n, kFlatScatterChunk);
  // Pass 1: per-chunk histograms.
  std::vector<uint64_t> tables(chunks * buckets, 0);
  ParallelFor(0, n, kFlatScatterChunk, lanes, [&](size_t b, size_t e) {
    ops.radix_histogram(src + b, e - b, base, shift, mask,
                        tables.data() + (b / kFlatScatterChunk) * buckets);
  });
  // Prefix sums over (chunk, bucket): chunk c's bucket-d run starts at
  // offsets[d] + sum of earlier chunks' d-counts — the same positions
  // the serial stable scatter writes, so the output is bit-identical.
  std::vector<size_t> chunk_offsets(chunks * buckets);
  for (size_t d = 0; d < buckets; d++) {
    size_t pos = offsets[d];
    for (size_t c = 0; c < chunks; c++) {
      chunk_offsets[c * buckets + d] = pos;
      pos += static_cast<size_t>(tables[c * buckets + d]);
    }
    offsets[d] = pos;
  }
  // Pass 2: chunks scatter concurrently into their disjoint slices
  // (each chunk is big enough that the kernel's WC/streaming path still
  // engages).
  ParallelFor(0, n, kFlatScatterChunk, lanes, [&](size_t b, size_t e) {
    ops.radix_scatter(src + b, e - b, base, shift, mask, dst,
                      chunk_offsets.data() + (b / kFlatScatterChunk) * buckets);
  });
}

void RadixSortFlat(value_t* data, value_t* scratch, size_t n, value_t min_v,
                   value_t max_v) {
  if (PlannedLanes(n) <= 1) {
    kernels::RadixSortFlat(data, scratch, n, min_v, max_v);
    return;
  }
  kernels::RadixSortFlatWith(
      data, scratch, n, min_v, max_v,
      [](const value_t* src, size_t len, value_t base, int shift,
         uint32_t mask, uint64_t* counts) {
        RadixHistogram(src, len, base, shift, mask, counts);
      },
      [](const value_t* src, size_t len, value_t base, int shift,
         uint32_t mask, value_t* dst, size_t* offsets) {
        RadixScatter(src, len, base, shift, mask, dst, offsets);
      });
}

size_t CopyRunsTo(const SrcRun* runs, size_t num_runs, value_t* dst) {
  size_t total = 0;
  for (size_t r = 0; r < num_runs; r++) total += runs[r].len;
  const size_t lanes = PlannedLanes(total);
  if (lanes <= 1 || num_runs <= 1) {
    size_t off = 0;
    for (size_t r = 0; r < num_runs; r++) {
      std::memcpy(dst + off, runs[r].data, runs[r].len * sizeof(value_t));
      off += runs[r].len;
    }
    return total;
  }
  std::vector<size_t> run_off(num_runs);
  size_t acc = 0;
  for (size_t r = 0; r < num_runs; r++) {
    run_off[r] = acc;
    acc += runs[r].len;
  }
  // Whole runs per chunk (a run is at most one chain block, a few tens
  // of KiB): each chunk memcpys into its precomputed disjoint slice.
  ParallelFor(0, num_runs, 4, lanes, [&](size_t rb, size_t re) {
    for (size_t r = rb; r < re; r++) {
      std::memcpy(dst + run_off[r], runs[r].data,
                  runs[r].len * sizeof(value_t));
    }
  });
  return total;
}

void StridedGather(const value_t* src, size_t start, size_t stride,
                   size_t count, value_t* dst) {
  if (stride == 0 || count == 0) return;
  const size_t lanes = PlannedLanes(count);
  if (lanes <= 1) {
    for (size_t j = 0; j < count; j++) dst[j] = src[start + j * stride];
    return;
  }
  ParallelFor(0, count, kScanGrain, lanes, [&](size_t b, size_t e) {
    for (size_t j = b; j < e; j++) dst[j] = src[start + j * stride];
  });
}

}  // namespace parallel
}  // namespace progidx
