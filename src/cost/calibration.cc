#include "cost/calibration.h"

#include <algorithm>
#include <limits>
#include <memory>
#include <numeric>
#include <vector>

#include "common/rng.h"
#include "common/timer.h"
#include "common/types.h"
#include "cost/cost_model.h"
#include "exec/shared_scan.h"
#include "kernels/kernels.h"
#include "parallel/primitives.h"
#include "storage/bucket_chain.h"

namespace progidx {
namespace {

constexpr size_t kCalibrationElements = 1ull << 21;  // 16 MiB of int64
constexpr size_t kRandomAccesses = 1ull << 16;
// The compute-bound probes (the batch-lookup walk, the leaf sorts) time
// a 2 MiB slice of the buffer: their per-element cost does not depend
// on the footprint, and on the whole buffer they took most of the
// calibration's time.
constexpr size_t kComputeSliceElements = 1ull << 18;

// A volatile sink keeps the compiler from eliding the measured loops.
volatile int64_t calibration_sink = 0;

// The calibration loops use the *dispatched* query kernels (vectorized
// scans, two-sided pivot partitioning, chain scatters/walks), not
// idealized loops, so that the cost model predicts what Query() really
// pays on this machine's selected kernel tier. If the constants were
// measured against scalar loops while the queries run AVX2, every
// seq_read/swap estimate would be 2-4x too high and the adaptive budget
// controller would over-allocate indexing work per query. This is the
// paper's §4.3 startup measurement.

double MeasureSequentialRead(std::vector<value_t>* buffer) {
  const RangeQuery q{static_cast<value_t>(buffer->size() / 4),
                     static_cast<value_t>(3 * buffer->size() / 4)};
  Timer timer;
  const QueryResult r =
      kernels::RangeSumPredicated(buffer->data(), buffer->size(), q);
  const double secs = timer.ElapsedSeconds();
  calibration_sink = r.sum;
  return secs / static_cast<double>(buffer->size());
}

double MeasureSequentialWrite(std::vector<value_t>* buffer,
                              std::vector<value_t>* dst,
                              double seq_read_secs) {
  // Two-sided pivot partition, exactly the creation-phase inner loop of
  // Progressive Quicksort (dispatched kernel), into a faulted-in
  // destination. The write constant is what remains after the read
  // share.
  const size_t n = buffer->size();
  const value_t pivot = static_cast<value_t>(n / 2);
  Timer timer;
  size_t lo = 0;
  int64_t hi = static_cast<int64_t>(n) - 1;
  kernels::PartitionTwoSided(buffer->data(), n, pivot, dst->data(), &lo, &hi);
  const double secs = timer.ElapsedSeconds();
  calibration_sink = (*dst)[n / 2];
  const double per_element = secs / static_cast<double>(n);
  const double write = per_element - seq_read_secs;
  return write > 0 ? write : per_element / 2;
}

double MeasureRandomAccess() {
  // Pointer-chase so every access depends on the previous one (defeats
  // prefetching and OoO overlap): one Sattolo cycle — a random
  // permutation with a single cycle, so the chase visits every slot
  // once — through kRandomAccesses slots spread over a 16 MiB array,
  // one per stride-sized block. Slot i sits i mod stride elements into
  // its block, so the slots fall on every cache set rather than on the
  // quarter a fixed 256-byte grid would.
  //
  // Allocated after the partition's destination is freed, the array
  // comes from the heap under glibc's dynamic malloc thresholds, and
  // once freed its faulted pages hold the bucket-append probe's chain
  // blocks, as they later hold the indexes' own; under fixed thresholds
  // (perfbench) it is mapped and unmapped, and the chain blocks fault
  // their pages in, as the indexes' do there.
  const size_t stride = kCalibrationElements / kRandomAccesses;
  const auto slot = [stride](size_t i) { return i * stride + i % stride; };
  std::vector<uint32_t> cycle(kRandomAccesses);
  std::iota(cycle.begin(), cycle.end(), 0);
  Rng rng(7);
  for (size_t i = kRandomAccesses - 1; i > 0; i--) {
    std::swap(cycle[i], cycle[rng.NextBounded(i)]);
  }
  std::vector<value_t> data(kCalibrationElements);
  for (size_t i = 0; i < kRandomAccesses; i++) {
    data[slot(i)] = static_cast<value_t>(slot(cycle[i]));
  }
  Timer timer;
  size_t pos = slot(0);
  for (size_t i = 0; i < kRandomAccesses; i++) {
    pos = static_cast<size_t>(data[pos]);
  }
  const double secs = timer.ElapsedSeconds();
  calibration_sink = static_cast<int64_t>(pos);
  return secs / static_cast<double>(kRandomAccesses);
}

double MeasureSwap(std::vector<value_t>* buffer) {
  // In-place crack, mirroring the refinement partitioning work
  // (dispatched kernel: a Bramas-style buffered vector partition on
  // the AVX2/AVX-512 tiers, the unrolled predicated swap loop
  // elsewhere — so swap_secs tracks the 4-9x tier spread instead of
  // assuming the scalar loop).
  value_t* data = buffer->data();
  const size_t n = buffer->size();
  Timer timer;
  size_t lo = 0;
  size_t hi = n - 1;
  bool done = false;
  kernels::CrackInPlace(data, &lo, &hi, static_cast<value_t>(n / 2),
                        std::numeric_limits<size_t>::max(), &done);
  const double secs = timer.ElapsedSeconds();
  calibration_sink = data[n / 2];
  return secs / static_cast<double>(n);
}

double MeasureSortUnitScale(std::vector<value_t>* buffer, size_t l1_elements,
                            double swap_secs) {
  // IncrementalQuicksort charges SortUnits(size) work units per
  // sorted-outright leaf, and the budget controllers price every unit
  // at swap_secs. Measure what one such sort unit really costs —
  // kernels::SortLeaf, the leaf sort the indexes run, over L1-sized
  // chunks of (still effectively random) data — relative to the crack
  // step the constant was measured on. On the avx512 tier the ratio
  // is ~0.7-0.9 (it was ~3.5-5.5 while leaves ran std::sort). The
  // values stay below 2^21, so each chunk takes 3 radix passes; a
  // leaf of a wider column takes more and costs more per unit. The
  // chunks of one slice suffice: each sort runs in L1 whatever the
  // footprint.
  value_t* data = buffer->data();
  const size_t n = kComputeSliceElements;
  const size_t chunk = std::max<size_t>(l1_elements, 2);
  uint64_t units = 0;
  Timer timer;
  for (size_t start = 0; start < n; start += chunk) {
    const size_t size = std::min(chunk, n - start);
    kernels::SortLeaf(data + start, size);
    units += SortUnits(size);
  }
  const double secs = timer.ElapsedSeconds();
  calibration_sink = data[n / 2];
  if (units == 0 || swap_secs <= 0) return 1.0;
  const double per_unit = secs / static_cast<double>(units);
  // A sort visit can't meaningfully be cheaper than a fraction of a
  // crack step; clamp against degenerate clocks.
  return std::max(per_unit / swap_secs, 0.25);
}

double MeasureAllocation() {
  constexpr size_t kAllocs = 4096;
  constexpr size_t kBlockBytes = 1ull << 15;  // a BucketChain block
  Timer timer;
  for (size_t i = 0; i < kAllocs; i++) {
    auto block = std::make_unique<char[]>(kBlockBytes);
    block[0] = static_cast<char>(i);
    calibration_sink = calibration_sink + block[0];
  }
  return timer.ElapsedSeconds() / static_cast<double>(kAllocs);
}

double MeasureBucketAppend(std::vector<value_t>* buffer,
                           std::vector<BucketChain>* chains_out) {
  const size_t n = buffer->size();
  std::vector<BucketChain> chains;
  for (size_t i = 0; i < 64; i++) chains.emplace_back(4096);
  const int shift = 15;  // top 6 bits of the 2^21-element domain
  // The radix bucket-scatter inner loop: vectorized digit extraction +
  // write-combining buffered chain appends (or prefetched per-element
  // appends below the WC threshold). Driven in budget-sized slices,
  // not one big call, because that is how the creation phases run it —
  // each slice pays the WC table init/drain once, and at ~1000-element
  // slices that overhead is a real part of the per-element cost.
  constexpr size_t kSlice = 1024;
  Timer timer;
  for (size_t start = 0; start < n; start += kSlice) {
    ScatterToChains(buffer->data() + start, std::min(kSlice, n - start), 0,
                    shift, 63u, chains.data());
  }
  const double secs = timer.ElapsedSeconds();
  calibration_sink = static_cast<int64_t>(chains[0].size());
  *chains_out = std::move(chains);
  return secs / static_cast<double>(n);
}

void MeasureParallelScanScale(std::vector<value_t>* buffer,
                              MachineConstants* constants) {
  // Parallel-efficiency curve: the tiled parallel range-sum at T lanes
  // vs one lane, on the same buffer the serial constants were measured
  // on. Only thread counts the process can actually field are measured
  // (a 1-lane configuration keeps the flat curve); beyond the measured
  // range the curve saturates at its last point. Best-of-3 per point —
  // the first parallel call also pays pool-spinup, which is not a
  // per-query cost.
  const size_t max_t =
      std::min(parallel::DefaultLanes(), MachineConstants::kMaxThreadScale);
  if (max_t <= 1) return;
  const RangeQuery q{static_cast<value_t>(buffer->size() / 4),
                     static_cast<value_t>(3 * buffer->size() / 4)};
  auto measure = [&](size_t lanes) {
    double best = 1e30;
    for (int rep = 0; rep < 3; rep++) {
      Timer timer;
      const QueryResult r = parallel::RangeSumPredicatedWithLanes(
          buffer->data(), buffer->size(), q, lanes);
      best = std::min(best, timer.ElapsedSeconds());
      calibration_sink = r.sum;
    }
    return best;
  };
  const double serial_secs = measure(1);
  double last = 1.0;
  for (size_t t = 2; t <= MachineConstants::kMaxThreadScale; t++) {
    if (t <= max_t) {
      const double secs = measure(t);
      // A slowdown (oversubscribed or bandwidth-saturated machine) is
      // recorded as-is down to a floor; predictions must not assume
      // speedups the hardware cannot deliver.
      last = secs > 0 ? std::max(serial_secs / secs, 0.25) : last;
    }
    constants->scan_scale[t] = last;
  }
}

double MeasureBatchLookup(std::vector<value_t>* buffer,
                          double seq_read_secs) {
  // The shared-scan surcharge: one PredicateSet pass with 64
  // predicates — deliberately past PredicateSet::kTiledBatchMax so the
  // probe exercises the elementary-interval regime whose per-element
  // binary-search walk the log2 formula describes — compared to the
  // plain predicated scan the seq_read constant was measured on,
  // divided by log2(2·64). The tiled-kernel regime (smaller batches)
  // runs at or below this price, so small-batch predictions err
  // conservative. The walk is compute-bound (~10 ns/element), so it
  // scans one slice of the buffer, with predicates spread over the
  // whole value domain.
  constexpr size_t kBatch = 64;
  const size_t domain = buffer->size();
  const size_t n = kComputeSliceElements;
  RangeQuery qs[kBatch];
  for (size_t i = 0; i < kBatch; i++) {
    const value_t lo = static_cast<value_t>(i * domain / (kBatch + 2));
    qs[i] =
        RangeQuery{lo, lo + static_cast<value_t>(domain / (kBatch + 3))};
  }
  // Pin the scan to one lane: seq_read_secs was measured on the serial
  // kernel, and this constant must be the *per-element surcharge* of
  // the multi-predicate walk, not the (machine-dependent) parallel
  // speedup — MeasureParallelScanScale owns that curve. Best-of-3 like
  // the scale curve, against coarse clocks.
  exec::PredicateSet pset;
  pset.Reset(qs, kBatch);
  const size_t saved_lanes = parallel::LanesOverrideForTesting();
  parallel::SetLanesForTesting(1);
  double best = 1e30;
  for (int rep = 0; rep < 3; rep++) {
    Timer timer;
    pset.Scan(buffer->data(), n);
    best = std::min(best, timer.ElapsedSeconds());
  }
  parallel::SetLanesForTesting(saved_lanes);
  QueryResult out[kBatch];
  pset.AccumulateInto(out);
  calibration_sink = out[0].sum;
  const double per_element = best / static_cast<double>(n);
  const double log2_bounds = 7.0;  // log2(2 * kBatch)
  const double surcharge = (per_element - seq_read_secs) / log2_bounds;
  // The interval walk can't be cheaper than the vector kernel; keep a
  // small positive floor against coarse clocks.
  return std::max(surcharge, seq_read_secs * 0.05);
}

double MeasureBucketScan(const std::vector<BucketChain>& chains, size_t n) {
  const RangeQuery q{static_cast<value_t>(n / 4),
                     static_cast<value_t>(3 * n / 4)};
  Timer timer;
  QueryResult total;
  for (const BucketChain& chain : chains) total += chain.RangeSum(q);
  const double secs = timer.ElapsedSeconds();
  calibration_sink = total.sum + total.count;
  return secs / static_cast<double>(n);
}

}  // namespace

MachineConstants MeasureMachineConstants() {
  // The buffer must be genuinely pseudo-random: a regular pattern would
  // be branch-predictor friendly and make the partition/copy loops look
  // ~3x cheaper than they are on real (unpredictable) data. Values span
  // [0, 2^21); the mask keeps the same low bits a modulo would.
  std::vector<value_t> buffer(kCalibrationElements);
  Rng fill_rng(3);
  for (value_t& v : buffer) {
    v = static_cast<value_t>(fill_rng.Next() & (kCalibrationElements - 1));
  }
  MachineConstants constants;
  constants.kernel_name = kernels::ActiveKernelName();
  {
    // The partition's destination is faulted in before the scan: its
    // stores push the freshly filled buffer out of the caches, so the
    // scan reads it from memory, as a column scan does, however fast
    // the fill ran.
    std::vector<value_t> dst(kCalibrationElements);
    constants.seq_read_secs = MeasureSequentialRead(&buffer);
    constants.seq_write_secs =
        MeasureSequentialWrite(&buffer, &dst, constants.seq_read_secs);
  }
  constants.random_access_secs = MeasureRandomAccess();
  constants.alloc_secs = MeasureAllocation();
  {
    std::vector<BucketChain> chains;
    constants.bucket_append_secs = MeasureBucketAppend(&buffer, &chains);
    constants.bucket_scan_secs =
        MeasureBucketScan(chains, kCalibrationElements);
  }
  constants.batch_lookup_secs =
      MeasureBatchLookup(&buffer, constants.seq_read_secs);
  MeasureParallelScanScale(&buffer, &constants);
  // The swap and sort-scale measurements reorder the buffer; run them
  // last (the crack only splits around one pivot, so the chunks the
  // sort-scale pass sorts are still unsorted within themselves).
  constants.swap_secs = MeasureSwap(&buffer);
  constants.sort_unit_scale = MeasureSortUnitScale(
      &buffer, constants.l1_cache_elements, constants.swap_secs);
  // Guard against zero measurements on very coarse clocks; fall back to
  // plausible DRAM-era defaults so cost models never divide by zero.
  if (constants.seq_read_secs <= 0) constants.seq_read_secs = 1e-9;
  if (constants.seq_write_secs <= 0) constants.seq_write_secs = 1e-9;
  if (constants.random_access_secs <= 0) constants.random_access_secs = 5e-8;
  if (constants.swap_secs <= 0) constants.swap_secs = 2e-9;
  if (constants.alloc_secs <= 0) constants.alloc_secs = 1e-7;
  if (constants.bucket_scan_secs <= 0) constants.bucket_scan_secs = 2e-9;
  if (constants.bucket_append_secs <= 0) {
    constants.bucket_append_secs = 3e-9;
  }
  if (constants.batch_lookup_secs <= 0) constants.batch_lookup_secs = 5e-10;
  return constants;
}

const MachineConstants& GlobalMachineConstants() {
  static const MachineConstants* constants =
      new MachineConstants(MeasureMachineConstants());
  return *constants;
}

}  // namespace progidx
