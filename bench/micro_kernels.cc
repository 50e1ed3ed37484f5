// Micro-benchmarks (google-benchmark) for the kernels behind the cost
// model's Table 1 constants: scan kernels, crack kernels, bucket
// appends, AVL inserts, and B+-tree lookups — plus scalar-tier vs
// dispatched-tier comparisons for the kernel layer.
//
// On startup this binary also runs a short hand-timed throughput sweep
// of the kernel layer and writes BENCH_kernels.json (scalar vs
// dispatched GB/s and the speedup per kernel, the CRC-32 included;
// per-tier rows; per thread-count rows for the parallel composite
// primitives; the leaf-sort and bucket-lookup rows; the `lanes`
// rows, µs per call of each kept pool path by element count and lane
// count; and the `calibration` rows, the cost of the §4.3 start-up
// measurement and the spread of each constant), so successive PRs
// leave a perf trajectory behind.

#include <benchmark/benchmark.h>
#include <malloc.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <array>
#include <bit>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <functional>
#include <limits>
#include <vector>

#include <thread>

#include "baselines/avl_tree.h"
#include "baselines/cracking_kernels.h"
#include "bench/json_store.h"
#include "btree/btree.h"
#include "common/predication.h"
#include "common/rng.h"
#include "common/timer.h"
#include "cost/calibration.h"
#include "kernels/kernels.h"
#include "parallel/primitives.h"
#include "parallel/thread_pool.h"
#include "storage/bucket_chain.h"

namespace progidx {
namespace {

std::vector<value_t> RandomData(size_t n, uint64_t seed) {
  Rng rng(seed);
  std::vector<value_t> data(n);
  for (value_t& v : data) {
    v = static_cast<value_t>(rng.NextBounded(static_cast<uint64_t>(n)));
  }
  return data;
}

void BM_PredicatedRangeSum(benchmark::State& state) {
  const size_t n = static_cast<size_t>(state.range(0));
  const std::vector<value_t> data = RandomData(n, 1);
  const RangeQuery q{static_cast<value_t>(n / 4),
                     static_cast<value_t>(3 * n / 4)};
  for (auto _ : state) {
    benchmark::DoNotOptimize(PredicatedRangeSum(data.data(), n, q));
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations() * n));
}
BENCHMARK(BM_PredicatedRangeSum)->Arg(1 << 16)->Arg(1 << 20);

// Scalar tier vs dispatched tier, head to head on the same input.
void BM_RangeSumScalarTier(benchmark::State& state) {
  const size_t n = static_cast<size_t>(state.range(0));
  const std::vector<value_t> data = RandomData(n, 1);
  const RangeQuery q{static_cast<value_t>(n / 4),
                     static_cast<value_t>(3 * n / 4)};
  const kernels::KernelOps& ops = kernels::ScalarKernels();
  for (auto _ : state) {
    benchmark::DoNotOptimize(ops.range_sum_predicated(data.data(), n, q));
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations() * n));
}
BENCHMARK(BM_RangeSumScalarTier)->Arg(1 << 16)->Arg(1 << 20);

void BM_RangeSumDispatchedTier(benchmark::State& state) {
  const size_t n = static_cast<size_t>(state.range(0));
  const std::vector<value_t> data = RandomData(n, 1);
  const RangeQuery q{static_cast<value_t>(n / 4),
                     static_cast<value_t>(3 * n / 4)};
  const kernels::KernelOps& ops = kernels::Dispatch();
  state.SetLabel(ops.name);
  for (auto _ : state) {
    benchmark::DoNotOptimize(ops.range_sum_predicated(data.data(), n, q));
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations() * n));
}
BENCHMARK(BM_RangeSumDispatchedTier)->Arg(1 << 16)->Arg(1 << 20);

void BM_PartitionTwoSidedScalarTier(benchmark::State& state) {
  const size_t n = static_cast<size_t>(state.range(0));
  const std::vector<value_t> src = RandomData(n, 2);
  std::vector<value_t> dst(n);
  const kernels::KernelOps& ops = kernels::ScalarKernels();
  for (auto _ : state) {
    size_t lo = 0;
    int64_t hi = static_cast<int64_t>(n) - 1;
    ops.partition_two_sided(src.data(), n, static_cast<value_t>(n / 2),
                            dst.data(), &lo, &hi);
    benchmark::DoNotOptimize(lo);
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations() * n));
}
BENCHMARK(BM_PartitionTwoSidedScalarTier)->Arg(1 << 16)->Arg(1 << 20);

void BM_PartitionTwoSidedDispatchedTier(benchmark::State& state) {
  const size_t n = static_cast<size_t>(state.range(0));
  const std::vector<value_t> src = RandomData(n, 2);
  std::vector<value_t> dst(n);
  const kernels::KernelOps& ops = kernels::Dispatch();
  state.SetLabel(ops.name);
  for (auto _ : state) {
    size_t lo = 0;
    int64_t hi = static_cast<int64_t>(n) - 1;
    ops.partition_two_sided(src.data(), n, static_cast<value_t>(n / 2),
                            dst.data(), &lo, &hi);
    benchmark::DoNotOptimize(lo);
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations() * n));
}
BENCHMARK(BM_PartitionTwoSidedDispatchedTier)->Arg(1 << 16)->Arg(1 << 20);

void BM_RadixScatterDispatchedTier(benchmark::State& state) {
  const size_t n = static_cast<size_t>(state.range(0));
  const std::vector<value_t> src = RandomData(n, 3);
  std::vector<value_t> dst(n);
  const kernels::KernelOps& ops = kernels::Dispatch();
  state.SetLabel(ops.name);
  for (auto _ : state) {
    uint64_t counts[64] = {};
    ops.radix_histogram(src.data(), n, 0, 0, 63u, counts);
    size_t offsets[64];
    size_t acc = 0;
    for (int d = 0; d < 64; d++) {
      offsets[d] = acc;
      acc += static_cast<size_t>(counts[d]);
    }
    ops.radix_scatter(src.data(), n, 0, 0, 63u, dst.data(), offsets);
    benchmark::DoNotOptimize(dst.data());
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations() * n));
}
BENCHMARK(BM_RadixScatterDispatchedTier)->Arg(1 << 16)->Arg(1 << 20);

void BM_CrackInPlaceScalarTier(benchmark::State& state) {
  const size_t n = static_cast<size_t>(state.range(0));
  const std::vector<value_t> original = RandomData(n, 2);
  std::vector<value_t> data = original;
  const kernels::KernelOps& ops = kernels::ScalarKernels();
  for (auto _ : state) {
    state.PauseTiming();
    data = original;
    state.ResumeTiming();
    size_t lo = 0;
    size_t hi = n - 1;
    bool done = false;
    ops.crack_in_place(data.data(), &lo, &hi, static_cast<value_t>(n / 2),
                       std::numeric_limits<size_t>::max(), &done);
    benchmark::DoNotOptimize(lo);
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations() * n));
}
BENCHMARK(BM_CrackInPlaceScalarTier)->Arg(1 << 16)->Arg(1 << 20);

void BM_CrackInPlaceDispatchedTier(benchmark::State& state) {
  const size_t n = static_cast<size_t>(state.range(0));
  const std::vector<value_t> original = RandomData(n, 2);
  std::vector<value_t> data = original;
  const kernels::KernelOps& ops = kernels::Dispatch();
  state.SetLabel(ops.name);
  for (auto _ : state) {
    state.PauseTiming();
    data = original;
    state.ResumeTiming();
    size_t lo = 0;
    size_t hi = n - 1;
    bool done = false;
    ops.crack_in_place(data.data(), &lo, &hi, static_cast<value_t>(n / 2),
                       std::numeric_limits<size_t>::max(), &done);
    benchmark::DoNotOptimize(lo);
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations() * n));
}
BENCHMARK(BM_CrackInPlaceDispatchedTier)->Arg(1 << 16)->Arg(1 << 20);

void BM_CrackInTwoPredicated(benchmark::State& state) {
  const size_t n = static_cast<size_t>(state.range(0));
  const std::vector<value_t> original = RandomData(n, 2);
  std::vector<value_t> data = original;
  for (auto _ : state) {
    state.PauseTiming();
    data = original;
    state.ResumeTiming();
    benchmark::DoNotOptimize(CrackInTwoPredicated(
        data.data(), 0, n, static_cast<value_t>(n / 2)));
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations() * n));
}
BENCHMARK(BM_CrackInTwoPredicated)->Arg(1 << 16)->Arg(1 << 20);

void BM_CrackInTwoBranched(benchmark::State& state) {
  const size_t n = static_cast<size_t>(state.range(0));
  const std::vector<value_t> original = RandomData(n, 2);
  std::vector<value_t> data = original;
  for (auto _ : state) {
    state.PauseTiming();
    data = original;
    state.ResumeTiming();
    benchmark::DoNotOptimize(CrackInTwoBranched(
        data.data(), 0, n, static_cast<value_t>(n / 2)));
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations() * n));
}
BENCHMARK(BM_CrackInTwoBranched)->Arg(1 << 16)->Arg(1 << 20);

void BM_BucketChainAppend(benchmark::State& state) {
  const size_t n = 1 << 16;
  const std::vector<value_t> data = RandomData(n, 3);
  for (auto _ : state) {
    BucketChain chain(static_cast<size_t>(state.range(0)));
    for (const value_t v : data) chain.Append(v);
    benchmark::DoNotOptimize(chain.size());
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations() * n));
}
BENCHMARK(BM_BucketChainAppend)->Arg(256)->Arg(4096)->Arg(65536);

void BM_ScatterToChains(benchmark::State& state) {
  const size_t n = 1 << 16;
  const std::vector<value_t> data = RandomData(n, 3);
  for (auto _ : state) {
    std::vector<BucketChain> chains;
    for (size_t i = 0; i < 64; i++) {
      chains.emplace_back(static_cast<size_t>(state.range(0)));
    }
    ScatterToChains(data.data(), n, 0, 10, 63u, chains.data());
    benchmark::DoNotOptimize(chains[0].size());
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations() * n));
}
BENCHMARK(BM_ScatterToChains)->Arg(256)->Arg(4096)->Arg(65536);

void BM_AvlInsert(benchmark::State& state) {
  const size_t n = static_cast<size_t>(state.range(0));
  const std::vector<value_t> data = RandomData(n, 4);
  for (auto _ : state) {
    AvlTree tree;
    for (size_t i = 0; i < n; i++) {
      tree.Insert(data[i], static_cast<size_t>(data[i]));
    }
    benchmark::DoNotOptimize(tree.size());
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations() * n));
}
BENCHMARK(BM_AvlInsert)->Arg(1 << 10)->Arg(1 << 14);

void BM_BTreeLookup(benchmark::State& state) {
  const size_t n = 1 << 20;
  std::vector<value_t> data = RandomData(n, 5);
  std::sort(data.begin(), data.end());
  BPlusTree tree(data.data(), n, static_cast<size_t>(state.range(0)));
  tree.BuildAll();
  Rng rng(6);
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        tree.LowerBound(static_cast<value_t>(rng.NextBounded(n))));
  }
}
BENCHMARK(BM_BTreeLookup)->Arg(16)->Arg(64)->Arg(256);

void BM_BinarySearchBaseline(benchmark::State& state) {
  const size_t n = 1 << 20;
  std::vector<value_t> data = RandomData(n, 5);
  std::sort(data.begin(), data.end());
  Rng rng(6);
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        std::lower_bound(data.begin(), data.end(),
                         static_cast<value_t>(rng.NextBounded(n))));
  }
}
BENCHMARK(BM_BinarySearchBaseline);

// --- BENCH_kernels.json: per-tier throughput sweep ---------------------

volatile int64_t throughput_sink = 0;

/// Leaf-sort input: `n`-element leaves, with values in [0, 4096) when
/// `full_width` is 0 (two radix passes, like a quicksort leaf of a
/// uniform column) and over all of int64_t otherwise (eight passes).
std::vector<value_t> LeafData(size_t n, bool full_width, uint64_t seed) {
  Rng rng(seed);
  std::vector<value_t> data(n);
  for (value_t& v : data) {
    v = full_width ? static_cast<value_t>(rng.Next())
                   : static_cast<value_t>(rng.NextBounded(4096));
  }
  return data;
}

/// 63 sampled bounds: 64 equi-height buckets, Progressive Bucketsort's
/// default.
std::vector<value_t> LookupBounds() {
  Rng rng(9);
  std::vector<value_t> bounds(63);
  for (value_t& b : bounds) b = static_cast<value_t>(rng.NextBounded(4096));
  std::sort(bounds.begin(), bounds.end());
  return bounds;
}

/// Sum of the buckets of `probes`, so no lookup can be optimized away.
template <typename Lookup>
size_t SumBuckets(const std::vector<value_t>& probes, const Lookup& lookup) {
  size_t sum = 0;
  for (const value_t v : probes) sum += lookup(v);
  return sum;
}

size_t StdUpperBound(const std::vector<value_t>& bounds, value_t v) {
  return static_cast<size_t>(
      std::upper_bound(bounds.begin(), bounds.end(), v) - bounds.begin());
}

/// One timed invocation of `fn`; `prepare` runs outside the timed
/// region. Reps are interleaved *across tiers* by the caller (tier A
/// rep 1, tier B rep 1, ..., tier A rep 2, ...): the shared container
/// drifts by tens of percent over seconds, and measuring each tier in
/// its own contiguous block would fold that drift into the speedup
/// ratios.
template <typename Prepare, typename Fn>
double MeasureSecsOnce(Prepare&& prepare, Fn&& fn) {
  prepare();
  Timer timer;
  fn();
  return timer.ElapsedSeconds();
}

/// Every tier compiled into this binary that this CPU can run, scalar
/// first (the reference everything is compared against).
std::vector<const kernels::KernelOps*> SweepTiers() {
  std::vector<const kernels::KernelOps*> tiers;
  tiers.push_back(&kernels::ScalarKernels());
  for (const char* name : {"avx2", "avx512"}) {
    const kernels::KernelOps& ops = kernels::ResolveKernels(name);
    if (std::strcmp(ops.name, name) == 0) tiers.push_back(&ops);
  }
  return tiers;
}

/// One predicated sum of data[0, n) over [n/4, 3n/4] at `lanes` lanes
/// (T = 1 is the serial dispatched kernel). Both per-lane sweeps call
/// this: `threads` at 2^22 elements, `lanes` below that.
int64_t RangeSumAtLanes(const value_t* data, size_t n, size_t lanes) {
  const RangeQuery q{static_cast<value_t>(n / 4),
                     static_cast<value_t>(3 * n / 4)};
  return parallel::RangeSumPredicatedWithLanes(data, n, q, lanes).sum;
}

/// The `lanes` rows: µs per call of every thread-pool path the indexes
/// keep (docs/parallel.md), at T = 1 (the serial kernel) and forced
/// T = 2, 4, across the element counts a budgeted slice spans. A row
/// whose T > 1 time is above its T = 1 time is a lane that does not
/// pay at that size. Each timing is the mean over enough calls to
/// touch 2^22 elements, best of `reps`, with the lane counts
/// interleaved per rep; RadixSortFlat's input is re-copied and the
/// bucket chains are emptied outside the timer before every call. The
/// scan stops at 2^20: its `threads` row already times it at 2^22.
std::string LaneRowsJson(size_t reps, unsigned hardware_threads) {
  constexpr size_t kSizes[] = {size_t{1} << 15, size_t{1} << 17,
                               size_t{1} << 19, size_t{1} << 20,
                               size_t{1} << 22};
  constexpr size_t kLanes[] = {1, 2, 4};
  constexpr size_t kMaxN = size_t{1} << 22;
  constexpr size_t kCopyRun = 4096;
  constexpr size_t kGatherStride = 64;
  const std::vector<value_t> data = RandomData(kMaxN, 31);
  std::vector<value_t> dst(kMaxN);
  std::vector<value_t> scratch(kMaxN);
  // Progressive Bucketsort's bucketing: 64 equi-height chains of the
  // uniform data, found by the branch-free lookup.
  std::vector<value_t> bounds(63);
  for (size_t i = 0; i < bounds.size(); i++) {
    bounds[i] = static_cast<value_t>((i + 1) * kMaxN / 64);
  }
  const kernels::UpperBoundLookup lookup(bounds.data(), bounds.size());
  std::vector<BucketChain> chains(bounds.size() + 1);
  struct Primitive {
    const char* name;
    /// One call on data[0, n) at `lanes` lanes (the override is set).
    std::function<void(size_t n, size_t lanes)> call;
    /// Runs outside the timer before every call, when set.
    std::function<void(size_t n)> prepare = nullptr;
    size_t max_elements = kMaxN;
  };
  const std::vector<Primitive> primitives = {
      {"RangeSumPredicated",
       [&](size_t n, size_t lanes) {
         throughput_sink = RangeSumAtLanes(data.data(), n, lanes);
       },
       nullptr, size_t{1} << 20},
      {"CopyRunsTo",
       [&](size_t n, size_t) {
         std::vector<parallel::SrcRun> runs;
         for (size_t b = 0; b < n; b += kCopyRun) {
           runs.push_back({data.data() + b, std::min(kCopyRun, n - b)});
         }
         throughput_sink = static_cast<int64_t>(
             parallel::CopyRunsTo(runs.data(), runs.size(), dst.data()));
       }},
      {"StridedGather",
       [&](size_t n, size_t) {
         // Every 64th key of an n-key level: the B+-tree build's gather
         // at the default fanout.
         parallel::StridedGather(data.data(), 0, kGatherStride,
                                 n / kGatherStride, dst.data());
         throughput_sink = dst[0];
       }},
      {"RadixSortFlat",
       [&](size_t n, size_t) {
         parallel::RadixSortFlat(dst.data(), scratch.data(), n, 0,
                                 static_cast<value_t>(kMaxN - 1));
         throughput_sink = dst[n / 2];
       },
       [&](size_t n) {
         std::memcpy(dst.data(), data.data(), n * sizeof(value_t));
       }},
      {"ScatterToChainsBatched",
       [&](size_t n, size_t) {
         parallel::ScatterToChainsBatched(
             [&](const value_t* batch, size_t len, uint32_t* ids) {
               for (size_t i = 0; i < len; i++) {
                 ids[i] = static_cast<uint32_t>(lookup(batch[i]));
               }
             },
             data.data(), n, chains.data(), chains.size());
         throughput_sink = static_cast<int64_t>(chains[0].size());
       },
       [&](size_t) {
         for (BucketChain& c : chains) c.Clear();
       }},
  };
  std::string raw = "[\n";
  bool first = true;
  for (const Primitive& p : primitives) {
    for (const size_t n : kSizes) {
      if (n > p.max_elements) continue;
      const size_t calls = kMaxN / n;
      double best[std::size(kLanes)];
      std::fill(std::begin(best), std::end(best), 1e30);
      for (size_t r = 0; r < reps; r++) {
        for (size_t l = 0; l < std::size(kLanes); l++) {
          parallel::SetLanesForTesting(kLanes[l]);
          double secs = 0;
          for (size_t c = 0; c < calls; c++) {
            secs += MeasureSecsOnce(
                [&] {
                  if (p.prepare) p.prepare(n);
                },
                [&] { p.call(n, kLanes[l]); });
          }
          parallel::SetLanesForTesting(0);
          best[l] = std::min(best[l], secs / static_cast<double>(calls));
        }
      }
      for (size_t l = 0; l < std::size(kLanes); l++) {
        bench::AppendF(&raw,
                       "%s    {\"primitive\": \"%s\", \"elements\": %zu, "
                       "\"lanes\": %zu, \"us_per_call\": %.2f, "
                       "\"hardware_threads\": %u}",
                       first ? "" : ",\n", p.name, n, kLanes[l],
                       best[l] * 1e6, hardware_threads);
        first = false;
      }
      std::printf("  lanes %-18s n=2^%-2d", p.name,
                  static_cast<int>(std::bit_width(n) - 1));
      for (size_t l = 0; l < std::size(kLanes); l++) {
        std::printf("  T=%zu %10.2f us", kLanes[l], best[l] * 1e6);
      }
      std::printf("\n");
    }
  }
  raw += "\n  ]";
  return raw;
}

/// {q1, median, q3} of `v`, interpolated between order statistics.
std::array<double, 3> Quartiles(std::vector<double> v) {
  std::sort(v.begin(), v.end());
  const auto at = [&v](double p) {
    const double pos = p * static_cast<double>(v.size() - 1);
    const size_t lo = static_cast<size_t>(pos);
    const size_t hi = std::min(lo + 1, v.size() - 1);
    return v[lo] + (pos - static_cast<double>(lo)) * (v[hi] - v[lo]);
  };
  return {at(0.25), at(0.5), at(0.75)};
}

/// One `calibration` row, measured in this process at its own lane
/// count under perfbench's fixed 128 KiB malloc thresholds (the
/// calibration's page-fault cost depends on them): one untimed
/// MeasureMachineConstants() call, then kCalls timed ones. Records the
/// call's ms (median and quartiles) and each constant's median with
/// its spread, (q3 − q1)/median.
std::string CalibrationRow(unsigned hardware_threads) {
  constexpr size_t kCalls = 15;
#ifdef __GLIBC__
  mallopt(M_MMAP_THRESHOLD, 128 * 1024);
  mallopt(M_TRIM_THRESHOLD, 128 * 1024);
#endif
  MeasureMachineConstants();
  std::vector<double> ms;
  std::vector<MachineConstants> all;
  for (size_t i = 0; i < kCalls; i++) {
    Timer timer;
    all.push_back(MeasureMachineConstants());
    ms.push_back(timer.ElapsedSeconds() * 1e3);
  }
  const std::array<double, 3> total = Quartiles(ms);
  std::string row;
  bench::AppendF(&row,
                 "    {\"lanes\": %zu, \"kernel\": \"%s\", \"calls\": %zu, "
                 "\"hardware_threads\": %u,\n     \"total_ms\": {\"median\": "
                 "%.2f, \"q1\": %.2f, \"q3\": %.2f},\n     \"constants\": {",
                 parallel::DefaultLanes(), all.front().kernel_name, kCalls,
                 hardware_threads, total[1], total[0], total[2]);
  const auto field = [&](const char* name, auto get, bool last = false) {
    std::vector<double> v;
    for (const MachineConstants& c : all) v.push_back(get(c));
    const std::array<double, 3> q = Quartiles(v);
    bench::AppendF(&row,
                   "\"%s\": {\"median\": %.6g, \"spread\": %.3f}%s", name,
                   q[1], q[1] != 0 ? (q[2] - q[0]) / q[1] : 0.0,
                   last ? "" : ",\n       ");
  };
#define PROGIDX_CALIBRATION_FIELD(f) \
  field(#f, [](const MachineConstants& c) { return c.f; })
  PROGIDX_CALIBRATION_FIELD(seq_read_secs);
  PROGIDX_CALIBRATION_FIELD(seq_write_secs);
  PROGIDX_CALIBRATION_FIELD(random_access_secs);
  PROGIDX_CALIBRATION_FIELD(swap_secs);
  PROGIDX_CALIBRATION_FIELD(alloc_secs);
  PROGIDX_CALIBRATION_FIELD(bucket_scan_secs);
  PROGIDX_CALIBRATION_FIELD(bucket_append_secs);
  PROGIDX_CALIBRATION_FIELD(batch_lookup_secs);
  PROGIDX_CALIBRATION_FIELD(sort_unit_scale);
#undef PROGIDX_CALIBRATION_FIELD
  for (size_t t = 2; t <= MachineConstants::kMaxThreadScale; t++) {
    const std::string name = "scan_scale[" + std::to_string(t) + "]";
    field(name.c_str(),
          [t](const MachineConstants& c) { return c.scan_scale[t]; },
          t == MachineConstants::kMaxThreadScale);
  }
  row += "}}";
  return row;
}

/// The `calibration` rows at one lane and at the default lane count
/// (one row when that is one lane too). DefaultLanes() is fixed per
/// process, and the malloc thresholds would shape every later
/// measurement, so each row is measured in a child forked before this
/// process starts a thread.
std::string CalibrationRowsJson(unsigned hardware_threads) {
  std::string raw = "[\n";
  for (const char* threads : {"1", static_cast<const char*>(nullptr)}) {
    int fds[2];
    if (pipe(fds) != 0) break;
    const pid_t pid = fork();
    if (pid == 0) {
      close(fds[0]);
      if (threads != nullptr) setenv("PROGIDX_THREADS", threads, 1);
      if (threads != nullptr || parallel::DefaultLanes() > 1) {
        const std::string row = CalibrationRow(hardware_threads);
        if (write(fds[1], row.data(), row.size()) < 0) _exit(1);
      }
      _exit(0);
    }
    close(fds[1]);
    std::string row;
    char buf[4096];
    ssize_t got = 0;
    while (pid > 0 && (got = read(fds[0], buf, sizeof(buf))) > 0) {
      row.append(buf, static_cast<size_t>(got));
    }
    close(fds[0]);
    if (pid > 0) waitpid(pid, nullptr, 0);
    if (row.empty()) continue;
    raw += (raw.size() > 2 ? ",\n" : "") + row;
  }
  raw += "\n  ]";
  return raw;
}

void WriteKernelThroughputJson(const char* path) {
  constexpr size_t kN = 1 << 22;  // 32 MiB: past LLC, stream from DRAM
  constexpr size_t kReps = 5;
  // First, while this process has no thread: the rows fork.
  const std::string calibration_raw =
      CalibrationRowsJson(std::thread::hardware_concurrency());
  const std::vector<value_t> data = RandomData(kN, 17);
  const RangeQuery q{static_cast<value_t>(kN / 4),
                     static_cast<value_t>(3 * kN / 4)};
  const std::vector<const kernels::KernelOps*> tiers = SweepTiers();
  const kernels::KernelOps& active = kernels::Dispatch();

  std::vector<value_t> dst(kN);
  std::vector<value_t> work(kN);
  auto nop = [] {};
  auto range_sum = [&](const kernels::KernelOps& ops) {
    return MeasureSecsOnce(nop, [&] {
      throughput_sink = ops.range_sum_predicated(data.data(), kN, q).sum;
    });
  };
  auto partition = [&](const kernels::KernelOps& ops) {
    return MeasureSecsOnce(nop, [&] {
      size_t lo = 0;
      int64_t hi = static_cast<int64_t>(kN) - 1;
      ops.partition_two_sided(data.data(), kN, static_cast<value_t>(kN / 2),
                              dst.data(), &lo, &hi);
      throughput_sink = static_cast<int64_t>(lo);
    });
  };
  // The budgeted in-place crack, run to completion in one slice (the
  // refinement-phase hot loop). Re-copied from the source data before
  // every rep (outside the timer) so each tier cracks the same
  // unpartitioned input.
  auto crack = [&](const kernels::KernelOps& ops) {
    return MeasureSecsOnce(
        [&] { std::memcpy(work.data(), data.data(), kN * sizeof(value_t)); },
        [&] {
          size_t lo = 0;
          size_t hi = kN - 1;
          bool done = false;
          ops.crack_in_place(work.data(), &lo, &hi,
                             static_cast<value_t>(kN / 2),
                             std::numeric_limits<size_t>::max(), &done);
          throughput_sink = static_cast<int64_t>(lo);
        });
  };
  // One 8-bit LSD pass (histogram + prefix sums + stable scatter) —
  // exactly RadixSortFlat's inner loop, 256 buckets.
  auto scatter = [&](const kernels::KernelOps& ops) {
    return MeasureSecsOnce(nop, [&] {
      uint64_t counts[256] = {};
      ops.radix_histogram(data.data(), kN, 0, 8, 255u, counts);
      size_t offsets[256];
      size_t acc = 0;
      for (int d = 0; d < 256; d++) {
        offsets[d] = acc;
        acc += static_cast<size_t>(counts[d]);
      }
      ops.radix_scatter(data.data(), kN, 0, 8, 255u, dst.data(), offsets);
      throughput_sink = dst[0];
    });
  };

  // The same 32 MiB as bytes through the CRC-32 every snapshot frame
  // and WAL record pays (persist/io.h).
  auto crc32 = [&](const kernels::KernelOps& ops) {
    return MeasureSecsOnce(nop, [&] {
      throughput_sink = ops.crc32(data.data(), kN * sizeof(value_t), 0);
    });
  };

  struct NamedKernel {
    const char* name;
    std::function<double(const kernels::KernelOps&)> measure_once;
  };
  const std::vector<NamedKernel> kernels_to_measure = {
      {"predicated_range_sum", range_sum},
      {"partition_two_sided", partition},
      {"crack_in_place", crack},
      {"radix_histogram_scatter", scatter},
      {"crc32", crc32},
  };

  struct ResultRow {
    const char* name;
    std::vector<double> tier_gbps;  // parallel to `tiers`
    double dispatched_gbps;
    std::vector<double> thread_gbps;  // parallel to kThreadCounts; empty =
                                      // no parallel counterpart
  };
  const double gbytes = static_cast<double>(kN) * sizeof(value_t) / 1e9;
  std::vector<ResultRow> rows;
  for (const NamedKernel& k : kernels_to_measure) {
    // Best-of-kReps with the reps interleaved across tiers (see
    // MeasureSecsOnce) so container speed drift cancels out of the
    // tier-vs-tier ratios.
    std::vector<double> tier_best(tiers.size(), 1e30);
    double active_best = 1e30;
    for (size_t r = 0; r < kReps; r++) {
      for (size_t t = 0; t < tiers.size(); t++) {
        tier_best[t] = std::min(tier_best[t], k.measure_once(*tiers[t]));
      }
      active_best = std::min(active_best, k.measure_once(active));
    }
    ResultRow row{k.name, {}, gbytes / active_best, {}};
    for (const double secs : tier_best) row.tier_gbps.push_back(gbytes / secs);
    rows.push_back(std::move(row));
  }

  // --- Per-thread-count rows: the parallel composite primitives over
  // the dispatched tier. T = 1 is the *serial* dispatched path (the
  // baseline the speedups in docs/parallel.md quote); higher counts
  // force the lane count, so the rows are meaningful on any machine
  // (an oversubscribed single-core container simply shows ~1x).
  const size_t kThreadCounts[] = {1, 2, 4, 8};
  auto rs_at = [&](size_t t) {
    return MeasureSecsOnce(nop, [&] {
      throughput_sink = RangeSumAtLanes(data.data(), kN, t);
    });
  };
  auto scatter_at = [&](size_t t) {
    return MeasureSecsOnce(nop, [&] {
      uint64_t counts[256] = {};
      parallel::RadixHistogram(data.data(), kN, 0, 8, 255u, counts, t);
      size_t offsets[256];
      size_t acc = 0;
      for (int d = 0; d < 256; d++) {
        offsets[d] = acc;
        acc += static_cast<size_t>(counts[d]);
      }
      parallel::RadixScatter(data.data(), kN, 0, 8, 255u, dst.data(),
                             offsets, t);
      throughput_sink = dst[0];
    });
  };
  struct ThreadSweep {
    const char* row_name;
    std::function<double(size_t)> measure_at;
  };
  const std::vector<ThreadSweep> sweeps = {
      {"predicated_range_sum", rs_at},
      {"radix_histogram_scatter", scatter_at},
  };
  for (const ThreadSweep& sweep : sweeps) {
    std::vector<double> best(std::size(kThreadCounts), 1e30);
    for (size_t r = 0; r < kReps; r++) {
      for (size_t t = 0; t < std::size(kThreadCounts); t++) {
        best[t] = std::min(best[t], sweep.measure_at(kThreadCounts[t]));
      }
    }
    for (ResultRow& row : rows) {
      if (std::strcmp(row.name, sweep.row_name) != 0) continue;
      for (const double secs : best) row.thread_gbps.push_back(gbytes / secs);
    }
  }

  // --- Leaf sorts and the bucket lookup: the sort-outright leaves of
  // the progressive indexes and Progressive Bucketsort's creation-phase
  // search, each against the std:: call it replaced, in ns/element over
  // 2^18 elements (leaves re-copied outside the timer).
  struct LeafSortRow {
    size_t elements;
    const char* keys;
    double std_sort_ns;
    double sort_leaf_ns;
  };
  constexpr size_t kLeafTotal = size_t{1} << 18;
  std::vector<LeafSortRow> leaf_rows;
  std::vector<value_t> leaves(kLeafTotal);
  for (const size_t leaf : {size_t{256}, size_t{4096}}) {
    for (const bool full_width : {false, true}) {
      const std::vector<value_t> source = LeafData(kLeafTotal, full_width, 12);
      auto refill = [&] {
        std::memcpy(leaves.data(), source.data(),
                    kLeafTotal * sizeof(value_t));
      };
      double std_best = 1e30;
      double radix_best = 1e30;
      for (size_t r = 0; r < kReps; r++) {
        std_best = std::min(std_best, MeasureSecsOnce(refill, [&] {
          for (size_t i = 0; i < kLeafTotal; i += leaf) {
            std::sort(leaves.data() + i, leaves.data() + i + leaf);
          }
        }));
        radix_best = std::min(radix_best, MeasureSecsOnce(refill, [&] {
          for (size_t i = 0; i < kLeafTotal; i += leaf) {
            kernels::SortLeaf(leaves.data() + i, leaf);
          }
        }));
        throughput_sink = leaves[kLeafTotal / 2];
      }
      leaf_rows.push_back({leaf, full_width ? "full_width" : "narrow",
                           std_best * 1e9 / kLeafTotal,
                           radix_best * 1e9 / kLeafTotal});
    }
  }
  const std::vector<value_t> bounds = LookupBounds();
  const kernels::UpperBoundLookup lookup(bounds.data(), bounds.size());
  const std::vector<value_t> probes = LeafData(kLeafTotal, false, 13);
  double upper_bound_best = 1e30;
  double branch_free_best = 1e30;
  for (size_t r = 0; r < kReps; r++) {
    upper_bound_best = std::min(upper_bound_best, MeasureSecsOnce(nop, [&] {
      throughput_sink = static_cast<int64_t>(SumBuckets(
          probes, [&](value_t v) { return StdUpperBound(bounds, v); }));
    }));
    branch_free_best = std::min(branch_free_best, MeasureSecsOnce(nop, [&] {
      throughput_sink = static_cast<int64_t>(SumBuckets(probes, lookup));
    }));
  }
  const double upper_bound_ns = upper_bound_best * 1e9 / kLeafTotal;
  const double branch_free_ns = branch_free_best * 1e9 / kLeafTotal;
  const unsigned hardware_threads = std::thread::hardware_concurrency();

  // Read-merge-write: this tool owns the kernel/tier/thread sections
  // and must preserve everything else (the `batch` rows merged by
  // bench/batch_throughput, and any future sections), whichever tool
  // ran first.
  std::vector<bench::JsonSection> sections = bench::ReadJsonSections(path);
  bench::UpsertJsonSection(&sections, "dispatched_tier",
                           std::string("\"") + active.name + "\"");
  bench::UpsertJsonSection(&sections, "elements", std::to_string(kN));
  bench::UpsertJsonSection(
      &sections, "hardware_threads",
      std::to_string(std::thread::hardware_concurrency()));
  std::string kernels_raw = "[\n";
  for (size_t i = 0; i < rows.size(); i++) {
    const ResultRow& row = rows[i];
    const double scalar_gbps = row.tier_gbps[0];
    bench::AppendF(&kernels_raw,
                   "    {\"name\": \"%s\", \"scalar_gbps\": %.3f, "
                   "\"dispatched_gbps\": %.3f, \"speedup\": %.3f,\n"
                   "     \"tiers\": {",
                   row.name, scalar_gbps, row.dispatched_gbps,
                   row.dispatched_gbps / scalar_gbps);
    for (size_t t = 0; t < tiers.size(); t++) {
      bench::AppendF(&kernels_raw, "%s\"%s\": %.3f", t == 0 ? "" : ", ",
                     tiers[t]->name, row.tier_gbps[t]);
    }
    kernels_raw += "}";
    if (!row.thread_gbps.empty()) {
      kernels_raw += ",\n     \"threads\": {";
      for (size_t t = 0; t < row.thread_gbps.size(); t++) {
        bench::AppendF(&kernels_raw, "%s\"%zu\": %.3f", t == 0 ? "" : ", ",
                       kThreadCounts[t], row.thread_gbps[t]);
      }
      kernels_raw += "}";
    }
    bench::AppendF(&kernels_raw, "}%s\n", i + 1 < rows.size() ? "," : "");
  }
  kernels_raw += "  ]";
  bench::UpsertJsonSection(&sections, "kernels", std::move(kernels_raw));
  std::string leaf_raw = "[\n";
  for (size_t i = 0; i < leaf_rows.size(); i++) {
    const LeafSortRow& row = leaf_rows[i];
    bench::AppendF(&leaf_raw,
                   "    {\"elements\": %zu, \"keys\": \"%s\", "
                   "\"std_sort_ns_per_elem\": %.3f, "
                   "\"sort_leaf_ns_per_elem\": %.3f, \"speedup\": %.3f, "
                   "\"hardware_threads\": %u}%s\n",
                   row.elements, row.keys, row.std_sort_ns, row.sort_leaf_ns,
                   row.std_sort_ns / row.sort_leaf_ns, hardware_threads,
                   i + 1 < leaf_rows.size() ? "," : "");
  }
  leaf_raw += "  ]";
  bench::UpsertJsonSection(&sections, "leaf_sort", std::move(leaf_raw));
  std::string lookup_raw;
  bench::AppendF(&lookup_raw,
                 "[\n    {\"buckets\": %zu, \"upper_bound_ns\": %.3f, "
                 "\"branch_free_ns\": %.3f, \"speedup\": %.3f, "
                 "\"hardware_threads\": %u}\n  ]",
                 bounds.size() + 1, upper_bound_ns, branch_free_ns,
                 upper_bound_ns / branch_free_ns, hardware_threads);
  bench::UpsertJsonSection(&sections, "bucket_lookup", std::move(lookup_raw));
  bench::UpsertJsonSection(&sections, "lanes",
                           LaneRowsJson(kReps, hardware_threads));
  bench::UpsertJsonSection(&sections, "calibration", calibration_raw);
  if (!bench::WriteJsonSections(path, sections)) {
    std::fprintf(stderr, "cannot write %s\n", path);
    return;
  }
  std::printf("kernel throughput (dispatched tier=%s) -> %s\n", active.name,
              path);
  for (const ResultRow& row : rows) {
    std::printf("  %-24s", row.name);
    for (size_t t = 0; t < tiers.size(); t++) {
      std::printf("  %s %6.2f GB/s", tiers[t]->name, row.tier_gbps[t]);
    }
    std::printf("  | dispatched %6.2f GB/s (%.2fx scalar)\n",
                row.dispatched_gbps, row.dispatched_gbps / row.tier_gbps[0]);
    if (!row.thread_gbps.empty()) {
      std::printf("  %-24s", "");
      for (size_t t = 0; t < row.thread_gbps.size(); t++) {
        std::printf("  T=%zu %6.2f GB/s", kThreadCounts[t],
                    row.thread_gbps[t]);
      }
      std::printf("\n");
    }
  }
  for (const LeafSortRow& row : leaf_rows) {
    std::printf(
        "  leaf sort %4zu %-10s  std::sort %6.2f ns/elem  SortLeaf %6.2f "
        "ns/elem (%.2fx)\n",
        row.elements, row.keys, row.std_sort_ns, row.sort_leaf_ns,
        row.std_sort_ns / row.sort_leaf_ns);
  }
  std::printf(
      "  bucket lookup %zu buckets  upper_bound %6.2f ns  branch-free %6.2f "
      "ns (%.2fx)\n",
      bounds.size() + 1, upper_bound_ns, branch_free_ns,
      upper_bound_ns / branch_free_ns);
  std::printf("  calibration %s\n", calibration_raw.c_str());
}

}  // namespace
}  // namespace progidx

int main(int argc, char** argv) {
  // The hand-timed sweep costs a few seconds and rewrites this tool's
  // sections of BENCH_kernels.json in cwd (preserving everyone
  // else's); skip it for listing-only invocations.
  // (Scan before Initialize: benchmark strips its flags from argv.)
  bool listing_only = false;
  for (int i = 1; i < argc; i++) {
    if (std::strncmp(argv[i], "--benchmark_list_tests", 22) == 0) {
      listing_only = true;
    }
  }
  ::benchmark::Initialize(&argc, argv);
  if (::benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  if (!listing_only) {
    progidx::WriteKernelThroughputJson("BENCH_kernels.json");
  }
  ::benchmark::RunSpecifiedBenchmarks();
  ::benchmark::Shutdown();
  return 0;
}
