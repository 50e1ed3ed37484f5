// Micro-benchmarks (google-benchmark) for the kernels behind the cost
// model's Table 1 constants: scan kernels, crack kernels, bucket
// appends, AVL inserts, and B+-tree lookups — plus scalar-tier vs
// dispatched-tier comparisons for the kernel layer.
//
// On startup this binary also runs a short hand-timed throughput sweep
// of the kernel layer and writes BENCH_kernels.json (scalar vs
// dispatched GB/s and the speedup per kernel, the CRC-32 included;
// per-tier rows; per thread-count rows for the parallel composite
// primitives; and the <= 64-bucket scatter shape study), so successive
// PRs leave a perf trajectory behind.

#include <benchmark/benchmark.h>

#include <algorithm>
#include <cstdio>
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
#include "kernels/kernels.h"
#include "kernels/kernels_internal.h"
#include "parallel/primitives.h"
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

void BM_BranchedRangeSum(benchmark::State& state) {
  const size_t n = static_cast<size_t>(state.range(0));
  const std::vector<value_t> data = RandomData(n, 1);
  const RangeQuery q{static_cast<value_t>(n / 4),
                     static_cast<value_t>(3 * n / 4)};
  for (auto _ : state) {
    benchmark::DoNotOptimize(BranchedRangeSum(data.data(), n, q));
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations() * n));
}
BENCHMARK(BM_BranchedRangeSum)->Arg(1 << 16)->Arg(1 << 20);

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
  for (const char* name : {"sse2", "avx2", "avx512"}) {
    const kernels::KernelOps& ops = kernels::ResolveKernels(name, false);
    if (std::strcmp(ops.name, name) == 0) tiers.push_back(&ops);
  }
  return tiers;
}

void WriteKernelThroughputJson(const char* path) {
  constexpr size_t kN = 1 << 22;  // 32 MiB: past LLC, stream from DRAM
  constexpr size_t kReps = 5;
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
      throughput_sink =
          parallel::RangeSumPredicatedWithLanes(data.data(), kN, q, t).sum;
    });
  };
  auto partition_at = [&](size_t t) {
    return MeasureSecsOnce(nop, [&] {
      if (t <= 1) {
        size_t lo = 0;
        int64_t hi = static_cast<int64_t>(kN) - 1;
        active.partition_two_sided(data.data(), kN,
                                   static_cast<value_t>(kN / 2), dst.data(),
                                   &lo, &hi);
        throughput_sink = static_cast<int64_t>(lo);
      } else {
        parallel::SetLanesForTesting(t);
        size_t lo = 0;
        int64_t hi = static_cast<int64_t>(kN) - 1;
        parallel::PartitionTwoSided(data.data(), kN,
                                    static_cast<value_t>(kN / 2), dst.data(),
                                    &lo, &hi);
        parallel::SetLanesForTesting(0);
        throughput_sink = static_cast<int64_t>(lo);
      }
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
      {"partition_two_sided", partition_at},
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

  // --- <= 64-bucket scatter shape study (ROADMAP: "a vpconflictq-based
  // vectorized buffering loop might close that; measure before
  // believing"): the prefetching direct scatter (what the dispatched
  // kernel runs below kWcMinMask), the scalar WC buffering loop, and
  // the vpconflictq-vectorized WC loop, head to head at 64 buckets.
  struct Scatter64Shape {
    size_t elements;
    double direct_gbps = 0;
    double wc_gbps = 0;
    double conflict_gbps = 0;  // 0 = unavailable (build or CPU)
  };
  const kernels::detail::ScatterFn conflict_fn =
      kernels::detail::ConflictWcScatterAvx512();
  std::vector<Scatter64Shape> scatter64;
  for (const size_t sn : {size_t{1} << 16, kN}) {
    Scatter64Shape shape{sn, 0, 0, 0};
    uint64_t counts[64] = {};
    active.radix_histogram(data.data(), sn, 0, 0, 63u, counts);
    size_t base_offsets[64];
    size_t acc = 0;
    for (int d = 0; d < 64; d++) {
      base_offsets[d] = acc;
      acc += static_cast<size_t>(counts[d]);
    }
    size_t offsets[64];
    auto reset = [&] { std::memcpy(offsets, base_offsets, sizeof(offsets)); };
    auto direct_once = [&] {
      return MeasureSecsOnce(reset, [&] {
        active.radix_scatter(data.data(), sn, 0, 0, 63u, dst.data(), offsets);
        throughput_sink = dst[0];
      });
    };
    auto wc_once = [&] {
      return MeasureSecsOnce(reset, [&] {
        kernels::detail::ScatterWithWcBuffers(
            active.compute_digits, data.data(), sn, 0, 0, 63u, dst.data(),
            offsets, [](value_t* out, const value_t* buf, uint32_t cnt) {
              std::memcpy(out, buf, cnt * sizeof(value_t));
            });
        throughput_sink = dst[0];
      });
    };
    auto conflict_once = [&] {
      return MeasureSecsOnce(reset, [&] {
        conflict_fn(data.data(), sn, 0, 0, 63u, dst.data(), offsets);
        throughput_sink = dst[0];
      });
    };
    double direct_best = 1e30;
    double wc_best = 1e30;
    double conflict_best = 1e30;
    for (size_t r = 0; r < kReps; r++) {
      direct_best = std::min(direct_best, direct_once());
      wc_best = std::min(wc_best, wc_once());
      if (conflict_fn != nullptr) {
        conflict_best = std::min(conflict_best, conflict_once());
      }
    }
    const double shape_gb = static_cast<double>(sn) * sizeof(value_t) / 1e9;
    shape.direct_gbps = shape_gb / direct_best;
    shape.wc_gbps = shape_gb / wc_best;
    if (conflict_fn != nullptr) shape.conflict_gbps = shape_gb / conflict_best;
    scatter64.push_back(shape);
  }

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
  std::string scatter_raw = "[\n";
  for (size_t i = 0; i < scatter64.size(); i++) {
    const Scatter64Shape& s = scatter64[i];
    bench::AppendF(&scatter_raw,
                   "    {\"elements\": %zu, \"direct_gbps\": %.3f, "
                   "\"wc_memcpy_gbps\": %.3f, \"conflict_wc_gbps\": %.3f}%s\n",
                   s.elements, s.direct_gbps, s.wc_gbps, s.conflict_gbps,
                   i + 1 < scatter64.size() ? "," : "");
  }
  scatter_raw += "  ]";
  bench::UpsertJsonSection(&sections, "scatter_64bucket",
                           std::move(scatter_raw));
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
  for (const Scatter64Shape& s : scatter64) {
    std::printf(
        "  scatter 64-bucket n=%-8zu direct %6.2f GB/s  wc+memcpy %6.2f "
        "GB/s  conflict-wc %6.2f GB/s%s\n",
        s.elements, s.direct_gbps, s.wc_gbps, s.conflict_gbps,
        s.conflict_gbps == 0 ? " (unavailable)" : "");
  }
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
