#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstring>
#include <memory>
#include <stdexcept>
#include <thread>
#include <utility>
#include <vector>

#include "common/rng.h"
#include "core/progressive_bucketsort.h"
#include "core/progressive_quicksort.h"
#include "core/progressive_radixsort_lsd.h"
#include "core/progressive_radixsort_msd.h"
#include "cost/cost_model.h"
#include "kernels/kernels.h"
#include "parallel/primitives.h"
#include "parallel/thread_pool.h"
#include "storage/bucket_chain.h"
#include "workload/data_generator.h"

// The parallel subsystem's contract (docs/parallel.md): every composite
// primitive — and every index built on them — produces bit-identical
// results for every lane count. These suites enforce it for T in
// {1, 2, 4, 8}, including a run that changes the thread count *between*
// budgeted queries of one index.

namespace progidx {
namespace {

/// Restores the process lane override on scope exit so suites cannot
/// leak a forced thread count into each other.
class ScopedLanes {
 public:
  explicit ScopedLanes(size_t lanes) { parallel::SetLanesForTesting(lanes); }
  ~ScopedLanes() { parallel::SetLanesForTesting(0); }
};

std::vector<value_t> RandomValues(size_t n, uint64_t seed) {
  Rng rng(seed);
  std::vector<value_t> v(n);
  for (value_t& x : v) {
    x = static_cast<value_t>(rng.NextBounded(static_cast<uint64_t>(n)));
  }
  return v;
}

MachineConstants SyntheticConstants() {
  MachineConstants mc;
  mc.seq_read_secs = 1e-9;
  mc.seq_write_secs = 2e-9;
  mc.random_access_secs = 5e-8;
  mc.swap_secs = 3e-9;
  mc.alloc_secs = 1e-7;
  mc.bucket_scan_secs = 2e-9;
  mc.bucket_append_secs = 3e-9;
  // A multi-core calibration's curve: any prediction that priced its
  // work by the lane count would differ across T (ExpectLaneParity).
  mc.scan_scale[2] = 1.8;
  mc.scan_scale[3] = 2.5;
  mc.scan_scale[4] = 3.2;
  for (size_t t = 5; t <= MachineConstants::kMaxThreadScale; t++) {
    mc.scan_scale[t] = 3.4;
  }
  return mc;
}

TEST(ThreadPoolTest, ParallelForCoversEveryIndexExactlyOnce) {
  for (const size_t lanes : {size_t{1}, size_t{2}, size_t{4}, size_t{8}}) {
    const size_t n = 100001;
    std::vector<std::atomic<int>> hits(n);
    for (auto& h : hits) h.store(0);
    parallel::ParallelFor(0, n, 1024, lanes, [&](size_t b, size_t e) {
      ASSERT_LE(e, n);
      ASSERT_LE(e - b, size_t{1024});
      for (size_t i = b; i < e; i++) hits[i].fetch_add(1);
    });
    for (size_t i = 0; i < n; i++) {
      ASSERT_EQ(hits[i].load(), 1) << "index " << i << " lanes " << lanes;
    }
  }
}

TEST(ThreadPoolTest, ConcurrentCallersEachCoverTheirRange) {
  // Several callers share the one task queue at once: every call's
  // lanes must cover that caller's own range exactly once, whichever
  // workers run them.
  constexpr size_t kCallers = 4;
  constexpr size_t kN = 50001;
  constexpr int kRounds = 8;
  std::vector<std::vector<std::atomic<int>>> hits(kCallers);
  for (auto& h : hits) h = std::vector<std::atomic<int>>(kN);
  std::atomic<int> misses{0};
  std::vector<std::thread> callers;
  for (size_t c = 0; c < kCallers; c++) {
    callers.emplace_back([&hits, &misses, c] {
      std::vector<std::atomic<int>>& mine = hits[c];
      for (int round = 1; round <= kRounds; round++) {
        parallel::ParallelFor(0, kN, 512, 4, [&](size_t b, size_t e) {
          for (size_t i = b; i < e; i++) mine[i].fetch_add(1);
        });
        for (size_t i = 0; i < kN; i++) {
          if (mine[i].load() != round) {
            misses.fetch_add(1);
            return;
          }
        }
      }
    });
  }
  for (std::thread& t : callers) t.join();
  EXPECT_EQ(misses.load(), 0);
}

TEST(ThreadPoolTest, ParallelForPropagatesExceptions) {
  EXPECT_THROW(
      parallel::ParallelFor(0, 1 << 16, 1024, 4,
                            [&](size_t b, size_t) {
                              if (b >= size_t{1} << 15) {
                                throw std::runtime_error("lane boom");
                              }
                            }),
      std::runtime_error);
}

TEST(ThreadPoolTest, LaneOverrideRoundTrips) {
  parallel::SetLanesForTesting(3);
  EXPECT_EQ(parallel::EffectiveLanes(), 3u);
  parallel::SetLanesForTesting(0);
  EXPECT_EQ(parallel::EffectiveLanes(), parallel::DefaultLanes());
}

TEST(ParallelPrimitivesTest, RangeSumMatchesSerialBitwise) {
  const size_t n = (1 << 18) + 31;  // odd tail exercises chunk remainders
  const std::vector<value_t> data = RandomValues(n, 3);
  Rng rng(11);
  for (int i = 0; i < 8; i++) {
    value_t lo = static_cast<value_t>(rng.NextBounded(n));
    value_t hi = static_cast<value_t>(rng.NextBounded(n));
    if (lo > hi) std::swap(lo, hi);
    const RangeQuery q{lo, hi};
    const QueryResult serial =
        kernels::Dispatch().range_sum_predicated(data.data(), n, q);
    for (const size_t lanes : {size_t{1}, size_t{2}, size_t{4}, size_t{8}}) {
      const QueryResult par =
          parallel::RangeSumPredicatedWithLanes(data.data(), n, q, lanes);
      EXPECT_EQ(par.sum, serial.sum);
      EXPECT_EQ(par.count, serial.count);
    }
  }
}

TEST(ParallelPrimitivesTest, RadixHistogramAndScatterMatchSerialBitwise) {
  const size_t n = (1 << 20) + 4099;  // >= two flat-scatter chunks
  const std::vector<value_t> src = RandomValues(n, 7);
  uint64_t serial_counts[256] = {};
  kernels::Dispatch().radix_histogram(src.data(), n, 0, 2, 255u,
                                      serial_counts);
  size_t serial_offsets[256];
  size_t acc = 0;
  for (int d = 0; d < 256; d++) {
    serial_offsets[d] = acc;
    acc += static_cast<size_t>(serial_counts[d]);
  }
  std::vector<value_t> serial_dst(n);
  {
    size_t offsets[256];
    std::memcpy(offsets, serial_offsets, sizeof(offsets));
    kernels::Dispatch().radix_scatter(src.data(), n, 0, 2, 255u,
                                      serial_dst.data(), offsets);
  }
  for (const size_t lanes : {size_t{2}, size_t{4}, size_t{8}}) {
    uint64_t counts[256] = {};
    parallel::RadixHistogram(src.data(), n, 0, 2, 255u, counts, lanes);
    for (int d = 0; d < 256; d++) ASSERT_EQ(counts[d], serial_counts[d]);
    std::vector<value_t> dst(n);
    size_t offsets[256];
    std::memcpy(offsets, serial_offsets, sizeof(offsets));
    parallel::RadixScatter(src.data(), n, 0, 2, 255u, dst.data(), offsets,
                           lanes);
    ASSERT_EQ(dst, serial_dst) << "lanes " << lanes;
    // The serial contract advances offsets to the end positions.
    for (int d = 0; d < 255; d++) {
      ASSERT_EQ(offsets[d], serial_offsets[d + 1]);
    }
  }
}

TEST(ParallelPrimitivesTest, RadixSortFlatSortsLikeStdSort) {
  ScopedLanes scoped(4);
  const size_t n = (1 << 20) + 17;
  std::vector<value_t> data = RandomValues(n, 9);
  std::vector<value_t> expected = data;
  std::vector<value_t> scratch(n);
  const auto [min_it, max_it] = std::minmax_element(data.begin(), data.end());
  const value_t min_v = *min_it;
  const value_t max_v = *max_it;
  parallel::RadixSortFlat(data.data(), scratch.data(), n, min_v, max_v);
  std::sort(expected.begin(), expected.end());
  EXPECT_EQ(data, expected);
}

TEST(ParallelPrimitivesTest, ScatterToChainsBatchedMatchesSerial) {
  // Progressive Bucketsort's bucketing: 64 equi-height chains found by
  // the branch-free lookup, which the pool resolves in chunks before
  // the serial appends.
  const size_t n = (1 << 17) + 253;
  const std::vector<value_t> src = RandomValues(n, 13);
  std::vector<value_t> bounds(63);
  for (size_t i = 0; i < bounds.size(); i++) bounds[i] = src[i * 1999];
  std::sort(bounds.begin(), bounds.end());
  const kernels::UpperBoundLookup lookup(bounds.data(), bounds.size());
  auto fill_ids = [&](const value_t* batch, size_t len, uint32_t* ids) {
    for (size_t i = 0; i < len; i++) {
      ids[i] = static_cast<uint32_t>(lookup(batch[i]));
    }
  };
  auto chain_contents = [](const std::vector<BucketChain>& chains) {
    std::vector<std::vector<value_t>> contents;
    for (const BucketChain& c : chains) {
      contents.emplace_back(c.size());
      c.CopyTo(contents.back().data());
    }
    return contents;
  };
  auto make_chains = [] {
    std::vector<BucketChain> chains;
    for (size_t i = 0; i < 64; i++) chains.emplace_back(512);
    return chains;
  };
  std::vector<BucketChain> serial = make_chains();
  ScatterToChainsBatched(fill_ids, src.data(), n, serial.data(),
                         serial.size());
  for (const size_t lanes : {size_t{2}, size_t{4}, size_t{8}}) {
    ScopedLanes scoped(lanes);
    std::vector<BucketChain> chains = make_chains();
    parallel::ScatterToChainsBatched(fill_ids, src.data(), n, chains.data(),
                                     chains.size());
    for (size_t i = 0; i < chains.size(); i++) {
      ASSERT_EQ(chains[i].block_count(), serial[i].block_count())
          << "chain " << i << " lanes " << lanes;
    }
    ASSERT_EQ(chain_contents(chains), chain_contents(serial))
        << "lanes " << lanes;
  }
}

TEST(ParallelPrimitivesTest, CopyRunsToMatchesSerialConcatenation) {
  const size_t n = (1 << 17) + 57;
  const std::vector<value_t> src = RandomValues(n, 21);
  // Uneven runs, as the LSD merge / bucketsort fill drains produce.
  std::vector<parallel::SrcRun> runs;
  size_t pos = 0;
  Rng rng(23);
  while (pos < n) {
    const size_t len = std::min<size_t>(1 + rng.NextBounded(4096), n - pos);
    runs.push_back({src.data() + pos, len});
    pos += len;
  }
  std::vector<value_t> reference(n);
  {
    ScopedLanes scoped(1);
    ASSERT_EQ(parallel::CopyRunsTo(runs.data(), runs.size(),
                                   reference.data()),
              n);
  }
  ASSERT_EQ(reference, src);  // end-to-end layout == the concatenation
  for (const size_t lanes : {size_t{2}, size_t{4}, size_t{8}}) {
    ScopedLanes scoped(lanes);
    std::vector<value_t> dst(n, -1);
    ASSERT_EQ(parallel::CopyRunsTo(runs.data(), runs.size(), dst.data()), n);
    ASSERT_EQ(dst, reference) << "lanes " << lanes;
  }
}

TEST(ParallelPrimitivesTest, StridedGatherMatchesSerialLoop) {
  const size_t n = (1 << 18) + 11;
  const std::vector<value_t> src = RandomValues(n, 27);
  const size_t stride = 3;
  const size_t start = 2;
  const size_t count = (n - start + stride - 1) / stride;
  std::vector<value_t> reference(count);
  for (size_t j = 0; j < count; j++) {
    reference[j] = src[start + j * stride];
  }
  for (const size_t lanes : {size_t{1}, size_t{2}, size_t{4}, size_t{8}}) {
    ScopedLanes scoped(lanes);
    std::vector<value_t> dst(count, -1);
    parallel::StridedGather(src.data(), start, stride, count, dst.data());
    ASSERT_EQ(dst, reference) << "lanes " << lanes;
  }
}

TEST(ParallelPrimitivesTest, BTreeBuilderLevelsMatchAcrossLaneCounts) {
  // The consolidation build gathers every fanout-th key through
  // StridedGather; the levels must come out bit-identical for every
  // lane count and any budget slicing.
  std::vector<value_t> sorted = RandomValues(300000, 31);
  std::sort(sorted.begin(), sorted.end());
  auto build = [&](size_t lanes, size_t step) {
    ScopedLanes scoped(lanes);
    auto tree = std::make_unique<BPlusTree>(sorted.data(), sorted.size(),
                                            size_t{8});
    ProgressiveBTreeBuilder builder(tree.get());
    while (!builder.done()) builder.DoWork(step);
    return tree;
  };
  const auto reference = build(1, 997);  // odd budget: mid-level stops
  for (const size_t lanes : {size_t{2}, size_t{4}, size_t{8}}) {
    for (const size_t step : {size_t{997}, size_t{1} << 20}) {
      const auto tree = build(lanes, step);
      ASSERT_TRUE(tree->complete());
      ASSERT_EQ(tree->levels(), reference->levels())
          << "lanes " << lanes << " step " << step;
    }
  }
}

// --- Index-level parity: same answers, same final index state, for
// every thread count. FixedDelta budgets + injected constants make the
// per-query work amounts deterministic; the contract under test is that
// the thread count changes only who executes them.

constexpr size_t kIndexN = 200000;
constexpr int kIndexQueries = 60;

std::vector<RangeQuery> IndexWorkload(size_t n, uint64_t seed) {
  Rng rng(seed);
  std::vector<RangeQuery> queries;
  for (int i = 0; i < kIndexQueries; i++) {
    value_t lo = static_cast<value_t>(rng.NextBounded(n));
    value_t hi = static_cast<value_t>(rng.NextBounded(n));
    if (lo > hi) std::swap(lo, hi);
    queries.push_back({lo, hi});
  }
  return queries;
}

struct LaneRun {
  std::vector<QueryResult> answers;
  /// last_predicted_cost() after each query, the drive to convergence
  /// included.
  std::vector<double> predicted;
  std::vector<value_t> final_array;
};

/// Runs `make_index()` under a fixed lane count: the workload, then a
/// full-range drive to convergence.
template <typename MakeIndex>
LaneRun RunAtLanes(size_t lanes, const MakeIndex& make_index,
                   const std::vector<RangeQuery>& queries) {
  ScopedLanes scoped(lanes);
  auto index = make_index();
  LaneRun run;
  for (const RangeQuery& q : queries) {
    run.answers.push_back(index->Query(q));
    run.predicted.push_back(index->last_predicted_cost());
  }
  const RangeQuery drive{0, static_cast<value_t>(kIndexN)};
  for (int i = 0; i < 5000 && !index->converged(); i++) {
    index->Query(drive);
    run.predicted.push_back(index->last_predicted_cost());
  }
  EXPECT_TRUE(index->converged());
  run.final_array = index->final_array();
  return run;
}

/// Answers, predictions and the converged array must not depend on the
/// lane count. The bucketed indexes' build work runs on the calling
/// thread, so their predictions may not price it at a lane speedup
/// either (kIndexN·δ = 40k elements clears the pool's 32k lane gate).
template <typename MakeIndex>
void ExpectLaneParity(const MakeIndex& make_index) {
  const std::vector<RangeQuery> queries = IndexWorkload(kIndexN, 29);
  const LaneRun reference = RunAtLanes(1, make_index, queries);
  for (const size_t lanes : {size_t{2}, size_t{4}, size_t{8}}) {
    const LaneRun run = RunAtLanes(lanes, make_index, queries);
    ASSERT_EQ(run.answers.size(), reference.answers.size());
    for (size_t i = 0; i < run.answers.size(); i++) {
      ASSERT_EQ(run.answers[i].sum, reference.answers[i].sum)
          << "query " << i << " lanes " << lanes;
      ASSERT_EQ(run.answers[i].count, reference.answers[i].count)
          << "query " << i << " lanes " << lanes;
    }
    ASSERT_EQ(run.predicted.size(), reference.predicted.size())
        << "queries to convergence, lanes " << lanes;
    for (size_t i = 0; i < run.predicted.size(); i++) {
      ASSERT_EQ(run.predicted[i], reference.predicted[i])
          << "prediction of query " << i << " lanes " << lanes;
    }
    ASSERT_EQ(run.final_array, reference.final_array)
        << "final array, lanes " << lanes;
  }
}

TEST(ParallelIndexParityTest, ProgressiveQuicksort) {
  // δ = 0.5 partitions 100k-element creation slices, δ = 0.2 40k ones.
  // The larger slices go first, so their T = 1 reference is taken before
  // this test forces any lane count.
  const MachineConstants mc = SyntheticConstants();
  const Column column = MakeUniformColumn(kIndexN, 23);
  ProgressiveOptions options;
  options.machine = &mc;
  const std::vector<RangeQuery> queries = IndexWorkload(kIndexN, 29);
  for (const double delta : {0.5, 0.2}) {
    SCOPED_TRACE(testing::Message() << "delta " << delta);
    auto make_index = [&] {
      return std::make_unique<ProgressiveQuicksort>(
          column, BudgetSpec::FixedDelta(delta), options);
    };
    std::vector<QueryResult> ref_answers;
    std::vector<std::vector<value_t>> ref_states;
    {
      ScopedLanes scoped(1);
      auto ref_index = make_index();
      for (const RangeQuery& q : queries) {
        ref_answers.push_back(ref_index->Query(q));
        ref_states.push_back(ref_index->index_array());
      }
    }
    for (const size_t lanes : {size_t{2}, size_t{4}, size_t{8}}) {
      ScopedLanes scoped(lanes);
      auto index = make_index();
      for (size_t i = 0; i < queries.size(); i++) {
        const QueryResult r = index->Query(queries[i]);
        ASSERT_EQ(r.sum, ref_answers[i].sum) << "query " << i;
        ASSERT_EQ(r.count, ref_answers[i].count) << "query " << i;
        // The whole index array, bit for bit, after every query.
        ASSERT_EQ(index->index_array(), ref_states[i])
            << "index state after query " << i << " lanes " << lanes;
      }
    }
  }
}

TEST(ParallelIndexParityTest, ProgressiveRadixsortLSD) {
  const MachineConstants mc = SyntheticConstants();
  const Column column = MakeUniformColumn(kIndexN, 23);
  ProgressiveOptions options;
  options.machine = &mc;
  auto make_index = [&] {
    return std::make_unique<ProgressiveRadixsortLSD>(
        column, BudgetSpec::FixedDelta(0.2), options);
  };
  ExpectLaneParity(make_index);
}

TEST(ParallelIndexParityTest, ProgressiveRadixsortMSD) {
  const MachineConstants mc = SyntheticConstants();
  const Column column = MakeUniformColumn(kIndexN, 23);
  ProgressiveOptions options;
  options.machine = &mc;
  auto make_index = [&] {
    return std::make_unique<ProgressiveRadixsortMSD>(
        column, BudgetSpec::FixedDelta(0.2), options);
  };
  ExpectLaneParity(make_index);
}

TEST(ParallelIndexParityTest, ProgressiveBucketsort) {
  const MachineConstants mc = SyntheticConstants();
  const Column column = MakeUniformColumn(kIndexN, 23);
  ProgressiveOptions options;
  options.machine = &mc;
  auto make_index = [&] {
    return std::make_unique<ProgressiveBucketsort>(
        column, BudgetSpec::FixedDelta(0.2), options, /*sample_seed=*/31);
  };
  ExpectLaneParity(make_index);
}

TEST(ParallelIndexParityTest, ThreadCountInterleavedAcrossQueries) {
  // The resumable-budget contract: an index whose per-query thread
  // count *changes between queries* (1 → 4 → 2 → 8 → ...) must still
  // walk the exact same state trajectory as an all-serial run.
  const MachineConstants mc = SyntheticConstants();
  const Column column = MakeUniformColumn(kIndexN, 37);
  ProgressiveOptions options;
  options.machine = &mc;
  const std::vector<RangeQuery> queries = IndexWorkload(kIndexN, 41);
  // Reference: every query at one lane.
  std::vector<QueryResult> ref_answers;
  std::vector<value_t> ref_final;
  {
    ScopedLanes scoped(1);
    ProgressiveQuicksort index(column, BudgetSpec::FixedDelta(0.2), options);
    for (const RangeQuery& q : queries) ref_answers.push_back(index.Query(q));
    const RangeQuery drive{0, static_cast<value_t>(kIndexN)};
    for (int i = 0; i < 5000 && !index.converged(); i++) index.Query(drive);
    EXPECT_TRUE(index.converged());
    ref_final = index.index_array();
  }
  const size_t cycle[] = {1, 4, 2, 8};
  ProgressiveQuicksort index(column, BudgetSpec::FixedDelta(0.2), options);
  for (size_t i = 0; i < queries.size(); i++) {
    ScopedLanes scoped(cycle[i % 4]);
    const QueryResult r = index.Query(queries[i]);
    ASSERT_EQ(r.sum, ref_answers[i].sum) << "query " << i;
    ASSERT_EQ(r.count, ref_answers[i].count) << "query " << i;
  }
  {
    ScopedLanes scoped(4);
    const RangeQuery drive{0, static_cast<value_t>(kIndexN)};
    for (int i = 0; i < 5000 && !index.converged(); i++) index.Query(drive);
  }
  ASSERT_TRUE(index.converged());
  ASSERT_EQ(index.index_array(), ref_final);
}

TEST(ParallelCostModelTest, LeafFloorRaisesRefinementPrediction) {
  const MachineConstants mc = SyntheticConstants();
  const CostModel model(mc, 1000000);
  const double base = model.QuicksortRefine(4, 0.1, 0.01);
  // Floor below the delta term: unchanged.
  EXPECT_DOUBLE_EQ(model.QuicksortRefineWithLeafFloor(4, 0.1, 0.01, 0.0),
                   base);
  // Floor above it: the difference is exactly the floor minus the
  // delta term.
  const double delta_term = 0.01 * model.SwapSecs();
  const double leaf = 10 * delta_term;
  EXPECT_NEAR(model.QuicksortRefineWithLeafFloor(4, 0.1, 0.01, leaf),
              base - delta_term + leaf, 1e-15);
  // delta == 0 (no indexing work this query): no floor either.
  EXPECT_DOUBLE_EQ(
      model.QuicksortRefineWithLeafFloor(4, 0.1, 0.0, leaf),
      model.QuicksortRefine(4, 0.1, 0.0));
}

TEST(ParallelCostModelTest, QuicksortPricesCreationPartitionSerial) {
  // pq's first query partitions a δ slice (2^20 · 0.1 rows) and scans
  // the rest of the column. Only the scan share is priced at the range
  // sum's lane curve; the partition stays serial-priced.
  const MachineConstants mc = SyntheticConstants();
  constexpr size_t kN = size_t{1} << 20;
  constexpr double kDelta = 0.1;
  const Column column = MakeUniformColumn(kN, 43);
  ProgressiveOptions options;
  options.machine = &mc;
  auto first_prediction = [&](size_t lanes) {
    ScopedLanes scoped(lanes);
    ProgressiveQuicksort index(column, BudgetSpec::FixedDelta(kDelta),
                               options);
    index.Query({0, static_cast<value_t>(kN / 10)});
    return index.last_predicted_cost();
  };
  const double scan_term = (1.0 - kDelta) * CostModel(mc, kN).ScanSecs();
  EXPECT_NEAR(first_prediction(1) - first_prediction(4),
              scan_term * (1.0 - 1.0 / 3.2), 1e-9 * scan_term);
}

TEST(ParallelCostModelTest, ScanScaleCurvePricesThreadedWork) {
  MachineConstants mc = SyntheticConstants();
  mc.scan_scale[2] = 1.8;
  mc.scan_scale[4] = 3.2;
  mc.scan_scale[8] = 5.0;
  const CostModel model(mc, 1000000);
  EXPECT_DOUBLE_EQ(model.ParallelScanScale(1), 1.0);
  EXPECT_DOUBLE_EQ(model.ParallelScanScale(4), 3.2);
  // Past the measured range the curve saturates (kMaxThreadScale).
  EXPECT_DOUBLE_EQ(model.ParallelScanScale(64), 5.0);
  EXPECT_DOUBLE_EQ(model.ThreadedSecs(3.2, 4), 1.0);
}

}  // namespace
}  // namespace progidx
