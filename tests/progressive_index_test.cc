// The phase machine the four progressive indexes share
// (core/progressive_index.h): consolidation progress telemetry, the
// pricing of converged batches, and value arithmetic at the edges of
// the 64-bit domain — sums that wrap and columns spanning (nearly) all
// of int64_t — checked against a uint64_t oracle in every phase,
// through Query and QueryBatch.

#include <gtest/gtest.h>

#include <limits>
#include <set>
#include <string>
#include <tuple>
#include <vector>

#include "common/rng.h"
#include "core/progressive_bucketsort.h"
#include "core/progressive_quicksort.h"
#include "core/progressive_radixsort_lsd.h"
#include "core/progressive_radixsort_msd.h"
#include "eval/registry.h"
#include "tests/edge_columns.h"
#include "tests/fixed_constants.h"
#include "tests/oracle.h"
#include "workload/data_generator.h"

namespace progidx {
namespace {

constexpr value_t kMin = std::numeric_limits<value_t>::min();
constexpr value_t kMax = std::numeric_limits<value_t>::max();

/// Phase index of one of the four progressive indexes: each Phase enum
/// numbers the build phases first, then consolidation, then done.
int PhaseOf(const IndexBase& index) {
  if (const auto* p = dynamic_cast<const ProgressiveQuicksort*>(&index)) {
    return static_cast<int>(p->phase());
  }
  if (const auto* p = dynamic_cast<const ProgressiveRadixsortMSD*>(&index)) {
    return static_cast<int>(p->phase());
  }
  if (const auto* p = dynamic_cast<const ProgressiveRadixsortLSD*>(&index)) {
    return static_cast<int>(p->phase());
  }
  if (const auto* p = dynamic_cast<const ProgressiveBucketsort*>(&index)) {
    return static_cast<int>(p->phase());
  }
  ADD_FAILURE() << "not a progressive index: " << index.name();
  return -1;
}

int PhaseCount(const std::string& algo) { return algo == "plsd" ? 5 : 4; }

using EdgeParam = std::tuple<std::string, std::string, size_t>;

class ProgressiveDomainEdgeTest
    : public ::testing::TestWithParam<EdgeParam> {};

// Every phase of every index answers exactly, mod 2^64, on columns whose
// sums wrap or whose width exceeds INT64_MAX.
TEST_P(ProgressiveDomainEdgeTest, AnswersMatchUnsignedOracleInEveryPhase) {
  const auto& [algo, kind, batch] = GetParam();
  const Column column = kind == "wrapping_sums" ? WrappingSumsColumn()
                        : kind == "full_width_low"
                            ? FullWidthColumn(kMin, kMax - 1)
                            : FullWidthColumn(kMin + 5, kMax);
  // A small L1 makes radix buckets split and quicksort leaves stay
  // partitioned, so a 4096-row column exercises every refinement path.
  MachineConstants machine = FixedConstants();
  machine.l1_cache_elements = 64;
  ProgressiveOptions options;
  options.machine = &machine;
  auto index = MakeIndex(algo, column, BudgetSpec::FixedDelta(0.1), options);
  const std::vector<RangeQuery> qs = EdgeQueries(column, 64 * batch);
  std::vector<QueryResult> out(batch);
  std::set<int> phases;
  size_t done_batches = 0;
  for (size_t step = 0; step < 20000 && done_batches < 4; step++) {
    phases.insert(PhaseOf(*index));
    if (index->converged()) done_batches++;
    const RangeQuery* group = &qs[(step * batch) % qs.size()];
    if (batch == 1) {
      out[0] = index->Query(group[0]);
    } else {
      index->QueryBatch(group, batch, out.data());
    }
    for (size_t i = 0; i < batch; i++) {
      ASSERT_EQ(out[i], OracleRangeSum(column, group[i]))
          << algo << " " << kind << " step " << step << " query ["
          << group[i].low << ", " << group[i].high << "] phase "
          << PhaseOf(*index);
    }
  }
  EXPECT_TRUE(index->converged());
  EXPECT_EQ(static_cast<int>(phases.size()), PhaseCount(algo))
      << "every phase must be exercised";
}

INSTANTIATE_TEST_SUITE_P(
    AllProgressive, ProgressiveDomainEdgeTest,
    ::testing::Combine(::testing::Values("pq", "pmsd", "plsd", "pb"),
                       ::testing::Values("wrapping_sums", "full_width_low",
                                         "full_width_high"),
                       ::testing::Values(size_t{1}, size_t{16})),
    [](const ::testing::TestParamInfo<EdgeParam>& i) {
      return std::get<0>(i.param) + "_" + std::get<1>(i.param) + "_batch" +
             std::to_string(std::get<2>(i.param));
    });

class ProgressiveConvergenceTest
    : public ::testing::TestWithParam<std::string> {};

// The convergence fraction never falls, and consolidation moves it past
// 0.9 as the B+-tree's internal keys are built.
TEST_P(ProgressiveConvergenceTest, FractionRisesThroughConsolidation) {
  const std::string algo = GetParam();
  const Column column = MakeUniformColumn(20000, 5);
  ProgressiveOptions options;
  options.machine = &FixedConstants();
  auto index =
      MakeIndex(algo, column, BudgetSpec::FixedDelta(0.02), options);
  const int consolidation = PhaseCount(algo) - 2;
  Rng rng(9);
  double last = index->ConvergenceFraction();
  int consolidation_queries = 0;
  bool above = false;
  for (int i = 0; i < 100000 && !index->converged(); i++) {
    const value_t low = static_cast<value_t>(rng.NextBounded(18000));
    index->Query({low, low + 2000});
    const double fraction = index->ConvergenceFraction();
    EXPECT_GE(fraction, last) << algo << " at query " << i;
    last = fraction;
    if (PhaseOf(*index) != consolidation) continue;
    consolidation_queries++;
    EXPECT_GE(fraction, 0.9);
    EXPECT_LT(fraction, 1.0);
    above = above || fraction > 0.9;
  }
  ASSERT_TRUE(index->converged());
  EXPECT_GT(consolidation_queries, 1);
  EXPECT_TRUE(above) << algo << " consolidation stayed at 0.9";
  EXPECT_EQ(index->ConvergenceFraction(), 1.0);
}

INSTANTIATE_TEST_SUITE_P(AllProgressive, ProgressiveConvergenceTest,
                         ::testing::Values("pq", "pmsd", "plsd", "pb"),
                         [](const ::testing::TestParamInfo<std::string>& i) {
                           return i.param;
                         });

// Quicksort's refinement fraction follows the pivot tree's sorted
// share, 0.5 + 0.4 · sorted / n: it moves within the phase, never
// falls, and stays below consolidation's 0.9.
TEST(QuicksortConvergenceTest, RefinementFractionFollowsSortedShare) {
  const Column column = MakeUniformColumn(20000, 5);
  ProgressiveQuicksort index(column, BudgetSpec::FixedDelta(0.02));
  Rng rng(9);
  double first = -1;
  double last = -1;
  int rises = 0;
  for (int i = 0; i < 100000 && !index.converged(); i++) {
    const value_t low = static_cast<value_t>(rng.NextBounded(18000));
    index.Query({low, low + 2000});
    if (index.phase() != ProgressiveQuicksort::Phase::kRefinement) continue;
    const double fraction = index.ConvergenceFraction();
    EXPECT_GE(fraction, 0.5);
    EXPECT_LT(fraction, 0.9);
    if (first < 0) first = fraction;
    EXPECT_GE(fraction, last) << "at query " << i;
    if (last >= 0 && fraction > last) rises++;
    last = fraction;
  }
  ASSERT_TRUE(index.converged());
  EXPECT_GT(last, first) << "the refinement fraction stayed flat";
  EXPECT_GT(rises, 1);
}

// A converged batch reads the union of its queries' leaf runs once, so
// each query is priced (index_secs + union · seq_read_secs) / B plus its
// own descent: 16 disjoint ranges share nothing, 16 copies of one range
// share all of it.
TEST(ConvergedBatchPricingTest, PricesTheUnionOfLeafRuns) {
  MachineConstants machine;
  machine.seq_read_secs = 1e-9;
  machine.seq_write_secs = 2e-9;
  machine.random_access_secs = 5e-8;
  machine.swap_secs = 3e-9;
  machine.alloc_secs = 1e-7;
  machine.bucket_scan_secs = 2e-9;
  machine.bucket_append_secs = 3e-9;
  machine.batch_lookup_secs = 4e-10;
  ProgressiveOptions options;
  options.machine = &machine;
  constexpr size_t kN = size_t{1} << 16;
  const Column column = MakeUniformColumn(kN, 7);  // a permutation of 0..n-1
  ProgressiveQuicksort index(column, BudgetSpec::FixedDelta(0.5), options);
  for (value_t i = 0; i < 1000 && !index.converged(); i++) {
    index.Query({i, i + 100});
  }
  ASSERT_TRUE(index.converged());
  constexpr size_t kBatch = 16;
  constexpr value_t kWidth = 1000;
  std::vector<RangeQuery> disjoint;
  std::vector<RangeQuery> copies;
  for (size_t i = 0; i < kBatch; i++) {
    const value_t low = static_cast<value_t>(i) * 2 * kWidth;
    disjoint.push_back({low, low + kWidth - 1});
    copies.push_back({5000, 5000 + kWidth - 1});
  }
  const double descent = index.cost_model().BinarySearchSecs();
  const double per_leaf = machine.seq_read_secs / static_cast<double>(kBatch);
  std::vector<QueryResult> out(kBatch);
  index.QueryBatch(disjoint.data(), kBatch, out.data());
  const double disjoint_secs =
      static_cast<double>(kBatch * kWidth) * per_leaf + descent;
  EXPECT_NEAR(index.last_predicted_cost(), disjoint_secs,
              disjoint_secs * 1e-12);
  index.QueryBatch(copies.data(), kBatch, out.data());
  const double copies_secs = static_cast<double>(kWidth) * per_leaf + descent;
  EXPECT_NEAR(index.last_predicted_cost(), copies_secs, copies_secs * 1e-12);
}

}  // namespace
}  // namespace progidx
