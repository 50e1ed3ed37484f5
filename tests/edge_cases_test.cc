// Edge cases shared across all techniques: degenerate columns,
// degenerate predicates, and extreme budgets.

#include <gtest/gtest.h>

#include <limits>
#include <string>
#include <vector>

#include "baselines/full_scan.h"
#include "eval/registry.h"
#include "exec/zero_budget_scan.h"
#include "tests/edge_columns.h"
#include "tests/oracle.h"
#include "workload/data_generator.h"

namespace progidx {
namespace {

class AllIndexesTest : public ::testing::TestWithParam<std::string> {};

TEST_P(AllIndexesTest, EmptyColumn) {
  const Column column(std::vector<value_t>{});
  auto index = MakeIndex(GetParam(), column, BudgetSpec::Adaptive());
  const QueryResult r = index->Query(RangeQuery{0, 100});
  EXPECT_EQ(r.sum, 0);
  EXPECT_EQ(r.count, 0);
}

TEST_P(AllIndexesTest, SingleElementColumn) {
  const Column column(std::vector<value_t>{42});
  auto index = MakeIndex(GetParam(), column, BudgetSpec::Adaptive());
  for (int i = 0; i < 5; i++) {
    EXPECT_EQ(index->Query(RangeQuery{0, 100}), (QueryResult{42, 1}));
    EXPECT_EQ(index->Query(RangeQuery{43, 100}), (QueryResult{0, 0}));
    EXPECT_EQ(index->Query(RangeQuery{42, 42}), (QueryResult{42, 1}));
  }
}

TEST_P(AllIndexesTest, AllEqualColumn) {
  const Column column = MakeConstantColumn(5000, 7);
  auto index = MakeIndex(GetParam(), column, BudgetSpec::Adaptive());
  for (int i = 0; i < 20; i++) {
    EXPECT_EQ(index->Query(RangeQuery{7, 7}), (QueryResult{35000, 5000}));
    EXPECT_EQ(index->Query(RangeQuery{0, 6}), (QueryResult{0, 0}));
    EXPECT_EQ(index->Query(RangeQuery{8, 100}), (QueryResult{0, 0}));
  }
}

TEST_P(AllIndexesTest, NegativeValues) {
  std::vector<value_t> values;
  for (value_t v = -500; v < 500; v++) values.push_back(v);
  const Column column(std::move(values));
  auto index = MakeIndex(GetParam(), column, BudgetSpec::Adaptive());
  FullScan oracle(column);
  for (int i = 0; i < 20; i++) {
    const RangeQuery q{-100, 50};
    EXPECT_EQ(index->Query(q), oracle.Query(q));
    const RangeQuery all{-500, 499};
    EXPECT_EQ(index->Query(all), oracle.Query(all));
  }
}

TEST_P(AllIndexesTest, PredicateOutsideDomain) {
  const Column column = MakeUniformColumn(2000, 5);
  auto index = MakeIndex(GetParam(), column, BudgetSpec::Adaptive());
  for (int i = 0; i < 10; i++) {
    // Entirely below the domain.
    EXPECT_EQ(index->Query(RangeQuery{-1000, -1}), (QueryResult{0, 0}));
    // Entirely above.
    EXPECT_EQ(index->Query(RangeQuery{1000000, 2000000}),
              (QueryResult{0, 0}));
  }
}

TEST_P(AllIndexesTest, FullDomainQuery) {
  const Column column = MakeUniformColumn(2000, 6);
  auto index = MakeIndex(GetParam(), column, BudgetSpec::Adaptive());
  FullScan oracle(column);
  const RangeQuery all{std::numeric_limits<value_t>::min(),
                       std::numeric_limits<value_t>::max()};
  for (int i = 0; i < 10; i++) {
    EXPECT_EQ(index->Query(all), oracle.Query(all));
  }
}

TEST_P(AllIndexesTest, TwoDistinctValues) {
  std::vector<value_t> values;
  for (int i = 0; i < 3000; i++) values.push_back(i % 2 == 0 ? 10 : 20);
  const Column column(std::move(values));
  auto index = MakeIndex(GetParam(), column, BudgetSpec::Adaptive());
  for (int i = 0; i < 20; i++) {
    EXPECT_EQ(index->Query(RangeQuery{10, 10}), (QueryResult{15000, 1500}));
    EXPECT_EQ(index->Query(RangeQuery{20, 20}), (QueryResult{30000, 1500}));
    EXPECT_EQ(index->Query(RangeQuery{11, 19}), (QueryResult{0, 0}));
  }
}

// Columns at the edges of the 64-bit domain — sums that wrap, widths
// beyond INT64_MAX, and a two-element column holding both ends of it —
// under edge queries interleaved with inverted (low > high) ones: every
// technique, and the zero-budget scan the serving layer degrades to,
// matches the oracle mod 2^64.
TEST_P(AllIndexesTest, ValueDomainEdgesMatchOracle) {
  constexpr value_t kMin = std::numeric_limits<value_t>::min();
  constexpr value_t kMax = std::numeric_limits<value_t>::max();
  std::vector<Column> columns;
  columns.push_back(WrappingSumsColumn());
  columns.push_back(FullWidthColumn(kMin, kMax - 1));
  columns.push_back(FullWidthColumn(kMin + 5, kMax));
  columns.push_back(Column(std::vector<value_t>{kMin, kMax}));
  for (size_t c = 0; c < columns.size(); c++) {
    const Column& column = columns[c];
    std::vector<RangeQuery> qs;
    for (const RangeQuery& q : EdgeQueries(column, 64)) {
      qs.push_back(q);
      if (q.low < q.high) qs.push_back({q.high, q.low});
    }
    auto index = MakeIndex(GetParam(), column, BudgetSpec::FixedDelta(0.25));
    for (size_t i = 0; i < qs.size(); i++) {
      const QueryResult expected = OracleRangeSum(column, qs[i]);
      ASSERT_EQ(index->Query(qs[i]), expected)
          << "column " << c << " query " << i << " [" << qs[i].low << ", "
          << qs[i].high << "]";
      ASSERT_EQ(exec::ZeroBudgetScan(column, qs[i]), expected)
          << "column " << c << " query " << i;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(AllIds, AllIndexesTest,
                         ::testing::ValuesIn(AllIndexIds()),
                         [](const auto& pinfo) { return pinfo.param; });

class ProgressiveExtremeBudgetTest
    : public ::testing::TestWithParam<std::string> {};

TEST_P(ProgressiveExtremeBudgetTest, TinyFixedDeltaStaysCorrect) {
  const Column column = MakeUniformColumn(5000, 8);
  auto index =
      MakeIndex(GetParam(), column, BudgetSpec::FixedDelta(0.001));
  FullScan oracle(column);
  for (int i = 0; i < 100; i++) {
    const RangeQuery q{100 + i, 2000 + i};
    EXPECT_EQ(index->Query(q), oracle.Query(q));
  }
}

TEST_P(ProgressiveExtremeBudgetTest, DeltaOneConvergesQuickly) {
  const Column column = MakeUniformColumn(5000, 9);
  // Synthetic machine constants: the measured ones vary with ambient
  // load and steer the budget → work-unit conversion, so the
  // convergence count is only deterministic when they are pinned.
  MachineConstants mc;
  mc.seq_read_secs = 1e-9;
  mc.seq_write_secs = 2e-9;
  mc.random_access_secs = 5e-8;
  mc.swap_secs = 3e-9;
  mc.alloc_secs = 1e-7;
  mc.bucket_scan_secs = 2e-9;
  mc.bucket_append_secs = 3e-9;
  mc.batch_lookup_secs = 1e-9;
  ProgressiveOptions options;
  options.machine = &mc;
  auto index =
      MakeIndex(GetParam(), column, BudgetSpec::FixedDelta(1.0), options);
  FullScan oracle(column);
  int queries = 0;
  while (!index->converged()) {
    const RangeQuery q{100, 2000};
    EXPECT_EQ(index->Query(q), oracle.Query(q));
    ASSERT_LT(++queries, 50);  // a handful of full-delta queries suffice
  }
}

INSTANTIATE_TEST_SUITE_P(Progressive, ProgressiveExtremeBudgetTest,
                         ::testing::ValuesIn(ProgressiveIndexIds()),
                         [](const auto& pinfo) { return pinfo.param; });

}  // namespace
}  // namespace progidx
