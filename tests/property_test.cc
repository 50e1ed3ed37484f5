// Randomized differential soak: every index implementation, on columns
// of random size/distribution, answering randomly generated (often
// degenerate) predicates, must agree with a naive branched scan at
// every step and must keep its public invariants while building.

#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <tuple>
#include <vector>

#include "common/rng.h"
#include "eval/registry.h"
#include "tests/oracle.h"
#include "workload/data_generator.h"
#include "workload/skyserver.h"

namespace progidx {
namespace {

Column RandomColumn(Rng* rng) {
  const size_t n = 1000 + rng->NextBounded(20000);
  switch (rng->NextBounded(5)) {
    case 0:
      return MakeUniformColumn(n, rng->Next());
    case 1:
      return MakeSkewedColumn(n, rng->Next());
    case 2:
      return MakeConstantColumn(n, static_cast<value_t>(
                                       rng->NextInRange(-100, 100)));
    case 3:
      return MakeSkyServerColumn(n, rng->Next(), /*domain=*/100000);
    default: {
      // Few distinct values, negative offsets.
      std::vector<value_t> values(n);
      for (value_t& v : values) {
        v = rng->NextInRange(-5, 5) * 1000;
      }
      return Column(std::move(values));
    }
  }
}

RangeQuery RandomQuery(const Column& column, Rng* rng) {
  const value_t spread =
      std::max<value_t>(column.max_value() - column.min_value(), 1);
  auto random_value = [&]() {
    // Mostly in-domain, sometimes far outside.
    const value_t base = column.min_value() +
                         rng->NextInRange(-spread / 4, spread + spread / 4);
    return base;
  };
  switch (rng->NextBounded(4)) {
    case 0: {  // point query on an existing element
      const value_t v = column[rng->NextBounded(column.size())];
      return RangeQuery{v, v};
    }
    case 1: {  // random point
      const value_t v = random_value();
      return RangeQuery{v, v};
    }
    default: {
      value_t lo = random_value();
      value_t hi = random_value();
      if (lo > hi) std::swap(lo, hi);
      return RangeQuery{lo, hi};
    }
  }
}

using SoakParam = std::tuple<std::string, int>;

class DifferentialSoakTest : public ::testing::TestWithParam<SoakParam> {};

TEST_P(DifferentialSoakTest, AgreesWithNaiveScanAlways) {
  const auto& [id, seed] = GetParam();
  Rng rng(static_cast<uint64_t>(seed) * 7919);
  const Column column = RandomColumn(&rng);
  // Random budget flavor for progressive techniques.
  BudgetSpec budget;
  switch (rng.NextBounded(3)) {
    case 0:
      budget = BudgetSpec::FixedDelta(0.01 + 0.5 * rng.NextDouble());
      break;
    case 1:
      budget = BudgetSpec::FixedBudget(0.05 + 0.4 * rng.NextDouble());
      break;
    default:
      budget = BudgetSpec::Adaptive(0.05 + 0.4 * rng.NextDouble());
      break;
  }
  auto index = MakeIndex(id, column, budget);
  bool was_converged = false;
  for (int i = 0; i < 120; i++) {
    const RangeQuery q = RandomQuery(column, &rng);
    const QueryResult expected = OracleRangeSum(column, q);
    const QueryResult got = index->Query(q);
    ASSERT_EQ(got.sum, expected.sum)
        << id << " seed=" << seed << " query " << i << " [" << q.low << ","
        << q.high << "]";
    ASSERT_EQ(got.count, expected.count)
        << id << " seed=" << seed << " query " << i;
    // Convergence is monotone: once converged, always converged.
    if (was_converged) {
      ASSERT_TRUE(index->converged());
    }
    was_converged = index->converged();
  }
}

std::vector<SoakParam> SoakParams() {
  std::vector<SoakParam> params;
  std::vector<std::string> ids = AllIndexIds();
  for (const std::string& id : ExtensionIndexIds()) ids.push_back(id);
  for (const std::string& id : ids) {
    for (int seed = 1; seed <= 4; seed++) params.emplace_back(id, seed);
  }
  return params;
}

INSTANTIATE_TEST_SUITE_P(AllIndexes, DifferentialSoakTest,
                         ::testing::ValuesIn(SoakParams()),
                         [](const auto& pinfo) {
                           return std::get<0>(pinfo.param) + "_seed" +
                                  std::to_string(std::get<1>(pinfo.param));
                         });

class RepeatedQueryTest : public ::testing::TestWithParam<std::string> {};

TEST_P(RepeatedQueryTest, IdenticalQueriesIdenticalAnswers) {
  // Indexing work between identical queries must never change answers.
  Rng rng(4242);
  const Column column = MakeSkewedColumn(8000, 11);
  auto index = MakeIndex(GetParam(), column, BudgetSpec::FixedDelta(0.03));
  const RangeQuery q{2000, 6000};
  const QueryResult first = index->Query(q);
  for (int i = 0; i < 80; i++) {
    ASSERT_EQ(index->Query(q), first) << "repeat " << i;
  }
}

INSTANTIATE_TEST_SUITE_P(AllIds, RepeatedQueryTest,
                         ::testing::ValuesIn(AllIndexIds()),
                         [](const auto& pinfo) { return pinfo.param; });

}  // namespace
}  // namespace progidx
