#include <gtest/gtest.h>

#include <algorithm>
#include <limits>
#include <memory>
#include <string>
#include <vector>

#include "common/predication.h"
#include "common/rng.h"
#include "core/progressive_quicksort.h"
#include "core/updatable_index.h"
#include "eval/registry.h"
#include "tests/edge_columns.h"
#include "tests/oracle.h"
#include "workload/data_generator.h"

namespace progidx {
namespace {

UpdatableIndex::IndexFactory QuicksortFactory(double delta = 0.25) {
  return [delta](const Column& column) {
    return std::make_unique<ProgressiveQuicksort>(
        column, BudgetSpec::FixedDelta(delta));
  };
}

TEST(UpdatableIndexTest, AppendsVisibleImmediately) {
  UpdatableIndex index({1, 2, 3}, QuicksortFactory(), /*threshold=*/10.0);
  EXPECT_EQ(index.Query(RangeQuery{0, 100}), (QueryResult{6, 3}));
  index.Append(50);
  EXPECT_EQ(index.Query(RangeQuery{0, 100}), (QueryResult{56, 4}));
  EXPECT_EQ(index.Query(RangeQuery{50, 50}), (QueryResult{50, 1}));
  EXPECT_EQ(index.pending_count(), 1u);
}

TEST(UpdatableIndexTest, BudgetedMergeAdvancesOnlyViaQueries) {
  std::vector<value_t> initial(1000, 1);
  UpdatableIndex index(std::move(initial), QuicksortFactory(),
                       /*threshold=*/0.1);
  // Appends are O(1): crossing the threshold does NOT pause to merge.
  for (int i = 0; i < 100; i++) index.Append(2);
  EXPECT_EQ(index.merge_count(), 0u);
  EXPECT_FALSE(index.merge_in_progress());
  EXPECT_EQ(index.pending_count(), 100u);
  EXPECT_EQ(index.base_size(), 1000u);
  // The next query starts the merge and pays exactly one slice:
  // ceil(1100 / kMergeSteps) source elements.
  EXPECT_EQ(index.Query(RangeQuery{2, 2}), (QueryResult{200, 100}));
  const size_t slice =
      (1100 + UpdatableIndex::kMergeSteps - 1) / UpdatableIndex::kMergeSteps;
  EXPECT_TRUE(index.merge_in_progress());
  EXPECT_EQ(index.merge_cursor(), slice);
  EXPECT_EQ(index.pending_count(), 100u);  // frozen, not yet merged
  // Each further query advances one slice and stays exact mid-merge;
  // the merge completes within kMergeSteps queries total.
  size_t queries = 1;
  while (index.merge_in_progress()) {
    ASSERT_LE(++queries, UpdatableIndex::kMergeSteps);
    EXPECT_EQ(index.Query(RangeQuery{1, 2}), (QueryResult{1200, 1100}));
  }
  EXPECT_EQ(index.merge_count(), 1u);
  EXPECT_EQ(index.pending_count(), 0u);
  EXPECT_EQ(index.base_size(), 1100u);
  EXPECT_EQ(index.Query(RangeQuery{2, 2}), (QueryResult{200, 100}));
}

TEST(UpdatableIndexTest, ConvergesAfterMergeViaQueries) {
  const Column seed_column = MakeUniformColumn(5000, 3);
  UpdatableIndex index(seed_column.values(), QuicksortFactory(1.0),
                       /*threshold=*/0.05);
  const RangeQuery q{100, 4000};
  for (int i = 0; i < 100 && !index.converged(); i++) index.Query(q);
  ASSERT_TRUE(index.converged());
  // Appending past the threshold un-converges the index, but the merge
  // itself only runs on query time...
  for (int i = 0; i < 250; i++) index.Append(i);
  EXPECT_EQ(index.merge_count(), 0u);
  EXPECT_FALSE(index.converged());
  // ...where queries first drain the merge slices, then drive the
  // fresh progressive index over the new base back to convergence.
  for (int i = 0; i < 100 && !index.converged(); i++) index.Query(q);
  EXPECT_TRUE(index.converged());
  EXPECT_EQ(index.merge_count(), 1u);
  EXPECT_EQ(index.pending_count(), 0u);
  EXPECT_EQ(index.base_size(), 5250u);
}

TEST(UpdatableIndexTest, InterleavedSoakMatchesVectorOracle) {
  Rng rng(99);
  std::vector<value_t> oracle;
  for (int i = 0; i < 500; i++) {
    oracle.push_back(static_cast<value_t>(rng.NextBounded(10000)));
  }
  UpdatableIndex index(std::vector<value_t>(oracle), QuicksortFactory(0.1),
                       /*threshold=*/0.08);
  for (int step = 0; step < 600; step++) {
    const uint64_t roll = rng.NextBounded(4);
    if (roll == 0) {
      const value_t v = static_cast<value_t>(rng.NextBounded(10000));
      oracle.push_back(v);
      index.Append(v);
    } else if (roll == 1 && !oracle.empty()) {
      const size_t at = rng.NextBounded(oracle.size());
      index.Delete(oracle[at]);
      oracle[at] = oracle.back();
      oracle.pop_back();
    } else {
      value_t lo = static_cast<value_t>(rng.NextBounded(11000));
      value_t hi = static_cast<value_t>(rng.NextBounded(11000));
      if (lo > hi) std::swap(lo, hi);
      const RangeQuery q{lo, hi};
      const QueryResult expected =
          PredicatedRangeSum(oracle.data(), oracle.size(), q);
      ASSERT_EQ(index.Query(q), expected) << "step " << step;
    }
  }
  EXPECT_GE(index.merge_count(), 2u);  // the soak must cross merges
}

TEST(UpdatableIndexTest, WorksWithEveryProgressiveInner) {
  for (const std::string& id : ProgressiveIndexIds()) {
    UpdatableIndex index(
        MakeUniformColumn(2000, 5).values(),
        [&id](const Column& column) {
          return MakeIndex(id, column, BudgetSpec::Adaptive(0.2));
        },
        /*threshold=*/0.1);
    for (int i = 0; i < 30; i++) {
      index.Append(10000 + i);
      const QueryResult r = index.Query(RangeQuery{10000, 10100});
      EXPECT_EQ(r.count, i + 1) << id;
    }
  }
}

// The delta fold at the edges of the 64-bit domain: base columns of 0,
// 1 and 2 rows and the wide columns of tests/edge_columns.h, with
// appends and deletes of INT64_MIN and INT64_MAX in the live delta and
// then in the frozen one while a budgeted merge runs, under queries
// bounded by INT64_MIN/MAX and their inverted (low > high) twins. Every
// answer matches the oracle over the current multiset mod 2^64.
TEST(UpdatableIndexTest, ValueDomainEdgesMatchOracle) {
  constexpr value_t kMin = std::numeric_limits<value_t>::min();
  constexpr value_t kMax = std::numeric_limits<value_t>::max();
  std::vector<Column> bases;
  bases.push_back(Column(std::vector<value_t>{}));
  bases.push_back(Column(std::vector<value_t>{kMax}));
  bases.push_back(Column(std::vector<value_t>{kMin, kMax}));
  bases.push_back(FullWidthColumn(kMin, kMax));
  bases.push_back(WrappingSumsColumn());
  for (const std::string& id : ProgressiveIndexIds()) {
    for (size_t c = 0; c < bases.size(); c++) {
      const Column& base = bases[c];
      std::vector<RangeQuery> qs = {{kMin, kMax}, {kMin, kMin},
                                    {kMax, kMax}, {kMin, 0},
                                    {0, kMax},    {kMin + 1, kMax - 1}};
      if (!base.empty()) {
        const std::vector<RangeQuery> edge = EdgeQueries(base, 10);
        qs.insert(qs.end(), edge.begin(), edge.end());
      }
      for (size_t i = 0, end = qs.size(); i < end; i++) {
        if (qs[i].low < qs[i].high) qs.push_back({qs[i].high, qs[i].low});
      }
      // Four pending updates start a merge, whatever the base size.
      const double threshold =
          4.0 / static_cast<double>(std::max<size_t>(base.size(), 1));
      UpdatableIndex index(
          base.values(),
          [&id](const Column& column) {
            return MakeIndex(id, column, BudgetSpec::FixedDelta(0.25));
          },
          threshold);
      std::vector<value_t> multiset = base.values();
      size_t asked = 0;
      const auto ask_all = [&](const char* stage) {
        for (const RangeQuery& q : qs) {
          ASSERT_EQ(index.Query(q),
                    OracleRangeSum(multiset.data(), multiset.size(), q))
              << id << " column " << c << " " << stage << " query " << asked
              << " [" << q.low << ", " << q.high << "]";
          asked++;
        }
      };
      const auto append = [&](value_t v) {
        index.Append(v);
        multiset.push_back(v);
      };
      const auto remove = [&](value_t v) {
        index.Delete(v);
        multiset.erase(std::find(multiset.begin(), multiset.end(), v));
      };
      // Live delta: three appends at the domain's ends.
      append(kMin);
      append(kMax);
      append(kMax);
      ask_all("live");
      ASSERT_EQ(index.merge_count(), 0u) << id << " column " << c;
      // The fourth update freezes the delta at the next query.
      remove(kMax);
      ASSERT_EQ(index.Query(qs[0]),
                OracleRangeSum(multiset.data(), multiset.size(), qs[0]));
      ASSERT_TRUE(index.merge_in_progress()) << id << " column " << c;
      // Live updates next to the frozen ones, mid-merge.
      append(kMin);
      append(kMax);
      remove(kMin);
      ask_all("merging");
      while (index.merge_in_progress()) ask_all("merging");
      EXPECT_EQ(index.merge_count(), 1u) << id << " column " << c;
      // Deletes of INT64_MIN/MAX now hit merged values.
      remove(kMax);
      remove(kMin);
      ask_all("merged");
    }
  }
}

TEST(UpdatableIndexTest, NameReflectsInner) {
  UpdatableIndex index({1, 2}, QuicksortFactory(), 1.0);
  EXPECT_EQ(index.name(), "P. Quicksort + delta store");
}

}  // namespace
}  // namespace progidx
