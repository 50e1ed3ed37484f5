#include <gtest/gtest.h>

#include <algorithm>
#include <limits>
#include <string>
#include <tuple>
#include <vector>

#include "btree/btree.h"
#include "common/predication.h"
#include "common/rng.h"
#include "exec/batch_refine.h"

namespace progidx {
namespace {

std::vector<value_t> SortedRandom(size_t n, uint64_t seed) {
  Rng rng(seed);
  std::vector<value_t> data(n);
  for (value_t& v : data) {
    v = static_cast<value_t>(rng.NextBounded(3 * n + 1));
  }
  std::sort(data.begin(), data.end());
  return data;
}

TEST(BPlusTreeTest, LowerBoundMatchesStd) {
  const std::vector<value_t> data = SortedRandom(10000, 1);
  BPlusTree tree(data.data(), data.size(), 8);
  tree.BuildAll();
  ASSERT_TRUE(tree.complete());
  Rng rng(2);
  for (int i = 0; i < 2000; i++) {
    const value_t v = static_cast<value_t>(rng.NextBounded(30011)) - 5;
    const size_t expected = static_cast<size_t>(
        std::lower_bound(data.begin(), data.end(), v) - data.begin());
    EXPECT_EQ(tree.LowerBound(v), expected) << "v=" << v;
  }
}

class BTreeFanoutTest : public ::testing::TestWithParam<size_t> {};

TEST_P(BTreeFanoutTest, RangeSumMatchesScan) {
  const size_t fanout = GetParam();
  const std::vector<value_t> data = SortedRandom(5000, 3);
  BPlusTree tree(data.data(), data.size(), fanout);
  tree.BuildAll();
  Rng rng(4);
  for (int i = 0; i < 200; i++) {
    value_t lo = static_cast<value_t>(rng.NextBounded(16000));
    value_t hi = static_cast<value_t>(rng.NextBounded(16000));
    if (lo > hi) std::swap(lo, hi);
    const RangeQuery q{lo, hi};
    EXPECT_EQ(tree.RangeSum(q),
              PredicatedRangeSum(data.data(), data.size(), q));
  }
}

INSTANTIATE_TEST_SUITE_P(Fanouts, BTreeFanoutTest,
                         ::testing::Values(2, 3, 4, 8, 64, 256));

TEST(BPlusTreeTest, ProgressiveBuildMatchesBulk) {
  const std::vector<value_t> data = SortedRandom(20000, 5);
  BPlusTree tree(data.data(), data.size(), 16);
  ProgressiveBTreeBuilder builder(&tree);
  size_t steps = 0;
  while (!builder.done()) {
    builder.DoWork(37);  // odd step size to exercise resumption
    steps++;
    ASSERT_LT(steps, 100000u);
  }
  EXPECT_TRUE(tree.complete());
  // Lookups after a progressive build match std::lower_bound.
  for (value_t v = -2; v < 100; v++) {
    const size_t expected = static_cast<size_t>(
        std::lower_bound(data.begin(), data.end(), v) - data.begin());
    EXPECT_EQ(tree.LowerBound(v), expected);
  }
}

TEST(BPlusTreeTest, LookupBeforeCompletionFallsBackToBinarySearch) {
  const std::vector<value_t> data = SortedRandom(10000, 6);
  BPlusTree tree(data.data(), data.size(), 8);
  ProgressiveBTreeBuilder builder(&tree);
  builder.DoWork(10);  // partial build only
  EXPECT_FALSE(tree.complete());
  const size_t expected = static_cast<size_t>(
      std::lower_bound(data.begin(), data.end(), 500) - data.begin());
  EXPECT_EQ(tree.LowerBound(500), expected);
}

TEST(BPlusTreeTest, TinyArrayNeedsNoLevels) {
  const std::vector<value_t> data = {1, 2, 3};
  BPlusTree tree(data.data(), data.size(), 8);
  EXPECT_TRUE(tree.complete());  // fits in one node
  EXPECT_EQ(tree.LowerBound(2), 1u);
  ProgressiveBTreeBuilder builder(&tree);
  EXPECT_TRUE(builder.done());
  EXPECT_EQ(builder.DoWork(100), 0u);
}

TEST(BPlusTreeTest, EmptyArray) {
  BPlusTree tree(nullptr, 0, 8);
  EXPECT_TRUE(tree.complete());
  EXPECT_EQ(tree.LowerBound(5), 0u);
  EXPECT_EQ(tree.RangeSum(RangeQuery{0, 10}), (QueryResult{0, 0}));
}

TEST(BPlusTreeTest, DuplicateHeavyLowerBoundIsFirstMatch) {
  std::vector<value_t> data(1000, 7);
  data.insert(data.begin(), 200, 3);
  data.insert(data.end(), 200, 11);  // 3...3 7...7 11...11
  BPlusTree tree(data.data(), data.size(), 4);
  tree.BuildAll();
  EXPECT_EQ(tree.LowerBound(7), 200u);
  EXPECT_EQ(tree.LowerBound(3), 0u);
  EXPECT_EQ(tree.LowerBound(11), 1200u);
  EXPECT_EQ(tree.LowerBound(12), 1400u);
}

TEST(BPlusTreeTest, TotalInternalKeysMatchesBuilderWork) {
  const std::vector<value_t> data = SortedRandom(4096, 9);
  BPlusTree tree(data.data(), data.size(), 8);
  const size_t expected = tree.TotalInternalKeys();
  ProgressiveBTreeBuilder builder(&tree);
  size_t total = 0;
  while (!builder.done()) total += builder.DoWork(100);
  EXPECT_EQ(total, expected);
}

// ---- Value-domain edges of both tree answer paths --------------------------
// BPlusTree::RangeSum and exec::BatchBTreeRangeSum on tiny and odd-sized
// columns, complete and part-built trees, against a uint64_t-wrapping
// oracle over the sorted array.

constexpr value_t kMin = std::numeric_limits<value_t>::min();
constexpr value_t kMax = std::numeric_limits<value_t>::max();

/// SUM/COUNT of sorted's values in [q.low, q.high], summed mod 2^64.
QueryResult WrappingOracle(const std::vector<value_t>& sorted,
                           const RangeQuery& q) {
  uint64_t sum = 0;
  int64_t count = 0;
  for (const value_t v : sorted) {
    if (v < q.low || v > q.high) continue;
    sum += static_cast<uint64_t>(v);
    count++;
  }
  return {static_cast<int64_t>(sum), count};
}

/// Leaves matched by at least one query of the batch.
size_t UnionOracle(const std::vector<value_t>& sorted, const RangeQuery* qs,
                   size_t count) {
  size_t covered = 0;
  for (const value_t v : sorted) {
    for (size_t i = 0; i < count; i++) {
      if (v >= qs[i].low && v <= qs[i].high) {
        covered++;
        break;
      }
    }
  }
  return covered;
}

/// n sorted values spanning [INT64_MIN, INT64_MAX] once n >= 2, so wide
/// sums wrap: full-width values, small values three apart (ranges fit
/// between them), and duplicates — of the domain's ends too.
std::vector<value_t> EdgeColumn(size_t n) {
  Rng rng(n + 1);
  std::vector<value_t> v;
  if (n >= 1) v.push_back(kMin);
  if (n >= 2) v.push_back(kMax);
  while (v.size() < n) {
    switch (rng.NextBounded(4)) {
      case 0:
        v.push_back(static_cast<value_t>(rng.Next()));
        break;
      case 1:
        v.push_back(3 * static_cast<value_t>(rng.NextBounded(40)) - 60);
        break;
      case 2:
        v.push_back(v[rng.NextBounded(v.size())]);
        break;
      default:
        v.push_back(rng.NextBounded(2) == 0 ? kMin : kMax);
        break;
    }
  }
  std::sort(v.begin(), v.end());
  return v;
}

/// Inverted ranges, the whole domain and ranges open at either end of
/// it, points and ranges bounded by (duplicated) stored values, and
/// ranges strictly between two stored values.
std::vector<RangeQuery> EdgeQueries(const std::vector<value_t>& distinct) {
  std::vector<RangeQuery> qs = {{5, -5},     {kMax, kMin}, {1, 0},
                                {kMin, kMax}, {kMin, kMin}, {kMax, kMax},
                                {kMin, 0},   {0, kMax},    {-1, 1}};
  const size_t step = std::max<size_t>(distinct.size() / 24, 1);
  for (size_t i = 0; i < distinct.size(); i += step) {
    const value_t v = distinct[i];
    qs.push_back({v, v});
    qs.push_back({kMin, v});
    qs.push_back({v, kMax});
    if (v != kMax) qs.push_back({v + 1, v});
    if (i + 1 < distinct.size()) {
      const value_t w = distinct[i + 1];
      qs.push_back({v, w});
      // Unsigned distance: w - v may exceed INT64_MAX.
      if (static_cast<uint64_t>(w) - static_cast<uint64_t>(v) >= 2) {
        qs.push_back({v + 1, w - 1});
      }
    }
  }
  return qs;
}

/// Batches of `size` whose runs are identical, nested, adjacent (one
/// run's end is the next run's begin), disjoint, empty — and all of
/// these mixed — plus windows over the edge queries.
std::vector<std::vector<RangeQuery>> EdgeBatches(
    const std::vector<value_t>& distinct,
    const std::vector<RangeQuery>& pool, size_t size) {
  const size_t m = distinct.size();
  auto value_at = [&](size_t i) { return m == 0 ? 0 : distinct[i % m]; };
  std::vector<RangeQuery> identical(size, {value_at(m / 3),
                                           value_at(2 * m / 3)});
  std::vector<RangeQuery> nested;
  std::vector<RangeQuery> adjacent;
  std::vector<RangeQuery> disjoint;
  std::vector<RangeQuery> empty;
  for (size_t j = 0; j < size; j++) {
    nested.push_back(
        {value_at(j * m / (2 * size)), value_at(m - 1 - j * m / (2 * size))});
    // Run j ends where run j + 1 begins; the last run is open above.
    // (With fewer distinct values than runs, lows repeat, and a run
    // that would end below INT64_MIN keeps just the bottom value.)
    const value_t low = value_at(j * m / size);
    const size_t next = (j + 1) * m / size;
    value_t high = kMax;
    if (j + 1 < size && next < m) {
      high = value_at(next) == kMin ? kMin : value_at(next) - 1;
    }
    adjacent.push_back({low, high});
    disjoint.push_back(j % 2 == 0 ? RangeQuery{low, high}
                                  : RangeQuery{high, low});
    empty.push_back(j % 2 == 0 || low == kMax ? RangeQuery{kMax, kMin}
                                              : RangeQuery{low + 1, low});
  }
  std::vector<RangeQuery> mixed;
  const std::vector<RangeQuery>* kinds[] = {&identical, &nested, &adjacent,
                                            &disjoint, &empty};
  for (size_t j = 0; j < size; j++) mixed.push_back((*kinds[j % 5])[j]);
  std::vector<std::vector<RangeQuery>> batches = {identical, nested, adjacent,
                                                  disjoint,  empty,  mixed};
  for (size_t start = 0; start < pool.size(); start += size) {
    std::vector<RangeQuery> window;
    for (size_t j = 0; j < size; j++) {
      window.push_back(pool[(start + j) % pool.size()]);
    }
    batches.push_back(window);
  }
  return batches;
}

using EdgeParam = std::tuple<size_t, size_t, bool>;

class BTreeEdgeTest : public ::testing::TestWithParam<EdgeParam> {};

TEST_P(BTreeEdgeTest, BothTreePathsMatchWrappingOracle) {
  const auto& [n, fanout, part_built] = GetParam();
  const std::vector<value_t> sorted = EdgeColumn(n);
  BPlusTree tree(sorted.data(), sorted.size(), fanout);
  if (part_built) {
    // A few keys short of complete: lookups fall back to binary search.
    const size_t keys = tree.TotalInternalKeys();
    ProgressiveBTreeBuilder builder(&tree);
    if (keys > 0) builder.DoWork(std::min<size_t>(3, keys - 1));
    EXPECT_EQ(tree.complete(), keys == 0);
  } else {
    tree.BuildAll();
    EXPECT_TRUE(tree.complete());
  }
  std::vector<value_t> distinct = sorted;
  distinct.erase(std::unique(distinct.begin(), distinct.end()),
                 distinct.end());
  const std::vector<RangeQuery> pool = EdgeQueries(distinct);
  for (const RangeQuery& q : pool) {
    ASSERT_EQ(tree.RangeSum(q), WrappingOracle(sorted, q))
        << "[" << q.low << ", " << q.high << "]";
  }
  exec::PredicateSet pset;
  std::vector<exec::PosRange> scratch;
  for (const size_t size : {size_t{1}, size_t{2}, size_t{16}, size_t{64}}) {
    for (const std::vector<RangeQuery>& batch :
         EdgeBatches(distinct, pool, size)) {
      std::vector<QueryResult> out(size);
      const size_t read = exec::BatchBTreeRangeSum(
          tree, batch.data(), size, out.data(), &pset, &scratch);
      EXPECT_EQ(read, UnionOracle(sorted, batch.data(), size))
          << "batch of " << size;
      for (size_t i = 0; i < size; i++) {
        ASSERT_EQ(out[i], WrappingOracle(sorted, batch[i]))
            << "batch of " << size << ", query " << i << " ["
            << batch[i].low << ", " << batch[i].high << "]";
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    Columns, BTreeEdgeTest,
    ::testing::Combine(::testing::Values(size_t{0}, size_t{1}, size_t{2},
                                         size_t{3}, size_t{64}, size_t{65},
                                         size_t{4097}),
                       ::testing::Values(size_t{4}, size_t{64}),
                       ::testing::Bool()),
    [](const ::testing::TestParamInfo<EdgeParam>& i) {
      return "n" + std::to_string(std::get<0>(i.param)) + "_fanout" +
             std::to_string(std::get<1>(i.param)) +
             (std::get<2>(i.param) ? "_part_built" : "_complete");
    });

}  // namespace
}  // namespace progidx
