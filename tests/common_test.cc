#include <gtest/gtest.h>

#include <limits>
#include <set>
#include <vector>

#include "common/predication.h"
#include "common/rng.h"
#include "common/types.h"
#include "tests/oracle.h"

namespace progidx {
namespace {

TEST(RangeQueryTest, PointQueryDetection) {
  EXPECT_TRUE((RangeQuery{5, 5}).IsPoint());
  EXPECT_FALSE((RangeQuery{5, 6}).IsPoint());
}

TEST(RngTest, Deterministic) {
  Rng a(123);
  Rng b(123);
  for (int i = 0; i < 100; i++) EXPECT_EQ(a.Next(), b.Next());
}

TEST(RngTest, DifferentSeedsDiffer) {
  Rng a(1);
  Rng b(2);
  bool any_diff = false;
  for (int i = 0; i < 16; i++) any_diff |= (a.Next() != b.Next());
  EXPECT_TRUE(any_diff);
}

TEST(RngTest, BoundedStaysInBounds) {
  Rng rng(7);
  for (int i = 0; i < 1000; i++) {
    EXPECT_LT(rng.NextBounded(17), 17u);
  }
}

TEST(RngTest, RangeInclusive) {
  Rng rng(7);
  std::set<int64_t> seen;
  for (int i = 0; i < 1000; i++) {
    const int64_t v = rng.NextInRange(-3, 3);
    EXPECT_GE(v, -3);
    EXPECT_LE(v, 3);
    seen.insert(v);
  }
  EXPECT_EQ(seen.size(), 7u);  // all values hit
}

TEST(RngTest, DoubleInUnitInterval) {
  Rng rng(9);
  for (int i = 0; i < 1000; i++) {
    const double d = rng.NextDouble();
    EXPECT_GE(d, 0.0);
    EXPECT_LT(d, 1.0);
  }
}

TEST(RngTest, GaussianRoughMoments) {
  Rng rng(11);
  double sum = 0;
  double sq = 0;
  constexpr int kSamples = 20000;
  for (int i = 0; i < kSamples; i++) {
    const double g = rng.NextGaussian();
    sum += g;
    sq += g * g;
  }
  const double mean = sum / kSamples;
  const double var = sq / kSamples - mean * mean;
  EXPECT_NEAR(mean, 0.0, 0.05);
  EXPECT_NEAR(var, 1.0, 0.1);
}

class ScanKernelTest : public ::testing::TestWithParam<int> {};

TEST_P(ScanKernelTest, PredicatedMatchesOracle) {
  Rng rng(GetParam());
  std::vector<value_t> data(1000);
  for (value_t& v : data) {
    v = static_cast<value_t>(rng.NextInRange(-500, 500));
  }
  for (int trial = 0; trial < 20; trial++) {
    value_t lo = rng.NextInRange(-600, 600);
    value_t hi = rng.NextInRange(-600, 600);
    if (lo > hi) std::swap(lo, hi);
    const RangeQuery q{lo, hi};
    const QueryResult a = PredicatedRangeSum(data.data(), data.size(), q);
    const QueryResult b = OracleRangeSum(data.data(), data.size(), q);
    EXPECT_EQ(a, b);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, ScanKernelTest, ::testing::Range(1, 9));

TEST(ScanKernelTest, EmptyInput) {
  const RangeQuery q{0, 10};
  EXPECT_EQ(PredicatedRangeSum(nullptr, 0, q), (QueryResult{0, 0}));
  EXPECT_EQ(SortedRangeSum(nullptr, 0, q), (QueryResult{0, 0}));
}

TEST(ScanKernelTest, SortedMatchesPredicated) {
  std::vector<value_t> data;
  for (value_t v = 0; v < 200; v++) data.push_back(v / 3);  // duplicates
  const RangeQuery q{10, 40};
  EXPECT_EQ(SortedRangeSum(data.data(), data.size(), q),
            PredicatedRangeSum(data.data(), data.size(), q));
}

TEST(ScanKernelTest, EmptyRangePredicate) {
  std::vector<value_t> data = {1, 2, 3};
  // high < low selects nothing.
  const QueryResult r = PredicatedRangeSum(data.data(), data.size(),
                                           RangeQuery{5, 2});
  EXPECT_EQ(r.count, 0);
  EXPECT_EQ(r.sum, 0);
}

TEST(ScanKernelTest, FullDomainSelectsAll) {
  std::vector<value_t> data = {7, -2, 9, 0};
  const QueryResult r = PredicatedRangeSum(
      data.data(), data.size(),
      RangeQuery{std::numeric_limits<value_t>::min(),
                 std::numeric_limits<value_t>::max()});
  EXPECT_EQ(r.count, 4);
  EXPECT_EQ(r.sum, 14);
}

}  // namespace
}  // namespace progidx
