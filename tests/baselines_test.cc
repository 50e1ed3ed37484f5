#include <gtest/gtest.h>

#include <algorithm>

#include "baselines/adaptive_adaptive.h"
#include "baselines/coarse_granular_index.h"
#include "baselines/full_index.h"
#include "baselines/full_scan.h"
#include "baselines/progressive_stochastic_cracking.h"
#include "baselines/standard_cracking.h"
#include "baselines/stochastic_cracking.h"
#include "workload/data_generator.h"
#include "workload/synthetic.h"

namespace progidx {
namespace {

constexpr size_t kN = 30000;

/// The cracker invariant: in-order boundaries have ascending keys and
/// ascending positions, and data left of each boundary is < its key,
/// right is >= its key.
void ExpectCrackerInvariant(const CrackerColumn& cracker) {
  if (!cracker.materialized()) return;
  value_t last_key = 0;
  size_t last_pos = 0;
  bool first = true;
  const value_t* data = cracker.data();
  cracker.index().InOrder([&](value_t key, size_t pos) {
    if (!first) {
      EXPECT_GT(key, last_key);
      EXPECT_GE(pos, last_pos);
    }
    first = false;
    last_key = key;
    last_pos = pos;
    for (size_t i = 0; i < pos; i++) {
      ASSERT_LT(data[i], key) << "element " << i << " vs boundary " << key;
    }
    for (size_t i = pos; i < cracker.size(); i++) {
      ASSERT_GE(data[i], key) << "element " << i << " vs boundary " << key;
    }
  });
}

/// Cracking permutes the copy, never loses elements.
void ExpectPermutation(const CrackerColumn& cracker, const Column& column) {
  std::vector<value_t> got(cracker.data(), cracker.data() + cracker.size());
  std::sort(got.begin(), got.end());
  std::vector<value_t> expected = column.values();
  std::sort(expected.begin(), expected.end());
  EXPECT_EQ(got, expected);
}

TEST(StandardCrackingTest, InvariantsAfterWorkload) {
  const Column column = MakeUniformColumn(kN, 61);
  StandardCracking index(column);
  FullScan oracle(column);
  WorkloadGenerator gen(WorkloadPattern::kRandom, column.min_value(),
                        column.max_value(), 200, 0.1, 62);
  for (int i = 0; i < 200; i++) {
    const RangeQuery q = gen.Next();
    EXPECT_EQ(index.Query(q), oracle.Query(q));
  }
  ExpectCrackerInvariant(index.cracker());
  ExpectPermutation(index.cracker(), column);
  // Standard cracking inserts (up to) two boundaries per query.
  EXPECT_GT(index.cracker().index().size(), 100u);
}

TEST(StandardCrackingTest, QueriesNarrowTheScannedPiece) {
  const Column column = MakeUniformColumn(kN, 63);
  StandardCracking index(column);
  const RangeQuery q{5000, 8000};
  index.Query(q);
  // After cracking at 5000 and 8001, the piece for the same query is
  // exactly the matching tuples.
  const AvlTree::Piece piece = index.cracker().PieceFor(5000);
  const QueryResult result = index.Query(q);
  EXPECT_EQ(static_cast<int64_t>(piece.end - piece.start), result.count);
}

TEST(StandardCrackingTest, ReversedRangeAnswersZero) {
  const Column column = MakeUniformColumn(kN, 65);
  StandardCracking index(column);
  FullScan oracle(column);
  // On a fresh column both bounds fall into the one piece: the crack
  // runs on the sorted bounds, and nothing lies in [10, 5].
  const QueryResult reversed = index.Query({10, 5});
  EXPECT_EQ(reversed.sum, 0);
  EXPECT_EQ(reversed.count, 0);
  ExpectCrackerInvariant(index.cracker());
  ExpectPermutation(index.cracker(), column);
  EXPECT_EQ(index.Query({5, 10}), oracle.Query({5, 10}));
}

TEST(StochasticCrackingTest, InvariantsAndCorrectness) {
  const Column column = MakeSkewedColumn(kN, 64);
  StochasticCracking index(column);
  FullScan oracle(column);
  WorkloadGenerator gen(WorkloadPattern::kSeqOver, column.min_value(),
                        column.max_value(), 300, 0.05, 65);
  for (int i = 0; i < 300; i++) {
    const RangeQuery q = gen.Next();
    EXPECT_EQ(index.Query(q), oracle.Query(q));
  }
  ExpectCrackerInvariant(index.cracker());
  ExpectPermutation(index.cracker(), column);
}

TEST(ProgressiveStochasticCrackingTest, SwapBudgetLimitsWork) {
  const Column column = MakeUniformColumn(100000, 66);
  // 1% swap budget: the first crack of the full column (100k elements)
  // cannot finish in one query.
  ProgressiveStochasticCracking index(column, /*swap_fraction=*/0.01,
                                      /*l2_elements=*/1000);
  index.Query(RangeQuery{1000, 2000});
  EXPECT_GE(index.active_partial_cracks(), 1u);
  // Eventually the partial crack completes.
  FullScan oracle(column);
  for (int i = 0; i < 400; i++) {
    const RangeQuery q{1000 + i, 2000 + i};
    EXPECT_EQ(index.Query(q), oracle.Query(q));
  }
  ExpectCrackerInvariant(index.cracker());
}

TEST(ProgressiveStochasticCrackingTest, CorrectUnderZoomWorkload) {
  const Column column = MakeSkewedColumn(kN, 67);
  ProgressiveStochasticCracking index(column);
  FullScan oracle(column);
  WorkloadGenerator gen(WorkloadPattern::kZoomInAlt, column.min_value(),
                        column.max_value(), 300, 0.08, 68);
  for (int i = 0; i < 300; i++) {
    const RangeQuery q = gen.Next();
    EXPECT_EQ(index.Query(q), oracle.Query(q));
  }
  ExpectPermutation(index.cracker(), column);
}

TEST(CoarseGranularIndexTest, FirstQueryCreatesEqualPieces) {
  const Column column = MakeUniformColumn(kN, 69);
  CoarseGranularIndex index(column, /*partitions=*/64);
  index.Query(RangeQuery{100, 200});
  // 64 partitions -> 63 internal boundaries (plus the two query cracks).
  EXPECT_GE(index.cracker().index().size(), 63u);
  ExpectCrackerInvariant(index.cracker());
  // Pieces should be roughly equal-sized: largest < 4x the ideal.
  size_t last_pos = 0;
  size_t largest = 0;
  index.cracker().index().InOrder([&](value_t, size_t pos) {
    largest = std::max(largest, pos - last_pos);
    last_pos = pos;
  });
  largest = std::max(largest, kN - last_pos);
  EXPECT_LT(largest, kN / 16);
}

TEST(CoarseGranularIndexTest, CorrectnessOnSkewedData) {
  const Column column = MakeSkewedColumn(kN, 70);
  CoarseGranularIndex index(column);
  FullScan oracle(column);
  WorkloadGenerator gen(WorkloadPattern::kPeriodic, column.min_value(),
                        column.max_value(), 200, 0.1, 71);
  for (int i = 0; i < 200; i++) {
    const RangeQuery q = gen.Next();
    EXPECT_EQ(index.Query(q), oracle.Query(q));
  }
  ExpectPermutation(index.cracker(), column);
}

TEST(AdaptiveAdaptiveTest, FirstQueryPartitionsEverything) {
  const Column column = MakeUniformColumn(kN, 72);
  AdaptiveAdaptiveIndexing index(column, /*first_fanout=*/128);
  index.Query(RangeQuery{100, 200});
  EXPECT_GT(index.cracker().index().size(), 50u);
  ExpectCrackerInvariant(index.cracker());
}

TEST(AdaptiveAdaptiveTest, CorrectnessOnSkewedData) {
  const Column column = MakeSkewedColumn(kN, 73);
  AdaptiveAdaptiveIndexing index(column);
  FullScan oracle(column);
  WorkloadGenerator gen(WorkloadPattern::kSkew, column.min_value(),
                        column.max_value(), 200, 0.1, 74);
  for (int i = 0; i < 200; i++) {
    const RangeQuery q = gen.Next();
    EXPECT_EQ(index.Query(q), oracle.Query(q));
  }
  ExpectCrackerInvariant(index.cracker());
  ExpectPermutation(index.cracker(), column);
}

TEST(FullIndexTest, ConvergesOnFirstQuery) {
  const Column column = MakeUniformColumn(kN, 75);
  FullIndex index(column);
  EXPECT_FALSE(index.converged());
  FullScan oracle(column);
  const RangeQuery q{100, 5000};
  EXPECT_EQ(index.Query(q), oracle.Query(q));
  EXPECT_TRUE(index.converged());
  // Point query via the B+-tree.
  const RangeQuery point{777, 777};
  EXPECT_EQ(index.Query(point), oracle.Query(point));
}

TEST(FullScanTest, NeverConverges) {
  const Column column = MakeUniformColumn(1000, 76);
  FullScan index(column);
  for (int i = 0; i < 10; i++) index.Query(RangeQuery{0, 100});
  EXPECT_FALSE(index.converged());
}

}  // namespace
}  // namespace progidx
