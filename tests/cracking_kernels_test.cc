#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

#include "baselines/cracker_column.h"
#include "baselines/progressive_stochastic_cracking.h"
#include "baselines/standard_cracking.h"
#include "common/rng.h"

namespace progidx {
namespace {

std::vector<value_t> RandomData(size_t n, uint64_t seed) {
  Rng rng(seed);
  std::vector<value_t> data(n);
  for (value_t& v : data) v = static_cast<value_t>(rng.NextBounded(1000));
  return data;
}

void ExpectValidCrack(const value_t* data, size_t start, size_t end,
                      size_t boundary, value_t pivot) {
  ASSERT_GE(boundary, start);
  ASSERT_LE(boundary, end);
  for (size_t i = start; i < boundary; i++) {
    EXPECT_LT(data[i], pivot) << "index " << i;
  }
  for (size_t i = boundary; i < end; i++) {
    EXPECT_GE(data[i], pivot) << "index " << i;
  }
}

class CrackKernelTest : public ::testing::TestWithParam<int> {};

TEST_P(CrackKernelTest, PredicatedKernelPartitions) {
  const Column column(RandomData(777, GetParam()));
  CrackerColumn cracker(column);
  cracker.EnsureMaterialized();
  const size_t b = cracker.Crack(0, cracker.size(), 500);
  ExpectValidCrack(cracker.data(), 0, cracker.size(), b, 500);
  // Cracking permutes, never loses elements.
  std::vector<value_t> got(cracker.data(), cracker.data() + cracker.size());
  std::vector<value_t> expected = column.values();
  std::sort(got.begin(), got.end());
  std::sort(expected.begin(), expected.end());
  EXPECT_EQ(got, expected);
}

INSTANTIATE_TEST_SUITE_P(Seeds, CrackKernelTest, ::testing::Range(1, 11));

TEST(CrackKernelTest, SubrangeCrackLeavesRestUntouched) {
  const Column column(RandomData(100, 5));
  CrackerColumn cracker(column);
  cracker.EnsureMaterialized();
  const size_t b = cracker.Crack(20, 80, 500);
  ExpectValidCrack(cracker.data(), 20, 80, b, 500);
  for (size_t i = 0; i < 20; i++) EXPECT_EQ(cracker.data()[i], column[i]);
  for (size_t i = 80; i < 100; i++) EXPECT_EQ(cracker.data()[i], column[i]);
}

TEST(CrackKernelTest, EmptyAndSingleElementPieces) {
  const Column column(std::vector<value_t>{42});
  CrackerColumn cracker(column);
  cracker.EnsureMaterialized();
  EXPECT_EQ(cracker.Crack(0, 0, 10), 0u);
  EXPECT_EQ(cracker.Crack(0, 1, 10), 0u);   // 42 >= 10
  EXPECT_EQ(cracker.Crack(0, 1, 100), 1u);  // 42 < 100
}

TEST(CrackKernelTest, AllBelowAndAllAbovePivot) {
  const Column below(std::vector<value_t>{1, 2, 3, 4});
  CrackerColumn below_cracker(below);
  below_cracker.EnsureMaterialized();
  EXPECT_EQ(below_cracker.Crack(0, below.size(), 100), 4u);
  const Column above(std::vector<value_t>{101, 102, 103});
  CrackerColumn above_cracker(above);
  above_cracker.EnsureMaterialized();
  EXPECT_EQ(above_cracker.Crack(0, above.size(), 100), 0u);
}

TEST(CrackInThreeTest, SplitsAroundBothPivots) {
  std::vector<value_t> data = RandomData(1000, 12);
  const CrackInThreeResult r =
      CrackInThree(data.data(), 100, 900, 300, 600);
  ExpectValidCrack(data.data(), 100, 900, r.lo_boundary, 300);
  ExpectValidCrack(data.data(), 100, 900, r.hi_boundary, 600);
  EXPECT_LE(r.lo_boundary, r.hi_boundary);
}

TEST(PartialCrackTest, ResumableCrackMatchesFullCrack) {
  std::vector<value_t> data = RandomData(1000, 9);
  const Column reference(data);
  CrackerColumn cracker(reference);
  cracker.EnsureMaterialized();
  const size_t expected = cracker.Crack(0, cracker.size(), 444);

  PartialCrack crack = BeginPartialCrack(0, data.size(), 444);
  size_t iterations = 0;
  while (!crack.done) {
    AdvancePartialCrack(data.data(), &crack, 7);
    ASSERT_LT(++iterations, 10000u);
  }
  EXPECT_EQ(crack.boundary, expected);
  ExpectValidCrack(data.data(), 0, data.size(), crack.boundary, 444);
}

TEST(PartialCrackTest, MidCrackInvariants) {
  std::vector<value_t> data = RandomData(1000, 10);
  PartialCrack crack = BeginPartialCrack(0, data.size(), 444);
  AdvancePartialCrack(data.data(), &crack, 100);
  ASSERT_FALSE(crack.done);
  // Fringes are classified, middle is unknown.
  for (size_t i = 0; i < crack.lo; i++) EXPECT_LT(data[i], 444);
  for (size_t i = crack.hi + 1; i < data.size(); i++) {
    EXPECT_GE(data[i], 444);
  }
}

TEST(PartialCrackTest, ZeroBudgetMakesNoProgress) {
  std::vector<value_t> data = RandomData(100, 11);
  const std::vector<value_t> before = data;
  PartialCrack crack = BeginPartialCrack(0, data.size(), 444);
  EXPECT_EQ(AdvancePartialCrack(data.data(), &crack, 0), 0u);
  EXPECT_EQ(data, before);
}

TEST(PartialCrackTest, EmptyPieceIsImmediatelyDone) {
  const PartialCrack crack = BeginPartialCrack(5, 5, 42);
  EXPECT_TRUE(crack.done);
  EXPECT_EQ(crack.boundary, 5u);
}

}  // namespace
}  // namespace progidx
