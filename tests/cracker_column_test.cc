#include <gtest/gtest.h>

#include <limits>
#include <vector>

#include "baselines/cracker_column.h"
#include "common/rng.h"

namespace progidx {
namespace {

/// A cracker column of 1000 elements whose index these cases fill by
/// hand, without cracking, so the values never matter.
class CrackerIndexTest : public ::testing::Test {
 protected:
  const Column column_{std::vector<value_t>(1000)};
  CrackerColumn cracker_{column_};
};

TEST_F(CrackerIndexTest, EmptyIndexPieceIsWholeColumn) {
  const CrackerColumn::Piece piece = cracker_.PieceFor(42);
  EXPECT_EQ(piece.start, 0u);
  EXPECT_EQ(piece.end, 1000u);
}

TEST_F(CrackerIndexTest, AddBoundaryAndContains) {
  cracker_.AddBoundary(10, 100);
  cracker_.AddBoundary(20, 200);
  EXPECT_TRUE(cracker_.index().contains(10));
  EXPECT_TRUE(cracker_.index().contains(20));
  EXPECT_FALSE(cracker_.index().contains(15));
  EXPECT_EQ(cracker_.index().size(), 2u);
}

TEST_F(CrackerIndexTest, DuplicateKeyKeepsFirstPosition) {
  cracker_.AddBoundary(10, 100);
  cracker_.AddBoundary(10, 999);
  EXPECT_EQ(cracker_.index().size(), 1u);
  EXPECT_EQ(cracker_.PieceFor(10).start, 100u);
}

TEST_F(CrackerIndexTest, PieceLookup) {
  cracker_.AddBoundary(10, 100);
  cracker_.AddBoundary(20, 200);
  cracker_.AddBoundary(30, 300);
  // v below all boundaries.
  EXPECT_EQ(cracker_.PieceFor(5).start, 0u);
  EXPECT_EQ(cracker_.PieceFor(5).end, 100u);
  // v equal to a boundary key belongs to the right piece.
  EXPECT_EQ(cracker_.PieceFor(10).start, 100u);
  EXPECT_EQ(cracker_.PieceFor(10).end, 200u);
  // v in the middle.
  EXPECT_EQ(cracker_.PieceFor(25).start, 200u);
  EXPECT_EQ(cracker_.PieceFor(25).end, 300u);
  // v above all boundaries.
  EXPECT_EQ(cracker_.PieceFor(99).start, 300u);
  EXPECT_EQ(cracker_.PieceFor(99).end, 1000u);
  // A range covers from low's piece start to high's piece end.
  EXPECT_EQ(cracker_.Cover({12, 25}).start, 100u);
  EXPECT_EQ(cracker_.Cover({12, 25}).end, 300u);
}

TEST_F(CrackerIndexTest, KeysIterateInOrder) {
  Rng rng(17);
  for (size_t i = 0; i < 500; i++) {
    cracker_.AddBoundary(static_cast<value_t>(rng.NextBounded(10000)), i);
  }
  std::vector<value_t> keys;
  for (const auto& boundary : cracker_.index()) keys.push_back(boundary.first);
  EXPECT_EQ(keys.size(), cracker_.index().size());
  for (size_t i = 1; i < keys.size(); i++) EXPECT_LT(keys[i - 1], keys[i]);
}

TEST_F(CrackerIndexTest, BoundariesAtTheDomainEdges) {
  constexpr value_t kMin = std::numeric_limits<value_t>::min();
  constexpr value_t kMax = std::numeric_limits<value_t>::max();
  cracker_.AddBoundary(kMin, 0);
  cracker_.AddBoundary(kMax, 900);
  EXPECT_EQ(cracker_.PieceFor(kMin).start, 0u);
  EXPECT_EQ(cracker_.PieceFor(kMin).end, 900u);
  EXPECT_EQ(cracker_.PieceFor(kMax - 1).end, 900u);
  EXPECT_EQ(cracker_.PieceFor(kMax).start, 900u);
  EXPECT_EQ(cracker_.PieceFor(kMax).end, 1000u);
  EXPECT_EQ(cracker_.Cover({kMin, kMax}).start, 0u);
  EXPECT_EQ(cracker_.Cover({kMin, kMax}).end, 1000u);
}

std::vector<value_t> RandomData(size_t n, uint64_t seed) {
  Rng rng(seed);
  std::vector<value_t> data(n);
  for (value_t& v : data) v = static_cast<value_t>(rng.NextBounded(1000));
  return data;
}

TEST(CrackerColumnTest, CrackAtRecordsTheBoundary) {
  const Column column(RandomData(777, 3));
  CrackerColumn cracker(column);
  cracker.EnsureMaterialized();
  cracker.CrackAt(500);
  cracker.CrackAt(200);
  ASSERT_EQ(cracker.index().size(), 2u);
  const size_t b500 = cracker.index().at(500);
  const size_t b200 = cracker.index().at(200);
  EXPECT_EQ(cracker.PieceFor(200).start, b200);
  EXPECT_EQ(cracker.PieceFor(200).end, b500);
  for (size_t i = 0; i < cracker.size(); i++) {
    const value_t v = cracker.data()[i];
    EXPECT_EQ(i < b200, v < 200) << "index " << i;
    EXPECT_EQ(i < b500, v < 500) << "index " << i;
  }
}

TEST(CrackerColumnTest, CrackAtExistingBoundaryChangesNothing) {
  const Column column(RandomData(777, 4));
  CrackerColumn cracker(column);
  cracker.EnsureMaterialized();
  cracker.CrackAt(500);
  cracker.CrackAt(200);
  const std::vector<value_t> data_before(cracker.data(),
                                         cracker.data() + cracker.size());
  const CrackerColumn::Index index_before = cracker.index();
  // Every piece right of a boundary holds only values >= its key, so a
  // repeated crack there would find nothing to move but still rewrite
  // the piece's order.
  cracker.CrackAt(500);
  cracker.CrackAt(200);
  EXPECT_EQ(std::vector<value_t>(cracker.data(),
                                 cracker.data() + cracker.size()),
            data_before);
  EXPECT_EQ(cracker.index(), index_before);
}

TEST(CrackerColumnTest, CrackAtTheDomainEdges) {
  constexpr value_t kMin = std::numeric_limits<value_t>::min();
  constexpr value_t kMax = std::numeric_limits<value_t>::max();
  const Column column(std::vector<value_t>{kMax, 7, kMin, kMax, 3, kMin});
  CrackerColumn cracker(column);
  cracker.EnsureMaterialized();
  cracker.CrackAt(kMin);
  cracker.CrackAt(kMax);
  EXPECT_EQ(cracker.index().at(kMin), 0u);  // nothing lies below kMin
  EXPECT_EQ(cracker.index().at(kMax), 4u);
  EXPECT_EQ(cracker.PieceFor(kMax).start, 4u);
  EXPECT_EQ(cracker.PieceFor(kMax).end, 6u);
  EXPECT_EQ(cracker.Answer({kMax, kMax}).count, 2);
  EXPECT_EQ(cracker.Answer({kMin, kMin}).count, 2);
}

}  // namespace
}  // namespace progidx
