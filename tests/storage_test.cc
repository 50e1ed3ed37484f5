#include <gtest/gtest.h>

#include <vector>

#include "common/rng.h"
#include "storage/bucket_chain.h"
#include "storage/column.h"

namespace progidx {
namespace {

TEST(ColumnTest, MinMax) {
  const Column col({5, -3, 9, 0});
  EXPECT_EQ(col.min_value(), -3);
  EXPECT_EQ(col.max_value(), 9);
  EXPECT_EQ(col.size(), 4u);
}

TEST(ColumnTest, EmptyColumn) {
  const Column col;
  EXPECT_TRUE(col.empty());
  EXPECT_EQ(col.min_value(), 0);
  EXPECT_EQ(col.max_value(), 0);
}

TEST(ColumnTest, SingleElement) {
  const Column col({42});
  EXPECT_EQ(col.min_value(), 42);
  EXPECT_EQ(col.max_value(), 42);
}

TEST(BucketChainTest, AppendAndIterate) {
  BucketChain chain(4);  // tiny blocks to exercise chaining
  for (value_t v = 0; v < 10; v++) chain.Append(v);
  EXPECT_EQ(chain.size(), 10u);
  EXPECT_EQ(chain.block_count(), 3u);  // 4 + 4 + 2
  std::vector<value_t> seen;
  chain.ForEach([&](value_t v) { seen.push_back(v); });
  ASSERT_EQ(seen.size(), 10u);
  for (value_t v = 0; v < 10; v++) EXPECT_EQ(seen[v], v);
}

TEST(BucketChainTest, AppendOrderIsStable) {
  BucketChain chain(3);
  const std::vector<value_t> input = {5, 1, 5, 2, 5, 1};
  for (value_t v : input) chain.Append(v);
  std::vector<value_t> out(input.size());
  EXPECT_EQ(chain.CopyTo(out.data()), input.size());
  EXPECT_EQ(out, input);
}

TEST(BucketChainTest, AppendRunMatchesElementwiseAppend) {
  // Runs that start mid-block, span several block boundaries, and mix
  // with single appends must leave the same chain as element-wise
  // Append (AppendRun is the WC scatter's bulk flush path).
  for (size_t block : {3u, 7u, 32u, 100u}) {
    BucketChain bulk(block);
    BucketChain reference(block);
    Rng rng(91);
    std::vector<value_t> staged;
    for (int round = 0; round < 50; round++) {
      const size_t k = rng.NextBounded(70);
      staged.clear();
      for (size_t i = 0; i < k; i++) {
        staged.push_back(static_cast<value_t>(rng.NextInRange(-500, 500)));
      }
      bulk.AppendRun(staged.data(), staged.size());
      for (value_t v : staged) reference.Append(v);
      if (rng.NextBounded(2) == 0) {
        const value_t v = static_cast<value_t>(rng.NextInRange(-500, 500));
        bulk.Append(v);
        reference.Append(v);
      }
    }
    ASSERT_EQ(bulk.size(), reference.size()) << "block=" << block;
    EXPECT_EQ(bulk.block_count(), reference.block_count());
    std::vector<value_t> got(bulk.size());
    std::vector<value_t> want(reference.size());
    bulk.CopyTo(got.data());
    reference.CopyTo(want.data());
    EXPECT_EQ(got, want) << "block=" << block;
  }
}

TEST(BucketChainTest, AllocationsMatchBlockCount) {
  BucketChain chain(8);
  for (value_t v = 0; v < 25; v++) chain.Append(v);
  EXPECT_EQ(chain.allocations(), 4u);  // ceil(25/8)
}

TEST(BucketChainTest, CursorDrain) {
  BucketChain chain(4);
  for (value_t v = 0; v < 11; v++) chain.Append(v);
  BucketChain::Cursor cursor;
  std::vector<value_t> drained;
  while (!chain.AtEnd(cursor)) {
    // One element per step: the cursor must cross each block end.
    const value_t* run = nullptr;
    ASSERT_GT(chain.ContiguousRun(cursor, &run), 0u);
    drained.push_back(*run);
    chain.Advance(&cursor, 1);
    EXPECT_TRUE(chain.CursorValid(cursor));
    // At the end cursor too: the partial tail block holds 3 of 4.
    EXPECT_EQ(chain.Position(cursor), drained.size());
  }
  ASSERT_EQ(drained.size(), 11u);
  for (value_t v = 0; v < 11; v++) EXPECT_EQ(drained[v], v);
}

TEST(BucketChainTest, ClearReleasesEverything) {
  BucketChain chain(4);
  for (value_t v = 0; v < 10; v++) chain.Append(v);
  chain.Clear();
  EXPECT_TRUE(chain.empty());
  EXPECT_EQ(chain.block_count(), 0u);
  // Reusable after Clear().
  chain.Append(99);
  EXPECT_EQ(chain.size(), 1u);
}

TEST(BucketChainTest, EmptyChainCursor) {
  BucketChain chain(4);
  BucketChain::Cursor cursor;
  EXPECT_TRUE(chain.AtEnd(cursor));
}

}  // namespace
}  // namespace progidx
