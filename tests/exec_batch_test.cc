#include <gtest/gtest.h>

#include <algorithm>
#include <cstdlib>
#include <limits>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "baselines/full_scan.h"
#include "baselines/standard_cracking.h"
#include "common/predication.h"
#include "common/rng.h"
#include "core/progressive_bucketsort.h"
#include "core/progressive_quicksort.h"
#include "core/progressive_radixsort_lsd.h"
#include "core/progressive_radixsort_msd.h"
#include "eval/experiment.h"
#include "eval/registry.h"
#include "exec/query_batch.h"
#include "common/env.h"
#include "exec/shared_scan.h"
#include "parallel/thread_pool.h"
#include "workload/data_generator.h"

// The shared-scan batch subsystem's contract (docs/batching.md):
//
//  1. A batch of one is bit-identical to the single-query path —
//     results, cost prediction, convergence trajectory, and final
//     index state — for every batch-aware technique.
//  2. A batch of N answers every query exactly (same sums/counts as
//     running the identical query set sequentially), because answers
//     are always computed against a consistent index state.
//  3. Batch answers are bit-identical for every thread-pool lane
//     count, like everything else built on src/parallel/.

namespace progidx {
namespace {

class ScopedLanes {
 public:
  explicit ScopedLanes(size_t lanes) { parallel::SetLanesForTesting(lanes); }
  ~ScopedLanes() { parallel::SetLanesForTesting(0); }
};

std::vector<value_t> RandomValues(size_t n, uint64_t seed) {
  Rng rng(seed);
  std::vector<value_t> v(n);
  for (value_t& x : v) {
    x = static_cast<value_t>(rng.NextBounded(static_cast<uint64_t>(n)));
  }
  return v;
}

std::vector<RangeQuery> RandomQueries(size_t count, value_t domain,
                                      uint64_t seed) {
  Rng rng(seed);
  std::vector<RangeQuery> qs(count);
  for (RangeQuery& q : qs) {
    const value_t a =
        static_cast<value_t>(rng.NextBounded(static_cast<uint64_t>(domain)));
    const value_t w = static_cast<value_t>(
        rng.NextBounded(static_cast<uint64_t>(domain) / 4 + 1));
    q.low = a;
    q.high = a + w;
  }
  return qs;
}

// ---- PredicateSet ---------------------------------------------------------

TEST(PredicateSetTest, MatchesPerQueryPredicatedScans) {
  const std::vector<value_t> data = RandomValues(50000, 11);
  for (const size_t nq : {size_t{1}, size_t{2}, size_t{7}, size_t{33}}) {
    const std::vector<RangeQuery> qs =
        RandomQueries(nq, static_cast<value_t>(data.size()), 17 + nq);
    exec::PredicateSet pset;
    pset.Reset(qs.data(), qs.size());
    pset.Scan(data.data(), data.size());
    std::vector<QueryResult> out(nq);
    pset.AccumulateInto(out.data());
    for (size_t i = 0; i < nq; i++) {
      const QueryResult expected =
          PredicatedRangeSum(data.data(), data.size(), qs[i]);
      EXPECT_EQ(out[i], expected) << "query " << i << " of " << nq;
    }
  }
}

TEST(PredicateSetTest, HandlesEdgePredicates) {
  const std::vector<value_t> data = {std::numeric_limits<value_t>::min(),
                                     -5, -1, 0, 1, 7, 7, 7, 42,
                                     std::numeric_limits<value_t>::max()};
  const std::vector<RangeQuery> qs = {
      {std::numeric_limits<value_t>::min(),
       std::numeric_limits<value_t>::max()},  // everything (open top)
      {7, 7},                                 // point query on a duplicate
      {8, 41},                                // gap: empty result
      {0, std::numeric_limits<value_t>::max()},
      {std::numeric_limits<value_t>::min(), -1},
  };
  exec::PredicateSet pset;
  pset.Reset(qs.data(), qs.size());
  pset.Scan(data.data(), data.size());
  std::vector<QueryResult> out(qs.size());
  pset.AccumulateInto(out.data());
  for (size_t i = 0; i < qs.size(); i++) {
    const QueryResult expected =
        PredicatedRangeSum(data.data(), data.size(), qs[i]);
    EXPECT_EQ(out[i], expected) << "edge query " << i;
  }
  // The same edge predicates padded past kTiledBatchMax, so the
  // elementary-interval regime (bounds/open-top mapping, the
  // ScanSerialInto walk) faces them too — random pads cannot produce a
  // saturated q.high.
  std::vector<RangeQuery> big = qs;
  const std::vector<RangeQuery> pad =
      RandomQueries(exec::PredicateSet::kTiledBatchMax + 8, 40, 71);
  big.insert(big.end(), pad.begin(), pad.end());
  pset.Reset(big.data(), big.size());
  pset.Scan(data.data(), data.size());
  std::vector<QueryResult> big_out(big.size());
  pset.AccumulateInto(big_out.data());
  ASSERT_GT(pset.bound_count(), 0u);  // really the interval regime
  for (size_t i = 0; i < big.size(); i++) {
    const QueryResult expected =
        PredicatedRangeSum(data.data(), data.size(), big[i]);
    EXPECT_EQ(big_out[i], expected) << "interval-regime query " << i;
  }
}

TEST(PredicateSetTest, ScanIsBitIdenticalAcrossLaneCounts) {
  const std::vector<value_t> data = RandomValues(300000, 23);
  const std::vector<RangeQuery> qs =
      RandomQueries(16, static_cast<value_t>(data.size()), 29);
  std::vector<QueryResult> reference(qs.size());
  {
    ScopedLanes lanes(1);
    exec::PredicateSet pset;
    pset.Reset(qs.data(), qs.size());
    pset.Scan(data.data(), data.size());
    pset.AccumulateInto(reference.data());
  }
  for (const size_t t : {size_t{2}, size_t{4}, size_t{8}}) {
    ScopedLanes lanes(t);
    exec::PredicateSet pset;
    pset.Reset(qs.data(), qs.size());
    pset.Scan(data.data(), data.size());
    std::vector<QueryResult> out(qs.size());
    pset.AccumulateInto(out.data());
    for (size_t i = 0; i < qs.size(); i++) {
      EXPECT_EQ(out[i], reference[i]) << "T=" << t << " query " << i;
    }
  }
}

/// Compares one PredicateSet pass against per-query PredicatedRangeSum
/// over the same data — the exactness oracle for every regime.
void ExpectMatchesPerQueryScans(const std::vector<value_t>& data,
                                const std::vector<RangeQuery>& qs,
                                const char* label) {
  exec::PredicateSet pset;
  pset.Reset(qs.data(), qs.size());
  pset.Scan(data.data(), data.size());
  std::vector<QueryResult> out(qs.size());
  pset.AccumulateInto(out.data());
  for (size_t i = 0; i < qs.size(); i++) {
    const QueryResult expected =
        PredicatedRangeSum(data.data(), data.size(), qs[i]);
    EXPECT_EQ(out[i], expected) << label << " query " << i;
  }
}

TEST(PredicateSetTest, DegenerateAndDuplicatePredicates) {
  const std::vector<value_t> data = RandomValues(20000, 77);
  constexpr value_t kMin = std::numeric_limits<value_t>::min();
  constexpr value_t kMax = std::numeric_limits<value_t>::max();
  // Empty (low > high), duplicate, full-domain, and point predicates
  // together in the tiled regime.
  const std::vector<RangeQuery> mixed = {
      {100, 50},         // empty: low > high
      {kMax, kMax - 1},  // empty at the very top of the domain
      {500, 1000},       {500, 1000}, {500, 1000},  // duplicates
      {kMin, kMax},      {kMin, kMax},              // full domain
      {42, 42},                                     // point
  };
  ExpectMatchesPerQueryScans(data, mixed, "tiled mixed");
  // The same shapes pushed past kTiledBatchMax, so the interval index
  // (bounds dedupe, empty spans, the open-top path) faces them too.
  std::vector<RangeQuery> big = mixed;
  while (big.size() <= exec::PredicateSet::kTiledBatchMax + 4) {
    big.insert(big.end(), mixed.begin(), mixed.end());
  }
  ExpectMatchesPerQueryScans(data, big, "interval mixed");
  // A batch made entirely of full-domain queries: one bound, open top.
  const std::vector<RangeQuery> full_domain(
      exec::PredicateSet::kTiledBatchMax + 8, RangeQuery{kMin, kMax});
  ExpectMatchesPerQueryScans(data, full_domain, "interval full-domain");
  // A batch made entirely of empty predicates.
  const std::vector<RangeQuery> all_empty(
      exec::PredicateSet::kTiledBatchMax + 8, RangeQuery{100, 50});
  ExpectMatchesPerQueryScans(data, all_empty, "interval all-empty");
  // Batch > kTiledBatchMax with one distinct bound pair.
  const std::vector<RangeQuery> one_bound(
      exec::PredicateSet::kTiledBatchMax + 9, RangeQuery{123, 4567});
  ExpectMatchesPerQueryScans(data, one_bound, "interval one-bound");
  // ... and the saturated-high variant (a single low bound, open top).
  const std::vector<RangeQuery> one_bound_open(
      exec::PredicateSet::kTiledBatchMax + 9, RangeQuery{123, kMax});
  ExpectMatchesPerQueryScans(data, one_bound_open, "interval open-top");
}

TEST(PredicateSetTest, ScanRunsMatchesWholeScan) {
  const std::vector<value_t> data = RandomValues(120000, 91);
  for (const size_t nq : {size_t{1}, size_t{3}, size_t{33}, size_t{60}}) {
    const std::vector<RangeQuery> qs =
        RandomQueries(nq, static_cast<value_t>(data.size()), 101 + nq);
    std::vector<QueryResult> reference(nq);
    {
      exec::PredicateSet pset;
      pset.Reset(qs.data(), qs.size());
      pset.Scan(data.data(), data.size());
      pset.AccumulateInto(reference.data());
    }
    // The same data split into uneven discontiguous runs (zero-length
    // runs included), across serial and parallel run-list paths.
    std::vector<parallel::SrcRun> runs;
    size_t pos = 0;
    size_t step = 1;
    while (pos < data.size()) {
      const size_t len = std::min(step % 7001 + 1, data.size() - pos);
      runs.push_back({data.data() + pos, len});
      if (step % 5 == 0) runs.push_back({data.data() + pos, 0});
      pos += len;
      step = step * 3 + 1;
    }
    for (const size_t t : {size_t{1}, size_t{4}}) {
      ScopedLanes lanes(t);
      exec::PredicateSet pset;
      pset.Reset(qs.data(), qs.size());
      pset.ScanRuns(runs.data(), runs.size());
      EXPECT_EQ(pset.scanned_elements(), data.size());
      std::vector<QueryResult> out(nq);
      pset.AccumulateInto(out.data());
      for (size_t i = 0; i < nq; i++) {
        EXPECT_EQ(out[i], reference[i])
            << "nq=" << nq << " T=" << t << " query " << i;
      }
    }
  }
}

TEST(MergePosRangesTest, SortsAndCoalesces) {
  std::vector<exec::PosRange> ranges = {
      {50, 60}, {0, 10}, {8, 20}, {20, 25}, {40, 45}};
  exec::MergePosRanges(&ranges);
  ASSERT_EQ(ranges.size(), 3u);
  EXPECT_EQ(ranges[0].begin, 0u);
  EXPECT_EQ(ranges[0].end, 25u);
  EXPECT_EQ(ranges[1].begin, 40u);
  EXPECT_EQ(ranges[1].end, 45u);
  EXPECT_EQ(ranges[2].begin, 50u);
  EXPECT_EQ(ranges[2].end, 60u);
}

// ---- Batch-of-1 parity ----------------------------------------------------

/// Restores the original PROGIDX_BATCH on scope exit, so harness tests
/// cannot leak into (or drain the batching out of) the PROGIDX_BATCH=16
/// ctest lane.
class ScopedBatchEnv {
 public:
  ScopedBatchEnv() {
    const char* old = env::Get("PROGIDX_BATCH");
    had_ = old != nullptr;
    if (had_) saved_ = old;
  }
  ~ScopedBatchEnv() {
    if (had_) {
      setenv("PROGIDX_BATCH", saved_.c_str(), 1);
    } else {
      unsetenv("PROGIDX_BATCH");
    }
  }

 private:
  bool had_ = false;
  std::string saved_;
};

/// Drives two fresh instances of `id` over the same query stream — one
/// through Query, one through QueryBatch(count=1) — and requires
/// bit-identical results, predictions, and convergence at every step.
/// Returns the pair for final-state comparison.
std::pair<std::unique_ptr<IndexBase>, std::unique_ptr<IndexBase>>
DriveBatchOfOne(const std::string& id, const Column& col_a,
                const Column& col_b, const std::vector<RangeQuery>& qs) {
  const BudgetSpec budget = BudgetSpec::FixedDelta(0.25);
  auto single = MakeIndex(id, col_a, budget);
  auto batched = MakeIndex(id, col_b, budget);
  for (size_t i = 0; i < qs.size(); i++) {
    const QueryResult expected = single->Query(qs[i]);
    QueryResult got;
    batched->QueryBatch(&qs[i], 1, &got);
    EXPECT_EQ(got, expected) << id << " query " << i;
    EXPECT_EQ(batched->last_predicted_cost(), single->last_predicted_cost())
        << id << " predicted cost diverged at query " << i;
    EXPECT_EQ(batched->converged(), single->converged())
        << id << " convergence diverged at query " << i;
  }
  return {std::move(single), std::move(batched)};
}

TEST(BatchOfOneParityTest, ProgressiveIndexesResultsAndState) {
  const size_t n = 20000;
  const std::vector<value_t> values = RandomValues(n, 5);
  const std::vector<RangeQuery> qs =
      RandomQueries(160, static_cast<value_t>(n), 7);
  for (const std::string& id : ProgressiveIndexIds()) {
    Column col_a{std::vector<value_t>(values)};
    Column col_b{std::vector<value_t>(values)};
    auto [single, batched] = DriveBatchOfOne(id, col_a, col_b, qs);
    ASSERT_TRUE(single->converged()) << id << " needs more parity queries";
    // Both converged at the same step with identical answers along the
    // way; the final index arrays must also be bitwise equal.
    if (id == "pq") {
      EXPECT_EQ(static_cast<ProgressiveQuicksort*>(single.get())
                    ->index_array(),
                static_cast<ProgressiveQuicksort*>(batched.get())
                    ->index_array());
    } else if (id == "pb") {
      EXPECT_EQ(
          static_cast<ProgressiveBucketsort*>(single.get())->final_array(),
          static_cast<ProgressiveBucketsort*>(batched.get())->final_array());
    } else if (id == "plsd") {
      EXPECT_EQ(static_cast<ProgressiveRadixsortLSD*>(single.get())
                    ->final_array(),
                static_cast<ProgressiveRadixsortLSD*>(batched.get())
                    ->final_array());
    } else if (id == "pmsd") {
      EXPECT_EQ(static_cast<ProgressiveRadixsortMSD*>(single.get())
                    ->final_array(),
                static_cast<ProgressiveRadixsortMSD*>(batched.get())
                    ->final_array());
    }
  }
}

TEST(BatchOfOneParityTest, MidPhaseStateEveryQuery) {
  // Finer-grained than the end-state check: phase and index arrays must
  // agree after *every* budgeted step, not only at convergence.
  const size_t n = 20000;
  const std::vector<value_t> values = RandomValues(n, 13);
  const std::vector<RangeQuery> qs =
      RandomQueries(120, static_cast<value_t>(n), 19);
  Column col_a{std::vector<value_t>(values)};
  Column col_b{std::vector<value_t>(values)};
  const BudgetSpec budget = BudgetSpec::FixedDelta(0.25);
  ProgressiveQuicksort single(col_a, budget);
  ProgressiveQuicksort batched(col_b, budget);
  for (size_t i = 0; i < qs.size(); i++) {
    const QueryResult expected = single.Query(qs[i]);
    QueryResult got;
    batched.QueryBatch(&qs[i], 1, &got);
    ASSERT_EQ(got, expected) << "query " << i;
    ASSERT_EQ(batched.phase(), single.phase()) << "query " << i;
    ASSERT_EQ(batched.index_array(), single.index_array()) << "query " << i;
  }
}

TEST(BatchOfOneParityTest, FullScanAndStandardCracking) {
  const size_t n = 30000;
  const std::vector<value_t> values = RandomValues(n, 31);
  const std::vector<RangeQuery> qs =
      RandomQueries(60, static_cast<value_t>(n), 37);
  {
    Column col_a{std::vector<value_t>(values)};
    Column col_b{std::vector<value_t>(values)};
    FullScan single(col_a);
    FullScan batched(col_b);
    for (const RangeQuery& q : qs) {
      QueryResult got;
      batched.QueryBatch(&q, 1, &got);
      EXPECT_EQ(got, single.Query(q));
    }
  }
  {
    Column col_a{std::vector<value_t>(values)};
    Column col_b{std::vector<value_t>(values)};
    StandardCracking single(col_a);
    StandardCracking batched(col_b);
    for (size_t i = 0; i < qs.size(); i++) {
      const QueryResult expected = single.Query(qs[i]);
      QueryResult got;
      batched.QueryBatch(&qs[i], 1, &got);
      ASSERT_EQ(got, expected) << "query " << i;
    }
    // The cracked arrays (physical reordering) must match exactly.
    const size_t size = single.cracker().size();
    ASSERT_EQ(batched.cracker().size(), size);
    for (size_t i = 0; i < size; i++) {
      ASSERT_EQ(batched.cracker().data()[i], single.cracker().data()[i])
          << "cracked array diverged at position " << i;
    }
  }
}

/// Drives two fresh instances of `Index` through the same stream — one
/// via Query, one via QueryBatch(count=1) — asserting bitwise parity of
/// results, predictions, and phase at every step, and requiring that
/// the stream actually exercised the refinement phase (so the
/// refinement-sharing batch paths are what parity is proven on).
template <typename Index>
void DriveRefinementBatchOfOne(const std::vector<value_t>& values,
                               const std::vector<RangeQuery>& qs,
                               const char* label) {
  Column col_a{std::vector<value_t>(values)};
  Column col_b{std::vector<value_t>(values)};
  const BudgetSpec budget = BudgetSpec::FixedDelta(0.2);
  Index single(col_a, budget);
  Index batched(col_b, budget);
  size_t refinement_steps = 0;
  for (size_t i = 0; i < qs.size(); i++) {
    const QueryResult expected = single.Query(qs[i]);
    QueryResult got;
    batched.QueryBatch(&qs[i], 1, &got);
    ASSERT_EQ(got, expected) << label << " query " << i;
    ASSERT_EQ(batched.last_predicted_cost(), single.last_predicted_cost())
        << label << " prediction diverged at query " << i;
    ASSERT_EQ(static_cast<int>(batched.phase()),
              static_cast<int>(single.phase()))
        << label << " phase diverged at query " << i;
    if (single.phase() == Index::Phase::kRefinement) refinement_steps++;
  }
  EXPECT_GT(refinement_steps, 0u)
      << label << " never reached refinement; parity proves nothing";
}

TEST(BatchOfOneParityTest, RefinementPhasePerIndex) {
  const size_t n = 30000;
  const std::vector<value_t> values = RandomValues(n, 67);
  const std::vector<RangeQuery> qs =
      RandomQueries(120, static_cast<value_t>(n), 71);
  DriveRefinementBatchOfOne<ProgressiveQuicksort>(values, qs, "pq");
  DriveRefinementBatchOfOne<ProgressiveBucketsort>(values, qs, "pb");
  DriveRefinementBatchOfOne<ProgressiveRadixsortLSD>(values, qs, "plsd");
  DriveRefinementBatchOfOne<ProgressiveRadixsortMSD>(values, qs, "pmsd");
}

// ---- Multi-bound cracking --------------------------------------------------

TEST(StandardCrackingBatchTest, MultiBoundCrackMatchesSequentialState) {
  const size_t n = 40000;
  const std::vector<value_t> values = RandomValues(n, 83);
  const std::vector<RangeQuery> qs =
      RandomQueries(24, static_cast<value_t>(n), 89);
  Column col_seq{std::vector<value_t>(values)};
  Column col_bat{std::vector<value_t>(values)};
  StandardCracking sequential(col_seq);
  StandardCracking batched(col_bat);
  std::vector<QueryResult> expected;
  expected.reserve(qs.size());
  for (const RangeQuery& q : qs) expected.push_back(sequential.Query(q));
  // One batch: cracks on *every* member's bounds (not just the head's)
  // under the single per-batch indexing pass, then answers all queries
  // against the fully cracked state.
  std::vector<QueryResult> got(qs.size());
  batched.QueryBatch(qs.data(), qs.size(), got.data());
  for (size_t i = 0; i < qs.size(); i++) {
    EXPECT_EQ(got[i], expected[i]) << "batched answer " << i;
  }
  // Index-state parity vs sequential cracking: a boundary's position is
  // the global count of elements below its value, so the same bound set
  // must yield identical boundary positions regardless of crack order —
  // and identical pieces (same [start, end) and same element multiset;
  // only the within-piece order may differ between crack orders).
  constexpr value_t kTop = std::numeric_limits<value_t>::max();
  std::vector<value_t> bounds;
  for (const RangeQuery& q : qs) {
    bounds.push_back(q.low);
    if (q.high != kTop) bounds.push_back(q.high + 1);
  }
  for (const value_t b : bounds) {
    ASSERT_EQ(batched.cracker().index().Contains(b),
              sequential.cracker().index().Contains(b))
        << "bound " << b;
    const AvlTree::Piece ps = sequential.cracker().PieceFor(b);
    const AvlTree::Piece pb = batched.cracker().PieceFor(b);
    ASSERT_EQ(pb.start, ps.start) << "piece start for bound " << b;
    ASSERT_EQ(pb.end, ps.end) << "piece end for bound " << b;
    std::vector<value_t> slice_seq(sequential.cracker().data() + ps.start,
                                   sequential.cracker().data() + ps.end);
    std::vector<value_t> slice_bat(batched.cracker().data() + pb.start,
                                   batched.cracker().data() + pb.end);
    std::sort(slice_seq.begin(), slice_seq.end());
    std::sort(slice_bat.begin(), slice_bat.end());
    ASSERT_EQ(slice_bat, slice_seq) << "piece content for bound " << b;
  }
  // Follow-up queries agree too (the cracked structures stay coherent).
  const std::vector<RangeQuery> follow =
      RandomQueries(16, static_cast<value_t>(n), 97);
  for (const RangeQuery& q : follow) {
    QueryResult g;
    batched.QueryBatch(&q, 1, &g);
    EXPECT_EQ(g, sequential.Query(q));
  }
}

// ---- Batched vs sequential result parity ----------------------------------

TEST(BatchExecutionTest, BatchedAnswersEqualSequentialAnswers) {
  const size_t n = 30000;
  const std::vector<value_t> values = RandomValues(n, 41);
  const std::vector<RangeQuery> qs =
      RandomQueries(64, static_cast<value_t>(n), 43);
  std::vector<std::string> ids = ProgressiveIndexIds();
  ids.push_back("fs");
  ids.push_back("std");
  const BudgetSpec budget = BudgetSpec::FixedDelta(0.1);
  for (const std::string& id : ids) {
    Column col_seq{std::vector<value_t>(values)};
    Column col_bat{std::vector<value_t>(values)};
    auto sequential = MakeIndex(id, col_seq, budget);
    std::vector<QueryResult> expected;
    expected.reserve(qs.size());
    for (const RangeQuery& q : qs) expected.push_back(sequential->Query(q));
    auto batched = MakeIndex(id, col_bat, budget);
    for (size_t start = 0; start < qs.size(); start += 8) {
      const std::vector<RangeQuery> slice(qs.begin() + start,
                                          qs.begin() + start + 8);
      std::vector<QueryResult> got(slice.size());
      batched->QueryBatch(slice.data(), slice.size(), got.data());
      for (size_t i = 0; i < slice.size(); i++) {
        // Different index states (one budget per batch vs per query),
        // but every answer is exact, so sums and counts must agree.
        EXPECT_EQ(got[i], expected[start + i])
            << id << " query " << start + i;
      }
    }
  }
}

TEST(BatchExecutionTest, RefinementPhaseBatchesMatchOracle) {
  // Batches driven deep past the creation phase: every refinement /
  // merge / consolidation batch path answers against the full-scan
  // oracle. (The per-batch budget at delta 0.25 converges the
  // progressive indexes well before the stream ends.)
  const size_t n = 30000;
  const std::vector<value_t> values = RandomValues(n, 103);
  const std::vector<RangeQuery> qs =
      RandomQueries(320, static_cast<value_t>(n), 107);
  std::vector<std::string> ids = ProgressiveIndexIds();
  ids.push_back("std");
  Column oracle_col{std::vector<value_t>(values)};
  FullScan oracle(oracle_col);
  for (const std::string& id : ids) {
    Column col{std::vector<value_t>(values)};
    auto index = MakeIndex(id, col, BudgetSpec::FixedDelta(0.25));
    std::vector<QueryResult> out(8);
    for (size_t start = 0; start < qs.size(); start += 8) {
      index->QueryBatch(qs.data() + start, 8, out.data());
      for (size_t i = 0; i < 8; i++) {
        EXPECT_EQ(out[i], oracle.Query(qs[start + i]))
            << id << " query " << start + i;
      }
    }
  }
}

TEST(BatchExecutionTest, BatchStateIsBitIdenticalAcrossLaneCounts) {
  const size_t n = 200000;  // large enough to engage the parallel paths
  const std::vector<value_t> values = RandomValues(n, 47);
  const std::vector<RangeQuery> qs =
      RandomQueries(160, static_cast<value_t>(n), 53);
  const BudgetSpec budget = BudgetSpec::FixedDelta(0.2);
  std::vector<QueryResult> reference;
  std::vector<value_t> reference_array;
  for (const size_t t : {size_t{1}, size_t{4}}) {
    ScopedLanes lanes(t);
    Column col{std::vector<value_t>(values)};
    ProgressiveQuicksort index(col, budget);
    std::vector<QueryResult> all;
    std::vector<QueryResult> out(16);
    for (size_t start = 0; start < qs.size(); start += 16) {
      index.QueryBatch(qs.data() + start, 16, out.data());
      all.insert(all.end(), out.begin(), out.end());
    }
    if (t == 1) {
      reference = all;
      reference_array = index.index_array();
    } else {
      EXPECT_EQ(all, reference) << "batch answers depend on lane count";
      EXPECT_EQ(index.index_array(), reference_array)
          << "batch index state depends on lane count";
    }
  }
}

// ---- The PROGIDX_BATCH harness seam ---------------------------------------

TEST(BatchHarnessTest, BatchSizeFromEnvParsesAndRejects) {
  ScopedBatchEnv restore;
  unsetenv("PROGIDX_BATCH");
  EXPECT_EQ(exec::BatchSizeFromEnv(), 1u);
  setenv("PROGIDX_BATCH", "7", 1);
  EXPECT_EQ(exec::BatchSizeFromEnv(), 7u);
  setenv("PROGIDX_BATCH", "garbage", 1);
  EXPECT_EQ(exec::BatchSizeFromEnv(), 1u);
  setenv("PROGIDX_BATCH", "0", 1);
  EXPECT_EQ(exec::BatchSizeFromEnv(), 1u);
}

TEST(BatchHarnessTest, RunWorkloadBatchesAgainstOracle) {
  const size_t n = 20000;
  const std::vector<value_t> values = RandomValues(n, 59);
  Column col{std::vector<value_t>(values)};
  Column oracle_col{std::vector<value_t>(values)};
  const std::vector<RangeQuery> qs =
      RandomQueries(50, static_cast<value_t>(n), 61);  // not a batch multiple
  auto index = MakeIndex("pq", col, BudgetSpec::FixedDelta(0.2));
  FullScan oracle(oracle_col);
  ScopedBatchEnv restore;
  setenv("PROGIDX_BATCH", "16", 1);
  const Metrics metrics = RunWorkload(index.get(), qs, &oracle);
  // One record per query (the trailing partial batch included), each
  // oracle-checked inside RunWorkload.
  EXPECT_EQ(metrics.records().size(), qs.size());
}

}  // namespace
}  // namespace progidx
