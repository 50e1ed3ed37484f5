#include <gtest/gtest.h>

#include "eval/metrics.h"

namespace progidx {
namespace {

std::vector<QueryRecord> MakeRecords(std::vector<double> secs,
                                     int64_t converge_at = -1) {
  std::vector<QueryRecord> records;
  for (size_t i = 0; i < secs.size(); i++) {
    QueryRecord r;
    r.secs = secs[i];
    r.converged = converge_at >= 0 &&
                  static_cast<int64_t>(i) + 1 >= converge_at;
    records.push_back(r);
  }
  return records;
}

TEST(MetricsTest, FirstAndCumulative) {
  const Metrics m(MakeRecords({0.5, 0.25, 0.25}));
  EXPECT_DOUBLE_EQ(m.FirstQuerySecs(), 0.5);
  EXPECT_DOUBLE_EQ(m.CumulativeSecs(), 1.0);
}

TEST(MetricsTest, EmptyRecords) {
  const Metrics m(MakeRecords({}));
  EXPECT_DOUBLE_EQ(m.FirstQuerySecs(), 0);
  EXPECT_DOUBLE_EQ(m.CumulativeSecs(), 0);
  EXPECT_EQ(m.ConvergenceQuery(), -1);
  EXPECT_DOUBLE_EQ(m.RobustnessVariance(), 0);
}

TEST(MetricsTest, ConvergenceQuery) {
  EXPECT_EQ(Metrics(MakeRecords({1, 1, 1}, 2)).ConvergenceQuery(), 2);
  EXPECT_EQ(Metrics(MakeRecords({1, 1, 1})).ConvergenceQuery(), -1);
  EXPECT_EQ(Metrics(MakeRecords({1}, 1)).ConvergenceQuery(), 1);
}

TEST(MetricsTest, RobustnessIsVariance) {
  // Times 1 and 3: mean 2, variance 1.
  const Metrics m(MakeRecords({1.0, 3.0}));
  EXPECT_DOUBLE_EQ(m.RobustnessVariance(), 1.0);
  // Constant times: zero variance.
  const Metrics c(MakeRecords({2.0, 2.0, 2.0, 2.0}));
  EXPECT_DOUBLE_EQ(c.RobustnessVariance(), 0.0);
}

TEST(MetricsTest, RobustnessUsesOnlyFirstK) {
  std::vector<double> secs(150, 1.0);
  secs[120] = 100.0;  // spike after the window
  const Metrics m(MakeRecords(std::move(secs)));
  EXPECT_DOUBLE_EQ(m.RobustnessVariance(100), 0.0);
}

TEST(MetricsTest, PayoffQuery) {
  // Scan cost 1.0/query. Index: first query 3.0, then 0.1 each.
  // Cumulative: 3.0, 3.1, 3.2, 3.3, ... vs budget 1, 2, 3, 4:
  // at query 4: 3.3 <= 4.0 -> pay-off at 4.
  const Metrics m(MakeRecords({3.0, 0.1, 0.1, 0.1, 0.1}));
  EXPECT_EQ(m.PayoffQuery(1.0), 4);
}

TEST(MetricsTest, PayoffNeverWhenAlwaysSlower) {
  const Metrics m(MakeRecords({2.0, 2.0, 2.0}));
  EXPECT_EQ(m.PayoffQuery(1.0), -1);
}

TEST(MetricsTest, SlowestAfterFirst) {
  EXPECT_DOUBLE_EQ(Metrics(MakeRecords({9.0, 0.5, 2.0, 1.0}))
                       .SlowestAfterFirstSecs(),
                   2.0);
  EXPECT_DOUBLE_EQ(Metrics(MakeRecords({9.0})).SlowestAfterFirstSecs(), 0);
}

TEST(MetricsTest, CostModelErrorSplitsAtConvergence) {
  // Queries 1-2 build (10% and 20% off); of the converged queries 3-4,
  // only query 4 has a prediction (50% off).
  std::vector<QueryRecord> records =
      MakeRecords({1.0, 2.0, 1.0, 2.0}, /*converge_at=*/3);
  records[0].predicted = 1.1;
  records[1].predicted = 1.6;
  records[3].predicted = 1.0;
  const Metrics::ModelError e = Metrics(std::move(records)).CostModelError();
  EXPECT_NEAR(e.pre, 0.15, 1e-9);
  EXPECT_EQ(e.pre_queries, 2u);
  EXPECT_NEAR(e.post, 0.5, 1e-9);
  EXPECT_EQ(e.post_queries, 1u);
  const Metrics::ModelError none = Metrics(MakeRecords({1.0})).CostModelError();
  EXPECT_EQ(none.pre, 0);
  EXPECT_EQ(none.pre_queries + none.post_queries, 0u);
}

}  // namespace
}  // namespace progidx
