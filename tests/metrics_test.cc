#include <stdlib.h>
#include <unistd.h>

#include <cstdio>
#include <string>

#include <gtest/gtest.h>

#include "eval/metrics.h"
#include "eval/report.h"

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

TEST(MetricsTest, CostModelError) {
  std::vector<QueryRecord> records(2);
  records[0].secs = 1.0;
  records[0].predicted = 1.1;  // 10% off
  records[1].secs = 2.0;
  records[1].predicted = 1.8;  // 10% off
  const Metrics m(std::move(records));
  EXPECT_NEAR(m.CostModelRelativeError(), 0.1, 1e-9);
}

TEST(TableReportTest, Formatting) {
  EXPECT_EQ(TableReport::FormatCount(-1), "x");
  EXPECT_EQ(TableReport::FormatCount(42), "42");
  EXPECT_EQ(TableReport::FormatSci(0.00024), "2.4e-04");
  EXPECT_EQ(TableReport::FormatSecs(0.12345), "0.1235");
}

TEST(TableReportTest, CsvRoundTrip) {
  TableReport report({"a", "b"});
  report.AddRow({"1", "2"});
  report.AddRow({"x", "y"});
  // A directory of this process's own: test processes running side by
  // side (the parallel ctest lanes) never share the file.
  std::string dir = ::testing::TempDir() + "progidx_report_XXXXXX";
  ASSERT_NE(::mkdtemp(dir.data()), nullptr);
  const std::string path = dir + "/report.csv";
  report.WriteCsv(path);
  std::FILE* f = std::fopen(path.c_str(), "r");
  ASSERT_NE(f, nullptr);
  char buffer[256];
  ASSERT_NE(std::fgets(buffer, sizeof(buffer), f), nullptr);
  EXPECT_STREQ(buffer, "a,b\n");
  ASSERT_NE(std::fgets(buffer, sizeof(buffer), f), nullptr);
  EXPECT_STREQ(buffer, "1,2\n");
  std::fclose(f);
  std::remove(path.c_str());
  ::rmdir(dir.c_str());
}

}  // namespace
}  // namespace progidx
