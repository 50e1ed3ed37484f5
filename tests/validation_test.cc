// Negative tests for input validation (common/validate.h): bad
// user-supplied configuration must produce one clear line on stderr
// and a nonzero exit — not an abort, not silent clamping. Death tests
// run in the threadsafe style since the suite (and the serving layer
// under test elsewhere in this binary) spawns threads.

#include <string>

#include <gtest/gtest.h>

#include "common/cli.h"
#include "common/validate.h"
#include "core/budget.h"
#include "core/decision_tree.h"
#include "cost/calibration.h"
#include "cost/cost_model.h"
#include "eval/registry.h"
#include "exec/query_batch.h"
#include "serve/server.h"
#include "workload/data_generator.h"
#include "workload/synthetic.h"

namespace progidx {
namespace {

class ValidationDeathTest : public ::testing::Test {
 protected:
  void SetUp() override {
    ::testing::GTEST_FLAG(death_test_style) = "threadsafe";
  }
};

TEST_F(ValidationDeathTest, WorkloadDomainBoundsSwapped) {
  EXPECT_EXIT(WorkloadGenerator(WorkloadPattern::kRandom, /*domain_lo=*/100,
                                /*domain_hi=*/0, 10, 0.1, 42),
              ::testing::ExitedWithCode(1), "invalid argument.*domain_lo");
}

TEST_F(ValidationDeathTest, WorkloadZeroQueries) {
  EXPECT_EXIT(WorkloadGenerator(WorkloadPattern::kRandom, 0, 1000,
                                /*total_queries=*/0, 0.1, 42),
              ::testing::ExitedWithCode(1), "invalid argument.*total_queries");
}

TEST_F(ValidationDeathTest, WorkloadSelectivityOutOfRange) {
  EXPECT_EXIT(WorkloadGenerator(WorkloadPattern::kRandom, 0, 1000, 10,
                                /*selectivity=*/0.0, 42),
              ::testing::ExitedWithCode(1), "invalid argument.*selectivity");
  EXPECT_EXIT(WorkloadGenerator(WorkloadPattern::kRandom, 0, 1000, 10,
                                /*selectivity=*/1.5, 42),
              ::testing::ExitedWithCode(1), "invalid argument.*selectivity");
}

TEST_F(ValidationDeathTest, ZeroSizeColumnGenerators) {
  EXPECT_EXIT(MakeUniformColumn(0, 42), ::testing::ExitedWithCode(1),
              "invalid argument.*column size");
  EXPECT_EXIT(MakeSkewedColumn(0, 42), ::testing::ExitedWithCode(1),
              "invalid argument.*column size");
}

TEST_F(ValidationDeathTest, SkewConcentrationOutOfRange) {
  EXPECT_EXIT(MakeSkewedColumn(100, 42, /*concentration=*/1.5),
              ::testing::ExitedWithCode(1), "invalid argument.*concentration");
}

TEST_F(ValidationDeathTest, ServerZeroQueueCapacity) {
  const Column column = MakeUniformColumn(100, 42);
  auto index = MakeIndex("pq", column, BudgetSpec::FixedDelta(0.1));
  serve::ServerConfig cfg;
  cfg.queue_capacity = 0;
  EXPECT_EXIT(serve::Server(index.get(), column, cfg),
              ::testing::ExitedWithCode(1), "invalid argument.*queue capacity");
}

TEST_F(ValidationDeathTest, ServerZeroBatchSize) {
  const Column column = MakeUniformColumn(100, 42);
  auto index = MakeIndex("pq", column, BudgetSpec::FixedDelta(0.1));
  serve::ServerConfig cfg;
  cfg.batch_size = 0;
  EXPECT_EXIT(serve::Server(index.get(), column, cfg),
              ::testing::ExitedWithCode(1), "invalid argument.*batch size");
}

TEST_F(ValidationDeathTest, ServerBatchAboveMaxBatchSize) {
  const Column column = MakeUniformColumn(2 * exec::kMaxBatchSize, 42);
  auto index = MakeIndex("pq", column, BudgetSpec::FixedDelta(0.1));
  serve::ServerConfig cfg;
  cfg.queue_capacity = 2 * exec::kMaxBatchSize;
  cfg.batch_size = exec::kMaxBatchSize + 1;
  EXPECT_EXIT(serve::Server(index.get(), column, cfg),
              ::testing::ExitedWithCode(1),
              "invalid argument.*batch size exceeds exec::kMaxBatchSize \\(" +
                  std::to_string(exec::kMaxBatchSize) + "\\)");
}

TEST_F(ValidationDeathTest, ServerBatchLargerThanColumn) {
  const Column column = MakeUniformColumn(8, 42);
  auto index = MakeIndex("pq", column, BudgetSpec::FixedDelta(0.1));
  serve::ServerConfig cfg;
  cfg.batch_size = 16;
  EXPECT_EXIT(serve::Server(index.get(), column, cfg),
              ::testing::ExitedWithCode(1),
              "invalid argument.*batch size exceeds column");
}

TEST_F(ValidationDeathTest, ServerExactBatchLargerThanQueue) {
  const Column column = MakeUniformColumn(1000, 42);
  auto index = MakeIndex("pq", column, BudgetSpec::FixedDelta(0.1));
  serve::ServerConfig cfg;
  cfg.queue_capacity = 4;
  cfg.batch_size = 8;
  cfg.exact_batches = true;
  EXPECT_EXIT(serve::Server(index.get(), column, cfg),
              ::testing::ExitedWithCode(1), "invalid argument.*exact batches");
}

TEST_F(ValidationDeathTest, ScenarioZeroConcurrentQueries) {
  const CostModel model(GlobalMachineConstants(), 100000);
  Scenario scenario;
  scenario.concurrent_queries = 0;
  EXPECT_EXIT(PreConvergencePerQuerySecs(scenario, model, 0.1),
              ::testing::ExitedWithCode(1),
              "invalid argument.*concurrent_queries");
}

TEST_F(ValidationDeathTest, CliIntegerOutOfRange) {
  CommandLine cli;
  cli.AddFlag("n", "100", "column size");
  char prog[] = "prog";
  char arg[] = "--n=0";
  char* argv[] = {prog, arg};
  ASSERT_TRUE(cli.Parse(2, argv));
  EXPECT_EXIT(cli.GetIntInRange("n", 1, 1000), ::testing::ExitedWithCode(1),
              "invalid argument.*--n=0");
}

TEST_F(ValidationDeathTest, CliIntegerNotANumber) {
  CommandLine cli;
  cli.AddFlag("clients", "4", "client threads");
  char prog[] = "prog";
  char arg[] = "--clients=four";
  char* argv[] = {prog, arg};
  ASSERT_TRUE(cli.Parse(2, argv));
  EXPECT_EXIT(cli.GetIntInRange("clients", 1, 64),
              ::testing::ExitedWithCode(1), "invalid argument.*--clients");
}

// Positive control: in-range values pass through untouched.
TEST(ValidationTest, CliIntegerInRange) {
  CommandLine cli;
  cli.AddFlag("n", "100", "column size");
  char prog[] = "prog";
  char* argv[] = {prog};
  ASSERT_TRUE(cli.Parse(1, argv));
  EXPECT_EQ(cli.GetIntInRange("n", 1, 1000), 100);
}

}  // namespace
}  // namespace progidx
