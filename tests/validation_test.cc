// Negative tests for input validation (common/validate.h): bad
// user-supplied configuration must produce one clear line on stderr
// and a nonzero exit — not an abort, not silent clamping. Death tests
// run in the threadsafe style since the suite (and the serving layer
// under test elsewhere in this binary) spawns threads.

#include <gtest/gtest.h>

#include "baselines/full_index.h"
#include "common/cli.h"
#include "common/validate.h"
#include "core/budget.h"
#include "core/decision_tree.h"
#include "core/progressive_bucketsort.h"
#include "core/progressive_quicksort.h"
#include "core/progressive_radixsort_msd.h"
#include "cost/calibration.h"
#include "cost/cost_model.h"
#include "eval/registry.h"
#include "serve/server.h"
#include "tests/fixed_constants.h"
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

/// Options with fixed machine constants, so building an index never
/// waits on the calibration.
ProgressiveOptions FixedOptions() {
  ProgressiveOptions options;
  options.machine = &FixedConstants();
  return options;
}

TEST_F(ValidationDeathTest, ProgressiveBucketCountNotPowerOfTwo) {
  // MSD's root mask is the next power of two minus one: with 48 chains
  // it would scatter into chains 48..63, which do not exist.
  const Column column = MakeUniformColumn(1000, 42);
  for (const size_t buckets : {size_t{48}, size_t{1}, size_t{0}}) {
    ProgressiveOptions options = FixedOptions();
    options.bucket_count = buckets;
    EXPECT_EXIT(ProgressiveRadixsortMSD(column, BudgetSpec::FixedDelta(0.25),
                                        options),
                ::testing::ExitedWithCode(1),
                "invalid argument.*bucket_count");
  }
}

TEST_F(ValidationDeathTest, ProgressiveZeroBlockCapacity) {
  const Column column = MakeUniformColumn(1000, 42);
  ProgressiveOptions options = FixedOptions();
  options.block_capacity = 0;
  EXPECT_EXIT(ProgressiveBucketsort(column, BudgetSpec::FixedDelta(0.25),
                                    options),
              ::testing::ExitedWithCode(1),
              "invalid argument.*block_capacity");
}

TEST_F(ValidationDeathTest, ProgressiveFanoutBelowTwo) {
  // Rejected when the index is built, not when it reaches consolidation.
  const Column column = MakeUniformColumn(1000, 42);
  ProgressiveOptions options = FixedOptions();
  options.btree_fanout = 1;
  EXPECT_EXIT(ProgressiveQuicksort(column, BudgetSpec::FixedDelta(0.25),
                                   options),
              ::testing::ExitedWithCode(1), "invalid argument.*btree_fanout");
  EXPECT_EXIT(FullIndex(column, /*fanout=*/1), ::testing::ExitedWithCode(1),
              "invalid argument.*btree_fanout");
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

// Positive control: the smallest valid options build and answer.
TEST(ValidationTest, SmallestValidProgressiveOptions) {
  const Column column = MakeUniformColumn(1000, 42);
  ProgressiveOptions options = FixedOptions();
  options.bucket_count = 2;
  options.block_capacity = 1;
  options.btree_fanout = 2;
  ProgressiveRadixsortMSD index(column, BudgetSpec::FixedDelta(0.25), options);
  EXPECT_EQ(index.Query({100, 200}).count, 101);
  FullIndex full(column, /*fanout=*/2);
  EXPECT_EQ(full.Query({100, 200}).count, 101);
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
