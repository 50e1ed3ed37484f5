// Budget flavors compared (§3, "Indexing Budget"): the same workload
// under fixed-delta budgets of different aggressiveness and under the
// adaptive budget. Shows the Figure-7 trade-off — bigger deltas hurt
// the first query but pay off sooner — and the adaptive budget's flat
// per-query cost.

#include <cstdio>
#include <memory>
#include <vector>

#include "core/progressive_bucketsort.h"
#include "eval/experiment.h"
#include "workload/data_generator.h"
#include "workload/synthetic.h"

using namespace progidx;  // example code; keep it short

int main() {
  const Column column = MakeSkewedColumn(2'000'000, /*seed=*/3);
  const auto queries = WorkloadGenerator::Generate(
      WorkloadPattern::kRandom, column.min_value(), column.max_value(),
      400, /*selectivity=*/0.1, /*seed=*/5);
  const double scan_secs = GlobalMachineConstants().seq_read_secs *
                           static_cast<double>(column.size());

  struct Config {
    std::string label;
    BudgetSpec spec;
  };
  const std::vector<Config> configs = {
      {"fixed delta=0.02", BudgetSpec::FixedDelta(0.02)},
      {"fixed delta=0.25", BudgetSpec::FixedDelta(0.25)},
      {"fixed delta=1.00", BudgetSpec::FixedDelta(1.0)},
      {"fixed budget=0.2*scan", BudgetSpec::FixedBudget(0.2)},
      {"adaptive budget=0.2*scan", BudgetSpec::Adaptive(0.2)},
  };

  std::printf("Progressive Bucketsort on skewed data (n=%zu, %zu queries)\n",
              column.size(), queries.size());
  // -1: never paid off / never converged.
  std::printf("%-25s %10s %8s %13s %10s %12s\n", "budget", "first_q_s",
              "payoff_q", "convergence_q", "robustness", "cumulative_s");
  for (const Config& config : configs) {
    ProgressiveBucketsort index(column, config.spec);
    const Metrics metrics = RunWorkload(&index, queries);
    std::printf("%-25s %10.4g %8lld %13lld %10.1e %12.4g\n",
                config.label.c_str(), metrics.FirstQuerySecs(),
                static_cast<long long>(metrics.PayoffQuery(scan_secs)),
                static_cast<long long>(metrics.ConvergenceQuery()),
                metrics.RobustnessVariance(100), metrics.CumulativeSecs());
  }
  return 0;
}
