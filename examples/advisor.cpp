// The Figure-11 decision tree as a tool: describe your scenario, get a
// technique recommendation, and watch it run against the alternatives.

#include <cstdio>
#include <memory>

#include "common/cli.h"
#include "core/decision_tree.h"
#include "eval/experiment.h"
#include "eval/registry.h"
#include "workload/data_generator.h"
#include "workload/synthetic.h"

using namespace progidx;  // example code; keep it short

int main(int argc, char** argv) {
  CommandLine cli;
  cli.AddFlag("queries", "range", "query type: range | point");
  cli.AddFlag("distribution", "unknown",
              "data distribution: uniform | skewed | unknown");
  cli.AddFlag("n", "1000000", "column size for the demo run");
  if (!cli.Parse(argc, argv)) return 0;

  Scenario scenario;
  scenario.query_type = cli.GetString("queries") == "point"
                            ? QueryType::kPoint
                            : QueryType::kRange;
  const std::string dist = cli.GetString("distribution");
  scenario.distribution = dist == "uniform"  ? DataDistribution::kUniform
                          : dist == "skewed" ? DataDistribution::kSkewed
                                             : DataDistribution::kUnknown;

  const ProgressiveTechnique pick = Recommend(scenario);
  std::printf("Scenario: %s queries, %s distribution\n",
              scenario.query_type == QueryType::kPoint ? "point" : "range",
              dist.c_str());
  std::printf("Recommendation: %s — %s\n\n", TechniqueName(pick).c_str(),
              RecommendationRationale(scenario).c_str());

  // Demo run: recommended technique vs the other three.
  const size_t n = static_cast<size_t>(cli.GetInt("n"));
  const Column column = scenario.distribution == DataDistribution::kSkewed
                            ? MakeSkewedColumn(n, 11)
                            : MakeUniformColumn(n, 11);
  auto queries = WorkloadGenerator::Generate(
      scenario.query_type == QueryType::kPoint ? WorkloadPattern::kPoint
                                               : WorkloadPattern::kRandom,
      column.min_value(), column.max_value(), 300, 0.1, 13);

  std::printf("%-20s %12s %13s\n", "technique", "cumulative_s",
              "convergence_q");
  for (const std::string& id : ProgressiveIndexIds()) {
    auto index = MakeIndex(id, column, BudgetSpec::Adaptive(0.2));
    const Metrics metrics = RunWorkload(index.get(), queries);
    std::printf("%-20s %12.4g %13lld%s\n", index->name().c_str(),
                metrics.CumulativeSecs(),
                static_cast<long long>(metrics.ConvergenceQuery()),
                id == TechniqueId(pick) ? "  <== pick" : "");
  }
  return 0;
}
