// The paper's scoreboard (§4: Tables 2–5, Figs. 7–10), each experiment
// run once, in three sweeps:
//
//   skyserver  SkyServer × every index × Adaptive(0.2): Table 2, Fig. 9
//              (the progressive rows) and Fig. 10 (pq, aa, pstc)
//   delta      SkyServer × the progressive indexes × FixedDelta(δ),
//              δ ∈ {0.005 … 1}: Fig. 7, and Fig. 8 at δ = 0.25
//   grid       the 25 synthetic cases × {pq, pb, plsd, pmsd, aa} ×
//              Adaptive(0.2): Tables 3 (first query), 4 (cumulative
//              time) and 5 (variance of the first 100 queries)
//
// Each sweep runs at the default lane count, and again at one lane when
// the default is larger. Every run is one row of the `paper` section of
// BENCH_kernels.json (merged through bench/json_store.h) and one line on
// stdout. The runs Figs. 8–10 plot also carry their log-sampled
// (query, measured secs, predicted secs) series.
//
//   paper [--n=1000000] [--queries=1000] [--seed=42]
//         [--json=BENCH_kernels.json]
//
// Exits 1 when the JSON file cannot be written.

#include <cstddef>
#include <cstdio>
#include <string>
#include <thread>
#include <vector>

#include "bench/bench_util.h"
#include "bench/json_store.h"
#include "parallel/thread_pool.h"

namespace progidx {
namespace {

/// What one run measures, as its row names it.
struct Run {
  const char* sweep;
  std::string block;
  std::string pattern;
  std::string index;
  BudgetSpec budget;
  size_t lanes = 1;
  /// Carries the Fig. 8–10 series.
  bool series = false;
};

bool LogSampled(size_t query_number) {
  // 1, 2, ..., 10, 20, ..., 100, 200, ... (the figures plot log-x).
  size_t scale = 1;
  while (query_number > 10 * scale) scale *= 10;
  return query_number % scale == 0;
}

std::string CountOrNull(int64_t v) {
  return v < 0 ? "null" : std::to_string(v);
}

/// Appends the row of `run`, measured as `m` on a column of `n` rows.
/// `scan_secs` is the pay-off reference: one full scan of that column.
void AppendRow(const Run& run, const Metrics& m, size_t n, double scan_secs,
               std::string* rows) {
  const bool adaptive = run.budget.mode == BudgetMode::kAdaptive;
  const double budget_value =
      adaptive ? run.budget.scan_fraction : run.budget.delta;
  const Metrics::ModelError err = m.CostModelError();
  const size_t queries = m.records().size();

  std::printf(
      "%-9s T=%zu %-13s %-10s %-4s %s=%-5g first %.3e cum %.3e conv %s "
      "var100 %.2e payoff %s slowest %.3e err %.2f (%zu q) / %.2f (%zu q)\n",
      run.sweep, run.lanes, run.block.c_str(), run.pattern.c_str(),
      run.index.c_str(), adaptive ? "adaptive" : "delta", budget_value,
      m.FirstQuerySecs(), m.CumulativeSecs(),
      CountOrNull(m.ConvergenceQuery()).c_str(), m.RobustnessVariance(100),
      CountOrNull(m.PayoffQuery(scan_secs)).c_str(),
      m.SlowestAfterFirstSecs(), err.pre, err.pre_queries, err.post,
      err.post_queries);

  if (!rows->empty()) *rows += ",\n";
  bench::AppendF(rows,
                 "    {\"sweep\": \"%s\", \"block\": \"%s\", \"pattern\": "
                 "\"%s\", \"index\": \"%s\", \"budget\": \"%s\", "
                 "\"budget_value\": %g, \"lanes\": %zu, \"hardware_threads\": "
                 "%u, \"n\": %zu, \"queries\": %zu, ",
                 run.sweep, run.block.c_str(), run.pattern.c_str(),
                 run.index.c_str(), adaptive ? "adaptive" : "fixed_delta",
                 budget_value, run.lanes, std::thread::hardware_concurrency(),
                 n, queries);
  bench::AppendF(rows,
                 "\"first_query_secs\": %.4e, \"cumulative_secs\": %.4e, "
                 "\"convergence_query\": %s, \"variance_first_100\": %.4e, "
                 "\"payoff_query\": %s, \"slowest_after_first_secs\": %.4e, ",
                 m.FirstQuerySecs(), m.CumulativeSecs(),
                 CountOrNull(m.ConvergenceQuery()).c_str(),
                 m.RobustnessVariance(100),
                 CountOrNull(m.PayoffQuery(scan_secs)).c_str(),
                 m.SlowestAfterFirstSecs());
  bench::AppendF(rows,
                 "\"model_error_pre\": %.4f, \"model_error_pre_queries\": "
                 "%zu, \"model_error_post\": %.4f, "
                 "\"model_error_post_queries\": %zu",
                 err.pre, err.pre_queries, err.post, err.post_queries);
  if (run.series) {
    *rows += ", \"series\": [";
    const char* sep = "";
    for (size_t i = 0; i < queries; i++) {
      if (!LogSampled(i + 1)) continue;
      const QueryRecord& r = m.records()[i];
      bench::AppendF(rows, "%s[%zu, %.4e, %.4e]", sep, i + 1, r.secs,
                     r.predicted);
      sep = ", ";
    }
    *rows += "]";
  }
  *rows += "}";
}

/// Runs every run of `group` on `column`, then appends their rows.
///
/// The rows wait for the group's last run because the pay-off reference
/// reads the machine constants. Read after each run, they calibrate
/// after fs instead of where an index first needs them, as in a process
/// that runs only Table 2, and std's first query read half of what it
/// reads there. The runs' records wait in one buffer reserved before the
/// first run: keeping each run's own records buffer instead changed the
/// heap under the next run enough to read stc's first query 3× slower.
void RunGroup(const std::vector<Run>& group, const Column& column,
              const std::vector<RangeQuery>& queries, std::string* rows) {
  const size_t q = queries.size();
  std::vector<QueryRecord> records;
  records.reserve(group.size() * q);
  for (const Run& run : group) {
    auto index = MakeIndex(run.index, column, run.budget);
    const Metrics m = RunWorkload(index.get(), queries);
    records.insert(records.end(), m.records().begin(), m.records().end());
  }
  const double scan_secs = GlobalMachineConstants().seq_read_secs *
                           static_cast<double>(column.size());
  for (size_t i = 0; i < group.size(); i++) {
    const auto first = records.begin() + static_cast<std::ptrdiff_t>(i * q);
    const Metrics m(std::vector<QueryRecord>(
        first, first + static_cast<std::ptrdiff_t>(q)));
    AppendRow(group[i], m, column.size(), scan_secs, rows);
  }
}

/// Table 2, Fig. 9 and Fig. 10.
void SkyServerSweep(const bench::SkyServerBench& sky, size_t lanes,
                    std::string* rows) {
  std::vector<Run> group;
  for (const std::string& id : AllIndexIds()) {
    group.push_back({"skyserver", "SkyServer", "SkyServer", id,
                     BudgetSpec::Adaptive(0.2), lanes, /*series=*/true});
  }
  RunGroup(group, sky.column, sky.queries, rows);
}

/// Fig. 7, and Fig. 8 at δ = 0.25.
void DeltaSweep(const bench::SkyServerBench& sky, size_t lanes,
                std::string* rows) {
  std::vector<Run> group;
  for (const std::string& id : ProgressiveIndexIds()) {
    for (const double delta : {0.005, 0.01, 0.025, 0.05, 0.1, 0.25, 0.5, 1.0}) {
      group.push_back({"delta", "SkyServer", "SkyServer", id,
                       BudgetSpec::FixedDelta(delta), lanes, delta == 0.25});
    }
  }
  RunGroup(group, sky.column, sky.queries, rows);
}

/// One block of §4.4's synthetic experiments: a column and the
/// workload patterns run on it.
struct GridBlock {
  const char* name;
  Column column;
  std::vector<WorkloadPattern> patterns;
  /// Point-query rows reuse the range patterns' positions but collapse
  /// every range to its midpoint.
  bool points;
};

/// The four blocks of §4.4 ("Synthetic Workloads"), scaled by --n.
std::vector<GridBlock> MakeSyntheticGrid(size_t n, uint64_t seed) {
  const std::vector<WorkloadPattern> range_patterns = {
      WorkloadPattern::kSeqOver,   WorkloadPattern::kZoomOutAlt,
      WorkloadPattern::kSkew,      WorkloadPattern::kRandom,
      WorkloadPattern::kSeqZoomIn, WorkloadPattern::kPeriodic,
      WorkloadPattern::kZoomInAlt, WorkloadPattern::kZoomIn};
  std::vector<GridBlock> grid;
  grid.push_back({"UniformRandom", MakeUniformColumn(n, seed), range_patterns,
                  false});
  grid.push_back(
      {"Skewed", MakeSkewedColumn(n, seed), range_patterns, false});
  grid.push_back({"PointQuery", MakeUniformColumn(n, seed),
                  {WorkloadPattern::kSeqOver, WorkloadPattern::kZoomOutAlt,
                   WorkloadPattern::kSkew, WorkloadPattern::kRandom,
                   WorkloadPattern::kPeriodic, WorkloadPattern::kZoomInAlt},
                  true});
  grid.push_back({"Large(4x)", MakeUniformColumn(4 * n, seed),
                  {WorkloadPattern::kSeqOver, WorkloadPattern::kSkew,
                   WorkloadPattern::kRandom},
                  false});
  return grid;
}

/// Tables 3, 4 and 5: the best adaptive technique, AA, against the four
/// progressive ones.
void GridSweep(const std::vector<GridBlock>& grid, size_t queries,
               uint64_t seed, size_t lanes, std::string* rows) {
  const double selectivity = 0.1;  // §4.1
  for (const GridBlock& block : grid) {
    for (const WorkloadPattern pattern : block.patterns) {
      std::vector<RangeQuery> qs = WorkloadGenerator::Generate(
          pattern, block.column.min_value(), block.column.max_value(),
          queries, selectivity, seed + 13);
      if (block.points) {
        for (RangeQuery& q : qs) {
          const value_t mid = q.low + (q.high - q.low) / 2;
          q = RangeQuery{mid, mid};
        }
      }
      std::vector<Run> group;
      for (const char* id : {"pq", "pb", "plsd", "pmsd", "aa"}) {
        group.push_back({"grid", block.name, WorkloadPatternName(pattern), id,
                         BudgetSpec::Adaptive(0.2), lanes});
      }
      RunGroup(group, block.column, qs, rows);
    }
  }
}

int Main(int argc, char** argv) {
  CommandLine cli;
  bench::AddCommonFlags(&cli);
  cli.AddFlag("json", "BENCH_kernels.json", "merged JSON output path");
  if (!cli.Parse(argc, argv)) return 0;
  const size_t n = static_cast<size_t>(cli.GetIntInRange("n", 1, 1LL << 32));
  const size_t queries =
      static_cast<size_t>(cli.GetIntInRange("queries", 1, 1LL << 32));
  const uint64_t seed = static_cast<uint64_t>(cli.GetInt("seed"));

  // The default lane count runs first: its Table 2 runs then start from
  // the state a process that runs only Table 2 starts from, with neither
  // the calibration nor the pool's threads started before an index
  // needs them.
  std::vector<size_t> lane_counts = {parallel::DefaultLanes()};
  if (lane_counts[0] > 1) lane_counts.push_back(1);
  const bench::SkyServerBench sky = bench::MakeSkyServerBench(cli);
  std::string rows;
  for (const size_t lanes : lane_counts) {
    parallel::SetLanesForTesting(lanes);
    SkyServerSweep(sky, lanes, &rows);
  }
  for (const size_t lanes : lane_counts) {
    parallel::SetLanesForTesting(lanes);
    DeltaSweep(sky, lanes, &rows);
  }
  const std::vector<GridBlock> grid = MakeSyntheticGrid(n, seed);
  for (const size_t lanes : lane_counts) {
    parallel::SetLanesForTesting(lanes);
    GridSweep(grid, queries, seed, lanes, &rows);
  }
  parallel::SetLanesForTesting(0);

  const std::string path = cli.GetString("json");
  std::vector<bench::JsonSection> sections =
      bench::ReadJsonSections(path.c_str());
  bench::UpsertJsonSection(&sections, "paper", "[\n" + rows + "\n  ]");
  if (!bench::WriteJsonSections(path.c_str(), sections)) {
    std::fprintf(stderr, "paper: cannot write %s\n", path.c_str());
    return 1;
  }
  std::printf("paper rows -> %s\n", path.c_str());
  return 0;
}

}  // namespace
}  // namespace progidx

int main(int argc, char** argv) { return progidx::Main(argc, argv); }
