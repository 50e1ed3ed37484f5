// Shared-scan batch throughput: queries/sec vs batch size (1/4/16/64)
// on the uniform random workload and the SkyServer log, during the
// *pre-convergence* creation phase (the regime where the unrefined
// remainder dominates, so one shared scan replaces up to B per-query
// scans while the index still advances one budget per batch) — plus
// refinement-phase (post-creation-onset) rows per progressive index,
// where the shared candidate-chain scans and multi-bound cracking of
// the batch executor's refinement paths carry the win — plus converged
// rows per progressive index, where a batch sums the union of its
// queries' B+-tree leaf runs once.
//
// Emits `batch` rows (phase, queries_per_sec, speedup over batch 1,
// the cost model's per-query prediction, and the machine's hardware
// thread count) merged into
// BENCH_kernels.json next to the kernel/thread rows micro_kernels
// writes — read-merge-write in both tools, so either run order
// preserves the other's sections — plus a stdout table.

#include <cstdio>
#include <cstring>
#include <string>
#include <thread>
#include <vector>

#include "bench/bench_util.h"
#include "bench/json_store.h"
#include "common/timer.h"
#include "core/decision_tree.h"
#include "exec/query_batch.h"

namespace progidx {
namespace {

constexpr size_t kBatchSizes[] = {1, 4, 16, 64};
/// Refinement rows need only the baseline and the headline batch size.
constexpr size_t kRefinementBatchSizes[] = {1, 16};
/// Converged rows: δ of the unbatched warm-up (large, so a handful of
/// queries converges); rounds of the query window per timed pass, so a
/// pass of narrow queries still lasts milliseconds; and passes per
/// batch size (a converged index no longer changes, so each row keeps
/// its fastest pass).
constexpr double kConvergedWarmupDelta = 0.25;
constexpr size_t kConvergedWarmupMax = 100000;
constexpr size_t kConvergedRounds = 10;
constexpr size_t kConvergedPasses = 5;

struct BatchRow {
  std::string index_id;
  std::string workload;
  std::string phase;  ///< "creation", "refinement" or "converged"
  size_t batch = 1;
  size_t queries = 0;
  double queries_per_sec = 0;
  double speedup_vs_1 = 0;
  double predicted_per_query = 0;  ///< cost model, mean over batches
};

/// Runs the first `count` queries of `queries` in batches of `batch`
/// against a fresh index; returns wall seconds and the mean per-query
/// prediction. A tiny fixed δ keeps every measured query inside the
/// creation (pre-convergence) phase at every batch size — the batch-1
/// run performs `count` budgets to a batch-64 run's few, so δ must be
/// small enough that the refined fraction stays negligible in both and
/// the rows compare the same regime.
double RunBatches(IndexBase* index, const std::vector<RangeQuery>& queries,
                  size_t count, size_t batch, double* mean_predicted,
                  size_t start_at = 0) {
  std::vector<QueryResult> results(batch);
  double predicted_sum = 0;
  size_t batches = 0;
  Timer timer;
  for (size_t start = start_at; start < count; start += batch) {
    const size_t nb = std::min(batch, count - start);
    index->QueryBatch(queries.data() + start, nb, results.data());
    predicted_sum += index->last_predicted_cost();
    batches++;
  }
  const double secs = timer.ElapsedSeconds();
  *mean_predicted = batches > 0 ? predicted_sum / static_cast<double>(batches)
                                : 0;
  return secs;
}

/// Records and prints one row. The first row of a case (`*base_qps`
/// still 0) sets the rate its speedups are relative to.
void AddRow(const std::string& index_id, const std::string& workload,
            const char* phase, size_t batch, size_t count, double secs,
            double mean_predicted, double* base_qps,
            std::vector<BatchRow>* rows) {
  BatchRow row;
  row.index_id = index_id;
  row.workload = workload;
  row.phase = phase;
  row.batch = batch;
  row.queries = count;
  row.queries_per_sec = secs > 0 ? static_cast<double>(count) / secs : 0;
  if (*base_qps == 0) *base_qps = row.queries_per_sec;
  row.speedup_vs_1 = *base_qps > 0 ? row.queries_per_sec / *base_qps : 0;
  row.predicted_per_query = mean_predicted;
  rows->push_back(row);
  std::printf(
      "  %-5s %-9s %-10s batch %-3zu  %10.1f q/s  %5.2fx  pred %.3e s\n",
      index_id.c_str(), workload.c_str(), row.phase.c_str(), batch,
      row.queries_per_sec, row.speedup_vs_1, row.predicted_per_query);
}

void RunCase(const std::string& index_id, const std::string& workload,
             const std::vector<value_t>& values,
             const std::vector<RangeQuery>& queries, size_t count,
             double delta, std::vector<BatchRow>* rows) {
  double base_qps = 0;
  for (const size_t batch : kBatchSizes) {
    // Fresh column + index per batch size: every row starts from the
    // same unindexed state and performs the same count of queries.
    Column column{std::vector<value_t>(values)};
    auto index =
        MakeIndex(index_id, column, BudgetSpec::FixedDelta(delta));
    double mean_predicted = 0;
    const double secs =
        RunBatches(index.get(), queries, count, batch, &mean_predicted);
    AddRow(index_id, workload, "creation", batch, count, secs,
           mean_predicted, &base_qps, rows);
  }
}

/// Refinement-phase (post-creation-onset) rows: each batch size starts
/// from an *identical* mid-refinement state — a fresh index warmed past
/// the creation phase with the same unbatched query stream — then
/// measures the next `count` queries batched. At FixedDelta(d),
/// creation completes after exactly ceil(1/d) budgets, so the warmup
/// length is deterministic; the shared candidate-chain scans of the
/// refinement paths are what these rows isolate.
void RunRefinementCase(const std::string& index_id,
                       const std::string& workload,
                       const std::vector<value_t>& values,
                       const std::vector<RangeQuery>& queries, size_t count,
                       double delta, std::vector<BatchRow>* rows) {
  const size_t warmup =
      static_cast<size_t>(1.0 / delta) + 2;  // past creation for sure
  if (warmup + count > queries.size()) return;
  double base_qps = 0;
  for (const size_t batch : kRefinementBatchSizes) {
    Column column{std::vector<value_t>(values)};
    auto index =
        MakeIndex(index_id, column, BudgetSpec::FixedDelta(delta));
    for (size_t i = 0; i < warmup; i++) index->Query(queries[i]);
    double mean_predicted = 0;
    const double secs = RunBatches(index.get(), queries, warmup + count,
                                   batch, &mean_predicted, warmup);
    AddRow(index_id, workload, "refinement", batch, count, secs,
           mean_predicted, &base_qps, rows);
  }
}

/// Converged rows: one unbatched warm-up drives a fresh index to
/// converged(), then every batch size answers the same first `count`
/// queries, kConvergedRounds times per pass, against the finished
/// B+-tree.
void RunConvergedCase(const std::string& index_id,
                      const std::string& workload,
                      const std::vector<value_t>& values,
                      const std::vector<RangeQuery>& queries, size_t count,
                      std::vector<BatchRow>* rows) {
  Column column{std::vector<value_t>(values)};
  auto index = MakeIndex(index_id, column,
                         BudgetSpec::FixedDelta(kConvergedWarmupDelta));
  for (size_t i = 0; i < kConvergedWarmupMax && !index->converged(); i++) {
    index->Query(queries[i % queries.size()]);
  }
  if (!index->converged()) {
    std::fprintf(stderr, "%s did not converge; no converged rows\n",
                 index_id.c_str());
    return;
  }
  double base_qps = 0;
  for (const size_t batch : kBatchSizes) {
    double best = 0;
    double mean_predicted = 0;
    for (size_t pass = 0; pass < kConvergedPasses; pass++) {
      double secs = 0;
      for (size_t round = 0; round < kConvergedRounds; round++) {
        secs +=
            RunBatches(index.get(), queries, count, batch, &mean_predicted);
      }
      if (pass == 0 || secs < best) best = secs;
    }
    AddRow(index_id, workload, "converged", batch, kConvergedRounds * count,
           best, mean_predicted, &base_qps, rows);
  }
}

/// Merges the `batch` rows into BENCH_kernels.json through the shared
/// read-merge-write store: every section this tool does not own
/// (micro_kernels' kernel/tier/thread rows, anything future) passes
/// through untouched, in either run order.
void WriteBatchJson(const char* path, const std::vector<BatchRow>& rows) {
  std::vector<bench::JsonSection> sections = bench::ReadJsonSections(path);
  const unsigned hw_threads = std::thread::hardware_concurrency();
  std::string raw = "[\n";
  for (size_t i = 0; i < rows.size(); i++) {
    const BatchRow& r = rows[i];
    bench::AppendF(
        &raw,
        "    {\"index\": \"%s\", \"workload\": \"%s\", \"phase\": \"%s\", "
        "\"batch\": %zu, \"queries\": %zu, \"queries_per_sec\": %.1f, "
        "\"speedup_vs_batch1\": %.3f, \"predicted_per_query_secs\": "
        "%.4e, \"hardware_threads\": %u}%s\n",
        r.index_id.c_str(), r.workload.c_str(), r.phase.c_str(), r.batch,
        r.queries, r.queries_per_sec, r.speedup_vs_1, r.predicted_per_query,
        hw_threads, i + 1 < rows.size() ? "," : "");
  }
  raw += "  ]";
  bench::UpsertJsonSection(&sections, "batch", std::move(raw));
  if (!bench::WriteJsonSections(path, sections)) {
    std::fprintf(stderr, "cannot write %s\n", path);
    return;
  }
  std::printf("batch throughput rows -> %s\n", path);
}

}  // namespace
}  // namespace progidx

int main(int argc, char** argv) {
  using namespace progidx;
  CommandLine cli;
  bench::AddCommonFlags(&cli);
  // Bigger default column than the other drivers: the shared-scan win
  // is a memory-bandwidth effect, so the scan must not fit in cache.
  cli.AddFlag("n", "2000000", "column size");
  cli.AddFlag("json", "BENCH_kernels.json", "merged JSON output path");
  cli.AddFlag("delta", "0.001", "fixed per-query indexing fraction");
  if (!cli.Parse(argc, argv)) return 0;
  const size_t n = static_cast<size_t>(cli.GetInt("n"));
  const uint64_t seed = static_cast<uint64_t>(cli.GetInt("seed"));
  const double delta = cli.GetDouble("delta");
  // Enough queries for stable timing, few enough that the default δ
  // keeps even the batch-1 run deep in the creation phase.
  const size_t count =
      std::min<size_t>(static_cast<size_t>(cli.GetInt("queries")), 96);

  std::vector<BatchRow> rows;
  // Uniform random data + random range queries (§4.1 selectivity).
  {
    Column column = MakeUniformColumn(n, seed);
    // δ for the refinement rows: big enough that the unbatched warmup
    // (ceil(1/δ) + 2 queries) stays cheap, small enough that the
    // measured window stays inside the refinement phase.
    const double refine_delta = 0.02;
    const size_t refine_warmup =
        static_cast<size_t>(1.0 / refine_delta) + 2;
    const std::vector<RangeQuery> queries = WorkloadGenerator::Generate(
        WorkloadPattern::kRandom, column.min_value(), column.max_value(),
        std::max<size_t>(refine_warmup + count, 1), 0.1, seed + 13);
    const std::vector<value_t> values = column.values();
    std::printf("uniform n=%zu, %zu pre-convergence queries:\n", n, count);
    for (const std::string& id : {std::string("pq"), std::string("pb"),
                                  std::string("plsd"), std::string("pmsd"),
                                  std::string("fs")}) {
      RunCase(id, "uniform", values, queries, count, delta, &rows);
    }
    std::printf("uniform n=%zu, %zu refinement-phase queries "
                "(post-creation-onset, delta=%g):\n",
                n, count, refine_delta);
    for (const std::string& id : {std::string("pq"), std::string("pb"),
                                  std::string("plsd"),
                                  std::string("pmsd")}) {
      RunRefinementCase(id, "uniform", values, queries, count, refine_delta,
                        &rows);
    }
    std::printf("uniform n=%zu, %zu converged queries:\n", n, count);
    for (const std::string& id : ProgressiveIndexIds()) {
      RunConvergedCase(id, "uniform", values, queries, count, &rows);
    }
  }
  // SkyServer data + query log.
  {
    const bench::SkyServerBench sky = bench::MakeSkyServerBench(cli);
    const std::vector<value_t> values = sky.column.values();
    const size_t sky_count = std::min(count, sky.queries.size());
    std::printf("skyserver n=%zu, %zu pre-convergence queries:\n",
                sky.column.size(), sky_count);
    for (const std::string& id : {std::string("pq"), std::string("pb"),
                                  std::string("plsd"), std::string("pmsd"),
                                  std::string("fs")}) {
      RunCase(id, "skyserver", values, sky.queries, sky_count, delta, &rows);
    }
    std::printf("skyserver n=%zu, %zu converged queries:\n",
                sky.column.size(), sky_count);
    for (const std::string& id : ProgressiveIndexIds()) {
      RunConvergedCase(id, "skyserver", values, sky.queries, sky_count,
                       &rows);
    }
  }
  WriteBatchJson(cli.GetString("json").c_str(), rows);

  // The decision tree's view: per-query pre-convergence cost under
  // batching for the recommended technique on uniform range queries.
  CostModel model(GlobalMachineConstants(), n);
  Scenario scenario;
  scenario.distribution = DataDistribution::kUniform;
  std::printf("\ncost model: pre-convergence per-query secs (uniform, "
              "delta=%g)\n", delta);
  for (const size_t batch : kBatchSizes) {
    scenario.concurrent_queries = batch;
    std::printf("  batch %-3zu -> %.4e s/query\n", batch,
                PreConvergencePerQuerySecs(scenario, model, delta));
  }
  return 0;
}
