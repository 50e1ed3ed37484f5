// Serving-layer throughput: queries/sec and p50/p99 client latency vs
// client count (1/2/4/8) against one shared progressive index behind
// the epoch scheduler (docs/serving.md), plus an overload-shedding
// curve: a deliberately tiny admission queue driven through TrySubmit
// at increasing offered load, reporting the shed fraction and the
// degraded fraction under a per-query deadline.
//
// Emits a `serving` section merged into BENCH_kernels.json through the
// shared read-merge-write store — micro_kernels' and
// batch_throughput's sections pass through untouched in any run order
// — plus a stdout table.
//
// Two further modes ride along:
//   open_loop — fixed-rate arrivals over a timed window (offered load
//     swept, or pinned with PROGIDX_ARRIVAL_QPS). Latency is measured
//     from each query's *scheduled* arrival, not from when a worker
//     got around to submitting it, so queueing delay shows up in
//     p50/p99 instead of being coordinated-omitted away.
//   checkpoint — durability costs (docs/recovery.md): snapshot bytes
//     and write ms for the served index, and cold recovery-replay ms
//     as a function of admitted-log length.
//
// PROGIDX_CLIENTS overrides the client counts swept (a single value);
// PROGIDX_DEADLINE_US applies a per-query deadline to the throughput
// sweep as well. PROGIDX_FAULT makes the fault seams live here too —
// useful for eyeballing how much service degrades under each mode.

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <thread>
#include <vector>

#include "bench/bench_util.h"
#include "bench/json_store.h"
#include "common/env.h"
#include "common/timer.h"
#include "eval/registry.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "persist/calibration_store.h"
#include "persist/checkpoint.h"
#include "persist/wal.h"
#include "serve/recovery.h"
#include "serve/server.h"
#include "workload/data_generator.h"
#include "workload/synthetic.h"

namespace progidx {
namespace {

struct ServeRow {
  std::string index_id;
  std::string mode;  ///< "throughput", "overload", "open_loop", "checkpoint"
  size_t clients = 0;
  size_t queries = 0;
  double queries_per_sec = 0;
  double p50_us = 0;
  double p99_us = 0;
  double shed_frac = 0;
  double degraded_frac = 0;
  double read_epoch_frac = 0;
  double offered_qps = 0;      ///< open_loop: the fixed arrival rate
  size_t snapshot_bytes = 0;   ///< checkpoint: published snapshot size
  double ckpt_write_ms = 0;    ///< checkpoint: snapshot publish time
  double replay_ms = 0;        ///< checkpoint: cold replay of the log
};

/// One throughput point: `clients` threads drive `per_client` blocking
/// submits each against a fresh index behind a fresh server. Latency
/// quantiles come from the shared obs histogram (bench::LatencyRecorder)
/// — the same bucket layout Server::DumpMetrics exposes.
ServeRow RunThroughput(const std::string& index_id, const Column& column,
                       const std::vector<RangeQuery>& queries, size_t clients,
                       size_t per_client, const serve::ServerConfig& config) {
  auto index = MakeIndex(index_id, column, BudgetSpec::FixedDelta(0.05));
  serve::Server server(index.get(), column, config);
  std::vector<bench::LatencyRecorder> lat(clients);
  std::vector<std::thread> threads;
  Timer timer;
  for (size_t c = 0; c < clients; ++c) {
    threads.emplace_back([&, c] {
      for (size_t i = 0; i < per_client; ++i) {
        const RangeQuery& q = queries[(c * per_client + i) % queries.size()];
        Timer t;
        server.Submit(q);
        lat[c].RecordNs(static_cast<uint64_t>(t.ElapsedNanos()));
      }
    });
  }
  for (std::thread& t : threads) t.join();
  const double secs = timer.ElapsedSeconds();
  const serve::ServeStats stats = server.stats();

  bench::LatencyRecorder all;
  for (const bench::LatencyRecorder& r : lat) all.MergeFrom(r);
  ServeRow row;
  row.index_id = index_id;
  row.mode = "throughput";
  row.clients = clients;
  row.queries = clients * per_client;
  row.queries_per_sec =
      secs > 0 ? static_cast<double>(row.queries) / secs : 0;
  row.p50_us = all.PercentileUs(0.50);
  row.p99_us = all.PercentileUs(0.99);
  const double total = static_cast<double>(stats.submitted);
  row.degraded_frac = total > 0 ? static_cast<double>(stats.degraded) / total
                                : 0;
  row.read_epoch_frac =
      total > 0 ? static_cast<double>(stats.read_epoch) / total : 0;
  return row;
}

/// One overload point: `clients` threads hammer TrySubmit against a
/// tiny queue; refused queries are shed (counted, not retried) — the
/// load-shedding curve.
ServeRow RunOverload(const std::string& index_id, const Column& column,
                     const std::vector<RangeQuery>& queries, size_t clients,
                     size_t per_client) {
  auto index = MakeIndex(index_id, column, BudgetSpec::FixedDelta(0.05));
  serve::ServerConfig config;
  config.queue_capacity = 2;
  config.batch_size = 2;
  serve::Server server(index.get(), column, config);
  std::vector<std::thread> threads;
  Timer timer;
  for (size_t c = 0; c < clients; ++c) {
    threads.emplace_back([&, c] {
      serve::Response resp;
      for (size_t i = 0; i < per_client; ++i) {
        const RangeQuery& q = queries[(c * per_client + i) % queries.size()];
        server.TrySubmit(q, &resp);
      }
    });
  }
  for (std::thread& t : threads) t.join();
  const double secs = timer.ElapsedSeconds();
  const serve::ServeStats stats = server.stats();

  ServeRow row;
  row.index_id = index_id;
  row.mode = "overload";
  row.clients = clients;
  row.queries = clients * per_client;
  row.queries_per_sec =
      secs > 0 ? static_cast<double>(stats.served + stats.read_epoch) / secs
               : 0;
  const double total = static_cast<double>(stats.submitted);
  row.shed_frac = total > 0 ? static_cast<double>(stats.shed) / total : 0;
  row.degraded_frac = total > 0 ? static_cast<double>(stats.degraded) / total
                                : 0;
  row.read_epoch_frac =
      total > 0 ? static_cast<double>(stats.read_epoch) / total : 0;
  return row;
}

/// One open-loop point: arrivals are *scheduled* at a fixed rate over a
/// timed window, and a small worker pool dispatches them as they come
/// due. Latency runs from the scheduled arrival to the answer, so a
/// server that falls behind the offered load accumulates visible
/// queueing delay instead of silently slowing the arrival clock
/// (coordinated omission).
ServeRow RunOpenLoop(const std::string& index_id, const Column& column,
                     const std::vector<RangeQuery>& queries, double qps,
                     double window_secs, const serve::ServerConfig& config) {
  auto index = MakeIndex(index_id, column, BudgetSpec::FixedDelta(0.05));
  serve::Server server(index.get(), column, config);
  const size_t total =
      std::max<size_t>(1, static_cast<size_t>(qps * window_secs));
  constexpr size_t kWorkers = 8;
  std::atomic<size_t> next{0};
  std::vector<bench::LatencyRecorder> lat(kWorkers);
  const auto start = std::chrono::steady_clock::now();
  std::vector<std::thread> threads;
  Timer timer;
  for (size_t w = 0; w < kWorkers; ++w) {
    threads.emplace_back([&, w] {
      for (;;) {
        const size_t i = next.fetch_add(1);
        if (i >= total) return;
        const auto scheduled =
            start + std::chrono::nanoseconds(static_cast<int64_t>(
                        1e9 * static_cast<double>(i) / qps));
        std::this_thread::sleep_until(scheduled);
        server.Submit(queries[i % queries.size()]);
        lat[w].RecordSecs(std::chrono::duration<double>(
                              std::chrono::steady_clock::now() - scheduled)
                              .count());
      }
    });
  }
  for (std::thread& t : threads) t.join();
  const double secs = timer.ElapsedSeconds();
  const serve::ServeStats stats = server.stats();

  bench::LatencyRecorder all;
  for (const bench::LatencyRecorder& r : lat) all.MergeFrom(r);
  ServeRow row;
  row.index_id = index_id;
  row.mode = "open_loop";
  row.clients = kWorkers;
  row.queries = total;
  row.offered_qps = qps;
  row.queries_per_sec = secs > 0 ? static_cast<double>(total) / secs : 0;
  row.p50_us = all.PercentileUs(0.50);
  row.p99_us = all.PercentileUs(0.99);
  const double submitted = static_cast<double>(stats.submitted);
  row.degraded_frac =
      submitted > 0 ? static_cast<double>(stats.degraded) / submitted : 0;
  row.read_epoch_frac =
      submitted > 0 ? static_cast<double>(stats.read_epoch) / submitted : 0;
  return row;
}

/// One checkpoint point (docs/recovery.md): a durable admitted log of
/// `log_len` queries is written, cold recovery over it is timed, and a
/// snapshot of the recovered index is published and sized — the
/// snapshot-write vs replay-time tradeoff PROGIDX_CHECKPOINT_EVERY
/// tunes.
ServeRow RunCheckpoint(const std::string& index_id, const Column& column,
                       const std::vector<RangeQuery>& queries,
                       size_t log_len) {
  ServeRow row;
  row.index_id = index_id;
  row.mode = "checkpoint";
  row.queries = log_len;

  char tmpl[] = "/tmp/progidx_bench_ckpt_XXXXXX";
  const char* dir = ::mkdtemp(tmpl);
  if (dir == nullptr) return row;
  {
    persist::WalWriter wal;
    if (!wal.Open(std::string(dir) + "/wal")) return row;
    constexpr size_t kEpoch = 16;
    std::vector<ServeRequest> ops;
    for (size_t i = 0; i < log_len; i += kEpoch) {
      const size_t off = i % queries.size();
      const size_t count =
          std::min({kEpoch, log_len - i, queries.size() - off});
      ops.assign(queries.begin() + off, queries.begin() + off + count);
      wal.AppendEpoch(i, ops.data(), ops.size());
    }
    wal.Close();
  }

  auto make_fresh = [&](const MachineConstants& mc) {
    ProgressiveOptions opt;
    opt.machine = &mc;
    return MakeIndex(index_id, column, BudgetSpec::FixedDelta(0.05), opt);
  };
  serve::RecoveryStats stats;
  Timer replay_timer;
  auto recovered = serve::RecoverIndex(dir, column, make_fresh, &stats);
  row.replay_ms = replay_timer.ElapsedSeconds() * 1e3;

  if (recovered->SupportsPersistence()) {
    persist::Checkpointer ckpt(dir, column);
    persist::SnapshotMeta meta;
    meta.applied_queries = stats.replayed_queries;
    if (const MachineConstants* mc = recovered->machine_constants()) {
      meta.calibration_crc = persist::CalibrationFingerprint(*mc);
    }
    Timer write_timer;
    if (ckpt.Save(*recovered, meta)) {
      row.ckpt_write_ms = write_timer.ElapsedSeconds() * 1e3;
      row.snapshot_bytes = ckpt.last_snapshot_bytes();
    }
  }
  const std::string cleanup = std::string("rm -rf ") + dir;
  (void)std::system(cleanup.c_str());
  return row;
}

/// Telemetry overhead, measured (docs/observability.md "Overhead
/// budget"): the same blocking-throughput point under three telemetry
/// configurations — everything off, metrics on / tracing off (the
/// production default this code ships with), and metrics + tracing on.
/// Best-of-3 q/s per config so scheduler noise does not masquerade as
/// overhead. The budget line is tracing-off: metrics-on q/s must be
/// within 2% of telemetry-off q/s.
struct ObsOverhead {
  size_t clients = 0;
  size_t queries = 0;
  double qps_off = 0;
  double qps_metrics = 0;
  double qps_trace = 0;
  /// (qps_off - qps_metrics) / qps_off; negative values are run noise.
  double tracing_off_overhead_frac = 0;
};

ObsOverhead RunObsOverhead(const std::string& index_id, const Column& column,
                           const std::vector<RangeQuery>& queries,
                           size_t clients, size_t per_client,
                           const serve::ServerConfig& config) {
  auto best_of_3 = [&] {
    double best = 0;
    for (int rep = 0; rep < 3; rep++) {
      best = std::max(best, RunThroughput(index_id, column, queries, clients,
                                          per_client, config)
                                .queries_per_sec);
    }
    return best;
  };

  ObsOverhead o;
  o.clients = clients;
  o.queries = clients * per_client;
  const bool metrics_before = obs::MetricsEnabled();
  const bool trace_before = obs::TracingEnabled();
  const std::string path_before = obs::TracePath();

  obs::SetMetricsEnabledForTesting(false);
  if (trace_before) obs::DisableTracing();
  o.qps_off = best_of_3();

  obs::SetMetricsEnabledForTesting(true);
  o.qps_metrics = best_of_3();

  const std::string trace_path = "/tmp/progidx_bench_overhead_trace.json";
  obs::EnableTracing(trace_path);
  o.qps_trace = best_of_3();
  obs::FlushTrace();
  obs::DisableTracing();
  std::remove(trace_path.c_str());

  obs::SetMetricsEnabledForTesting(metrics_before);
  if (trace_before) obs::EnableTracing(path_before);
  o.tracing_off_overhead_frac =
      o.qps_off > 0 ? (o.qps_off - o.qps_metrics) / o.qps_off : 0;
  return o;
}

void PrintRows(const std::vector<ServeRow>& rows) {
  std::printf("%-6s %-10s %8s %8s %12s %9s %9s %6s %9s %6s\n", "index",
              "mode", "clients", "queries", "q/s", "p50us", "p99us", "shed",
              "degraded", "read");
  for (const ServeRow& r : rows) {
    if (r.mode == "checkpoint") {
      std::printf("%-6s %-10s log=%zu snapshot=%zuB write=%.2fms "
                  "replay=%.2fms\n",
                  r.index_id.c_str(), r.mode.c_str(), r.queries,
                  r.snapshot_bytes, r.ckpt_write_ms, r.replay_ms);
      continue;
    }
    std::printf("%-6s %-10s %8zu %8zu %12.1f %9.1f %9.1f %5.1f%% %8.1f%% "
                "%5.1f%%",
                r.index_id.c_str(), r.mode.c_str(), r.clients, r.queries,
                r.queries_per_sec, r.p50_us, r.p99_us, r.shed_frac * 100,
                r.degraded_frac * 100, r.read_epoch_frac * 100);
    if (r.mode == "open_loop") std::printf("  offered=%.0f/s", r.offered_qps);
    std::printf("\n");
  }
}

/// Merges the `serving` rows into BENCH_kernels.json; every section
/// this tool does not own passes through untouched.
void WriteServingJson(const char* path, const std::vector<ServeRow>& rows) {
  std::vector<bench::JsonSection> sections = bench::ReadJsonSections(path);
  // Every row records the core count it ran on, so rows from machines
  // of a different shape are not mistaken for a regression.
  const unsigned hw_threads = std::thread::hardware_concurrency();
  std::string raw = "[\n";
  for (size_t i = 0; i < rows.size(); i++) {
    const ServeRow& r = rows[i];
    const char* sep = i + 1 < rows.size() ? "," : "";
    if (r.mode == "checkpoint") {
      bench::AppendF(
          &raw,
          "    {\"index\": \"%s\", \"mode\": \"checkpoint\", "
          "\"log_queries\": %zu, \"snapshot_bytes\": %zu, "
          "\"write_ms\": %.3f, \"replay_ms\": %.3f, "
          "\"hardware_threads\": %u}%s\n",
          r.index_id.c_str(), r.queries, r.snapshot_bytes, r.ckpt_write_ms,
          r.replay_ms, hw_threads, sep);
      continue;
    }
    bench::AppendF(
        &raw,
        "    {\"index\": \"%s\", \"mode\": \"%s\", \"clients\": %zu, "
        "\"queries\": %zu, \"queries_per_sec\": %.1f, \"p50_us\": %.1f, "
        "\"p99_us\": %.1f, \"shed_frac\": %.4f, \"degraded_frac\": %.4f, "
        "\"read_epoch_frac\": %.4f",
        r.index_id.c_str(), r.mode.c_str(), r.clients, r.queries,
        r.queries_per_sec, r.p50_us, r.p99_us, r.shed_frac, r.degraded_frac,
        r.read_epoch_frac);
    if (r.mode == "open_loop") {
      bench::AppendF(&raw, ", \"offered_qps\": %.1f", r.offered_qps);
    }
    bench::AppendF(&raw, ", \"hardware_threads\": %u}%s\n", hw_threads, sep);
  }
  raw += "  ]";
  bench::UpsertJsonSection(&sections, "serving", std::move(raw));
  if (!bench::WriteJsonSections(path, sections)) {
    std::fprintf(stderr, "cannot write %s\n", path);
    return;
  }
  std::printf("serving rows -> %s\n", path);
}

/// Merges the `observability` overhead row into BENCH_kernels.json.
void WriteObservabilityJson(const char* path, const std::string& index_id,
                            const ObsOverhead& o) {
  std::vector<bench::JsonSection> sections = bench::ReadJsonSections(path);
  std::string raw = "[\n";
  bench::AppendF(
      &raw,
      "    {\"index\": \"%s\", \"clients\": %zu, \"queries\": %zu, "
      "\"qps_telemetry_off\": %.1f, \"qps_metrics_on\": %.1f, "
      "\"qps_metrics_and_trace_on\": %.1f, "
      "\"tracing_off_overhead_frac\": %.4f, \"budget_frac\": 0.02}\n",
      index_id.c_str(), o.clients, o.queries, o.qps_off, o.qps_metrics,
      o.qps_trace, o.tracing_off_overhead_frac);
  raw += "  ]";
  bench::UpsertJsonSection(&sections, "observability", std::move(raw));
  if (!bench::WriteJsonSections(path, sections)) {
    std::fprintf(stderr, "cannot write %s\n", path);
    return;
  }
  std::printf("observability row -> %s\n", path);
}

}  // namespace
}  // namespace progidx

int main(int argc, char** argv) {
  using namespace progidx;
  CommandLine cli;
  bench::AddCommonFlags(&cli);
  cli.AddFlag("json", "BENCH_kernels.json", "merged JSON output path");
  cli.AddFlag("index", "pq", "index id served (see eval/registry.h)");
  cli.AddFlag("per-client", "400", "blocking submits per client thread");
  if (!cli.Parse(argc, argv)) return 0;
  const size_t n = static_cast<size_t>(
      cli.GetIntInRange("n", 1, static_cast<int64_t>(1) << 32));
  const uint64_t seed = static_cast<uint64_t>(cli.GetInt("seed"));
  const size_t per_client = static_cast<size_t>(
      cli.GetIntInRange("per-client", 1, 1 << 24));
  const std::string index_id = cli.GetString("index");

  const Column column = MakeUniformColumn(n, seed);
  const std::vector<RangeQuery> queries = WorkloadGenerator::Generate(
      WorkloadPattern::kRandom, column.min_value(), column.max_value(),
      4096, 0.05, seed + 13);

  // PROGIDX_CLIENTS pins the sweep to one client count.
  const size_t forced = env::BoundedSizeFromEnv(
      "PROGIDX_CLIENTS", 1, 64, 0, "client thread count", "full 1/2/4/8 sweep");
  std::vector<size_t> client_counts = {1, 2, 4, 8};
  if (forced != 0) client_counts = {forced};

  const serve::ServerConfig config = serve::ServerConfig::FromEnv();
  std::vector<ServeRow> rows;
  std::printf("serving %s, n=%zu, %zu submits/client:\n", index_id.c_str(), n,
              per_client);
  for (const size_t clients : client_counts) {
    rows.push_back(RunThroughput(index_id, column, queries, clients,
                                 per_client, config));
  }
  for (const size_t clients : client_counts) {
    rows.push_back(RunOverload(index_id, column, queries, clients,
                               per_client));
  }
  // Open loop: PROGIDX_ARRIVAL_QPS pins one offered rate, otherwise a
  // small sweep maps latency vs offered load around saturation.
  const size_t forced_qps = env::BoundedSizeFromEnv(
      "PROGIDX_ARRIVAL_QPS", 1, 1 << 24, 0, "open-loop arrival rate",
      "1k/4k/16k sweep");
  std::vector<double> rates = {1000, 4000, 16000};
  if (forced_qps != 0) rates = {static_cast<double>(forced_qps)};
  for (const double qps : rates) {
    rows.push_back(
        RunOpenLoop(index_id, column, queries, qps, /*window_secs=*/1.0,
                    config));
  }
  // Durability costs vs admitted-log length.
  for (const size_t log_len : {size_t{512}, size_t{2048}}) {
    rows.push_back(RunCheckpoint(index_id, column, queries, log_len));
  }
  PrintRows(rows);
  WriteServingJson(cli.GetString("json").c_str(), rows);

  // Telemetry overhead rows (docs/observability.md): three configs at
  // a fixed client count, best-of-3 each.
  const ObsOverhead o =
      RunObsOverhead(index_id, column, queries, /*clients=*/4, per_client,
                     config);
  std::printf(
      "observability: off=%.1f q/s metrics=%.1f q/s metrics+trace=%.1f q/s "
      "tracing-off overhead=%.2f%% (budget 2%%)\n",
      o.qps_off, o.qps_metrics, o.qps_trace,
      o.tracing_off_overhead_frac * 100);
  WriteObservabilityJson(cli.GetString("json").c_str(), index_id, o);
  return 0;
}
