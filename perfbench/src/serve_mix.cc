#include "serve_mix.h"

#include <algorithm>
#include <filesystem>
#include <memory>

#include "core/updatable_index.h"
#include "eval/registry.h"
#include "explore.h"
#include "inputs.h"
#include "layers.h"
#include "obs/trace.h"
#include "serve/recovery.h"
#include "serve/server.h"
#include "storage/column.h"

namespace perfbench {

namespace {

struct ServeInputs {
  std::vector<value_t> values;             ///< initial base column
  std::vector<progidx::ServeRequest> ops;  ///< admission order, 16 per epoch
  std::vector<QueryResult> expect;         ///< per op; queries only
  std::vector<RangeQuery> probes;          ///< asked of recovered indexes
  std::vector<QueryResult> probe_expect;   ///< over the final multiset
  double merge_threshold = 0.002;
};

/// What one durable serving run measured. Latencies cover the epochs
/// after the first; the first epoch of each cold start gives
/// first_query_ms.
struct ServeFigures {
  double setup_s = 0;
  double first_query_ms = 0;
  double p50_ms = 0;
  double p99_ms = 0;
  /// Time spent in epochs that started while the inner index had not
  /// (re)converged: its first build and every rebuild after a merge.
  double converge_s = 0;
  double ops_per_s = 0;
  /// Peak resident memory from the end of the serving server's set-up
  /// until it has shut down.
  double peak_rss_mb = 0;
  double calibrate_ms = 0;
  uint64_t epochs = 0;
  uint64_t checkpoints = 0;
  uint64_t merges = 0;
  uint64_t merge_windows = 0;  ///< epochs issued while a merge ran
  /// Self time of the program's refine / shared_scan spans and the
  /// pool counters, per op (traced runs only).
  double refine_ms_per_op = 0;
  double shared_scan_ms_per_op = 0;
  double pool_tasks_per_op = 0;
  double pool_sleeps_per_op = 0;
};

namespace fs = std::filesystem;
using progidx::serve::Response;
using progidx::serve::Server;
using progidx::serve::ServeSlot;

/// Ops per epoch: the generator keeps exactly one exact batch in
/// flight, so the epoch, merge and checkpoint schedule repeats exactly.
constexpr size_t kWindow = 16;
constexpr size_t kCheckpointEvery = 64;
/// serve_mixed_durable issues this many epochs per second of --seconds
/// (a fixed op count, so its exact counts repeat): about one second of
/// serving each on a 4-vCPU Xeon VM.
constexpr double kWindowsPerSecond = 330;

std::unique_ptr<progidx::UpdatableIndex> MakeServedIndex(
    const progidx::Column& column, const progidx::MachineConstants& mc,
    double merge_threshold) {
  // The inner factory re-fires after every merge, so it owns a copy of
  // the constants.
  auto pinned = std::make_shared<progidx::MachineConstants>(mc);
  progidx::UpdatableIndex::IndexFactory inner =
      [pinned](const progidx::Column& c) {
        progidx::ProgressiveOptions options;
        options.machine = pinned.get();
        return progidx::MakeIndex("pq", c, progidx::BudgetSpec::Adaptive(0.2),
                                  options);
      };
  return std::make_unique<progidx::UpdatableIndex>(
      std::vector<value_t>(column.values()), std::move(inner),
      merge_threshold);
}

/// One exact epoch: ops [first, first + kWindow) through the two-phase
/// ordered submit. Every op gets a fresh slot — SubmitOrderedStart does
/// not reset a reused one. lat[j] runs from op j's Start until its
/// Finish returns.
void RunWindow(Server* server, const ServeInputs& in, size_t first,
               uint64_t* ticket, double* lat, Response* out) {
  std::unique_ptr<ServeSlot> slots[kWindow];
  double start[kWindow];
  for (size_t j = 0; j < kWindow; j++) {
    slots[j] = std::make_unique<ServeSlot>();
    start[j] = NowSecs();
    progidx::obs::TraceScope span("submit_start", "bench");
    server->SubmitOrderedStart((*ticket)++, in.ops[first + j], slots[j].get());
  }
  for (size_t j = 0; j < kWindow; j++) {
    {
      progidx::obs::TraceScope span("submit_finish", "bench");
      out[j] = server->SubmitOrderedFinish(slots[j].get());
    }
    lat[j] = NowSecs() - start[j];
  }
}

/// Counts degraded, rejected and wrong answers among ops [first, last).
void CheckOps(const ServeInputs& in, const std::vector<Response>& got,
              size_t first, size_t last, Report* rep) {
  uint64_t degraded = 0;
  uint64_t rejected = 0;
  uint64_t wrong = 0;
  for (size_t i = first; i < last; i++) {
    if (got[i].rejected) {
      rejected++;
    } else if (got[i].degraded) {
      degraded++;
    } else if (in.ops[i].is_query() && !(got[i].result == in.expect[i])) {
      wrong++;
    }
  }
  rep->Attempt(last - first);
  rep->Fail(rejected, "rejected updates");
  rep->Fail(degraded, "degraded ops");
  rep->Fail(wrong, "wrong served answers");
}

ServeInputs MixedInputs(size_t n, size_t ops, uint64_t seed) {
  ServeInputs in;
  in.values = UniformValues(n, StreamSeed(seed, 11));
  FenwickOracle oracle(n);
  for (value_t v : in.values) oracle.Add(v, 1);
  BenchRng rng(StreamSeed(seed, 12));
  const value_t width = static_cast<value_t>(n / 100);
  in.ops.reserve(ops);
  in.expect.reserve(ops);
  for (size_t i = 0; i < ops; i++) {
    const double r = rng.Uniform();
    // The first epoch is all queries: it times first_query_ms, and its
    // work must not depend on how a seed splits it into query runs.
    if (i < kWindow || r < 0.90) {
      RangeQuery q;
      const uint64_t lows = n - static_cast<uint64_t>(width) + 1;
      q.low = static_cast<value_t>(rng.Below(lows));
      q.high = q.low + width - 1;
      in.ops.emplace_back(q);
      in.expect.push_back(oracle.Answer(q));
    } else if (r < 0.95) {
      const value_t v = static_cast<value_t>(rng.Below(n));
      in.ops.push_back(progidx::ServeRequest::Append(v));
      oracle.Add(v, 1);
      in.expect.emplace_back();
    } else {
      // Deletes only values present now, as UpdatableIndex requires.
      const uint64_t present = static_cast<uint64_t>(oracle.size());
      const value_t v = oracle.Kth(static_cast<int64_t>(rng.Below(present)));
      in.ops.push_back(progidx::ServeRequest::Delete(v));
      oracle.Add(v, -1);
      in.expect.emplace_back();
    }
  }
  in.probes = RandomRanges(64, static_cast<value_t>(n), 0.01,
                           StreamSeed(seed, 13));
  for (const RangeQuery& q : in.probes) {
    in.probe_expect.push_back(oracle.Answer(q));
  }
  return in;
}

/// Runs `in.ops` through fresh durable servers in `dir_prefix`-<k>:
/// `cold_starts` servers each set up and serve the first epoch (all but
/// the last are then shut down); the last serves every remaining epoch
/// and shuts down, and its directory is recovered `recoveries` times,
/// each recovered index answering `in.probes`. Attempts and failures go
/// to `rep`; with `spans`, so do the serve.* and persist.* per-layer
/// metrics.
ServeFigures ServeDurable(const ServeInputs& in, const std::string& dir_prefix,
                          size_t cold_starts, size_t recoveries,
                          SpanCollector* spans, Report* rep) {
  ServeFigures fig;
  const size_t windows = in.ops.size() / kWindow;
  std::vector<Response> got(in.ops.size());
  std::vector<double> lat(in.ops.size());
  std::vector<double> setup_secs;
  std::vector<double> first_secs;
  std::vector<double> calibrate_secs;
  std::unique_ptr<progidx::Column> column;
  std::unique_ptr<progidx::UpdatableIndex> index;
  std::unique_ptr<Server> server;
  std::string dir;
  uint64_t ticket = 0;
  for (size_t c = 0; c < cold_starts; c++) {
    dir = dir_prefix + "-" + std::to_string(c);
    fs::remove_all(dir);
    fs::create_directories(dir);
    std::vector<value_t> copy = in.values;
    progidx::serve::ServerConfig config;
    config.batch_size = kWindow;
    config.exact_batches = true;
    config.persist_dir = dir;
    config.checkpoint_every = kCheckpointEvery;
    const double t0 = NowSecs();
    column = std::make_unique<progidx::Column>(std::move(copy));
    const double c0 = NowSecs();
    progidx::MeasureMachineConstants();
    calibrate_secs.push_back(NowSecs() - c0);
    index = MakeServedIndex(*column, FixedConstants(), in.merge_threshold);
    server = std::make_unique<Server>(index.get(), *column, config);
    setup_secs.push_back(NowSecs() - t0);
    if (c + 1 == cold_starts) {
      // peak_rss_mb counts from here: the served index and the server,
      // the ops and their answers. Calibration's transient buffers
      // belong to set-up and stay out of it.
      if (!ResetPeakRss()) rep->Invalid("cannot reset the peak-RSS mark");
      if (spans == nullptr) {
        rep->Meta("rss_floor_mib", std::to_string(PeakRssMiB()));
      }
    }
    ticket = 0;
    RunWindow(server.get(), in, 0, &ticket, lat.data(), got.data());
    first_secs.push_back(lat[0]);
    CheckOps(in, got, 0, kWindow, rep);
    if (c + 1 < cold_starts) {
      server.reset();
      index.reset();
      column.reset();
      fs::remove_all(dir);
    }
  }

  const progidx::obs::Histogram queue_wait("serve.queue_wait_ns");
  const progidx::obs::LocalHistogram queue_wait0 = queue_wait.Snapshot();
  const uint64_t tasks0 = CounterValue("pool.tasks");
  const uint64_t sleeps0 = CounterValue("pool.sleeps");
  const uint64_t wal_bytes0 = CounterValue("persist.wal_bytes");
  const uint64_t snap_bytes0 = CounterValue("persist.snapshot_bytes");
  const uint64_t snaps0 = CounterValue("persist.snapshots");
  // Spans per op: two of the benchmark's and queue_wait on this thread;
  // under one on the scheduler's.
  if (spans != nullptr) spans->Start(4 * in.ops.size() + 4096);
  const double loop0 = NowSecs();
  for (size_t w = 1; w < windows; w++) {
    // Read between epochs: the scheduler only reads the index (to
    // checkpoint it) until the next epoch is admitted.
    const bool converged = index->inner().converged();
    if (index->merge_in_progress()) fig.merge_windows++;
    const uint64_t checkpoints = server->stats().checkpoints;
    const double w0 = NowSecs();
    RunWindow(server.get(), in, w * kWindow, &ticket, lat.data() + w * kWindow,
              got.data() + w * kWindow);
    // An epoch that waited behind a snapshot measures the checkpoint
    // (p99_ms), not convergence; which epochs those are depends on the
    // seed's merge schedule.
    if (!converged && server->stats().checkpoints == checkpoints) {
      fig.converge_s += NowSecs() - w0;
    }
  }
  const double loop_secs = NowSecs() - loop0;
  const progidx::serve::ServeStats stats = server->stats();
  fig.epochs = stats.write_epochs;
  fig.checkpoints = stats.checkpoints;
  fig.merges = index->merge_count();
  server.reset();  // drains and publishes the final snapshot
  fig.peak_rss_mb = PeakRssMiB();
  CheckOps(in, got, kWindow, windows * kWindow, rep);
  rep->Fail(stats.shed, "shed ops");
  if (stats.wal_broken) rep->Invalid("the write-ahead log broke");

  std::vector<double> recover_secs;
  std::vector<double> load_ms;
  std::vector<double> replay_ms;
  uint64_t probe_wrong = 0;
  for (size_t r = 0; r < recoveries; r++) {
    progidx::serve::RecoveryStats rs;
    std::unique_ptr<progidx::IndexBase> recovered;
    const double t0 = NowSecs();
    {
      progidx::obs::TraceScope span("recover", "bench");
      recovered = progidx::serve::RecoverIndex(
          dir, *column,
          [&](const progidx::MachineConstants& mc)
              -> std::unique_ptr<progidx::IndexBase> {
            return MakeServedIndex(*column, mc, in.merge_threshold);
          },
          &rs);
    }
    recover_secs.push_back(NowSecs() - t0);
    load_ms.push_back(rs.snapshot_load_ms);
    replay_ms.push_back(rs.replay_ms);
    if (!rs.snapshot_loaded) rep->Invalid("recovery loaded no snapshot");
    for (size_t p = 0; p < in.probes.size(); p++) {
      if (!(recovered->Query(in.probes[p]) == in.probe_expect[p])) {
        probe_wrong++;
      }
    }
    rep->Attempt(in.probes.size());
  }
  rep->Fail(probe_wrong, "wrong answers from a recovered index");

  const std::vector<double> loop_lat(lat.begin() + kWindow, lat.end());
  const double ops = static_cast<double>(loop_lat.size());
  fig.setup_s = Median(setup_secs);
  fig.first_query_ms = Median(first_secs) * 1e3;
  fig.p50_ms = Quantile(loop_lat, 0.5) * 1e3;
  fig.p99_ms = Quantile(loop_lat, 0.99) * 1e3;
  fig.ops_per_s = ops / loop_secs;
  fig.calibrate_ms = Median(calibrate_secs) * 1e3;
  if (spans != nullptr) {
    spans->Stop();
    spans->Collect();
    if (!spans->ok()) rep->Invalid("trace spans were dropped");
    fig.refine_ms_per_op = spans->Get("refine").self_us / ops / 1e3;
    fig.shared_scan_ms_per_op = spans->Get("shared_scan").self_us / ops / 1e3;
    fig.pool_tasks_per_op =
        static_cast<double>(CounterValue("pool.tasks") - tasks0) / ops;
    fig.pool_sleeps_per_op =
        static_cast<double>(CounterValue("pool.sleeps") - sleeps0) / ops;
    const double snaps =
        static_cast<double>(CounterValue("persist.snapshots") - snaps0);
    const std::vector<double>& fsync = spans->Get("wal_fsync").dur_us;
    rep->Layer("serve.ops_per_s", fig.ops_per_s, "1/s");
    rep->Layer("serve.admit_us", Median(spans->Get("submit_start").dur_us),
               "us");
    const progidx::obs::LocalHistogram queue_wait1 = queue_wait.Snapshot();
    rep->Layer("serve.queue_wait_p50_us",
               HistogramDeltaQuantileUs(queue_wait0, queue_wait1, 0.5), "us");
    rep->Layer("serve.queue_wait_p99_us",
               HistogramDeltaQuantileUs(queue_wait0, queue_wait1, 0.99), "us");
    rep->Layer("serve.epoch_formation_ms",
               Median(spans->Get("epoch_formation").dur_us) / 1e3, "ms");
    rep->Layer("persist.wal_fsync_p50_us", Quantile(fsync, 0.5), "us");
    rep->Layer("persist.wal_fsync_p99_us", Quantile(fsync, 0.99), "us");
    const uint64_t wal_bytes = CounterValue("persist.wal_bytes") - wal_bytes0;
    rep->Layer("persist.wal_bytes_per_op", static_cast<double>(wal_bytes) / ops,
               "B/op");
    rep->Layer("persist.checkpoint_p50_ms",
               Median(spans->Get("checkpoint").dur_us) / 1e3, "ms");
    rep->Layer("persist.snapshot_mb",
               static_cast<double>(CounterValue("persist.snapshot_bytes") -
                                   snap_bytes0) /
                   std::max(1.0, snaps) / (1024.0 * 1024.0),
               "MiB");
    rep->Layer("persist.snapshot_load_ms", Median(load_ms), "ms");
    rep->Layer("persist.replay_ms", Median(replay_ms), "ms");
    rep->Layer("persist.recover_ms", Median(recover_secs) * 1e3, "ms");
  }
  fs::remove_all(dir);
  return fig;
}

}  // namespace

void RunServeMixed(const Options& opt, Report* rep) {
  const size_t n = opt.smoke ? size_t{1} << 15 : 1000000;
  const size_t windows =
      opt.smoke ? 160
                : static_cast<size_t>(opt.seconds * kWindowsPerSecond) + 1;
  const ServeInputs in = MixedInputs(n, windows * kWindow, opt.seed);
  const size_t cold_starts = opt.smoke ? 2 : 9;
  const size_t recoveries = opt.smoke ? 2 : 5;
  // Recovery reads the process-wide calibration once; pay it untimed.
  progidx::GlobalMachineConstants();

  const ServeFigures f = ServeDurable(in, opt.work_dir + "/serve", cold_starts,
                                      recoveries, nullptr, rep);
  rep->Count("serve.epochs", f.epochs);
  rep->Count("persist.checkpoints", f.checkpoints);
  rep->Count("core.merges", f.merges);
  rep->Count("core.merge_windows", f.merge_windows);
  if (!opt.trace) {
    rep->E2e("setup_s", f.setup_s, "s");
    rep->E2e("p50_ms", f.p50_ms, "ms");
    rep->E2e("p99_ms", f.p99_ms, "ms");
    rep->E2e("converge_s", f.converge_s, "s");
    rep->E2e("first_query_ms", f.first_query_ms, "ms");
    rep->E2e("peak_rss_mb", f.peak_rss_mb, "MiB");
    return;
  }

  SpanCollector spans(opt.work_dir);
  const ServeFigures t =
      ServeDurable(in, opt.work_dir + "/serve-traced", 1, 3, &spans, rep);
  if (t.epochs != f.epochs || t.checkpoints != f.checkpoints ||
      t.merges != f.merges || t.merge_windows != f.merge_windows) {
    rep->Invalid("serving counts did not repeat in the traced run");
  }
  rep->Layer("core.refine_ms", t.refine_ms_per_op, "ms");
  rep->Layer("core.shared_scan_ms", t.shared_scan_ms_per_op, "ms");
  rep->Layer("parallel.pool_tasks", t.pool_tasks_per_op, "1/op");
  rep->Layer("parallel.pool_sleeps", t.pool_sleeps_per_op, "1/op");
  rep->Layer("obs.trace_overhead_frac", f.ops_per_s / t.ops_per_s - 1.0,
             "frac");
  rep->Layer("cost.calibrate_ms", f.calibrate_ms, "ms");

  // The four indexes' trajectories on this workload's column and query
  // shape: one session each, as in the explore workloads.
  progidx::Column column{std::vector<value_t>(in.values)};
  const StaticOracle oracle(in.values);
  SessionInputs sessions;
  sessions.column = &column;
  sessions.build = RandomRanges(2048, static_cast<value_t>(n), 0.01,
                                StreamSeed(opt.seed, 14));
  sessions.tail = RandomRanges(256, static_cast<value_t>(n), 0.01,
                               StreamSeed(opt.seed, 15));
  sessions.tail_block = 64;
  for (const RangeQuery& q : sessions.build) {
    sessions.build_expect.push_back(oracle.Answer(q));
  }
  for (const RangeQuery& q : sessions.tail) {
    sessions.tail_expect.push_back(oracle.Answer(q));
  }
  std::vector<SessionResult> pass;
  for (const std::string& id : SessionIndexIds()) {
    pass.push_back(RunSession(id, sessions, nullptr));
    rep->Attempt(pass.back().attempted);
    rep->Fail(pass.back().wrong, id + " wrong answers");
    if (!pass.back().converged) rep->Invalid(id + " did not converge");
  }
  ReportSessionCounts(pass, rep);
  ReportPhaseTimes({pass}, rep);
  rep->Layer("core.converged_qps", ConvergedQps({pass}, sessions.tail.size()),
             "1/s");
  DirectLayerProbes(column, oracle, sessions.build, opt.smoke, rep);
}

void DurableProbe(const std::vector<value_t>& values,
                  const std::vector<RangeQuery>& queries,
                  const std::string& dir, bool smoke, Report* rep) {
  const size_t rows = std::min(values.size(), smoke ? size_t{1} << 15
                                                    : size_t{1} << 20);
  ServeInputs in;
  in.values.assign(values.begin(), values.begin() + static_cast<long>(rows));
  const StaticOracle oracle(in.values);
  const size_t ops = (smoke ? 64 : 256) * kWindow;
  for (size_t i = 0; i < ops; i++) {
    const RangeQuery& q = queries[i % queries.size()];
    in.ops.emplace_back(q);
    in.expect.push_back(oracle.Answer(q));
  }
  in.probes.assign(queries.begin(), queries.begin() + 64);
  for (const RangeQuery& q : in.probes) {
    in.probe_expect.push_back(oracle.Answer(q));
  }
  progidx::GlobalMachineConstants();  // read by recovery; pay it untimed
  SpanCollector spans(dir);
  const ServeFigures f = ServeDurable(in, dir + "/probe", 1, 3, &spans, rep);
  rep->Count("serve.epochs", f.epochs);
  rep->Count("persist.checkpoints", f.checkpoints);
  rep->Count("core.merges", f.merges);
  rep->Count("core.merge_windows", f.merge_windows);
}

}  // namespace perfbench
