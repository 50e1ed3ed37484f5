#include "explore.h"

#include <algorithm>
#include <memory>

#include "core/progressive_bucketsort.h"
#include "core/progressive_quicksort.h"
#include "core/progressive_radixsort_lsd.h"
#include "core/progressive_radixsort_msd.h"
#include "eval/registry.h"
#include "inputs.h"
#include "layers.h"
#include "obs/trace.h"
#include "serve_mix.h"

namespace perfbench {

const std::vector<std::string>& SessionIndexIds() {
  static const std::vector<std::string> ids{"pq", "pmsd", "plsd", "pb"};
  return ids;
}

const std::vector<std::string>& PhaseNames(const std::string& id) {
  static const std::vector<std::string> four{"creation", "refinement",
                                             "consolidation", "done"};
  static const std::vector<std::string> lsd{"creation", "refinement", "merge",
                                            "consolidation", "done"};
  return id == "plsd" ? lsd : four;
}

namespace {

int PhaseOf(const progidx::IndexBase& index) {
  if (auto* p = dynamic_cast<const progidx::ProgressiveQuicksort*>(&index)) {
    return static_cast<int>(p->phase());
  }
  if (auto* p =
          dynamic_cast<const progidx::ProgressiveRadixsortMSD*>(&index)) {
    return static_cast<int>(p->phase());
  }
  if (auto* p =
          dynamic_cast<const progidx::ProgressiveRadixsortLSD*>(&index)) {
    return static_cast<int>(p->phase());
  }
  if (auto* p = dynamic_cast<const progidx::ProgressiveBucketsort*>(&index)) {
    return static_cast<int>(p->phase());
  }
  return 0;
}

std::unique_ptr<progidx::IndexBase> MakeSessionIndex(
    const std::string& id, const progidx::Column& column) {
  progidx::ProgressiveOptions options;
  options.machine = &FixedConstants();
  return progidx::MakeIndex(id, column, progidx::BudgetSpec::Adaptive(0.2),
                            options);
}

struct Loop {
  std::vector<std::vector<SessionResult>> passes;
  /// Per pass: time inside timed regions (builds + tail blocks).
  std::vector<double> timed_secs;
};

/// Runs passes of the four sessions until `seconds` would be exceeded,
/// and at least until `min_build_samples` pre-convergence queries have
/// been pooled.
Loop RunPasses(const SessionInputs& in, double seconds,
               size_t min_build_samples, SpanCollector* spans) {
  constexpr size_t kMaxPasses = 64;
  Loop loop;
  const double start = NowSecs();
  size_t samples = 0;
  for (;;) {
    std::vector<SessionResult> pass;
    double timed = 0;
    for (const std::string& id : SessionIndexIds()) {
      pass.push_back(RunSession(id, in, spans));
      const SessionResult& s = pass.back();
      samples += s.build_queries;
      timed += s.converge_secs;
      for (double secs : s.block_secs) timed += secs;
    }
    loop.passes.push_back(std::move(pass));
    loop.timed_secs.push_back(timed);
    const double elapsed = NowSecs() - start;
    const double per_pass = elapsed / static_cast<double>(loop.passes.size());
    if (loop.passes.size() >= kMaxPasses) break;
    if (samples >= min_build_samples && elapsed + per_pass > seconds) break;
  }
  return loop;
}

void Account(const Loop& loop, Report* rep) {
  for (const auto& pass : loop.passes) {
    for (const SessionResult& s : pass) {
      rep->Attempt(s.attempted);
      rep->Fail(s.wrong, s.id + " wrong answers");
      if (!s.converged) rep->Invalid(s.id + " did not converge");
    }
  }
}

/// Checks that every pass repeated pass 0's exact counts.
void CheckCountsRepeat(const std::vector<std::vector<SessionResult>>& passes,
                       Report* rep) {
  for (const auto& pass : passes) {
    for (size_t k = 0; k < pass.size(); k++) {
      const SessionResult& a = passes.front()[k];
      if (pass[k].build_queries != a.build_queries ||
          pass[k].phase_queries != a.phase_queries) {
        rep->Invalid(a.id + " trajectory did not repeat across passes");
        return;
      }
    }
  }
}

}  // namespace

SessionResult RunSession(const std::string& id, const SessionInputs& in,
                         SpanCollector* spans) {
  SessionResult r;
  r.id = id;
  const size_t phases = PhaseNames(id).size();
  r.phase_queries.assign(phases, 0);
  r.phase_secs.assign(phases, 0);
  std::unique_ptr<progidx::IndexBase> index = MakeSessionIndex(id, *in.column);
  std::vector<QueryResult> got(in.build.size());
  const double start = NowSecs();
  size_t i = 0;
  while (!index->converged() && i < in.build.size()) {
    const int phase = PhaseOf(*index);
    const double t0 = NowSecs();
    {
      progidx::obs::TraceScope span("query", "bench");
      got[i] = index->Query(in.build[i]);
    }
    const double t1 = NowSecs();
    r.build_lat.push_back(t1 - t0);
    r.phase_queries[static_cast<size_t>(phase)]++;
    r.phase_secs[static_cast<size_t>(phase)] += t1 - t0;
    i++;
  }
  r.converge_secs = NowSecs() - start;
  r.converged = index->converged();
  r.build_queries = i;
  if (spans != nullptr) {
    const double refine0 = spans->Get("refine").self_us;
    const double shared0 = spans->Get("shared_scan").self_us;
    spans->Collect();
    r.refine_self_us = spans->Get("refine").self_us - refine0;
    r.shared_scan_self_us = spans->Get("shared_scan").self_us - shared0;
  }
  std::vector<QueryResult> tail_got(in.tail.size());
  if (r.converged) {
    for (size_t b = 0; b < in.tail.size(); b += in.tail_block) {
      const size_t e = std::min(in.tail.size(), b + in.tail_block);
      const double t0 = NowSecs();
      for (size_t j = b; j < e; j++) {
        progidx::obs::TraceScope span("query", "bench");
        tail_got[j] = index->Query(in.tail[j]);
      }
      r.block_secs.push_back(NowSecs() - t0);
    }
    r.attempted += in.tail.size();
    for (size_t j = 0; j < in.tail.size(); j++) {
      if (!(tail_got[j] == in.tail_expect[j])) r.wrong++;
    }
  }
  if (spans != nullptr) spans->Collect();
  r.attempted += i;
  for (size_t j = 0; j < i; j++) {
    if (!(got[j] == in.build_expect[j])) r.wrong++;
  }
  return r;
}

void ReportSessionCounts(const std::vector<SessionResult>& pass,
                         Report* rep) {
  for (const SessionResult& s : pass) {
    rep->Count("core." + s.id + ".build_queries", s.build_queries);
    const auto& names = PhaseNames(s.id);
    for (size_t p = 0; p + 1 < names.size(); p++) {
      rep->Count("core." + s.id + "." + names[p] + "_queries",
                 s.phase_queries[p]);
    }
  }
}

double ConvergedQps(const std::vector<std::vector<SessionResult>>& passes,
                    size_t tail_queries) {
  // Every session asks the same tail blocks: take each block's median
  // time over all sessions, so neither a slow block nor a stall
  // elsewhere sets the figure.
  double secs = 0;
  for (size_t b = 0; b < passes.front().front().block_secs.size(); b++) {
    std::vector<double> block;
    for (const auto& pass : passes) {
      for (const SessionResult& s : pass) {
        if (b < s.block_secs.size()) block.push_back(s.block_secs[b]);
      }
    }
    secs += Median(block);
  }
  return static_cast<double>(tail_queries) / secs;
}

void ReportPhaseTimes(const std::vector<std::vector<SessionResult>>& passes,
                      Report* rep) {
  for (size_t k = 0; k < passes.front().size(); k++) {
    const std::string& id = passes.front()[k].id;
    const auto& names = PhaseNames(id);
    for (size_t p = 0; p + 1 < names.size(); p++) {
      std::vector<double> ms;
      for (const auto& pass : passes) ms.push_back(pass[k].phase_secs[p] * 1e3);
      rep->Layer("core." + id + "." + names[p] + "_ms", Median(ms), "ms");
    }
  }
}

void RunExplore(const Options& opt, bool skyserver, Report* rep) {
  // 2^20 rows (8 MiB): a 10^7-row column drifted 1.5-2x between runs
  // minutes apart, as the host's shared L3 did or did not keep it.
  const size_t n = opt.smoke ? size_t{1} << 17 : size_t{1} << 20;
  const size_t pool = 2048;
  const size_t tail = skyserver ? (opt.smoke ? 2048 : 16384)
                                : (opt.smoke ? 32 : 1024);
  const size_t setups = opt.smoke ? 2 : 5;
  // p99 needs >= 1000 pre-convergence queries; a pass pools ~400.
  const size_t min_build_samples = opt.smoke ? 0 : 1000;

  const uint64_t data_seed = StreamSeed(opt.seed, 1);
  std::vector<value_t> values = skyserver ? SkyServerValues(n, data_seed)
                                          : UniformValues(n, data_seed);
  SessionInputs in;
  if (skyserver) {
    const std::vector<RangeQuery> log =
        DriftingLog(pool + tail, StreamSeed(opt.seed, 2));
    in.build.assign(log.begin(), log.begin() + pool);
    in.tail.assign(log.begin() + pool, log.end());
    in.tail_block = opt.smoke ? 512 : 2048;
  } else {
    const value_t domain = static_cast<value_t>(n);
    in.build = RandomRanges(pool, domain, 0.1, StreamSeed(opt.seed, 2));
    in.tail = RandomRanges(tail, domain, 0.1, StreamSeed(opt.seed, 3));
    in.tail_block = opt.smoke ? 8 : 128;
  }
  {
    // Freed before the run: only the answers stay resident.
    const StaticOracle oracle(values);
    for (const RangeQuery& q : in.build) {
      in.build_expect.push_back(oracle.Answer(q));
    }
    for (const RangeQuery& q : in.tail) {
      in.tail_expect.push_back(oracle.Answer(q));
    }
  }

  // Set-up as a user pays it: the column, the process's one-time §4.3
  // calibration (timed although every index runs on the fixed
  // constants), and the four indexes. Repeated; the median is reported.
  std::vector<double> setup_secs;
  std::vector<double> calibrate_secs;
  std::unique_ptr<progidx::Column> column;
  for (size_t k = 0; k < setups; k++) {
    column.reset();
    std::vector<value_t> copy = k + 1 < setups ? values : std::move(values);
    const double t0 = NowSecs();
    auto col = std::make_unique<progidx::Column>(std::move(copy));
    const double c0 = NowSecs();
    progidx::MeasureMachineConstants();
    const double c1 = NowSecs();
    std::vector<std::unique_ptr<progidx::IndexBase>> built;
    for (const std::string& id : SessionIndexIds()) {
      built.push_back(MakeSessionIndex(id, *col));
    }
    setup_secs.push_back(NowSecs() - t0);
    calibrate_secs.push_back(c1 - c0);
    built.clear();
    column = std::move(col);
  }
  in.column = column.get();
  // peak_rss_mb counts from here: the column, the queries and their
  // answers, and every index the sessions build. Calibration's
  // transient buffers belong to set-up and stay out of it.
  if (!ResetPeakRss()) rep->Invalid("cannot reset the peak-RSS mark");
  rep->Meta("rss_floor_mib", std::to_string(PeakRssMiB()));

  // Untimed warm-up pass: the first session after idle runs slow.
  for (const std::string& id : SessionIndexIds()) RunSession(id, in, nullptr);

  // Cold starts for first_query_ms, beyond the one each pass makes:
  // the first query of a fresh index varies by ~20% between starts.
  const size_t cold_starts = opt.smoke ? 2 : 8;
  std::vector<std::vector<double>> first_secs(SessionIndexIds().size());
  for (size_t c = 0; c < cold_starts; c++) {
    for (size_t k = 0; k < SessionIndexIds().size(); k++) {
      std::unique_ptr<progidx::IndexBase> index =
          MakeSessionIndex(SessionIndexIds()[k], *column);
      QueryResult got;
      const double t0 = NowSecs();
      {
        progidx::obs::TraceScope span("query", "bench");
        got = index->Query(in.build[0]);
      }
      first_secs[k].push_back(NowSecs() - t0);
      rep->Attempt(1);
      if (!(got == in.build_expect[0])) rep->Fail(1, "wrong first answer");
    }
  }

  const Loop loop = RunPasses(in, opt.seconds, min_build_samples, nullptr);
  const double peak_rss_mb = PeakRssMiB();
  Account(loop, rep);
  CheckCountsRepeat(loop.passes, rep);
  ReportSessionCounts(loop.passes.front(), rep);
  rep->Meta("passes", std::to_string(loop.passes.size()));

  if (!opt.trace) {
    std::vector<double> build_lat;
    std::vector<double> converge;
    // p99 per group of consecutive passes holding >= min_build_samples
    // queries, then the median over groups. The p99 of all samples
    // pooled read 1.5x its usual value in runs whose p50 was typical: a
    // short burst of host contention fills the top 1%.
    std::vector<double> group;
    std::vector<double> group_p99;
    for (const auto& pass : loop.passes) {
      double secs = 0;
      for (const SessionResult& s : pass) {
        build_lat.insert(build_lat.end(), s.build_lat.begin(),
                         s.build_lat.end());
        group.insert(group.end(), s.build_lat.begin(), s.build_lat.end());
        secs += s.converge_secs;
      }
      converge.push_back(secs);
      if (group.size() >= std::max<size_t>(min_build_samples, 1)) {
        group_p99.push_back(Quantile(group, 0.99));
        group.clear();
      }
    }
    // Per index the median over all cold starts, averaged over the four.
    double first_query_ms = 0;
    for (size_t k = 0; k < first_secs.size(); k++) {
      std::vector<double> firsts = first_secs[k];
      for (const auto& pass : loop.passes) {
        firsts.push_back(pass[k].build_lat[0]);
      }
      first_query_ms +=
          Median(firsts) * 1e3 / static_cast<double>(first_secs.size());
    }
    rep->Meta("build_samples", std::to_string(build_lat.size()));
    rep->E2e("setup_s", Median(setup_secs), "s");
    rep->E2e("p50_ms", Quantile(build_lat, 0.5) * 1e3, "ms");
    rep->E2e("p99_ms", Median(group_p99) * 1e3, "ms");
    rep->E2e("converge_s", Median(converge), "s");
    rep->E2e("first_query_ms", first_query_ms, "ms");
    rep->E2e("peak_rss_mb", peak_rss_mb, "MiB");
    return;
  }

  SpanCollector spans(opt.work_dir);
  const uint64_t tasks0 = CounterValue("pool.tasks");
  const uint64_t sleeps0 = CounterValue("pool.sleeps");
  spans.Start(size_t{1} << 18);
  const Loop traced = RunPasses(in, opt.seconds, 0, &spans);
  spans.Stop();
  const double tasks = static_cast<double>(CounterValue("pool.tasks") - tasks0);
  const double sleeps =
      static_cast<double>(CounterValue("pool.sleeps") - sleeps0);
  Account(traced, rep);
  std::vector<std::vector<SessionResult>> all = loop.passes;
  all.insert(all.end(), traced.passes.begin(), traced.passes.end());
  CheckCountsRepeat(all, rep);

  double ops = 0;
  double build_ops = 0;
  double refine_us = 0;
  double shared_us = 0;
  for (const auto& pass : traced.passes) {
    for (const SessionResult& s : pass) {
      ops += static_cast<double>(s.attempted);
      build_ops += static_cast<double>(s.build_queries);
      refine_us += s.refine_self_us;
      shared_us += s.shared_scan_self_us;
    }
  }
  ReportPhaseTimes(traced.passes, rep);
  rep->Layer("core.converged_qps", ConvergedQps(traced.passes, in.tail.size()),
             "1/s");
  rep->Layer("core.refine_ms", refine_us / build_ops / 1e3, "ms");
  rep->Layer("core.shared_scan_ms", shared_us / build_ops / 1e3, "ms");
  rep->Layer("parallel.pool_tasks", tasks / ops, "1/op");
  rep->Layer("parallel.pool_sleeps", sleeps / ops, "1/op");
  rep->Layer("obs.trace_overhead_frac",
             Median(traced.timed_secs) / Median(loop.timed_secs) - 1.0,
             "frac");
  rep->Layer("cost.calibrate_ms", Median(calibrate_secs) * 1e3, "ms");
  if (!spans.ok()) rep->Invalid("trace spans were dropped");
  DirectLayerProbes(*column, StaticOracle(column->values()), in.build,
                    opt.smoke, rep);
  DurableProbe(column->values(), in.build, opt.work_dir, opt.smoke, rep);
}

}  // namespace perfbench
