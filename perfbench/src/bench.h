// Shared plumbing of the progressive-index benchmark: run options, the
// metric report printed as the last stdout line, sample statistics,
// exact-answer oracles, and the trace-span collector used by the traced
// invocation (perfbench/README.md).
#ifndef PERFBENCH_BENCH_H_
#define PERFBENCH_BENCH_H_

#include <cstdint>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "common/types.h"
#include "cost/calibration.h"
#include "obs/metrics.h"

namespace perfbench {

using progidx::QueryResult;
using progidx::RangeQuery;
using progidx::value_t;

struct Options {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  /// Small inputs and short loops for the benchmark's own self-test.
  bool smoke = false;
  /// Scratch directory for persistence and trace files; created fresh
  /// per run and removed at exit.
  std::string work_dir;
};

/// Collects what a run prints: end-to-end metrics (untraced runs),
/// per-layer metrics (traced runs), exact trajectory counts (every
/// run), and failure accounting.
class Report {
 public:
  void E2e(const std::string& name, double value, const char* unit);
  void Layer(const std::string& name, double value, const char* unit);
  /// An exact count: printed on every run's `counts` line, and a
  /// per-layer metric of unit `count`.
  void Count(const std::string& name, uint64_t value);
  void Meta(const std::string& key, const std::string& value);
  void Attempt(uint64_t n) { attempted_ += n; }
  /// `n` operations failed (wrong answer, shed, degraded, rejected).
  void Fail(uint64_t n, const std::string& why);
  /// The run is not correct although no single operation failed (a
  /// count that did not repeat, dropped spans, a session that never
  /// converged).
  void Invalid(const std::string& why);

  /// Prints meta, counts and problems as labelled lines, then the
  /// result JSON as the last line.
  void Print(bool trace) const;

 private:
  struct Metric {
    std::string name;
    double value;
    std::string unit;
  };
  std::vector<Metric> e2e_;
  std::vector<Metric> layers_;
  std::vector<std::pair<std::string, uint64_t>> counts_;
  std::vector<std::pair<std::string, std::string>> meta_;
  std::vector<std::string> problems_;
  uint64_t attempted_ = 0;
  uint64_t failed_ = 0;
};

double NowSecs();
double Median(std::vector<double> v);
/// Nearest-rank quantile of the samples (q in [0, 1]).
double Quantile(std::vector<double> v, double q);
/// Returns freed heap pages to the kernel, then restarts this process's
/// resident-memory high-water mark (VmHWM) at its current resident
/// size. False when the kernel does not let it be reset.
bool ResetPeakRss();
/// Peak resident set size (VmHWM) since the last ResetPeakRss(), in
/// MiB; NaN when it cannot be read.
double PeakRssMiB();

/// Exact answers over a static multiset: a sorted copy plus prefix
/// sums, so every answer is two binary searches.
class StaticOracle {
 public:
  explicit StaticOracle(const std::vector<value_t>& values);
  QueryResult Answer(const RangeQuery& q) const;
  const std::vector<value_t>& sorted() const { return sorted_; }

 private:
  std::vector<value_t> sorted_;
  std::vector<int64_t> prefix_;
};

/// Exact answers over a changing multiset of values in [0, domain):
/// Fenwick trees of per-value counts and sums.
class FenwickOracle {
 public:
  explicit FenwickOracle(size_t domain);
  void Add(value_t v, int64_t times);
  QueryResult Answer(const RangeQuery& q) const;
  int64_t size() const { return total_; }
  /// The k-th smallest value present (0-based, k < size()).
  value_t Kth(int64_t k) const;

 private:
  QueryResult Prefix(int64_t last) const;  // values in [0, last]
  size_t n_;
  int log_;
  std::vector<int64_t> count_;
  std::vector<int64_t> sum_;
  int64_t total_ = 0;
};

/// Flushes the program's trace rings to a file under the work dir,
/// parses the Chrome trace events back, and keeps per-name span
/// durations and self times (duration minus nested child spans on the
/// same thread). Collect only while no other thread records spans.
class SpanCollector {
 public:
  struct Stats {
    std::vector<double> dur_us;
    double self_us = 0;
  };
  explicit SpanCollector(std::string dir) : dir_(std::move(dir)) {}
  /// Sizes the rings for `capacity` spans per thread and turns tracing
  /// on.
  void Start(size_t capacity);
  /// Moves all buffered spans into the per-name statistics. False when
  /// any span was dropped by ring wraparound.
  bool Collect();
  void Stop();
  const Stats& Get(const std::string& name) const;
  /// False once a flush failed or any span was dropped.
  bool ok() const { return ok_ && dropped_ == 0; }

 private:
  std::string dir_;
  std::map<std::string, Stats> by_name_;
  uint64_t dropped_ = 0;
  bool ok_ = true;
  int flushes_ = 0;
};

/// Registry counter value by name (registers it when absent).
uint64_t CounterValue(const char* name);
/// Quantile (microseconds) of the samples a registry nanosecond
/// histogram gained between two snapshots, with the registry's own
/// bucket upper bounds.
double HistogramDeltaQuantileUs(const progidx::obs::LocalHistogram& before,
                                const progidx::obs::LocalHistogram& after,
                                double q);

/// The fixed machine constants every benchmarked index runs on
/// (constants.cc).
const progidx::MachineConstants& FixedConstants();

/// Streams a fixed buffer once and returns GB/s: a host-speed probe
/// recorded as run metadata, never as a metric.
double HostProbeGbps();

}  // namespace perfbench

#endif  // PERFBENCH_BENCH_H_
