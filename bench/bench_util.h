#ifndef PROGIDX_BENCH_BENCH_UTIL_H_
#define PROGIDX_BENCH_BENCH_UTIL_H_

// Shared setup for the bench programs.
//
// Scaling note: the paper runs 10^8–6·10^9 rows and up to 10^6 queries
// on a 256 GB Xeon; these programs default to container-friendly sizes
// and accept --n / --queries to scale up. The comparisons of interest
// (who wins, by what factor, where crossovers happen) are size-stable.

#include <cstdio>
#include <string>
#include <vector>

#include "common/cli.h"
#include "common/types.h"
#include "cost/calibration.h"
#include "eval/experiment.h"
#include "eval/registry.h"
#include "obs/metrics.h"
#include "workload/data_generator.h"
#include "workload/skyserver.h"
#include "workload/synthetic.h"

namespace progidx {
namespace bench {

/// Latency accumulator for bench drivers, backed by the same
/// log-bucketed histogram the metrics registry shards
/// (obs::LocalHistogram) — so a p99 printed by a bench and a p99
/// exposed by serve::Server::DumpMetrics are the same function of the
/// same buckets, instead of a sort-and-index percentile here and a
/// bucket upper bound there. Single-threaded; give each worker its own
/// recorder and MergeFrom() them (the merge is exact).
class LatencyRecorder {
 public:
  void RecordNs(uint64_t ns) { hist_.Record(ns); }
  void RecordSecs(double secs) {
    hist_.Record(secs <= 0 ? 0 : static_cast<uint64_t>(secs * 1e9 + 0.5));
  }
  void MergeFrom(const LatencyRecorder& other) { hist_.MergeFrom(other.hist_); }

  uint64_t count() const { return hist_.total(); }
  double MeanUs() const { return hist_.Mean() / 1e3; }
  /// Quantile in microseconds: the upper bound of the first bucket
  /// whose cumulative count reaches q * total (obs::Buckets layout,
  /// relative error <= ~3.1%).
  double PercentileUs(double q) const {
    return static_cast<double>(hist_.ValueAtQuantile(q)) / 1e3;
  }

 private:
  obs::LocalHistogram hist_;
};

inline void AddCommonFlags(CommandLine* cli) {
  cli->AddFlag("n", "1000000", "column size");
  cli->AddFlag("queries", "1000", "number of queries");
  cli->AddFlag("seed", "42", "RNG seed");
}

struct SkyServerBench {
  Column column;
  std::vector<RangeQuery> queries;
};

inline SkyServerBench MakeSkyServerBench(const CommandLine& cli) {
  const size_t n = static_cast<size_t>(cli.GetInt("n"));
  const size_t q = static_cast<size_t>(cli.GetInt("queries"));
  const uint64_t seed = static_cast<uint64_t>(cli.GetInt("seed"));
  SkyServerBench bench;
  bench.column = MakeSkyServerColumn(n, seed);
  bench.queries = MakeSkyServerWorkload(q, seed + 1);
  return bench;
}

}  // namespace bench
}  // namespace progidx

#endif  // PROGIDX_BENCH_BENCH_UTIL_H_
