#ifndef PROGIDX_EVAL_METRICS_H_
#define PROGIDX_EVAL_METRICS_H_

#include <cstddef>
#include <vector>

#include "common/types.h"

namespace progidx {

/// Per-query measurement captured by the experiment runner.
struct QueryRecord {
  double secs = 0;        ///< measured wall time of IndexBase::Query
  double predicted = 0;   ///< cost-model prediction (0 if none)
  bool converged = false; ///< index state after the query
  QueryResult result;
};

/// The §4.4 metrics over a sequence of per-query records.
class Metrics {
 public:
  explicit Metrics(std::vector<QueryRecord> records)
      : records_(std::move(records)) {}

  const std::vector<QueryRecord>& records() const { return records_; }

  /// Time of the first query (seconds).
  double FirstQuerySecs() const;

  /// Total time of the whole workload (seconds).
  double CumulativeSecs() const;

  /// 1-based number of the query after which the index is converged, or
  /// -1 if it never converged ("x" in Table 2).
  int64_t ConvergenceQuery() const;

  /// Robustness = variance of the first `k` query times (§4.4 uses
  /// k = 100).
  double RobustnessVariance(size_t k = 100) const;

  /// 1-based number of the query q at which Σ_q t ≤ q · scan_secs
  /// first holds (the "pay-off" point of Fig. 7b), or -1 if never.
  int64_t PayoffQuery(double scan_secs) const;

  /// Time of the slowest query after the first (seconds; 0 with fewer
  /// than two queries): Fig. 10's spikes.
  double SlowestAfterFirstSecs() const;

  /// The cost model's mean relative error |measured − predicted| /
  /// measured (Figs. 8/9), split at convergence: the build-up, where
  /// the absolute times matter, and the converged tail of microsecond
  /// lookups, where small absolute offsets dominate. Queries with no
  /// prediction are skipped; a side with no queries reads 0.
  struct ModelError {
    double pre = 0;
    size_t pre_queries = 0;
    double post = 0;
    size_t post_queries = 0;
  };
  ModelError CostModelError() const;

 private:
  std::vector<QueryRecord> records_;
};

}  // namespace progidx

#endif  // PROGIDX_EVAL_METRICS_H_
