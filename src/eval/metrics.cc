#include "eval/metrics.h"

#include <algorithm>
#include <cmath>

namespace progidx {

double Metrics::FirstQuerySecs() const {
  return records_.empty() ? 0 : records_.front().secs;
}

double Metrics::CumulativeSecs() const {
  double total = 0;
  for (const QueryRecord& r : records_) total += r.secs;
  return total;
}

int64_t Metrics::ConvergenceQuery() const {
  for (size_t i = 0; i < records_.size(); i++) {
    if (records_[i].converged) return static_cast<int64_t>(i) + 1;
  }
  return -1;
}

double Metrics::RobustnessVariance(size_t k) const {
  const size_t count = std::min(k, records_.size());
  if (count < 2) return 0;
  double mean = 0;
  for (size_t i = 0; i < count; i++) mean += records_[i].secs;
  mean /= static_cast<double>(count);
  double var = 0;
  for (size_t i = 0; i < count; i++) {
    const double d = records_[i].secs - mean;
    var += d * d;
  }
  return var / static_cast<double>(count);
}

int64_t Metrics::PayoffQuery(double scan_secs) const {
  double cumulative = 0;
  for (size_t i = 0; i < records_.size(); i++) {
    cumulative += records_[i].secs;
    if (cumulative <= scan_secs * static_cast<double>(i + 1)) {
      return static_cast<int64_t>(i) + 1;
    }
  }
  return -1;
}

double Metrics::SlowestAfterFirstSecs() const {
  double slowest = 0;
  for (size_t i = 1; i < records_.size(); i++) {
    slowest = std::max(slowest, records_[i].secs);
  }
  return slowest;
}

Metrics::ModelError Metrics::CostModelError() const {
  ModelError e;
  for (const QueryRecord& r : records_) {
    if (r.predicted <= 0 || r.secs <= 0) continue;
    const double err = std::abs(r.secs - r.predicted) / r.secs;
    if (r.converged) {
      e.post += err;
      e.post_queries++;
    } else {
      e.pre += err;
      e.pre_queries++;
    }
  }
  if (e.pre_queries > 0) e.pre /= static_cast<double>(e.pre_queries);
  if (e.post_queries > 0) e.post /= static_cast<double>(e.post_queries);
  return e;
}

}  // namespace progidx
