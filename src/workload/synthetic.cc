#include "workload/synthetic.h"

#include <algorithm>
#include <cmath>

#include "common/validate.h"

namespace progidx {

const std::vector<WorkloadPattern>& AllWorkloadPatterns() {
  static const std::vector<WorkloadPattern>* patterns =
      new std::vector<WorkloadPattern>{
          WorkloadPattern::kSeqOver,   WorkloadPattern::kZoomOutAlt,
          WorkloadPattern::kSkew,      WorkloadPattern::kRandom,
          WorkloadPattern::kSeqZoomIn, WorkloadPattern::kPeriodic,
          WorkloadPattern::kZoomInAlt, WorkloadPattern::kZoomIn,
          WorkloadPattern::kPoint,
      };
  return *patterns;
}

std::string WorkloadPatternName(WorkloadPattern pattern) {
  switch (pattern) {
    case WorkloadPattern::kRandom:
      return "Random";
    case WorkloadPattern::kSeqOver:
      return "SeqOver";
    case WorkloadPattern::kSkew:
      return "Skew";
    case WorkloadPattern::kPeriodic:
      return "Periodic";
    case WorkloadPattern::kZoomIn:
      return "ZoomIn";
    case WorkloadPattern::kZoomInAlt:
      return "ZoomInAlt";
    case WorkloadPattern::kZoomOutAlt:
      return "ZoomOutAlt";
    case WorkloadPattern::kSeqZoomIn:
      return "SeqZoomIn";
    case WorkloadPattern::kPoint:
      return "Point";
  }
  return "Unknown";
}

WorkloadPattern ParseWorkloadPattern(const std::string& name) {
  for (const WorkloadPattern pattern : AllWorkloadPatterns()) {
    if (WorkloadPatternName(pattern) == name) return pattern;
  }
  std::fprintf(stderr, "unknown workload pattern: %s\n", name.c_str());
  std::abort();
}

WorkloadGenerator::WorkloadGenerator(WorkloadPattern pattern,
                                     value_t domain_lo, value_t domain_hi,
                                     size_t total_queries, double selectivity,
                                     uint64_t seed)
    : pattern_(pattern),
      lo_(static_cast<double>(domain_lo)),
      hi_(static_cast<double>(domain_hi)),
      domain_(std::max(1.0, hi_ - lo_ + 1.0)),
      total_queries_(std::max<size_t>(total_queries, 1)),
      selectivity_(selectivity),
      rng_(seed) {
  if (domain_lo > domain_hi) {
    FailInvalidArgument("workload: domain_lo " + std::to_string(domain_lo) +
                        " > domain_hi " + std::to_string(domain_hi));
  }
  CheckArg(total_queries > 0, "workload: total_queries must be > 0");
  if (!(selectivity > 0 && selectivity <= 1)) {
    FailInvalidArgument("workload: selectivity must be in (0, 1], got " +
                        std::to_string(selectivity));
  }
}

value_t WorkloadGenerator::ClampLow(double lo) const {
  return static_cast<value_t>(std::clamp(lo, lo_, hi_));
}

RangeQuery WorkloadGenerator::MakeRange(double lo, double width) const {
  const value_t low = ClampLow(lo);
  const value_t high = ClampLow(lo + std::max(width - 1.0, 0.0));
  return RangeQuery{std::min(low, high), std::max(low, high)};
}

RangeQuery WorkloadGenerator::Next() {
  const double width = selectivity_ * domain_;
  const double span = std::max(domain_ - width, 1.0);
  const size_t i = step_++;
  const double progress =
      static_cast<double>(i % total_queries_) /
      static_cast<double>(total_queries_);
  switch (pattern_) {
    case WorkloadPattern::kRandom:
      return MakeRange(lo_ + rng_.NextDouble() * span, width);
    case WorkloadPattern::kSeqOver:
      // Left-to-right sweep over the domain, wrapping around.
      return MakeRange(lo_ + progress * span, width);
    case WorkloadPattern::kSkew: {
      // Queries concentrated around the middle of the domain.
      const double center = lo_ + 0.5 * domain_;
      const double sigma = 0.05 * domain_;
      return MakeRange(center + sigma * rng_.NextGaussian() - width / 2,
                       width);
    }
    case WorkloadPattern::kPeriodic: {
      // Fixed-stride jumps that revisit the same places each period.
      constexpr size_t kPeriod = 10;
      const double offset =
          static_cast<double>(i % kPeriod) / static_cast<double>(kPeriod);
      return MakeRange(lo_ + offset * span, width);
    }
    case WorkloadPattern::kZoomIn: {
      // Shrinking ranges converging on the domain center; width decays
      // from the full domain to `width`.
      const double w =
          domain_ * std::pow(std::max(selectivity_, 1e-6), progress);
      const double center = lo_ + 0.5 * domain_;
      return MakeRange(center - w / 2, w);
    }
    case WorkloadPattern::kZoomInAlt: {
      // Fixed-width queries alternating left/right, converging inward.
      const double half = progress / 2;
      const double pos = (i % 2 == 0) ? half : 1.0 - half;
      return MakeRange(lo_ + pos * span, width);
    }
    case WorkloadPattern::kZoomOutAlt: {
      // Fixed-width queries alternating around the center, diverging
      // outward.
      const double half = 0.5 - progress / 2;
      const double pos = (i % 2 == 0) ? half : 1.0 - half;
      return MakeRange(lo_ + pos * span, width);
    }
    case WorkloadPattern::kSeqZoomIn: {
      // The domain is cut into segments; we zoom into each segment in
      // turn (varying widths, like ZoomIn, but localized).
      constexpr size_t kSegments = 8;
      const size_t queries_per_segment =
          std::max<size_t>(total_queries_ / kSegments, 1);
      const size_t segment = (i / queries_per_segment) % kSegments;
      const double seg_width = domain_ / kSegments;
      const double seg_lo =
          lo_ + static_cast<double>(segment) * seg_width;
      const double seg_progress =
          static_cast<double>(i % queries_per_segment) /
          static_cast<double>(queries_per_segment);
      const double w =
          seg_width * std::pow(std::max(selectivity_, 1e-6), seg_progress);
      return MakeRange(seg_lo + (seg_width - w) / 2, w);
    }
    case WorkloadPattern::kPoint: {
      const double v = lo_ + rng_.NextDouble() * domain_;
      const value_t point = ClampLow(v);
      return RangeQuery{point, point};
    }
  }
  return RangeQuery{};
}

std::vector<RangeQuery> WorkloadGenerator::Generate(
    WorkloadPattern pattern, value_t domain_lo, value_t domain_hi,
    size_t total_queries, double selectivity, uint64_t seed) {
  WorkloadGenerator gen(pattern, domain_lo, domain_hi, total_queries,
                        selectivity, seed);
  std::vector<RangeQuery> queries;
  queries.reserve(total_queries);
  for (size_t i = 0; i < total_queries; i++) queries.push_back(gen.Next());
  return queries;
}

}  // namespace progidx
