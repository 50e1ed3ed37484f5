#include "core/progressive_imprints.h"

#include <algorithm>

#include "common/predication.h"

namespace progidx {

ProgressiveImprints::ProgressiveImprints(const Column& column,
                                         const BudgetSpec& budget,
                                         const ProgressiveOptions& options,
                                         size_t line_elements)
    : column_(column),
      options_(options),
      model_(options.Machine(), column.size(), options.bucket_count,
             options.block_capacity),
      budget_(budget, model_),
      line_elements_(line_elements > 0 ? line_elements : 8) {
  min_ = column_.min_value();
  max_ = column_.max_value();
  const uint64_t domain = static_cast<uint64_t>(max_ - min_) + 1;
  bin_width_ = (domain + 63) / 64;
  if (bin_width_ == 0) bin_width_ = 1;
  total_lines_ =
      (column_.size() + line_elements_ - 1) / line_elements_;
  imprints_.reserve(total_lines_);
}

bool ProgressiveImprints::converged() const {
  return lines_built_ == total_lines_;
}

size_t ProgressiveImprints::BinOf(value_t v) const {
  return static_cast<size_t>(static_cast<uint64_t>(v - min_) / bin_width_);
}

uint64_t ProgressiveImprints::MaskOf(const RangeQuery& q) const {
  const value_t lo = std::max(q.low, min_);
  const value_t hi = std::min(q.high, max_);
  if (lo > hi) return 0;
  const size_t first = BinOf(lo);
  const size_t last = BinOf(hi);
  // Set bits [first, last] of a 64-bit mask without UB on full ranges.
  uint64_t mask = ~uint64_t{0};
  mask >>= 63 - (last - first);
  mask <<= first;
  return mask;
}

void ProgressiveImprints::BuildLines(size_t max_lines) {
  const value_t* data = column_.data();
  const size_t n = column_.size();
  for (size_t l = 0; l < max_lines && lines_built_ < total_lines_; l++) {
    const size_t start = lines_built_ * line_elements_;
    const size_t end = std::min(n, start + line_elements_);
    uint64_t imprint = 0;
    for (size_t i = start; i < end; i++) {
      imprint |= uint64_t{1} << BinOf(data[i]);
    }
    imprints_.push_back(imprint);
    lines_built_++;
  }
}

double ProgressiveImprints::SelectivityOfMask(const RangeQuery& q) const {
  if (lines_built_ == 0) return 1.0;
  const uint64_t mask = MaskOf(q);
  size_t touched = 0;
  for (size_t l = 0; l < lines_built_; l++) {
    touched += (imprints_[l] & mask) != 0 ? 1 : 0;
  }
  return static_cast<double>(touched) / static_cast<double>(lines_built_);
}

QueryResult ProgressiveImprints::Query(const RangeQuery& q) {
  if (column_.empty()) return {};
  const size_t n = column_.size();
  const MachineConstants& mc = model_.constants();
  const uint64_t mask = MaskOf(q);

  // Estimated answer cost: imprint-filtered scan over built lines plus
  // a plain scan of the uncovered suffix. We do not know the touched
  // fraction without reading the imprints, so the estimate charges the
  // imprint-vector read plus a selectivity-proportional data scan.
  const double covered = static_cast<double>(lines_built_) /
                         static_cast<double>(std::max<size_t>(total_lines_,
                                                              1));
  const double sel = std::clamp(
      (static_cast<double>(q.high) - static_cast<double>(q.low) + 1.0) /
          (static_cast<double>(max_) - static_cast<double>(min_) + 1.0),
      0.0, 1.0);
  const double answer_est =
      mc.seq_read_secs * static_cast<double>(lines_built_) +
      mc.seq_read_secs * covered * sel * static_cast<double>(n) +
      mc.seq_read_secs * (1.0 - covered) * static_cast<double>(n);

  double delta = 0;
  if (!converged()) {
    // Building an imprint line reads the line and writes one word:
    // model it as a pivot-style pass over the column.
    delta = budget_.DeltaForQuery(model_.PivotSecs(), answer_est);
    const double secs = delta * model_.PivotSecs();
    const double unit = ClampWorkUnit(model_.PivotSecs() /
                                      static_cast<double>(total_lines_));
    // Round, don't truncate: this is a one-shot grant (no retry loop),
    // and delta = 1 must build exactly total_lines_ even when the
    // quotient lands one ULP below the integer.
    const size_t lines = UnitsForSecs(secs + 0.5 * unit, unit);
    BuildLines(lines);
  }
  predicted_ = answer_est + delta * model_.PivotSecs();

  // Answer: imprint-filtered scan of the covered prefix...
  QueryResult result;
  const value_t* data = column_.data();
  for (size_t l = 0; l < lines_built_; l++) {
    if ((imprints_[l] & mask) == 0) continue;
    const size_t start = l * line_elements_;
    const size_t end = std::min(n, start + line_elements_);
    result += PredicatedRangeSum(data + start, end - start, q);
  }
  // ...plus a plain scan of the uncovered suffix.
  const size_t suffix_start = lines_built_ * line_elements_;
  if (suffix_start < n) {
    result += PredicatedRangeSum(data + suffix_start, n - suffix_start, q);
  }
  return result;
}

}  // namespace progidx
