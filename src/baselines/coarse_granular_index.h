#ifndef PROGIDX_BASELINES_COARSE_GRANULAR_INDEX_H_
#define PROGIDX_BASELINES_COARSE_GRANULAR_INDEX_H_

#include <string>

#include "baselines/cracker_column.h"
#include "core/index_base.h"

namespace progidx {

/// Coarse Granular Index (Schuhknecht et al. [24]): the first query
/// splits the column into `partitions` equal-sized pieces (recursive
/// median cracks), paying a higher first-query cost for a much more
/// robust starting layout; afterwards it behaves like standard
/// cracking.
class CoarseGranularIndex : public IndexBase {
 public:
  /// `partitions` is rounded to the next power of two.
  explicit CoarseGranularIndex(const Column& column, size_t partitions = 64)
      : cracker_(column), partitions_(partitions) {}

  QueryResult Query(const RangeQuery& q) override;
  bool converged() const override { return false; }
  std::string name() const override { return "Coarse Granular Index"; }

  const CrackerColumn& cracker() const { return cracker_; }

 private:
  /// Recursively median-splits [start, end) until `depth` halvings.
  void EqualSplit(size_t start, size_t end, size_t depth);

  CrackerColumn cracker_;
  size_t partitions_;
  bool initialized_ = false;
};

}  // namespace progidx

#endif  // PROGIDX_BASELINES_COARSE_GRANULAR_INDEX_H_
