#ifndef PROGIDX_BASELINES_STANDARD_CRACKING_H_
#define PROGIDX_BASELINES_STANDARD_CRACKING_H_

#include <string>

#include "baselines/cracker_column.h"
#include "core/index_base.h"
#include "exec/shared_scan.h"

namespace progidx {

/// Result of a three-way crack: data[start, lo_boundary) < lo_pivot,
/// data[lo_boundary, hi_boundary) in [lo_pivot, hi_pivot),
/// data[hi_boundary, end) >= hi_pivot.
struct CrackInThreeResult {
  size_t lo_boundary = 0;
  size_t hi_boundary = 0;
};

/// Three-way partition (Dutch-national-flag style), the kernel standard
/// cracking uses when both query bounds fall into the same piece.
/// Requires lo_pivot <= hi_pivot.
CrackInThreeResult CrackInThree(value_t* data, size_t start, size_t end,
                                value_t lo_pivot, value_t hi_pivot);

/// Standard Cracking (Idreos et al. [16]): each query physically cracks
/// the column at its two predicate values and records the boundaries in
/// the cracker index. Refinement happens only where the workload
/// looks, so convergence is workload-dependent.
class StandardCracking : public IndexBase {
 public:
  explicit StandardCracking(const Column& column) : cracker_(column) {}

  /// QueryBatch(&q, 1, ...).
  QueryResult Query(const RangeQuery& q) override;
  /// One per-batch indexing pass covering *every* member's bounds:
  /// cracking's indexing effort is predicate-driven, so the batch's
  /// unit of work is the deduplicated multi-pivot crack over all 2N
  /// bound values, performed in ascending bound order (deterministic
  /// regardless of the queries' arrival order, and the same total crack
  /// work the sequential stream would have paid). Consecutive unknown
  /// bounds that land in the same piece crack in one three-way pass.
  /// Then every query answers from one shared PredicateSet pass over
  /// the merged piece-aligned regions the batch covers. A batch of one
  /// is a single query: it cracks on its two bounds, in three when both
  /// fall into one piece.
  void QueryBatch(const RangeQuery* qs, size_t count,
                  QueryResult* out) override;
  bool converged() const override { return false; }
  std::string name() const override { return "Std. Cracking"; }

  const CrackerColumn& cracker() const { return cracker_; }

 private:
  /// Multi-pivot crack on every batch member's bounds, ascending.
  void CrackForBatch(const RangeQuery* qs, size_t count);

  CrackerColumn cracker_;
  exec::PredicateSet pset_;
  std::vector<exec::PosRange> scratch_regions_;
  std::vector<value_t> scratch_bounds_;
};

}  // namespace progidx

#endif  // PROGIDX_BASELINES_STANDARD_CRACKING_H_
