#ifndef PROGIDX_BASELINES_STANDARD_CRACKING_H_
#define PROGIDX_BASELINES_STANDARD_CRACKING_H_

#include <string>

#include "baselines/cracker_column.h"
#include "core/index_base.h"
#include "exec/shared_scan.h"

namespace progidx {

/// Standard Cracking (Idreos et al. [16]): each query physically cracks
/// the column at its two predicate values and records the boundaries in
/// the AVL cracker index. Refinement happens only where the workload
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
  /// Cracks the piece containing `v` at `v` (no-op if already a
  /// boundary).
  void CrackAt(value_t v);
  /// Multi-pivot crack on every batch member's bounds, ascending.
  void CrackForBatch(const RangeQuery* qs, size_t count);

  CrackerColumn cracker_;
  exec::PredicateSet pset_;
  std::vector<exec::PosRange> scratch_regions_;
  std::vector<value_t> scratch_bounds_;
};

}  // namespace progidx

#endif  // PROGIDX_BASELINES_STANDARD_CRACKING_H_
