#ifndef PROGIDX_CORE_PROGRESSIVE_QUICKSORT_H_
#define PROGIDX_CORE_PROGRESSIVE_QUICKSORT_H_

#include <string>
#include <vector>

#include "core/incremental_quicksort.h"
#include "core/progressive_index.h"

namespace progidx {

/// Progressive Quicksort (§3.1).
///
/// Creation: copies δ·N elements per query from the base column into an
/// uninitialized index array, partitioned around a data-range midpoint
/// pivot (two-sided predicated writes). Refinement: budgeted in-place
/// quicksort via IncrementalQuicksort. Consolidation: progressive
/// B+-tree build over the sorted result.
class ProgressiveQuicksort : public ProgressiveIndex {
 public:
  enum class Phase { kCreation, kRefinement, kConsolidation, kDone };

  ProgressiveQuicksort(const Column& column, const BudgetSpec& budget,
                       const ProgressiveOptions& options = {});

  std::string name() const override { return "P. Quicksort"; }

  Phase phase() const { return static_cast<Phase>(phase_index()); }
  /// The index array (exposed for invariant tests).
  const std::vector<value_t>& index_array() const { return index_; }

 private:
  double BuildOpSecs() const override;
  double EstimateBuildAnswerSecs(const RangeQuery& q) const override;
  Prediction PredictBuild(const RangeQuery& q, double answer_est,
                          double delta) const override;
  size_t BuildWork(size_t units) override;
  void AnswerBuildBatch(const RangeQuery* qs, size_t count,
                        QueryResult* out) const override;
  double BuildConvergenceFraction() const override;
  /// Snapshot body: the index array (only its two filled fringes while
  /// creating), the partition frontiers, the budget, and the pivot-tree
  /// sort while refining.
  void SaveBody(persist::Writer* w) const override;
  bool LoadBody(persist::Reader* r) override;
  const value_t* SortedArray() const override { return index_.data(); }

  std::vector<value_t> index_;
  value_t pivot_ = 0;
  size_t copy_pos_ = 0;   ///< elements of the base column copied so far
  size_t low_pos_ = 0;    ///< next write slot at the bottom of index_
  int64_t high_pos_ = -1; ///< next write slot at the top of index_

  IncrementalQuicksort sorter_;

  /// Unsorted pivot-tree elements of the last refinement-phase
  /// EstimateBuildAnswerSecs — the share a batch scans once (stashed so
  /// PredictBuild's decomposition matches what AnswerBuildBatch shares).
  mutable double est_unsorted_elems_ = 0;
  mutable std::vector<ScanRange> scratch_ranges_;
};

}  // namespace progidx

#endif  // PROGIDX_CORE_PROGRESSIVE_QUICKSORT_H_
