#ifndef PROGIDX_CORE_PROGRESSIVE_BUCKETSORT_H_
#define PROGIDX_CORE_PROGRESSIVE_BUCKETSORT_H_

#include <string>
#include <vector>

#include "core/incremental_quicksort.h"
#include "core/progressive_index.h"
#include "kernels/kernels.h"
#include "storage/bucket_chain.h"

namespace progidx {

/// Progressive Bucketsort, equi-height (§3.3).
///
/// Like Progressive Radixsort (MSD) but the b = 64 partitions are
/// value-based equi-height ranges (robust to skew), at the price of a
/// log2(b) binary search per bucketed element. Bucket bounds come from
/// a random sample taken when the index is created (the paper obtains
/// them "in the scan to answer the first query or from existing
/// statistics"). Refinement merges the buckets in value order into the
/// final array, sorting each segment with Progressive Quicksort — at
/// most one segment sorter is active at a time.
class ProgressiveBucketsort : public ProgressiveIndex {
 public:
  enum class Phase { kCreation, kRefinement, kConsolidation, kDone };

  ProgressiveBucketsort(const Column& column, const BudgetSpec& budget,
                        const ProgressiveOptions& options = {},
                        uint64_t sample_seed = 42);

  std::string name() const override { return "P. Bucketsort"; }

  Phase phase() const { return static_cast<Phase>(phase_index()); }
  const std::vector<value_t>& final_array() const { return final_; }
  const std::vector<value_t>& boundaries() const { return boundaries_; }

 private:
  /// Inclusive value bounds of bucket `b`.
  value_t BucketLo(size_t b) const;
  value_t BucketHi(size_t b) const;
  /// True when bucket `b` can hold values of `q`.
  bool Reaches(size_t b, const RangeQuery& q) const {
    return BucketHi(b) >= q.low && BucketLo(b) <= q.high;
  }
  double BuildOpSecs() const override;
  double EstimateBuildAnswerSecs(const RangeQuery& q) const override;
  Prediction PredictBuild(const RangeQuery& q, double answer_est,
                          double delta) const override;
  size_t BuildWork(size_t units) override;
  /// Starts merging bucket `merge_bucket_` into its final_ segment.
  void BeginActiveBucket();
  /// Per-query value-pruned bucket lookups (creation) or sorted-prefix
  /// lookups (refinement), plus one shared pass over the unrefined rest.
  void AnswerBuildBatch(const RangeQuery* qs, size_t count,
                        QueryResult* out) const override;
  double BuildConvergenceFraction() const override;
  /// Snapshot body: domain, sampled bucket bounds, final_, every bucket
  /// chain, the merge/fill cursors, the active segment sorter, and the
  /// budget.
  void SaveBody(persist::Writer* w) const override;
  bool LoadBody(persist::Reader* r) override;
  const value_t* SortedArray() const override { return final_.data(); }

  std::vector<value_t> boundaries_;  ///< b − 1 ascending split values
  /// The bucket of a value: upper_bound over boundaries_, branch-free.
  kernels::UpperBoundLookup bucket_of_;
  std::vector<BucketChain> buckets_;
  size_t copy_pos_ = 0;

  // Refinement state: buckets [0, merge_bucket_) are merged & sorted in
  // final_[0, sorted_end_); bucket merge_bucket_ is being copied
  // (filling_) or sorted (active_sorter_).
  size_t merge_bucket_ = 0;
  size_t sorted_end_ = 0;
  size_t fill_pos_ = 0;  ///< next write position while filling_
  bool filling_ = false;
  BucketChain::Cursor fill_cursor_;
  IncrementalQuicksort active_sorter_;
  bool sorter_active_ = false;

  std::vector<value_t> final_;

  /// Chain-resident elements of the last refinement-phase
  /// EstimateBuildAnswerSecs — the share a batch scans once.
  mutable double est_chain_elems_ = 0;
  mutable std::vector<ScanRange> scratch_ranges_;
  mutable std::vector<parallel::SrcRun> scratch_runs_;
};

}  // namespace progidx

#endif  // PROGIDX_CORE_PROGRESSIVE_BUCKETSORT_H_
