#ifndef PROGIDX_CORE_PROGRESSIVE_RADIXSORT_LSD_H_
#define PROGIDX_CORE_PROGRESSIVE_RADIXSORT_LSD_H_

#include <string>
#include <vector>

#include "core/progressive_index.h"
#include "storage/bucket_chain.h"

namespace progidx {

/// Progressive Radixsort, least-significant digits first (§3.4).
///
/// Creation: δ·N elements per query are clustered by the *least*
/// significant 6 bits. Refinement: repeated out-of-place stable passes
/// move elements from the current bucket set to a new one keyed by the
/// next 6 bits; after ⌈bits/6⌉ passes, concatenating the buckets yields
/// the sorted array. The intermediate buckets accelerate point queries
/// (one candidate bucket) but not wide range queries, for which the
/// algorithm falls back to scanning the original column (the paper's
/// "α == ρ" fallback).
class ProgressiveRadixsortLSD : public ProgressiveIndex {
 public:
  enum class Phase { kCreation, kRefinement, kMerge, kConsolidation, kDone };

  ProgressiveRadixsortLSD(const Column& column, const BudgetSpec& budget,
                          const ProgressiveOptions& options = {});

  std::string name() const override { return "P. Radixsort (LSD)"; }

  Phase phase() const { return static_cast<Phase>(phase_index()); }
  const std::vector<value_t>& final_array() const { return final_; }
  size_t total_passes() const { return total_passes_; }

 private:
  /// Buckets that can hold values of `q` after pass `pass`, as a mask
  /// (bit b = bucket b): a pass-p bucket holds one digit-p value, so the
  /// candidates are the wrap-around run of q's digits mod 64. All ones
  /// when every bucket is a candidate.
  uint64_t CandidateMask(const RangeQuery& q, size_t pass) const;
  double BuildOpSecs() const override;
  double EstimateBuildAnswerSecs(const RangeQuery& q) const override;
  Prediction PredictBuild(const RangeQuery& q, double answer_est,
                          double delta) const override;
  size_t BuildWork(size_t units) override;
  /// Moves at most `budget` elements out of source_ from the drain
  /// cursor — scattered into dest_ by the pass's digit while refining,
  /// copied to final_ while merging — freeing each drained bucket.
  /// Returns the elements moved.
  size_t Drain(size_t budget);
  /// Creation: per-query pruned chain lookups plus shared passes over
  /// the base column; refinement and merge: one shared pass over the
  /// union of every query's candidate chains.
  void AnswerBuildBatch(const RangeQuery* qs, size_t count,
                        QueryResult* out) const override;
  double BuildConvergenceFraction() const override;
  /// Snapshot body: domain, pass geometry and cursors, the budget, both
  /// chain generations (until the merge ends) and final_ (from the
  /// merge on).
  void SaveBody(persist::Writer* w) const override;
  bool LoadBody(persist::Reader* r) override;
  const value_t* SortedArray() const override { return final_.data(); }
  /// Appends source_[bucket]'s undrained block runs onto scratch_runs_.
  void CollectRemainingSource(size_t bucket) const;

  size_t total_passes_ = 1;

  std::vector<BucketChain> source_;  ///< pass input (64 chains)
  std::vector<BucketChain> dest_;    ///< pass output (64 chains)
  size_t copy_pos_ = 0;              ///< creation: base-column cursor
  size_t pass_ = 1;                  ///< refinement: current pass index
  size_t drain_bucket_ = 0;          ///< source bucket being drained
  BucketChain::Cursor drain_cursor_;

  std::vector<value_t> final_;
  size_t merged_ = 0;

  /// Chain-resident elements of the last refinement/merge-phase
  /// EstimateBuildAnswerSecs — the share a batch scans once.
  mutable double est_chain_elems_ = 0;
  /// AnswerBuildBatch scratch for the α == ρ fallback subset, reused
  /// across batches so the hot path stays allocation-free.
  mutable std::vector<RangeQuery> scratch_fallback_qs_;
  mutable std::vector<size_t> scratch_fallback_idx_;
  mutable std::vector<QueryResult> scratch_partial_;
  mutable std::vector<parallel::SrcRun> scratch_runs_;
};

}  // namespace progidx

#endif  // PROGIDX_CORE_PROGRESSIVE_RADIXSORT_LSD_H_
