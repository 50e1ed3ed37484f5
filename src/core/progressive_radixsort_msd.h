#ifndef PROGIDX_CORE_PROGRESSIVE_RADIXSORT_MSD_H_
#define PROGIDX_CORE_PROGRESSIVE_RADIXSORT_MSD_H_

#include <deque>
#include <string>
#include <vector>

#include "core/progressive_index.h"
#include "storage/bucket_chain.h"

namespace progidx {

/// Progressive Radixsort, most-significant digits first (§3.2).
///
/// Creation: δ·N elements per query are appended to b = 64 linked-block
/// buckets keyed by the top log2(b) bits of (v − min). Refinement: the
/// lowest-valued pending bucket is either split by the next 6 bits or,
/// when it fits in L1 (or has no bits left), sorted and merged into the
/// final array — so the final sorted array fills strictly left to
/// right. Consolidation: progressive B+-tree, as for all algorithms.
class ProgressiveRadixsortMSD : public ProgressiveIndex {
 public:
  enum class Phase { kCreation, kRefinement, kConsolidation, kDone };

  ProgressiveRadixsortMSD(const Column& column, const BudgetSpec& budget,
                          const ProgressiveOptions& options = {});

  std::string name() const override { return "P. Radixsort (MSD)"; }

  Phase phase() const { return static_cast<Phase>(phase_index()); }
  const std::vector<value_t>& final_array() const { return final_; }

 private:
  /// A bucket awaiting refinement. Pending buckets are kept in value
  /// order; `shift` is the number of unresolved low bits of its values.
  struct PendingBucket {
    value_t lo_value = 0;
    value_t hi_value = 0;
    int shift = 0;
    BucketChain chain;
    // In-progress split state (a split may span multiple queries).
    bool splitting = false;
    BucketChain::Cursor cursor;
    std::vector<BucketChain> children;

    PendingBucket() = default;
    PendingBucket(PendingBucket&&) = default;
    PendingBucket& operator=(PendingBucket&&) = default;
  };

  size_t RootBucketOf(value_t v) const {
    return static_cast<size_t>(
        (static_cast<uint64_t>(v) - static_cast<uint64_t>(min_)) >>
        root_shift_);
  }
  double BuildOpSecs() const override;
  double EstimateBuildAnswerSecs(const RangeQuery& q) const override;
  Prediction PredictBuild(const RangeQuery& q, double answer_est,
                          double delta) const override;
  size_t BuildWork(size_t units) override;
  /// One unit of refinement work on the front pending bucket; returns
  /// elements processed.
  size_t RefineFront(size_t budget);
  /// Creation: per-query pruned root-bucket lookups plus one shared pass
  /// over the unbucketed remainder; refinement: one shared pass over
  /// every pending chain any query reaches.
  void AnswerBuildBatch(const RangeQuery* qs, size_t count,
                        QueryResult* out) const override;
  double BuildConvergenceFraction() const override;
  /// Snapshot body: domain, root geometry, cursors, the budget, then the
  /// root buckets (creation), the pending-bucket worklist including an
  /// in-progress split's cursor and children (refinement), or final_.
  void SaveBody(persist::Writer* w) const override;
  bool LoadBody(persist::Reader* r) override;
  const value_t* SortedArray() const override { return final_.data(); }

  int root_shift_ = 0;
  /// (1 << radix_bits) - 1: identity on every root digit the shift can
  /// produce; its width tells the batched scatter the chain count so
  /// the write-combining staging engages.
  uint32_t root_mask_ = 63;
  std::vector<BucketChain> root_buckets_;
  size_t copy_pos_ = 0;

  std::deque<PendingBucket> pending_;
  std::vector<value_t> final_;
  size_t merged_ = 0;

  /// Chain-resident elements of the last refinement-phase
  /// EstimateBuildAnswerSecs — the share a batch scans once.
  mutable double est_chain_elems_ = 0;
  mutable std::vector<parallel::SrcRun> scratch_runs_;
};

}  // namespace progidx

#endif  // PROGIDX_CORE_PROGRESSIVE_RADIXSORT_MSD_H_
