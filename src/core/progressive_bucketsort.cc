#include "core/progressive_bucketsort.h"

#include <algorithm>
#include <cmath>

#include "common/predication.h"
#include "common/rng.h"
#include "parallel/primitives.h"
#include "persist/io.h"

namespace progidx {

ProgressiveBucketsort::ProgressiveBucketsort(const Column& column,
                                             const BudgetSpec& budget,
                                             const ProgressiveOptions& options,
                                             uint64_t sample_seed)
    : ProgressiveIndex(column, budget, options, "pb", 2) {
  const size_t n = column_.size();
  buckets_.resize(kBucketCount);
  final_.resize(n);
  if (n == 0) return;
  // Equi-height bounds from a random sample (the paper's "existing
  // statistics" route; a histogram sampled once at creation).
  const size_t sample_size = std::min<size_t>(n, 16384);
  std::vector<value_t> sample(sample_size);
  Rng rng(sample_seed);
  for (size_t i = 0; i < sample_size; i++) {
    sample[i] = column_[rng.NextBounded(n)];
  }
  std::sort(sample.begin(), sample.end());
  boundaries_.reserve(kBucketCount - 1);
  for (size_t b = 1; b < kBucketCount; b++) {
    boundaries_.push_back(sample[b * sample_size / kBucketCount]);
  }
  bucket_of_ =
      kernels::UpperBoundLookup(boundaries_.data(), boundaries_.size());
}

value_t ProgressiveBucketsort::BucketLo(size_t b) const {
  return b == 0 ? min_ : boundaries_[b - 1];
}

value_t ProgressiveBucketsort::BucketHi(size_t b) const {
  // A bound equal to INT64_MIN closes an empty bucket; the uint64_t
  // step keeps its (unused) upper bound free of signed overflow.
  return b == boundaries_.size()
             ? max_
             : static_cast<value_t>(static_cast<uint64_t>(boundaries_[b]) - 1);
}

double ProgressiveBucketsort::BuildOpSecs() const {
  if (phase() == Phase::kRefinement) {
    // §3.3: the refinement cost model is Progressive Quicksort's.
    return model_.SwapSecs();
  }
  const double log_b = std::log2(static_cast<double>(buckets_.size()));
  return log_b * model_.BucketAppendSecs();
}

double ProgressiveBucketsort::EstimateBuildAnswerSecs(
    const RangeQuery& q) const {
  const MachineConstants& mc = model_.constants();
  const size_t n = column_.size();
  const double bucket_elem =
      model_.BucketScanSecs() / static_cast<double>(std::max<size_t>(n, 1));
  double elems = 0;
  if (phase() == Phase::kCreation) {
    for (size_t b = 0; b < buckets_.size(); b++) {
      if (Reaches(b, q)) elems += static_cast<double>(buckets_[b].size());
    }
    return bucket_elem * elems +
           mc.seq_read_secs * static_cast<double>(n - copy_pos_);
  }
  for (size_t b = merge_bucket_; b < buckets_.size(); b++) {
    if (Reaches(b, q)) elems += static_cast<double>(buckets_[b].size());
  }
  if (sorter_active_ && Reaches(merge_bucket_, q)) {
    scratch_ranges_.clear();
    active_sorter_.CollectRanges(q, &scratch_ranges_);
    for (const ScanRange& r : scratch_ranges_) {
      if (!r.sorted) elems += static_cast<double>(r.end - r.start);
    }
  }
  est_chain_elems_ = elems;
  const double matched = SelectivityEstimate(q) * static_cast<double>(n);
  return model_.BinarySearchSecs() + bucket_elem * elems +
         mc.seq_read_secs * matched;
}

ProgressiveIndex::Prediction ProgressiveBucketsort::PredictBuild(
    const RangeQuery& q, double answer_est, double delta) const {
  const double n = static_cast<double>(column_.size());
  if (phase() == Phase::kCreation) {
    const double rho = static_cast<double>(copy_pos_) / n;
    const double alpha =
        answer_est / std::max(model_.BucketScanSecs(), 1e-30);
    // Priced serial at every lane count: the pool resolves only the
    // bucket lookups, and the model does not split them from the
    // appends.
    const double total =
        model_.BucketsortCreate(rho, std::min(alpha, 1.0), delta);
    const double log_b = std::log2(static_cast<double>(buckets_.size()));
    // Batch decomposition: the base-column remainder scan shares across
    // a batch; bucket chain lookups stay per query.
    return WithPrivateRemainder(
        total, delta * log_b * model_.BucketAppendSecs(),
        std::max(1.0 - rho - delta, 0.0) * model_.ScanSecs(),
        model_.constants().seq_read_secs);
  }
  const double alpha = answer_est / std::max(model_.ScanSecs(), 1e-30);
  // Atomic-leaf floor (§3.3 reuses the quicksort refinement formula):
  // the active bucket's sorter pays whole-leaf sorts that cannot be
  // split across queries — the dominant term of bucketsort's steady
  // state, which the unfloored prediction undershot once the crack
  // kernel was vectorized.
  const double leaf_secs =
      sorter_active_
          ? static_cast<double>(active_sorter_.NextLeafSortUnits(q)) *
                model_.SwapSecs() / n
          : 0.0;
  const double total = model_.QuicksortRefineWithLeafFloor(
      active_sorter_.height(), std::min(alpha, 1.0), delta, leaf_secs);
  // Candidate chains (and the active bucket's unsorted parts) scan once
  // per batch at the chain rate; the binary search and the sorted-prefix
  // matched scan stay per query.
  const double chain_elem = model_.BucketScanSecs() / n;
  return WithPrivateRemainder(total,
                              std::max(delta * model_.SwapSecs(), leaf_secs),
                              est_chain_elems_ * chain_elem, chain_elem);
}

void ProgressiveBucketsort::BeginActiveBucket() {
  // Skip empty buckets outright.
  while (merge_bucket_ < buckets_.size() &&
         buckets_[merge_bucket_].empty()) {
    merge_bucket_++;
  }
  if (merge_bucket_ == buckets_.size()) {
    PROGIDX_CHECK(sorted_end_ == final_.size());
    EnterConsolidation();
    return;
  }
  filling_ = true;
  fill_pos_ = sorted_end_;
  fill_cursor_ = BucketChain::Cursor{};
  sorter_active_ = false;
}

size_t ProgressiveBucketsort::BuildWork(size_t units) {
  const size_t n = column_.size();
  if (phase() == Phase::kCreation) {
    const size_t elems = std::min(units, n - copy_pos_);
    // Equi-height bounds need a binary search per element (no digit
    // kernel applies); a branch-free one, since the bucket of random
    // data is unpredictable. Large slices resolve the lookups in
    // concurrent chunks (the bounds are read-only); the WC-staged
    // appends run on the calling thread at every lane count.
    parallel::ScatterToChainsBatched(
        [this](const value_t* batch, size_t len, uint32_t* ids) {
          for (size_t i = 0; i < len; i++) {
            ids[i] = static_cast<uint32_t>(bucket_of_(batch[i]));
          }
        },
        column_.data() + copy_pos_, elems, buckets_.data(), buckets_.size());
    copy_pos_ += elems;
    if (copy_pos_ == n) {
      SetPhase(Phase::kRefinement);
      BeginActiveBucket();
    }
    return elems;
  }
  size_t used = 0;
  while (used < units && phase() == Phase::kRefinement) {
    BucketChain& chain = buckets_[merge_bucket_];
    if (filling_) {
      // Straight block copies into the bucket's final segment: gather
      // the chain's block runs up to the budget, then lay them out in
      // one call — big fill slices memcpy across the pool into disjoint
      // slices, small ones stay serial.
      scratch_runs_.clear();
      const size_t batched = exec::CollectChainRuns(
          chain, &fill_cursor_, units - used, &scratch_runs_);
      if (batched > 0) {
        PROGIDX_CHECK(fill_pos_ + batched <= n);
        parallel::CopyRunsTo(scratch_runs_.data(), scratch_runs_.size(),
                             final_.data() + fill_pos_);
        fill_pos_ += batched;
        used += batched;
      }
      if (chain.AtEnd(fill_cursor_)) {
        filling_ = false;
        // The segment now holds the bucket's elements; sort it
        // progressively (one active Progressive Quicksort at a time,
        // §3.3).
        active_sorter_.Init(final_.data() + sorted_end_,
                            fill_pos_ - sorted_end_, BucketLo(merge_bucket_),
                            BucketHi(merge_bucket_),
                            model_.constants().l1_cache_elements);
        active_sorter_.set_sort_unit_scale(model_.constants().sort_unit_scale);
        sorter_active_ = true;
      }
    } else {
      PROGIDX_CHECK(sorter_active_);
      const size_t done = active_sorter_.DoWork(units - used, last_query_hint_);
      used += std::max(done, size_t{1});
      if (active_sorter_.done()) {
        sorter_active_ = false;
        chain.Clear();
        sorted_end_ = fill_pos_;
        merge_bucket_++;
        BeginActiveBucket();
      }
    }
  }
  return std::max(used, size_t{1});
}

void ProgressiveBucketsort::SaveBody(persist::Writer* w) const {
  SaveDomain(w);
  w->WriteValueVector(boundaries_);
  w->WriteU64(copy_pos_);
  // final_ precedes the active sorter: LoadBody rebinds the sorter to
  // final_'s reloaded storage.
  w->WriteValueVector(final_);
  w->WriteU64(buckets_.size());
  for (const BucketChain& chain : buckets_) chain.SaveState(w);
  w->WriteU64(merge_bucket_);
  w->WriteU64(sorted_end_);
  w->WriteU64(fill_pos_);
  w->WriteBool(filling_);
  w->WriteU64(fill_cursor_.block);
  w->WriteU64(fill_cursor_.offset);
  w->WriteBool(sorter_active_);
  if (sorter_active_) active_sorter_.SaveState(w);
  budget_.SaveState(w);
}

bool ProgressiveBucketsort::LoadBody(persist::Reader* r) {
  if (!LoadDomain(r)) return false;
  // The snapshot's sampled bounds replace the ctor's (bucket membership
  // of every chain element depends on them), but their count is the
  // ctor's and they ascend within the domain.
  const size_t boundary_count = boundaries_.size();
  if (!r->ReadValueVector(&boundaries_) ||
      boundaries_.size() != boundary_count ||
      !std::is_sorted(boundaries_.begin(), boundaries_.end()) ||
      (!boundaries_.empty() &&
       (boundaries_.front() < min_ || boundaries_.back() > max_))) {
    return false;
  }
  bucket_of_ =
      kernels::UpperBoundLookup(boundaries_.data(), boundaries_.size());
  copy_pos_ = r->ReadU64();
  if (!r->ReadValueVector(&final_)) return false;
  const size_t n = column_.size();
  if (final_.size() != n || copy_pos_ > n) return false;
  const size_t bucket_count = r->ReadU64();
  if (!r->ok() || bucket_count != buckets_.size()) return false;
  for (BucketChain& chain : buckets_) {
    if (!chain.LoadState(r)) return false;
  }
  merge_bucket_ = r->ReadU64();
  sorted_end_ = r->ReadU64();
  fill_pos_ = r->ReadU64();
  filling_ = r->ReadBool();
  fill_cursor_.block = r->ReadU64();
  fill_cursor_.offset = r->ReadU64();
  sorter_active_ = r->ReadBool();
  if (!r->ok() || merge_bucket_ > buckets_.size() || sorted_end_ > n ||
      fill_pos_ > n || sorted_end_ > fill_pos_) {
    return false;
  }
  // Refinement always has an active bucket, being filled or sorted;
  // the other phases have none.
  if (phase() == Phase::kRefinement
          ? (merge_bucket_ == buckets_.size() || filling_ == sorter_active_)
          : (filling_ || sorter_active_)) {
    return false;
  }
  // Every element sits in exactly one place: the buckets hold the
  // copied prefix; later, the sorted prefix plus the active and pending
  // buckets hold the column (the active chain keeps its elements until
  // its sort finishes).
  size_t held = 0;
  for (size_t b = merge_bucket_; b < buckets_.size(); b++) {
    held += buckets_[b].size();
  }
  if (sorted_end_ + held != (phase() == Phase::kCreation ? copy_pos_ : n)) {
    return false;
  }
  if (filling_ || sorter_active_) {
    // The active segment holds the active chain's drained part (all of
    // it once sorting).
    const BucketChain& active = buckets_[merge_bucket_];
    if (filling_ && !active.CursorValid(fill_cursor_)) return false;
    const size_t drained =
        filling_ ? active.Position(fill_cursor_) : active.size();
    if (fill_pos_ != sorted_end_ + drained) return false;
  }
  if (sorter_active_ &&
      !active_sorter_.LoadState(r, final_.data() + sorted_end_,
                                fill_pos_ - sorted_end_)) {
    return false;
  }
  return budget_.LoadState(r);
}

double ProgressiveBucketsort::BuildConvergenceFraction() const {
  const double n = static_cast<double>(column_.size());
  if (phase() == Phase::kCreation) {
    return 0.5 * static_cast<double>(copy_pos_) / n;
  }
  return 0.5 + 0.4 * static_cast<double>(fill_pos_) / n;
}

void ProgressiveBucketsort::AnswerBuildBatch(const RangeQuery* qs,
                                             size_t count,
                                             QueryResult* out) const {
  if (phase() == Phase::kCreation) {
    // Equi-height buckets answer per query (value-range pruning); the
    // uncopied tail of the base column is scanned once for the whole
    // batch.
    for (size_t i = 0; i < count; i++) {
      for (size_t b = 0; b < buckets_.size(); b++) {
        if (Reaches(b, qs[i])) out[i] += buckets_[b].RangeSum(qs[i]);
      }
    }
    pset_.Reset(qs, count);
    pset_.Scan(column_.data() + copy_pos_, column_.size() - copy_pos_);
    pset_.AccumulateInto(out);
    return;
  }
  // Sorted merged prefix: per-query sorted lookups.
  for (size_t i = 0; i < count; i++) {
    out[i] += SortedRangeSum(final_.data(), sorted_end_, qs[i]);
  }
  // Everything still unrefined scans once for the whole batch: the
  // active bucket's mid-fill region + undrained chain (or its sorter's
  // merged unsorted ranges), plus every pending chain any batch member's
  // value range reaches. A chain outside a query's range holds no values
  // it can match (bucket values are bounded by [BucketLo, BucketHi]), and
  // a pivot-tree range a query did not collect holds none either, so the
  // union scan adds exactly zero for those queries.
  auto any_reaches = [&](size_t b) {
    for (size_t i = 0; i < count; i++) {
      if (Reaches(b, qs[i])) return true;
    }
    return false;
  };
  pset_.Reset(qs, count);
  scratch_runs_.clear();
  if (merge_bucket_ < buckets_.size() && any_reaches(merge_bucket_)) {
    if (filling_) {
      scratch_runs_.push_back(
          {final_.data() + sorted_end_, fill_pos_ - sorted_end_});
      exec::CollectChainRuns(buckets_[merge_bucket_], fill_cursor_,
                             &scratch_runs_);
    } else if (sorter_active_) {
      const value_t* base = final_.data() + sorted_end_;
      scratch_pos_ranges_.clear();
      for (size_t i = 0; i < count; i++) {
        if (!Reaches(merge_bucket_, qs[i])) continue;
        scratch_ranges_.clear();
        active_sorter_.CollectRanges(qs[i], &scratch_ranges_);
        for (const ScanRange& r : scratch_ranges_) {
          if (r.sorted) {
            out[i] += SortedRangeSum(base + r.start, r.end - r.start, qs[i]);
          } else {
            scratch_pos_ranges_.push_back({r.start, r.end});
          }
        }
      }
      exec::MergePosRanges(&scratch_pos_ranges_);
      for (const exec::PosRange& r : scratch_pos_ranges_) {
        scratch_runs_.push_back({base + r.begin, r.end - r.begin});
      }
    }
  }
  for (size_t b = merge_bucket_ + 1; b < buckets_.size(); b++) {
    if (any_reaches(b)) exec::CollectChainRuns(buckets_[b], &scratch_runs_);
  }
  pset_.ScanRuns(scratch_runs_.data(), scratch_runs_.size());
  pset_.AccumulateInto(out);
}

}  // namespace progidx
