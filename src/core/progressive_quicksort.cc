#include "core/progressive_quicksort.h"

#include <algorithm>

#include "common/predication.h"
#include "kernels/kernels.h"
#include "parallel/primitives.h"
#include "persist/io.h"

namespace progidx {

ProgressiveQuicksort::ProgressiveQuicksort(const Column& column,
                                           const BudgetSpec& budget,
                                           const ProgressiveOptions& options)
    : ProgressiveIndex(column, budget, options, "pq", 2) {
  const size_t n = column_.size();
  index_.resize(n);
  low_pos_ = 0;
  high_pos_ = static_cast<int64_t>(n) - 1;
  // §3.1: pivot = average of the column's smallest and largest value
  // (the width in uint64_t: a full 64-bit domain exceeds INT64_MAX).
  pivot_ = static_cast<value_t>(
      static_cast<uint64_t>(min_) +
      (static_cast<uint64_t>(max_) - static_cast<uint64_t>(min_)) / 2);
}

double ProgressiveQuicksort::BuildOpSecs() const {
  return phase() == Phase::kCreation ? model_.PivotSecs() : model_.SwapSecs();
}

double ProgressiveQuicksort::EstimateBuildAnswerSecs(
    const RangeQuery& q) const {
  const MachineConstants& mc = model_.constants();
  const size_t n = column_.size();
  if (phase() == Phase::kCreation) {
    double elems = static_cast<double>(n - copy_pos_);
    if (q.low < pivot_) elems += static_cast<double>(low_pos_);
    if (q.high >= pivot_) {
      elems += static_cast<double>(n) - 1.0 - static_cast<double>(high_pos_);
    }
    return mc.seq_read_secs * elems;
  }
  scratch_ranges_.clear();
  sorter_.CollectRanges(q, &scratch_ranges_);
  double unsorted = 0;
  for (const ScanRange& r : scratch_ranges_) {
    if (!r.sorted) unsorted += static_cast<double>(r.end - r.start);
  }
  est_unsorted_elems_ = unsorted;
  const double matched = SelectivityEstimate(q) * static_cast<double>(n);
  return model_.TreeLookupSecs(sorter_.height()) +
         mc.seq_read_secs * (unsorted + matched);
}

ProgressiveIndex::Prediction ProgressiveQuicksort::PredictBuild(
    const RangeQuery& q, double answer_est, double delta) const {
  const double n = static_cast<double>(column_.size());
  const double seq_read = model_.constants().seq_read_secs;
  if (phase() == Phase::kCreation) {
    const double rho = static_cast<double>(copy_pos_) / n;
    double alpha = 0;
    if (q.low < pivot_) alpha += static_cast<double>(low_pos_) / n;
    if (q.high >= pivot_) {
      alpha += (n - 1.0 - static_cast<double>(high_pos_)) / n;
    }
    double total = model_.QuicksortCreate(rho, alpha, delta);
    // The scan share runs the parallel tiled reduction (the scanned
    // regions here are big contiguous spans, unlike the radix/bucket
    // indexes' block-wise chain walks, which stay serial), so it is
    // re-priced with the measured parallel-efficiency curve. The
    // δ·t_pivot partition runs serial and is priced serial. Work units
    // themselves stay serial-priced either way.
    const double pivot_term = delta * model_.PivotSecs();
    const double scan_term = (1.0 - rho + alpha - delta) * model_.ScanSecs();
    const size_t scanned = static_cast<size_t>((1.0 - rho + alpha) * n);
    total += model_.ThreadedSecs(scan_term, parallel::PlannedLanes(scanned)) -
             scan_term;
    // Batch decomposition, serial-priced like the other indexes':
    // SharedScanSecs recovers element counts from seq_read_secs, so
    // the shared term must not carry the threading discount.
    return {total, pivot_term, scan_term, 0, seq_read};
  }
  const double alpha = answer_est / model_.ScanSecs();
  // Atomic-leaf floor: once refinement reaches sort-outright leaves, a
  // query pays at least one whole leaf sort regardless of δ (the seed's
  // scalar constants masked this; the vectorized crack exposed it as
  // fig8 overshoot).
  const double leaf_secs = static_cast<double>(sorter_.NextLeafSortUnits(q)) *
                           model_.SwapSecs() / n;
  double total = model_.QuicksortRefineWithLeafFloor(sorter_.height(), alpha,
                                                     delta, leaf_secs);
  // The α scan share runs the parallel tiled reduction over the
  // collected ranges; re-price it like the creation-phase terms.
  const double scan_term = alpha * model_.ScanSecs();
  const size_t scanned = static_cast<size_t>(alpha * n);
  total += model_.ThreadedSecs(scan_term, parallel::PlannedLanes(scanned)) -
           scan_term;
  // Serial-priced decomposition (see the creation-phase note). The
  // shared term is exactly the unsorted pivot-tree union the batch
  // scans once; sorted-range lookups and the tree descent stay per
  // query.
  const double unsorted_secs = seq_read * est_unsorted_elems_;
  return {total, std::max(delta * model_.SwapSecs(), leaf_secs), unsorted_secs,
          std::max(answer_est - unsorted_secs, 0.0), seq_read};
}

size_t ProgressiveQuicksort::BuildWork(size_t units) {
  const size_t n = column_.size();
  if (phase() == Phase::kRefinement) {
    const size_t used = sorter_.DoWork(units, last_query_hint_);
    if (sorter_.done()) EnterConsolidation();
    return std::max(used, size_t{1});
  }
  const size_t elems = std::min(units, n - copy_pos_);
  // Two-sided partition (§3.1) through the dispatched kernel
  // (compress-store on AVX2/AVX-512, predicated dual-frontier writes in
  // the scalar tier), on the calling thread at every lane count.
  kernels::PartitionTwoSided(column_.data() + copy_pos_, elems, pivot_,
                             index_.data(), &low_pos_, &high_pos_);
  copy_pos_ += elems;
  if (copy_pos_ == n) {
    // Creation done: index_ is partitioned around pivot_ at low_pos_;
    // hand it to the refinement engine.
    sorter_.InitPrePartitioned(index_.data(), n, pivot_, low_pos_, min_, max_,
                               model_.constants().l1_cache_elements);
    sorter_.set_sort_unit_scale(model_.constants().sort_unit_scale);
    SetPhase(Phase::kRefinement);
    if (sorter_.done()) EnterConsolidation();
  }
  return elems;
}

double ProgressiveQuicksort::BuildConvergenceFraction() const {
  const double n = static_cast<double>(column_.size());
  if (phase() == Phase::kRefinement) {
    return 0.5 + 0.4 * static_cast<double>(sorter_.SortedElements()) / n;
  }
  return 0.5 * static_cast<double>(copy_pos_) / n;
}

void ProgressiveQuicksort::AnswerBuildBatch(const RangeQuery* qs,
                                            size_t count,
                                            QueryResult* out) const {
  const size_t n = column_.size();
  if (phase() == Phase::kCreation) {
    // One shared pass each over the reached fringes and the
    // not-yet-copied tail. The bottom fringe holds values below the
    // pivot, the top one the rest: a fringe no query reaches adds zero
    // and is skipped.
    bool low = false;
    bool high = false;
    for (size_t i = 0; i < count; i++) {
      low = low || qs[i].low < pivot_;
      high = high || qs[i].high >= pivot_;
    }
    pset_.Reset(qs, count);
    if (low && low_pos_ > 0) pset_.Scan(index_.data(), low_pos_);
    if (high && high_pos_ + 1 < static_cast<int64_t>(n)) {
      const size_t start = static_cast<size_t>(high_pos_ + 1);
      pset_.Scan(index_.data() + start, n - start);
    }
    pset_.Scan(column_.data() + copy_pos_, n - copy_pos_);
    pset_.AccumulateInto(out);
    return;
  }
  // Sorted pivot-tree ranges answer per query (binary search); unsorted
  // ranges merge across queries into one shared scan. A range left
  // uncollected for some query cannot contain values in that query's
  // [low, high] (the pivot-tree pruning invariant), so scanning the
  // union adds exactly zero to its totals.
  scratch_pos_ranges_.clear();
  for (size_t i = 0; i < count; i++) {
    scratch_ranges_.clear();
    sorter_.CollectRanges(qs[i], &scratch_ranges_);
    for (const ScanRange& r : scratch_ranges_) {
      if (r.sorted) {
        out[i] += SortedRangeSum(index_.data() + r.start, r.end - r.start,
                                 qs[i]);
      } else {
        scratch_pos_ranges_.push_back({r.start, r.end});
      }
    }
  }
  exec::MergePosRanges(&scratch_pos_ranges_);
  pset_.Reset(qs, count);
  for (const exec::PosRange& r : scratch_pos_ranges_) {
    pset_.Scan(index_.data() + r.begin, r.end - r.begin);
  }
  pset_.AccumulateInto(out);
}

void ProgressiveQuicksort::SaveBody(persist::Writer* w) const {
  w->WriteValueVector(index_);
  w->WriteI64(pivot_);
  w->WriteU64(copy_pos_);
  w->WriteU64(low_pos_);
  w->WriteI64(high_pos_);
  budget_.SaveState(w);
  // The sorter is live only while refining: it does not exist before,
  // and is dead weight once consolidation starts.
  if (phase() == Phase::kRefinement) sorter_.SaveState(w);
}

bool ProgressiveQuicksort::LoadBody(persist::Reader* r) {
  if (!r->ReadValueVector(&index_)) return false;
  const value_t pivot = r->ReadI64();
  copy_pos_ = r->ReadU64();
  low_pos_ = r->ReadU64();
  high_pos_ = r->ReadI64();
  if (!budget_.LoadState(r)) return false;
  // The pivot is the constructor's, and every copied element sits in
  // one of the two fringes: copy_pos_ == low_pos_ + (n − 1 − high_pos_).
  // With copy_pos_ ≤ n that also keeps the fringes from overlapping.
  const size_t n = column_.size();
  if (pivot != pivot_ || index_.size() != n || copy_pos_ > n ||
      low_pos_ > n || high_pos_ < -1 ||
      high_pos_ >= static_cast<int64_t>(n) ||
      copy_pos_ != low_pos_ + (n - static_cast<size_t>(high_pos_ + 1))) {
    return false;
  }
  return phase() != Phase::kRefinement ||
         sorter_.LoadState(r, index_.data(), n);
}

}  // namespace progidx
