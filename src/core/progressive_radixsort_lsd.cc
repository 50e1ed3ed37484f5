#include "core/progressive_radixsort_lsd.h"

#include <algorithm>
#include <bit>

#include "common/predication.h"
#include "parallel/primitives.h"
#include "persist/io.h"

namespace progidx {
namespace {

constexpr uint64_t kAllBuckets = ~uint64_t{0};

bool Has(uint64_t mask, size_t bucket) { return (mask >> bucket & 1) != 0; }

}  // namespace

ProgressiveRadixsortLSD::ProgressiveRadixsortLSD(
    const Column& column, const BudgetSpec& budget,
    const ProgressiveOptions& options)
    : ProgressiveIndex(column, budget, options, "plsd", 3) {
  const int bits = static_cast<int>(std::bit_width(
      static_cast<uint64_t>(max_) - static_cast<uint64_t>(min_)));
  // ⌈log2(domain)/log2(64)⌉ passes (§3.4), and at least one.
  total_passes_ = static_cast<size_t>((bits + 5) / 6);
  if (total_passes_ == 0) total_passes_ = 1;
  source_.resize(kBucketCount);
  dest_.resize(kBucketCount);
  final_.resize(column_.size());
}

uint64_t ProgressiveRadixsortLSD::CandidateMask(const RangeQuery& q,
                                                size_t pass) const {
  const value_t lo = std::max(q.low, min_);
  const value_t hi = std::min(q.high, max_);
  if (lo > hi) return 1;  // empty intersection: bucket 0 only
  // Digits of the offset from min_, formed in uint64_t: across a full
  // 64-bit domain the offset exceeds INT64_MAX.
  const int shift = static_cast<int>(6 * pass);
  const uint64_t base = static_cast<uint64_t>(min_);
  const uint64_t shifted_lo = (static_cast<uint64_t>(lo) - base) >> shift;
  const uint64_t shifted_hi = (static_cast<uint64_t>(hi) - base) >> shift;
  if (shifted_hi - shifted_lo >= 63) return kAllBuckets;
  uint64_t mask = 0;
  for (uint64_t b = shifted_lo;; b++) {
    mask |= uint64_t{1} << (b & 63u);
    if (b == shifted_hi) break;
  }
  return mask;
}

double ProgressiveRadixsortLSD::BuildOpSecs() const {
  return model_.BucketAppendSecs();
}

void ProgressiveRadixsortLSD::CollectRemainingSource(size_t bucket) const {
  exec::CollectChainRuns(
      source_[bucket],
      bucket == drain_bucket_ ? drain_cursor_ : BucketChain::Cursor{},
      &scratch_runs_);
}

double ProgressiveRadixsortLSD::EstimateBuildAnswerSecs(
    const RangeQuery& q) const {
  const MachineConstants& mc = model_.constants();
  const size_t n = column_.size();
  const double bucket_elem =
      model_.BucketScanSecs() / static_cast<double>(std::max<size_t>(n, 1));
  double elems = 0;
  switch (phase()) {
    case Phase::kCreation: {
      const uint64_t candidates = CandidateMask(q, 0);
      if (candidates == kAllBuckets) {
        // All buckets are candidates (α == ρ): fall back to scanning
        // the copied prefix of the original column.
        return mc.seq_read_secs * static_cast<double>(n);
      }
      for (size_t b = 0; b < 64; b++) {
        if (Has(candidates, b)) elems += static_cast<double>(source_[b].size());
      }
      return bucket_elem * elems +
             mc.seq_read_secs * static_cast<double>(n - copy_pos_);
    }
    case Phase::kRefinement: {
      const uint64_t old_mask = CandidateMask(q, pass_ - 1);
      const uint64_t new_mask = CandidateMask(q, pass_);
      if (old_mask == kAllBuckets && new_mask == kAllBuckets) {
        est_chain_elems_ = static_cast<double>(n);  // every chain scans
        return mc.seq_read_secs * static_cast<double>(n);  // fallback
      }
      for (size_t b = 0; b < 64; b++) {
        if (Has(old_mask, b) && b >= drain_bucket_) {
          elems += static_cast<double>(source_[b].size());
        }
        if (Has(new_mask, b)) elems += static_cast<double>(dest_[b].size());
      }
      est_chain_elems_ = elems;
      return bucket_elem * elems;
    }
    default: {  // merge
      const uint64_t mask = CandidateMask(q, total_passes_ - 1);
      for (size_t b = drain_bucket_; b < 64; b++) {
        if (Has(mask, b)) elems += static_cast<double>(source_[b].size());
      }
      est_chain_elems_ = elems;
      const double matched = SelectivityEstimate(q) * static_cast<double>(n);
      return model_.BinarySearchSecs() + bucket_elem * elems +
             mc.seq_read_secs * matched;
    }
  }
}

ProgressiveIndex::Prediction ProgressiveRadixsortLSD::PredictBuild(
    const RangeQuery& /*q*/, double answer_est, double delta) const {
  const double n = static_cast<double>(column_.size());
  const double alpha = answer_est / std::max(model_.BucketScanSecs(), 1e-30);
  const double chain_elem = model_.BucketScanSecs() / n;
  if (phase() == Phase::kMerge) {
    // The merge copies whole block runs — parallel across runs; the
    // remaining candidate chains scan once per batch, the sorted prefix
    // per query.
    return WithPrivateRemainder(model_.RadixRefine(std::min(alpha, 1.0), delta),
                                delta * model_.BucketAppendSecs(),
                                est_chain_elems_ * chain_elem, chain_elem);
  }
  const double rho = static_cast<double>(copy_pos_) / n;
  const double total =
      phase() == Phase::kCreation
          ? model_.RadixCreate(rho, std::min(alpha, 1.0), delta)
          : model_.RadixRefine(std::min(alpha, 1.0), delta);
  const double bucket_term = delta * model_.BucketAppendSecs();
  if (phase() == Phase::kCreation) {
    // The base-column remainder scan shares across a batch; the
    // candidate chain lookups stay per query.
    return WithPrivateRemainder(
        total, bucket_term,
        std::max(1.0 - rho - delta, 0.0) * model_.ScanSecs(),
        model_.constants().seq_read_secs);
  }
  // The union of candidate chains scans once per batch at the chain
  // rate (exec::PredicateSet::ScanRuns).
  return WithPrivateRemainder(total, bucket_term,
                              est_chain_elems_ * chain_elem, chain_elem);
}

size_t ProgressiveRadixsortLSD::Drain(size_t budget) {
  const size_t n = column_.size();
  size_t moved = 0;
  while (moved < budget && drain_bucket_ < 64) {
    BucketChain& bucket = source_[drain_bucket_];
    // Gather this bucket's block runs up to the remaining budget.
    scratch_runs_.clear();
    const size_t batched = exec::CollectChainRuns(
        bucket, &drain_cursor_, budget - moved, &scratch_runs_);
    if (phase() == Phase::kMerge) {
      // The final pass leaves each bucket internally ordered; merging
      // is a straight block copy into precomputed disjoint slices.
      PROGIDX_CHECK(merged_ + batched <= n);
      parallel::CopyRunsTo(scratch_runs_.data(), scratch_runs_.size(),
                           final_.data() + merged_);
      merged_ += batched;
    } else {
      for (const parallel::SrcRun& run : scratch_runs_) {
        ScatterToChains(run.data, run.len, min_, static_cast<int>(6 * pass_),
                        63u, dest_.data());
      }
    }
    moved += batched;
    if (bucket.AtEnd(drain_cursor_)) {
      bucket.Clear();  // free drained blocks eagerly
      drain_bucket_++;
      drain_cursor_ = BucketChain::Cursor{};
    }
  }
  return moved;
}

size_t ProgressiveRadixsortLSD::BuildWork(size_t units) {
  const size_t n = column_.size();
  if (phase() == Phase::kCreation) {
    const size_t elems = std::min(units, n - copy_pos_);
    // Pass-0 bucketing via the WC-staged chain scatter.
    ScatterToChains(column_.data() + copy_pos_, elems, min_, 0, 63u,
                    source_.data());
    copy_pos_ += elems;
    if (copy_pos_ == n) {
      pass_ = 1;
      drain_bucket_ = 0;
      drain_cursor_ = BucketChain::Cursor{};
      SetPhase(pass_ < total_passes_ ? Phase::kRefinement : Phase::kMerge);
    }
    return elems;
  }
  const size_t moved = Drain(units);
  if (drain_bucket_ == 64 && phase() == Phase::kMerge) {
    PROGIDX_CHECK(merged_ == n);
    EnterConsolidation();
  } else if (drain_bucket_ == 64) {
    // Pass complete: the output becomes the next pass's input.
    std::swap(source_, dest_);
    pass_++;
    drain_bucket_ = 0;
    drain_cursor_ = BucketChain::Cursor{};
    if (pass_ >= total_passes_) SetPhase(Phase::kMerge);
  }
  return std::max(moved, size_t{1});
}

double ProgressiveRadixsortLSD::BuildConvergenceFraction() const {
  const double n = static_cast<double>(column_.size());
  switch (phase()) {
    case Phase::kCreation:
      return 0.4 * static_cast<double>(copy_pos_) / n;
    case Phase::kRefinement: {
      // Progress through the LSD passes (pass_ counts 1..total_passes).
      const double passes = static_cast<double>(total_passes_);
      return 0.4 + 0.3 * (static_cast<double>(pass_) - 1.0) /
                       (passes > 1 ? passes : 1.0);
    }
    default:  // merge
      return 0.7 + 0.2 * static_cast<double>(merged_) / n;
  }
}

void ProgressiveRadixsortLSD::AnswerBuildBatch(const RangeQuery* qs,
                                               size_t count,
                                               QueryResult* out) const {
  if (phase() == Phase::kRefinement) {
    // Both generations of chains scan once for the whole batch, over the
    // union of every member's candidate buckets. A chain outside a
    // query's candidate range cannot hold values in its [low, high] (the
    // digit-clustering invariant CandidateMask prunes by), so the union
    // scan adds exactly zero for that query.
    uint64_t old_mask = 0;
    uint64_t new_mask = 0;
    for (size_t i = 0; i < count; i++) {
      old_mask |= CandidateMask(qs[i], pass_ - 1);
      new_mask |= CandidateMask(qs[i], pass_);
    }
    pset_.Reset(qs, count);
    scratch_runs_.clear();
    for (size_t b = 0; b < 64; b++) {
      if (Has(old_mask, b) && b >= drain_bucket_) CollectRemainingSource(b);
      if (Has(new_mask, b)) exec::CollectChainRuns(dest_[b], &scratch_runs_);
    }
    pset_.ScanRuns(scratch_runs_.data(), scratch_runs_.size());
    pset_.AccumulateInto(out);
    return;
  }
  if (phase() == Phase::kMerge) {
    // Sorted merged prefix per query; the remaining source chains scan
    // once over the union of candidates.
    uint64_t mask = 0;
    for (size_t i = 0; i < count; i++) {
      out[i] += SortedRangeSum(final_.data(), merged_, qs[i]);
      mask |= CandidateMask(qs[i], total_passes_ - 1);
    }
    pset_.Reset(qs, count);
    scratch_runs_.clear();
    for (size_t b = drain_bucket_; b < 64; b++) {
      if (Has(mask, b)) CollectRemainingSource(b);
    }
    pset_.ScanRuns(scratch_runs_.data(), scratch_runs_.size());
    pset_.AccumulateInto(out);
    return;
  }
  // Creation: candidate pass-0 buckets answer per query; queries whose
  // digit range covers all 64 buckets (the α == ρ fallback) share one
  // scan of the copied prefix; and all queries share one scan of the
  // uncopied tail — the dominant pre-convergence cost, paid once per
  // batch instead of once per query.
  std::vector<RangeQuery>& fallback_qs = scratch_fallback_qs_;
  std::vector<size_t>& fallback_idx = scratch_fallback_idx_;
  fallback_qs.clear();
  fallback_idx.clear();
  for (size_t i = 0; i < count; i++) {
    const uint64_t candidates = CandidateMask(qs[i], 0);
    if (candidates == kAllBuckets) {
      fallback_qs.push_back(qs[i]);
      fallback_idx.push_back(i);
      continue;
    }
    for (size_t b = 0; b < 64; b++) {
      if (Has(candidates, b)) out[i] += source_[b].RangeSum(qs[i]);
    }
  }
  if (!fallback_qs.empty()) {
    pset_.Reset(fallback_qs.data(), fallback_qs.size());
    pset_.Scan(column_.data(), copy_pos_);
    std::vector<QueryResult>& partial = scratch_partial_;
    partial.assign(fallback_qs.size(), QueryResult{});
    pset_.AccumulateInto(partial.data());
    for (size_t j = 0; j < fallback_idx.size(); j++) {
      out[fallback_idx[j]] += partial[j];
    }
  }
  pset_.Reset(qs, count);
  pset_.Scan(column_.data() + copy_pos_, column_.size() - copy_pos_);
  pset_.AccumulateInto(out);
}

void ProgressiveRadixsortLSD::SaveBody(persist::Writer* w) const {
  SaveDomain(w);
  w->WriteU64(total_passes_);
  w->WriteU64(copy_pos_);
  w->WriteU64(pass_);
  w->WriteU64(drain_bucket_);
  w->WriteU64(drain_cursor_.block);
  w->WriteU64(drain_cursor_.offset);
  w->WriteU64(merged_);
  budget_.SaveState(w);
  // Only the live machinery of the current phase: both chain
  // generations exist until the merge finishes; final_ fills from the
  // merge on.
  if (building()) {
    w->WriteU64(source_.size());
    for (const BucketChain& chain : source_) chain.SaveState(w);
    w->WriteU64(dest_.size());
    for (const BucketChain& chain : dest_) chain.SaveState(w);
  }
  if (phase() != Phase::kCreation && phase() != Phase::kRefinement) {
    w->WriteValueVector(final_);
  }
}

bool ProgressiveRadixsortLSD::LoadBody(persist::Reader* r) {
  if (!LoadDomain(r)) return false;
  const uint64_t total_passes = r->ReadU64();
  copy_pos_ = r->ReadU64();
  pass_ = r->ReadU64();
  drain_bucket_ = r->ReadU64();
  drain_cursor_.block = r->ReadU64();
  drain_cursor_.offset = r->ReadU64();
  merged_ = r->ReadU64();
  if (!budget_.LoadState(r)) return false;
  // The pass count is the constructor's, and refinement runs passes
  // 1 .. total − 1 (pass_ − 1 names the input generation).
  const size_t n = column_.size();
  if (total_passes != total_passes_ || copy_pos_ > n || pass_ == 0 ||
      pass_ > total_passes_ ||
      (phase() == Phase::kRefinement && pass_ == total_passes_) ||
      drain_bucket_ > 64 || merged_ > n) {
    return false;
  }
  if (building()) {
    if (r->ReadU64() != source_.size()) return false;
    for (BucketChain& chain : source_) {
      if (!chain.LoadState(r)) return false;
    }
    if (r->ReadU64() != dest_.size()) return false;
    for (BucketChain& chain : dest_) {
      if (!chain.LoadState(r)) return false;
    }
    // The drain cursor must point into the bucket being drained (or be
    // the fresh cursor when no drain is in progress).
    if (drain_bucket_ < source_.size() &&
        !source_[drain_bucket_].CursorValid(drain_cursor_)) {
      return false;
    }
    // Every element sits in exactly one place: the chains hold the
    // copied prefix; later, with the merged prefix, the column. Drained
    // buckets are cleared, and the drained part of the bucket being
    // drained already sits in dest_ or final_.
    size_t held = merged_;
    for (const BucketChain& chain : source_) held += chain.size();
    for (const BucketChain& chain : dest_) held += chain.size();
    if (drain_bucket_ < source_.size()) {
      held -= source_[drain_bucket_].Position(drain_cursor_);
    }
    if (held != (phase() == Phase::kCreation ? copy_pos_ : n)) return false;
  }
  if (phase() != Phase::kCreation && phase() != Phase::kRefinement) {
    if (!r->ReadValueVector(&final_) || final_.size() != n) return false;
  }
  return true;
}

}  // namespace progidx
