#include "core/progressive_radixsort_msd.h"

#include <algorithm>
#include <bit>
#include <limits>

#include "common/predication.h"
#include "kernels/kernels.h"
#include "parallel/primitives.h"
#include "persist/io.h"

namespace progidx {
namespace {

/// Lower bound of the i-th 2^shift-wide slice of a bucket starting at
/// `lo`. Offsets are added in uint64_t: across a full 64-bit domain
/// they exceed INT64_MAX.
value_t SliceLo(value_t lo, size_t i, int shift) {
  return static_cast<value_t>(static_cast<uint64_t>(lo) +
                              (static_cast<uint64_t>(i) << shift));
}

/// Inclusive upper bound of the 2^shift-wide slice starting at `lo`,
/// saturated at the top of value_t: when the domain spans more than
/// INT64_MAX values, the top slices' nominal bounds run past it.
value_t SliceHi(value_t lo, int shift) {
  constexpr value_t kTop = std::numeric_limits<value_t>::max();
  const uint64_t width = (uint64_t{1} << shift) - 1;
  const uint64_t room =
      static_cast<uint64_t>(kTop) - static_cast<uint64_t>(lo);
  return width > room
             ? kTop
             : static_cast<value_t>(static_cast<uint64_t>(lo) + width);
}

/// A pending bucket's split children are 2^child_shift-wide slices...
int ChildShift(int shift) { return shift >= 6 ? shift - 6 : 0; }
/// ...and there are 64 of them, or one per value below shift 6.
size_t ChildCount(int shift) {
  return shift >= 6 ? 64 : (size_t{1} << shift);
}

}  // namespace

ProgressiveRadixsortMSD::ProgressiveRadixsortMSD(
    const Column& column, const BudgetSpec& budget,
    const ProgressiveOptions& options)
    : ProgressiveIndex(column, budget, options, "pmsd", 2) {
  const int bits = static_cast<int>(std::bit_width(
      static_cast<uint64_t>(max_) - static_cast<uint64_t>(min_)));
  // b = 64 root buckets keyed by the top log2(b) = 6 bits of the value
  // domain.
  constexpr int kRadixBits = static_cast<int>(std::bit_width(kBucketCount - 1));
  root_shift_ = bits > kRadixBits ? bits - kRadixBits : 0;
  root_mask_ = static_cast<uint32_t>(kBucketCount - 1);
  root_buckets_.resize(kBucketCount);
  final_.resize(column_.size());
}

double ProgressiveRadixsortMSD::BuildOpSecs() const {
  return model_.BucketAppendSecs();
}

double ProgressiveRadixsortMSD::EstimateBuildAnswerSecs(
    const RangeQuery& q) const {
  const MachineConstants& mc = model_.constants();
  const size_t n = column_.size();
  // Per-element cost of scanning a linked-block bucket.
  const double bucket_elem =
      model_.BucketScanSecs() / static_cast<double>(std::max<size_t>(n, 1));
  double elems = 0;
  if (phase() == Phase::kCreation) {
    if (q.high >= min_ && q.low <= max_) {
      const size_t b_lo = RootBucketOf(std::max(q.low, min_));
      const size_t b_hi = RootBucketOf(std::min(q.high, max_));
      for (size_t b = b_lo; b <= b_hi; b++) {
        elems += static_cast<double>(root_buckets_[b].size());
      }
    }
    return bucket_elem * elems +
           mc.seq_read_secs * static_cast<double>(n - copy_pos_);
  }
  for (const PendingBucket& p : pending_) {
    if (p.hi_value < q.low || p.lo_value > q.high) continue;
    elems += static_cast<double>(p.chain.size());
    for (const BucketChain& c : p.children) {
      elems += static_cast<double>(c.size());
    }
  }
  est_chain_elems_ = elems;
  const double matched = SelectivityEstimate(q) * static_cast<double>(n);
  return model_.BinarySearchSecs() + bucket_elem * elems +
         mc.seq_read_secs * matched;
}

ProgressiveIndex::Prediction ProgressiveRadixsortMSD::PredictBuild(
    const RangeQuery& /*q*/, double answer_est, double delta) const {
  const double n = static_cast<double>(column_.size());
  const double alpha = answer_est / std::max(model_.BucketScanSecs(), 1e-30);
  const double total =
      phase() == Phase::kCreation
          ? model_.RadixCreate(static_cast<double>(copy_pos_) / n,
                               std::min(alpha, 1.0), delta)
          : model_.RadixRefine(std::min(alpha, 1.0), delta);
  const double bucket_term = delta * model_.BucketAppendSecs();
  if (phase() == Phase::kCreation) {
    // The base-column remainder scan shares across a batch; root-bucket
    // chain lookups stay per query.
    const double rho = static_cast<double>(copy_pos_) / n;
    return WithPrivateRemainder(
        total, bucket_term,
        std::max(1.0 - rho - delta, 0.0) * model_.ScanSecs(),
        model_.constants().seq_read_secs);
  }
  // Candidate pending chains scan once per batch at the chain rate
  // (exec::PredicateSet::ScanRuns); the binary search and the
  // sorted-prefix matched scan stay per query.
  const double chain_elem = model_.BucketScanSecs() / n;
  return WithPrivateRemainder(total, bucket_term,
                              est_chain_elems_ * chain_elem, chain_elem);
}

size_t ProgressiveRadixsortMSD::RefineFront(size_t budget) {
  PendingBucket& front = pending_.front();
  const size_t l1 = model_.constants().l1_cache_elements;
  if (!front.splitting &&
      (front.shift == 0 || front.chain.size() <= l1)) {
    // Sort the bucket and merge it into the final array. Atomic unit of
    // work (bounded by L1 size), as in §3.2: buckets that fit in cache
    // are "immediately insert[ed] ... in sorted order into the final
    // sorted array".
    const size_t size = front.chain.size();
    PROGIDX_CHECK(merged_ + size <= final_.size());
    front.chain.CopyTo(final_.data() + merged_);
    kernels::SortLeaf(final_.data() + merged_, size);
    merged_ += size;
    pending_.pop_front();
    // Copy is linear but the sort costs O(size·log2(size)); charge the
    // log factor so budget adherence survives the merge stage.
    return std::max(SortUnits(size), size_t{1});
  }
  // Split by the next 6 bits into child buckets; resumable mid-drain.
  const int child_shift = ChildShift(front.shift);
  const size_t child_count = ChildCount(front.shift);
  if (!front.splitting) {
    front.splitting = true;
    front.children.resize(child_count);
    front.cursor = BucketChain::Cursor{};
  }
  // Gather the split's block runs up to the budget and scatter them
  // run by run (child index = (v − lo_value) >> child_shift, always
  // < child_count; the mask is the identity on it, as root_mask_ is
  // for the root scatter, and keeps ids inside the children even for
  // a chain value outside the bucket).
  scratch_runs_.clear();
  const size_t moved = exec::CollectChainRuns(front.chain, &front.cursor,
                                              budget, &scratch_runs_);
  for (const parallel::SrcRun& run : scratch_runs_) {
    ScatterToChains(run.data, run.len, front.lo_value, child_shift,
                    static_cast<uint32_t>(child_count - 1),
                    front.children.data());
  }
  if (front.chain.AtEnd(front.cursor)) {
    // Split complete: replace the front bucket by its non-empty
    // children, preserving value order.
    std::vector<PendingBucket> children;
    children.reserve(child_count);
    for (size_t i = 0; i < child_count; i++) {
      if (front.children[i].empty()) continue;
      PendingBucket child;
      child.lo_value = SliceLo(front.lo_value, i, child_shift);
      child.hi_value = SliceHi(child.lo_value, child_shift);
      child.shift = child_shift;
      child.chain = std::move(front.children[i]);
      children.push_back(std::move(child));
    }
    pending_.pop_front();
    for (size_t i = children.size(); i-- > 0;) {
      pending_.push_front(std::move(children[i]));
    }
  }
  return std::max(moved, size_t{1});
}

size_t ProgressiveRadixsortMSD::BuildWork(size_t units) {
  const size_t n = column_.size();
  if (phase() == Phase::kRefinement) {
    size_t used = 0;
    while (used < units && !pending_.empty()) {
      used += RefineFront(units - used);
    }
    if (pending_.empty()) {
      PROGIDX_CHECK(merged_ == n);
      EnterConsolidation();
    }
    return std::max(used, size_t{1});
  }
  const size_t elems = std::min(units, n - copy_pos_);
  // Root bucketing through the chain scatter. root_mask_ is the
  // identity on every id (the domain bounds the shifted value below
  // 2^radix_bits), but its width tells the scatter how many chains
  // exist, which enables its WC staging.
  ScatterToChains(column_.data() + copy_pos_, elems, min_, root_shift_,
                  root_mask_, root_buckets_.data());
  copy_pos_ += elems;
  if (copy_pos_ == n) {
    // Creation done: seed the refinement worklist with the root buckets
    // in value order.
    for (size_t i = 0; i < root_buckets_.size(); i++) {
      if (root_buckets_[i].empty()) continue;
      PendingBucket p;
      p.lo_value = SliceLo(min_, i, root_shift_);
      p.hi_value = SliceHi(p.lo_value, root_shift_);
      p.shift = root_shift_;
      p.chain = std::move(root_buckets_[i]);
      pending_.push_back(std::move(p));
    }
    root_buckets_.clear();
    SetPhase(Phase::kRefinement);
    if (pending_.empty()) EnterConsolidation();
  }
  return elems;
}

double ProgressiveRadixsortMSD::BuildConvergenceFraction() const {
  const double n = static_cast<double>(column_.size());
  if (phase() == Phase::kCreation) {
    return 0.5 * static_cast<double>(copy_pos_) / n;
  }
  return 0.5 + 0.4 * static_cast<double>(merged_) / n;
}

void ProgressiveRadixsortMSD::AnswerBuildBatch(const RangeQuery* qs,
                                               size_t count,
                                               QueryResult* out) const {
  if (phase() == Phase::kCreation) {
    // Candidate root buckets answer per query; the uncopied tail of the
    // base column — the dominant pre-convergence cost — is scanned once
    // for the whole batch.
    for (size_t i = 0; i < count; i++) {
      if (qs[i].high < min_ || qs[i].low > max_) continue;
      const size_t b_lo = RootBucketOf(std::max(qs[i].low, min_));
      const size_t b_hi = RootBucketOf(std::min(qs[i].high, max_));
      for (size_t b = b_lo; b <= b_hi; b++) {
        out[i] += root_buckets_[b].RangeSum(qs[i]);
      }
    }
    pset_.Reset(qs, count);
    pset_.Scan(column_.data() + copy_pos_, column_.size() - copy_pos_);
    pset_.AccumulateInto(out);
    return;
  }
  // Sorted merged prefix per query; every pending bucket (and split
  // child) whose value range any batch member reaches scans once for the
  // whole batch. Pending buckets are value-bounded ([lo_value,
  // hi_value]), so the union scan adds exactly zero for a query outside
  // a bucket's range.
  for (size_t i = 0; i < count; i++) {
    out[i] += SortedRangeSum(final_.data(), merged_, qs[i]);
  }
  auto any_intersect = [&](value_t lo, value_t hi) {
    for (size_t i = 0; i < count; i++) {
      if (hi >= qs[i].low && lo <= qs[i].high) return true;
    }
    return false;
  };
  pset_.Reset(qs, count);
  scratch_runs_.clear();
  for (const PendingBucket& p : pending_) {
    if (!any_intersect(p.lo_value, p.hi_value)) continue;
    if (!p.splitting) {
      exec::CollectChainRuns(p.chain, &scratch_runs_);
      continue;
    }
    exec::CollectChainRuns(p.chain, p.cursor, &scratch_runs_);
    const int child_shift = ChildShift(p.shift);
    for (size_t i = 0; i < p.children.size(); i++) {
      const value_t c_lo = SliceLo(p.lo_value, i, child_shift);
      if (!any_intersect(c_lo, SliceHi(c_lo, child_shift))) continue;
      exec::CollectChainRuns(p.children[i], &scratch_runs_);
    }
  }
  pset_.ScanRuns(scratch_runs_.data(), scratch_runs_.size());
  pset_.AccumulateInto(out);
}

void ProgressiveRadixsortMSD::SaveBody(persist::Writer* w) const {
  SaveDomain(w);
  w->WriteI64(root_shift_);
  w->WriteU64(root_mask_);
  w->WriteU64(copy_pos_);
  w->WriteU64(merged_);
  budget_.SaveState(w);
  // Only the live machinery of the current phase: the root buckets are
  // moved into the pending worklist when creation ends, and everything
  // lives in final_ once refinement completes.
  if (phase() == Phase::kCreation) {
    w->WriteU64(root_buckets_.size());
    for (const BucketChain& chain : root_buckets_) chain.SaveState(w);
    return;
  }
  w->WriteValueVector(final_);
  if (phase() != Phase::kRefinement) return;
  w->WriteU64(pending_.size());
  for (const PendingBucket& p : pending_) {
    w->WriteI64(p.lo_value);
    w->WriteI64(p.hi_value);
    w->WriteI64(p.shift);
    p.chain.SaveState(w);
    w->WriteBool(p.splitting);
    w->WriteU64(p.cursor.block);
    w->WriteU64(p.cursor.offset);
    w->WriteU64(p.children.size());
    for (const BucketChain& child : p.children) child.SaveState(w);
  }
}

bool ProgressiveRadixsortMSD::LoadBody(persist::Reader* r) {
  // The root geometry is the constructor's, derived from the column's
  // domain and the options.
  if (!LoadDomain(r)) return false;
  const int64_t root_shift = r->ReadI64();
  const uint64_t root_mask = r->ReadU64();
  copy_pos_ = r->ReadU64();
  merged_ = r->ReadU64();
  if (!budget_.LoadState(r)) return false;
  const size_t n = column_.size();
  if (root_shift != root_shift_ || root_mask != root_mask_ || copy_pos_ > n ||
      merged_ > n) {
    return false;
  }
  // Every element sits in exactly one place: the root buckets hold the
  // copied prefix; later, the merged prefix plus the pending chains
  // hold the column (a splitting chain keeps its drained elements until
  // the split completes, so its children are not counted again).
  size_t held = 0;
  if (phase() == Phase::kCreation) {
    if (r->ReadU64() != root_buckets_.size()) return false;
    for (BucketChain& chain : root_buckets_) {
      if (!chain.LoadState(r)) return false;
      held += chain.size();
    }
    return held == copy_pos_;
  }
  // Creation's end moves every root bucket into pending_ and clears the
  // vector; match that so recovered saves stay byte-identical.
  root_buckets_.clear();
  pending_.clear();
  if (!r->ReadValueVector(&final_) || final_.size() != n) return false;
  if (phase() != Phase::kRefinement) return true;
  const uint64_t pending_count = r->ReadU64();
  if (!r->ok() || pending_count > n) return false;
  for (uint64_t i = 0; i < pending_count; i++) {
    PendingBucket p;
    p.lo_value = r->ReadI64();
    p.hi_value = r->ReadI64();
    const int64_t shift = r->ReadI64();
    if (!p.chain.LoadState(r)) return false;
    p.splitting = r->ReadBool();
    p.cursor.block = r->ReadU64();
    p.cursor.offset = r->ReadU64();
    const uint64_t child_count = r->ReadU64();
    if (!r->ok() || p.lo_value > p.hi_value || shift < 0 ||
        shift > root_shift_ ||
        child_count != (p.splitting ? ChildCount(static_cast<int>(shift))
                                    : 0)) {
      return false;
    }
    p.shift = static_cast<int>(shift);
    // The split cursor must point into the chain being drained, with
    // the drained prefix in the children; an idle bucket carries the
    // fresh cursor.
    if (p.splitting ? !p.chain.CursorValid(p.cursor)
                    : (p.cursor.block != 0 || p.cursor.offset != 0)) {
      return false;
    }
    size_t split = 0;
    for (uint64_t c = 0; c < child_count; c++) {
      BucketChain child;
      if (!child.LoadState(r)) return false;
      split += child.size();
      p.children.push_back(std::move(child));
    }
    if (p.splitting && split != p.chain.Position(p.cursor)) return false;
    held += p.chain.size();
    pending_.push_back(std::move(p));
  }
  return merged_ + held == n;
}

}  // namespace progidx
