#include "core/updatable_index.h"

#include <algorithm>
#include <cstdint>
#include <utility>

#include "common/predication.h"
#include "cost/cost_model.h"
#include "parallel/primitives.h"
#include "persist/io.h"

namespace progidx {

UpdatableIndex::UpdatableIndex(std::vector<value_t> initial_values,
                               IndexFactory factory, double merge_threshold)
    : base_(std::move(initial_values)),
      factory_(std::move(factory)),
      merge_threshold_(merge_threshold) {
  PROGIDX_CHECK(merge_threshold_ > 0);
  inner_ = factory_(base_);
}

void UpdatableIndex::Append(value_t v) { pending_.push_back(v); }

void UpdatableIndex::Delete(value_t v) { deleted_.push_back(v); }

size_t UpdatableIndex::AdvanceMaintenance() {
  if (phase_ == MergePhase::kIdle) {
    const double limit =
        merge_threshold_ *
        static_cast<double>(std::max<size_t>(base_.size(), 1));
    const size_t delta = pending_.size() + deleted_.size();
    if (delta == 0 || static_cast<double>(delta) < limit) return 0;
    StartMerge();
  }
  const size_t consumed = CopyFromSource(merge_step_);
  if (merge_cursor_ >= base_.size() + frozen_pending_.size()) FinishMerge();
  return consumed;
}

void UpdatableIndex::StartMerge() {
  frozen_pending_.swap(pending_);
  frozen_deleted_.swap(deleted_);
  // Sorted tombstones make consumption a binary search per source
  // element; the used-flags keep duplicates exact (multiset deletes).
  std::sort(frozen_deleted_.begin(), frozen_deleted_.end());
  frozen_filter_.Build(frozen_deleted_);
  tombstone_used_.assign(frozen_deleted_.size(), 0);
  tombstones_used_ = 0;
  const size_t total = base_.size() + frozen_pending_.size();
  merged_.clear();
  merged_.reserve(total);
  merge_cursor_ = 0;
  merge_step_ = std::max<size_t>(1, (total + kMergeSteps - 1) / kMergeSteps);
  phase_ = MergePhase::kActive;
}

void UpdatableIndex::ValueFilter::Build(const std::vector<value_t>& values) {
  log_bits_ = 6;
  while ((size_t{1} << log_bits_) < 32 * values.size()) log_bits_++;
  bits_.assign((size_t{1} << log_bits_) / 64, 0);
  for (const value_t v : values) {
    const size_t s = Slot(v);
    bits_[s / 64] |= uint64_t{1} << (s % 64);
  }
}

bool UpdatableIndex::ConsumeTombstone(value_t v) {
  if (tombstones_used_ == frozen_deleted_.size()) return false;
  const auto range = std::equal_range(frozen_deleted_.begin(),
                                      frozen_deleted_.end(), v);
  for (auto it = range.first; it != range.second; ++it) {
    const size_t j = static_cast<size_t>(it - frozen_deleted_.begin());
    if (tombstone_used_[j] == 0) {
      tombstone_used_[j] = 1;
      tombstones_used_++;
      return true;
    }
  }
  return false;
}

bool UpdatableIndex::TombstonesPresent() const {
  std::vector<value_t> all(frozen_deleted_);
  all.insert(all.end(), deleted_.begin(), deleted_.end());
  if (all.empty()) return true;
  std::sort(all.begin(), all.end());
  // Occurrences of each tombstoned value, tallied at the first index
  // of its equal run in `all`: in the running merge's source, and in
  // the live appends.
  std::vector<size_t> in_source(all.size(), 0);
  std::vector<size_t> in_live(all.size(), 0);
  // The filter screens out nearly every other element before its
  // binary search: a search per base element made this check cost more
  // than reading the whole snapshot.
  ValueFilter filter;
  filter.Build(all);
  const auto tally = [&](const std::vector<value_t>& vals,
                         std::vector<size_t>* counts) {
    for (const value_t v : vals) {
      if (!filter.MayContain(v)) continue;
      const auto it = std::lower_bound(all.begin(), all.end(), v);
      if (it != all.end() && *it == v) (*counts)[it - all.begin()]++;
    }
  };
  tally(base_.values(), &in_source);
  tally(frozen_pending_, &in_source);
  tally(pending_, &in_live);
  for (size_t i = 0; i < all.size();) {
    const value_t v = all[i];
    const size_t need = static_cast<size_t>(
        std::upper_bound(all.begin() + i, all.end(), v) - (all.begin() + i));
    const auto frozen =
        std::equal_range(frozen_deleted_.begin(), frozen_deleted_.end(), v);
    const size_t frozen_need =
        static_cast<size_t>(frozen.second - frozen.first);
    if (frozen_need > in_source[i] || need > in_source[i] + in_live[i]) {
      return false;
    }
    i += need;
  }
  return true;
}

size_t UpdatableIndex::CopyFromSource(size_t budget_elems) {
  const std::vector<value_t>& base_vals = base_.values();
  const size_t total = base_vals.size() + frozen_pending_.size();
  size_t consumed = 0;
  while (consumed < budget_elems && merge_cursor_ < total) {
    const bool in_base = merge_cursor_ < base_vals.size();
    const value_t* src =
        in_base ? base_vals.data() + merge_cursor_
                : frozen_pending_.data() + (merge_cursor_ - base_vals.size());
    const size_t run_left =
        (in_base ? base_vals.size() : total) - merge_cursor_;
    const size_t chunk = std::min(run_left, budget_elems - consumed);
    if (tombstones_used_ == frozen_deleted_.size()) {
      // Tombstone-free tail: a plain block copy, parallel and
      // bit-identical for every lane count.
      const size_t old = merged_.size();
      merged_.resize(old + chunk);
      const parallel::SrcRun run{src, chunk};
      parallel::CopyRunsTo(&run, 1, merged_.data() + old);
    } else {
      // Only a filter hit pays the binary search into the tombstones.
      for (size_t i = 0; i < chunk; i++) {
        const value_t v = src[i];
        if (!frozen_filter_.MayContain(v) || !ConsumeTombstone(v)) {
          merged_.push_back(v);
        }
      }
    }
    merge_cursor_ += chunk;
    consumed += chunk;
  }
  return consumed;
}

void UpdatableIndex::FinishMerge() {
  // Every frozen tombstone referenced a value present at freeze time
  // (base ∪ frozen appends), so the full source pass must consume all
  // of them — anything left is a Delete() of an absent value.
  PROGIDX_CHECK(tombstones_used_ == frozen_deleted_.size());
  inner_.reset();  // the old index references base_; drop it first
  base_ = Column(std::move(merged_));
  inner_ = factory_(base_);
  merged_ = std::vector<value_t>();
  frozen_pending_.clear();
  frozen_deleted_.clear();
  tombstone_used_.clear();
  tombstones_used_ = 0;
  merge_cursor_ = 0;
  merge_step_ = 0;
  phase_ = MergePhase::kIdle;
  merges_++;
}

void UpdatableIndex::AdjustForDelta(const RangeQuery& q,
                                    QueryResult* r) const {
  auto sum = [&](const std::vector<value_t>& vals) {
    return vals.empty() ? QueryResult{}
                        : PredicatedRangeSum(vals.data(), vals.size(), q);
  };
  *r += sum(frozen_pending_);
  *r += sum(pending_);
  // Tombstones subtract in full while the merge runs: the shadow copy
  // is invisible, so the inner index still answers over the old base
  // that contains every tombstoned occurrence.
  *r -= sum(frozen_deleted_);
  *r -= sum(deleted_);
}

QueryResult UpdatableIndex::Query(const RangeQuery& q) {
  QueryResult r;
  QueryBatch(&q, 1, &r);
  return r;
}

void UpdatableIndex::QueryBatch(const RangeQuery* qs, size_t count,
                                QueryResult* out) {
  if (count == 0) return;
  const size_t merge_elems = AdvanceMaintenance();
  inner_->QueryBatch(qs, count, out);
  parallel::SrcRun runs[2];
  size_t n_runs = 0;
  if (!frozen_pending_.empty()) {
    runs[n_runs++] = {frozen_pending_.data(), frozen_pending_.size()};
  }
  if (!pending_.empty()) runs[n_runs++] = {pending_.data(), pending_.size()};
  if (n_runs > 0) {
    pset_.Reset(qs, count);
    pset_.ScanRuns(runs, n_runs);
    pset_.AccumulateInto(out);
  }
  n_runs = 0;
  if (!frozen_deleted_.empty()) {
    runs[n_runs++] = {frozen_deleted_.data(), frozen_deleted_.size()};
  }
  if (!deleted_.empty()) runs[n_runs++] = {deleted_.data(), deleted_.size()};
  if (n_runs > 0) {
    pset_.Reset(qs, count);
    pset_.ScanRuns(runs, n_runs);
    scratch_.assign(count, QueryResult{});
    pset_.AccumulateInto(scratch_.data());
    for (size_t i = 0; i < count; i++) out[i] -= scratch_[i];
  }
  PredictCost(count, merge_elems);
}

void UpdatableIndex::PredictCost(size_t batch, size_t merge_elems) {
  predicted_ = inner_->last_predicted_cost();
  const MachineConstants* mc = inner_->machine_constants();
  if (mc == nullptr) return;
  const CostModel model(*mc, std::max<size_t>(base_.size(), 1));
  const size_t delta_elems = pending_.size() + deleted_.size() +
                             frozen_pending_.size() + frozen_deleted_.size();
  // The delta pass is one shared scan serving the whole batch; the
  // merge slice, like the inner indexing term, is charged once per
  // batch. Prediction only — the work amounts never read these terms.
  predicted_ += model.SharedScanPerQuerySecs(
      model.DeltaScanSecs(delta_elems), batch);
  predicted_ +=
      model.MergeSliceSecs(merge_elems) / static_cast<double>(batch);
}

bool UpdatableIndex::converged() const {
  return pending_.empty() && deleted_.empty() &&
         phase_ == MergePhase::kIdle && inner_->converged();
}

double UpdatableIndex::ConvergenceFraction() const {
  if (converged()) return 1.0;
  // Telemetry only: inner progress scaled by the merged share of the
  // data (an unmerged delta or a running merge keeps it below 1).
  const double delta = static_cast<double>(
      pending_.size() + deleted_.size() + frozen_pending_.size() +
      frozen_deleted_.size());
  const double base = static_cast<double>(std::max<size_t>(base_.size(), 1));
  return inner_->ConvergenceFraction() * (base / (base + delta));
}

bool UpdatableIndex::TryReadOnlyQuery(const RangeQuery& q,
                                      QueryResult* out) const {
  QueryResult r;
  if (!inner_->TryReadOnlyQuery(q, &r)) return false;
  AdjustForDelta(q, &r);
  *out = r;
  return true;
}

QueryResult UpdatableIndex::ReadOnlyScan(const RangeQuery& q) const {
  QueryResult r =
      PredicatedRangeSum(base_.values().data(), base_.size(), q);
  AdjustForDelta(q, &r);
  return r;
}

std::string UpdatableIndex::name() const {
  return inner_->name() + " + delta store";
}

void UpdatableIndex::SaveState(persist::Writer* w) const {
  w->WriteU64(merges_);
  w->WriteU64(phase_ == MergePhase::kActive ? 1 : 0);
  w->WriteU64(merge_cursor_);
  w->WriteU64(merge_step_);
  // The base column is only serialized once it differs from the
  // construction-time column (i.e. after a merge); the shadow copy and
  // tombstone flags are never serialized — LoadState re-derives them.
  if (merges_ > 0) w->WriteValueVector(base_.values());
  w->WriteValueVector(pending_);
  w->WriteValueVector(deleted_);
  w->WriteValueVector(frozen_pending_);
  w->WriteValueVector(frozen_deleted_);
  inner_->SaveState(w);
}

bool UpdatableIndex::LoadState(persist::Reader* r) {
  const uint64_t merges = r->ReadU64();
  const uint64_t phase = r->ReadU64();
  const uint64_t cursor = r->ReadU64();
  const uint64_t step = r->ReadU64();
  if (!r->ok() || phase > 1) return false;
  if (merges > 0) {
    std::vector<value_t> base_vals;
    if (!r->ReadValueVector(&base_vals)) return false;
    inner_.reset();
    base_ = Column(std::move(base_vals));
    inner_ = factory_(base_);
  }
  if (!r->ReadValueVector(&pending_) || !r->ReadValueVector(&deleted_) ||
      !r->ReadValueVector(&frozen_pending_) ||
      !r->ReadValueVector(&frozen_deleted_)) {
    return false;
  }
  if (!std::is_sorted(frozen_deleted_.begin(), frozen_deleted_.end()) ||
      !TombstonesPresent()) {
    return false;
  }
  merges_ = merges;
  frozen_filter_.Build(frozen_deleted_);
  tombstone_used_.assign(frozen_deleted_.size(), 0);
  tombstones_used_ = 0;
  merged_.clear();
  merge_cursor_ = 0;
  if (phase == 1) {
    const size_t total = base_.size() + frozen_pending_.size();
    if (cursor > total || step == 0) return false;
    phase_ = MergePhase::kActive;
    merge_step_ = step;
    // Re-derive the shadow copy and tombstone flags deterministically:
    // the copy loop is a pure function of (base, frozen delta, cursor).
    merged_.reserve(total);
    CopyFromSource(cursor);
    if (merge_cursor_ != cursor) return false;
  } else {
    if (cursor != 0 || step != 0 || !frozen_pending_.empty() ||
        !frozen_deleted_.empty()) {
      return false;
    }
    phase_ = MergePhase::kIdle;
    merge_step_ = 0;
  }
  return inner_->LoadState(r);
}

}  // namespace progidx
