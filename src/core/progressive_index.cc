#include "core/progressive_index.h"

#include <algorithm>
#include <bit>
#include <string>

#include "common/validate.h"
#include "exec/batch_refine.h"
#include "persist/io.h"

namespace progidx {

namespace {

/// Rejects options no index can be built with, before anything is sized
/// from them. A message is built only on failure: one string allocated
/// on every construction shifted the heap enough to move perfbench's
/// explore_skyserver peak_rss_mb by 3.4 MiB on one seed.
const ProgressiveOptions& Validated(const ProgressiveOptions& options) {
  // MSD's root mask must name exactly its bucket_count chains.
  if (options.bucket_count < 2 ||
      !std::has_single_bit(options.bucket_count)) {
    FailInvalidArgument("ProgressiveOptions: bucket_count " +
                        std::to_string(options.bucket_count) +
                        " must be a power of two >= 2");
  }
  if (options.block_capacity < 1) {
    FailInvalidArgument("ProgressiveOptions: block_capacity must be >= 1");
  }
  if (options.btree_fanout < 2) {
    FailInvalidArgument("ProgressiveOptions: btree_fanout " +
                        std::to_string(options.btree_fanout) +
                        " must be >= 2");
  }
  return options;
}

}  // namespace

ProgressiveIndex::ProgressiveIndex(const Column& column,
                                   const BudgetSpec& budget,
                                   const ProgressiveOptions& options,
                                   const char* telemetry_id, int build_phases)
    : column_(column),
      options_(Validated(options)),
      model_(options.Machine(), column.size(), options.bucket_count,
             options.block_capacity),
      budget_(budget, model_),
      min_(column.min_value()),
      max_(column.max_value()),
      build_phases_(build_phases),
      phase_(column.empty() ? build_phases + 1 : 0),
      telemetry_(telemetry_id) {}

ProgressiveIndex::Prediction ProgressiveIndex::WithPrivateRemainder(
    double total, double index_secs, double shared_secs,
    double shared_elem_secs) {
  return {total, index_secs, shared_secs,
          std::max(total - index_secs - shared_secs, 0.0), shared_elem_secs};
}

const char* ProgressiveIndex::PhaseName(int phase) const {
  // Build phases are named in the order every strategy numbers them.
  static constexpr const char* kBuildNames[] = {"creation", "refinement",
                                                "merge"};
  if (phase < build_phases_) return kBuildNames[phase];
  return phase == done_phase() ? "done" : "consolidation";
}

void ProgressiveIndex::EnterConsolidation() {
  btree_ = BPlusTree(SortedArray(), column_.size(), options_.btree_fanout);
  builder_ = std::make_unique<ProgressiveBTreeBuilder>(&btree_);
  phase_ = build_phases_;
}

double ProgressiveIndex::SelectivityEstimate(const RangeQuery& q) const {
  const double domain =
      static_cast<double>(max_) - static_cast<double>(min_) + 1.0;
  if (domain <= 0) return 1.0;
  const double width =
      static_cast<double>(q.high) - static_cast<double>(q.low) + 1.0;
  return std::clamp(width / domain, 0.0, 1.0);
}

double ProgressiveIndex::OpSecs() const {
  if (building()) return BuildOpSecs();
  if (converged()) return 0;
  return model_.ConsolidateSecs(options_.btree_fanout);
}

double ProgressiveIndex::EstimateAnswerSecs(const RangeQuery& q) const {
  if (building()) return EstimateBuildAnswerSecs(q);
  const double matched =
      SelectivityEstimate(q) * static_cast<double>(column_.size());
  return model_.BinarySearchSecs() + model_.constants().seq_read_secs * matched;
}

ProgressiveIndex::Prediction ProgressiveIndex::Predict(const RangeQuery& q,
                                                       double answer_est,
                                                       double delta) const {
  if (building()) return PredictBuild(q, answer_est, delta);
  // The matched leaf run is one sequential read; the tree descent is
  // per query. A batch re-prices the read from the union of its runs
  // (QueryBatch).
  const double alpha = SelectivityEstimate(q);
  const double shared = alpha * model_.ScanSecs();
  const double seq_read = model_.constants().seq_read_secs;
  if (converged()) {
    return WithPrivateRemainder(model_.BinarySearchSecs() + shared, 0, shared,
                                seq_read);
  }
  return WithPrivateRemainder(
      model_.Consolidate(options_.btree_fanout, alpha, delta),
      delta * model_.ConsolidateSecs(options_.btree_fanout), shared, seq_read);
}

void ProgressiveIndex::PrepareQuery(const RangeQuery& q) {
  last_query_hint_ = q;
  const double op_secs = ClampOpSecs(OpSecs(), column_.size());
  const double answer_est = EstimateAnswerSecs(q);
  const double delta =
      converged() ? 0 : budget_.DeltaForQuery(op_secs, answer_est);
  // Cost-model prediction for this query (Figures 8/9), using the phase
  // formulas of §3 with the state at query start.
  pred_ = Predict(q, answer_est, delta);
  predicted_ = pred_.total;
  if (delta > 0) DoWorkSecs(delta * op_secs);
}

void ProgressiveIndex::DoWorkSecs(double secs) {
  while (secs > 0 && !converged()) {
    // A phase's op_secs prices all of its work: n elements while
    // building, the B+-tree's internal keys while consolidating.
    const size_t phase_units =
        building() ? column_.size()
                   : std::max(btree_.TotalInternalKeys(), size_t{1});
    const double unit =
        ClampWorkUnit(OpSecs() / static_cast<double>(phase_units));
    const size_t units = UnitsForSecs(secs, unit);
    size_t used = 0;
    if (building()) {
      used = BuildWork(units);
    } else {
      used = std::max(builder_->DoWork(units), size_t{1});
      if (builder_->done()) phase_ = done_phase();
    }
    secs -= static_cast<double>(used) * unit;
  }
}

size_t ProgressiveIndex::AnswerBatch(const RangeQuery* qs, size_t count,
                                     QueryResult* out) const {
  std::fill(out, out + count, QueryResult{});
  if (building()) {
    AnswerBuildBatch(qs, count, out);
    return 0;
  }
  // Each leaf in the union of the matched runs is summed once per batch
  // (overlapping queries read it a single time).
  return exec::BatchBTreeRangeSum(btree_, qs, count, out, &pset_,
                                  &scratch_pos_ranges_);
}

bool ProgressiveIndex::TryReadOnlyQuery(const RangeQuery& q,
                                        QueryResult* out) const {
  if (!converged()) return false;
  *out = btree_.RangeSum(q);
  return true;
}

double ProgressiveIndex::ConvergenceFraction() const {
  if (column_.empty() || converged()) return 1.0;
  if (building()) return BuildConvergenceFraction();
  const double keys =
      static_cast<double>(std::max(btree_.TotalInternalKeys(), size_t{1}));
  const double left =
      std::min(static_cast<double>(builder_->remaining()), keys);
  return 0.9 + 0.1 * (1.0 - left / keys);
}

QueryResult ProgressiveIndex::Query(const RangeQuery& q) {
  QueryResult r;
  QueryBatch(&q, 1, &r);
  return r;
}

void ProgressiveIndex::QueryBatch(const RangeQuery* qs, size_t count,
                                  QueryResult* out) {
  if (count == 0) return;
  if (column_.empty()) {
    std::fill(out, out + count, QueryResult{});
    return;
  }
  const int phase_at_start = phase_;
  obs::QueryTimer qt;
  // One per-batch indexing budget, hinted by the batch head: a batch
  // advances refinement exactly as its head alone would.
  {
    obs::TraceScope span("refine", telemetry_.category());
    PrepareQuery(qs[0]);
  }
  size_t leaves_read = 0;
  {
    obs::TraceScope span("shared_scan", telemetry_.category());
    leaves_read = AnswerBatch(qs, count, out);
  }
  if (count > 1 && phase_at_start >= build_phases_) {
    // Consolidation and done batches read the union of their leaf runs
    // once, predicate-free: the batch shares that read and the
    // indexing work; each query pays its own descent.
    predicted_ = (pred_.index_secs + static_cast<double>(leaves_read) *
                                         model_.constants().seq_read_secs) /
                     static_cast<double>(count) +
                 pred_.private_secs;
  } else if (count > 1) {
    predicted_ = model_.BatchPerQuerySecs(pred_.index_secs, pred_.shared_secs,
                                          pred_.private_secs, count,
                                          pred_.shared_elem_secs);
  }
  telemetry_.RecordResidual(
      PhaseName(phase_at_start), predicted_,
      static_cast<double>(qt.ElapsedNs()) * 1e-9 / static_cast<double>(count));
}

void ProgressiveIndex::SaveDomain(persist::Writer* w) const {
  w->WriteI64(min_);
  w->WriteI64(max_);
}

bool ProgressiveIndex::LoadDomain(persist::Reader* r) const {
  const value_t min = r->ReadI64();
  const value_t max = r->ReadI64();
  return r->ok() && min == min_ && max == max_;
}

void ProgressiveIndex::SaveState(persist::Writer* w) const {
  w->WriteU64(static_cast<uint64_t>(phase_));
  SaveBody(w);
  // The tree exists from consolidation on; the strategy's own machinery
  // for those phases is only its sorted array.
  if (!building()) {
    btree_.SaveState(w);
    builder_->SaveState(w);
  }
}

bool ProgressiveIndex::LoadState(persist::Reader* r) {
  const uint64_t phase = r->ReadU64();
  if (!r->ok() || phase > static_cast<uint64_t>(done_phase())) return false;
  phase_ = static_cast<int>(phase);
  if (!LoadBody(r)) return false;
  if (!building()) {
    // The tree and build position this index's consolidation reaches
    // over the reloaded sorted array, and no other.
    btree_ = BPlusTree(SortedArray(), column_.size(), options_.btree_fanout);
    if (!btree_.LoadState(r)) return false;
    builder_ = std::make_unique<ProgressiveBTreeBuilder>(&btree_);
    if (!builder_->LoadState(r)) return false;
    // Consolidation ends only when the tree is complete.
    if (converged() && !btree_.complete()) return false;
  }
  return r->ok();
}

}  // namespace progidx
