#ifndef PROGIDX_CORE_PROGRESSIVE_INDEX_H_
#define PROGIDX_CORE_PROGRESSIVE_INDEX_H_

#include <memory>
#include <vector>

#include "btree/btree.h"
#include "core/budget.h"
#include "core/index_base.h"
#include "cost/calibration.h"
#include "cost/cost_model.h"
#include "exec/shared_scan.h"
#include "obs/telemetry.h"

namespace progidx {

/// Shared configuration of the four progressive indexes. Their design
/// constants b, sb and β are fixed (cost/cost_model.h).
struct ProgressiveOptions {
  /// Machine constants; defaults to the process-wide calibration.
  const MachineConstants* machine = nullptr;

  const MachineConstants& Machine() const {
    return machine != nullptr ? *machine : GlobalMachineConstants();
  }
};

/// The phase machine all four progressive indexes share (§3). Every
/// query spends a budget δ on indexing; each index moves through its own
/// build phases — creation, refinement and, for Radixsort (LSD), a merge
/// — into the same progressive B+-tree consolidation, and then is done.
///
/// The driver owns everything that scheme has in common: the budget→δ
/// prologue, the consolidation and done phases (their work, pricing and
/// answers), QueryBatch with its trace spans, residuals and batch
/// re-pricing, and the snapshot framing. Query is a batch of one. A
/// strategy (the derived index) supplies only its build phases: their
/// work, their batch answer, their cost terms, and its part of the
/// snapshot.
///
/// Phases are numbered as the strategy's `Phase` enum: its build phases
/// first (0 = creation), then consolidation, then done.
class ProgressiveIndex : public IndexBase {
 public:
  /// QueryBatch(&q, 1, ...): one answer path for both entry points.
  QueryResult Query(const RangeQuery& q) override;
  void QueryBatch(const RangeQuery* qs, size_t count,
                  QueryResult* out) override;
  bool converged() const override { return phase_ == done_phase(); }
  /// Build phases report the strategy's cursor-derived estimate below
  /// 0.9; consolidation moves from 0.9 to 1 with the B+-tree keys built.
  double ConvergenceFraction() const override;
  double last_predicted_cost() const override { return predicted_; }

  /// Checkpointing seam (docs/recovery.md): the phase word, the
  /// strategy's body, and — from consolidation on — the B+-tree and its
  /// build progress.
  bool SupportsPersistence() const override { return true; }
  const MachineConstants* machine_constants() const override {
    return &model_.constants();
  }
  void SaveState(persist::Writer* w) const override;
  bool LoadState(persist::Reader* r) override;

  /// Read-epoch path (docs/serving.md): once converged the answer is a
  /// pure B+-tree lookup over the final sorted array — no work charged,
  /// no state (not even mutable scratch) touched, so any number of
  /// reader threads may call this concurrently.
  bool TryReadOnlyQuery(const RangeQuery& q, QueryResult* out) const override;

  const CostModel& cost_model() const { return model_; }

  // The budget controller and the tree builder hold addresses of this
  // object's own members.
  ProgressiveIndex(const ProgressiveIndex&) = delete;
  ProgressiveIndex& operator=(const ProgressiveIndex&) = delete;

 protected:
  /// A query's predicted cost (Figures 8/9) and its decomposition for
  /// batch pricing (docs/batching.md).
  struct Prediction {
    double total = 0;
    double index_secs = 0;    ///< indexing work, charged once per batch
    double shared_secs = 0;   ///< unrefined scan, shared across a batch
    double private_secs = 0;  ///< per-query lookups
    /// Per-element price the shared term was built from (seq_read for
    /// flat regions; the chain rate for bucket chains).
    double shared_elem_secs = 0;
  };
  /// A prediction whose per-query term is whatever `total` leaves after
  /// the indexing and shared terms.
  static Prediction WithPrivateRemainder(double total, double index_secs,
                                         double shared_secs,
                                         double shared_elem_secs);

  /// `build_phases` counts the strategy's phases before consolidation;
  /// `telemetry_id` names its spans' category and residual series.
  ProgressiveIndex(const Column& column, const BudgetSpec& budget,
                   const ProgressiveOptions& options,
                   const char* telemetry_id, int build_phases);

  int phase_index() const { return phase_; }
  /// Moves to build phase `p`, one of the strategy's Phase enumerators.
  template <typename Phase>
  void SetPhase(Phase p) {
    phase_ = static_cast<int>(p);
  }
  bool building() const { return phase_ < build_phases_; }
  /// Builds the B+-tree over SortedArray() and starts consolidating it.
  void EnterConsolidation();

  /// Fraction of the domain a query selects (cheap selectivity proxy).
  double SelectivityEstimate(const RangeQuery& q) const;

  /// Snapshot helpers for strategies that record the column's domain:
  /// the load fails unless the snapshot's min/max match the column's.
  void SaveDomain(persist::Writer* w) const;
  bool LoadDomain(persist::Reader* r) const;

  // --- The strategy. The build-phase hooks run only while building().

  /// Modelled seconds of the current build phase's whole work (op_secs).
  virtual double BuildOpSecs() const = 0;
  /// Estimated cost of answering `q` in the current build phase.
  virtual double EstimateBuildAnswerSecs(const RangeQuery& q) const = 0;
  /// The phase's cost formula for `q` at δ = `delta`, with the state at
  /// query start; `answer_est` is EstimateBuildAnswerSecs(q).
  virtual Prediction PredictBuild(const RangeQuery& q, double answer_est,
                                  double delta) const = 0;
  /// Performs one step of at most `units` work units of the current
  /// build phase — elements, priced at BuildOpSecs() / n each — and
  /// returns the units to charge, at least 1. A step may end the phase
  /// or enter consolidation.
  virtual size_t BuildWork(size_t units) = 0;
  /// Adds the batch's answers into out[0, count), which the driver has
  /// zero-filled: per-query lookups plus one exec::PredicateSet pass
  /// over the unrefined regions. A region no query reaches is skipped;
  /// one some query cannot reach adds zero to that query's totals.
  virtual void AnswerBuildBatch(const RangeQuery* qs, size_t count,
                                QueryResult* out) const = 0;
  /// Progress through the build phases, in [0, 0.9].
  virtual double BuildConvergenceFraction() const = 0;
  /// The strategy's part of the snapshot, framed by the phase word and
  /// the tree tail. LoadBody runs with the phase already restored and
  /// must reject state its constructor could not have produced.
  virtual void SaveBody(persist::Writer* w) const = 0;
  virtual bool LoadBody(persist::Reader* r) = 0;
  /// The column sorted, once the build phases end: the B+-tree's base.
  virtual const value_t* SortedArray() const = 0;

  const Column& column_;
  CostModel model_;
  BudgetController budget_;
  /// The column's value domain.
  const value_t min_;
  const value_t max_;
  /// The query that steered the current indexing work (the batch head).
  RangeQuery last_query_hint_;
  mutable exec::PredicateSet pset_;
  mutable std::vector<exec::PosRange> scratch_pos_ranges_;

 private:
  int done_phase() const { return build_phases_ + 1; }
  const char* PhaseName(int phase) const;
  double OpSecs() const;
  double EstimateAnswerSecs(const RangeQuery& q) const;
  Prediction Predict(const RangeQuery& q, double answer_est,
                     double delta) const;
  /// Performs `secs` worth of indexing work, cascading across phase
  /// transitions.
  void DoWorkSecs(double secs);
  /// The query prologue for budget query `q` (a batch's head):
  /// budget→δ, cost prediction, and δ·op_secs of indexing work.
  void PrepareQuery(const RangeQuery& q);
  /// Answers the batch against the current state, overwriting out[0,
  /// count); returns the leaves read on the tree path (0 while
  /// building).
  size_t AnswerBatch(const RangeQuery* qs, size_t count,
                     QueryResult* out) const;

  const int build_phases_;
  int phase_ = 0;
  BPlusTree btree_;
  std::unique_ptr<ProgressiveBTreeBuilder> builder_;
  double predicted_ = 0;
  Prediction pred_;
  /// Residual + span telemetry (docs/observability.md); written only by
  /// the QueryBatch thread, never consulted for decisions.
  obs::IndexTelemetry telemetry_;
};

}  // namespace progidx

#endif  // PROGIDX_CORE_PROGRESSIVE_INDEX_H_
