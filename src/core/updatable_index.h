#ifndef PROGIDX_CORE_UPDATABLE_INDEX_H_
#define PROGIDX_CORE_UPDATABLE_INDEX_H_

#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "core/index_base.h"
#include "exec/shared_scan.h"
#include "storage/column.h"

namespace progidx {

/// Streaming updates for progressive indexes (the "handling updates"
/// line of work the paper cites [13, 14], adapted to progressive
/// indexing; docs/updates.md).
///
/// Design: a delta store with a *budgeted* merge. Appends and deletes
/// land in a live delta (a pending-value buffer plus delete
/// tombstones) that every query scans in addition to the inner index —
/// so updates are visible immediately and answers stay exact. When the
/// delta outgrows `merge_threshold` × base size, the delta is frozen
/// and a merge begins: base + frozen appends are copied into a shadow
/// column (tombstoned occurrences dropped), a bounded slice per
/// query/batch, riding parallel::CopyRunsTo so the copy is
/// bit-identical for every PROGIDX_THREADS. When the shadow is
/// complete it becomes the new base and a *fresh progressive index* is
/// started over it — re-indexing cost is not a rebuild pause but is
/// smeared over subsequent queries under the same per-query budget,
/// exactly like the initial build. Updates arriving mid-merge land in
/// the live delta and ride the next merge.
///
/// Determinism contract (test-enforced by tests/update_property_test):
/// answers and the full serialized state are bit-identical across
/// PROGIDX_THREADS ∈ {1, 2, 4} at every step of any
/// Append/Delete/Query/QueryBatch interleaving (Query is a batch of
/// one). The merge slice per query is a fixed fraction of the merge
/// (never a function of measured machine constants or lane count), so
/// replay in a fresh process walks the same trajectory.
class UpdatableIndex : public IndexBase {
 public:
  /// `factory` builds the inner index over a column (e.g. a lambda
  /// returning a ProgressiveQuicksort with the desired budget). The
  /// factory is re-invoked after every merge.
  using IndexFactory =
      std::function<std::unique_ptr<IndexBase>(const Column&)>;

  /// A merge is split into at most this many per-query slices: each
  /// Query()/QueryBatch() during an active merge copies
  /// ceil(total/kMergeSteps) source elements. A plain integer fraction
  /// keeps the slice deterministic and machine-independent.
  static constexpr size_t kMergeSteps = 16;

  UpdatableIndex(std::vector<value_t> initial_values, IndexFactory factory,
                 double merge_threshold = 0.1);

  /// Appends one value; visible to the very next Query(). No merge
  /// work happens here — queries pay for merges, updates are O(1).
  void Append(value_t v);

  /// Deletes one occurrence of `v`. Precondition: `v` is present in
  /// the current multiset (base ∪ pending appends, minus prior
  /// deletes); deleting an absent value trips a PROGIDX_CHECK when its
  /// tombstone is merged. Visible (subtracted) immediately.
  void Delete(value_t v);

  /// QueryBatch(&q, 1, ...).
  QueryResult Query(const RangeQuery& q) override;
  /// One shared exec::PredicateSet pass over the delta runs (frozen +
  /// live appends, then tombstones) serves the whole batch, and the
  /// batch advances the merge by exactly one slice — one maintenance
  /// budget per batch, like the inner indexes' indexing budget.
  void QueryBatch(const RangeQuery* qs, size_t count,
                  QueryResult* out) override;

  /// Converged = inner converged, no delta pending, no merge running.
  bool converged() const override;
  double ConvergenceFraction() const override;
  std::string name() const override;
  double last_predicted_cost() const override { return predicted_; }

  bool SupportsPersistence() const override {
    return inner_->SupportsPersistence();
  }
  const MachineConstants* machine_constants() const override {
    return inner_->machine_constants();
  }
  /// Serializes merge count, post-merge base (when any merge
  /// completed), live + frozen delta, merge cursor, and the nested
  /// inner state. The in-progress shadow copy is *not* serialized:
  /// LoadState re-derives it deterministically by replaying the copy
  /// loop to the saved cursor.
  void SaveState(persist::Writer* w) const override;
  bool LoadState(persist::Reader* r) override;

  /// Read path: succeeds when the inner index has one; the delta is
  /// added via const scans that touch no mutable scratch. NOTE: safe
  /// for concurrent readers only while no Query/Append/Delete runs —
  /// the serving layer therefore never enables lock-free read epochs
  /// over an updatable index (docs/updates.md).
  bool TryReadOnlyQuery(const RangeQuery& q, QueryResult* out) const override;

  UpdatableIndex* AsUpdatable() override { return this; }

  /// Exact answer from a full scan of the current base plus the delta,
  /// with no indexing/merge work and no scratch writes: the serving
  /// layer's degraded path for update-carrying servers (the plain
  /// exec::ZeroBudgetScan of the original column would be stale).
  QueryResult ReadOnlyScan(const RangeQuery& q) const;

  /// Appended-but-unmerged values (live + frozen).
  size_t pending_count() const {
    return pending_.size() + frozen_pending_.size();
  }
  /// Unmerged delete tombstones (live + frozen).
  size_t tombstone_count() const {
    return deleted_.size() + frozen_deleted_.size();
  }
  size_t base_size() const { return base_.size(); }
  /// Number of merges completed so far.
  size_t merge_count() const { return merges_; }
  bool merge_in_progress() const { return phase_ == MergePhase::kActive; }
  /// Source elements (base + frozen appends) consumed by the running
  /// merge; 0 when idle.
  size_t merge_cursor() const { return merge_cursor_; }
  const IndexBase& inner() const { return *inner_; }

 private:
  enum class MergePhase : uint8_t { kIdle = 0, kActive = 1 };

  /// Starts a merge if the delta crossed the threshold, else advances
  /// a running one by one slice. Returns source elements consumed.
  size_t AdvanceMaintenance();
  void StartMerge();
  void FinishMerge();
  /// A hashed bit filter over a set of values, at least 32 bits per
  /// value: MayContain never misses a value of the set and rejects
  /// nearly every other, so it screens elements before their binary
  /// search into sorted tombstones. Call Build before MayContain.
  class ValueFilter {
   public:
    void Build(const std::vector<value_t>& values);
    bool MayContain(value_t v) const {
      const size_t s = Slot(v);
      return (bits_[s / 64] >> (s % 64) & 1) != 0;
    }

   private:
    size_t Slot(value_t v) const {
      return static_cast<size_t>(
          (static_cast<uint64_t>(v) * 0x9E3779B97F4A7C15ull) >>
          (64 - log_bits_));
    }
    int log_bits_ = 6;
    std::vector<uint64_t> bits_;
  };

  /// Copies up to `budget_elems` source elements (base, then frozen
  /// appends) into the shadow, dropping tombstoned occurrences; the
  /// tombstone-free tail rides parallel::CopyRunsTo. Returns elements
  /// consumed. Shared verbatim by MergeStep and LoadState replay.
  size_t CopyFromSource(size_t budget_elems);
  /// Consumes one unused tombstone equal to `v`, if any.
  bool ConsumeTombstone(value_t v);
  /// LoadState's check that every tombstone names a value present
  /// where a merge will consume it. As multisets: frozen_deleted_ ⊆
  /// base ∪ frozen_pending_ (the running merge's source), and
  /// frozen_deleted_ ∪ deleted_ ⊆ base ∪ frozen_pending_ ∪ pending_
  /// (what the next merge's source holds once the frozen ones are
  /// gone). One pass over base and appends, screened by a ValueFilter
  /// before a binary search into the sorted tombstones.
  bool TombstonesPresent() const;
  /// Adds live+frozen appends and subtracts tombstones for `q` via
  /// const serial scans (TryReadOnlyQuery, ReadOnlyScan).
  void AdjustForDelta(const RangeQuery& q, QueryResult* r) const;
  /// Updates predicted_ after a query/batch: inner prediction plus the
  /// delta-scan and merge-slice terms (cost/cost_model.h), shared-scan
  /// terms split across the batch.
  void PredictCost(size_t batch, size_t merge_elems);

  Column base_;
  IndexFactory factory_;
  std::unique_ptr<IndexBase> inner_;
  double merge_threshold_;
  size_t merges_ = 0;

  /// Live delta: mutated by Append/Delete, scanned by every query.
  std::vector<value_t> pending_;
  std::vector<value_t> deleted_;

  /// Frozen delta + merge machine (active merge only). frozen_deleted_
  /// is sorted; tombstone_used_ marks consumed occurrences (in source
  /// scan order, first unused within an equal range — deterministic).
  MergePhase phase_ = MergePhase::kIdle;
  std::vector<value_t> frozen_pending_;
  std::vector<value_t> frozen_deleted_;
  std::vector<uint8_t> tombstone_used_;
  size_t tombstones_used_ = 0;
  /// Screens source elements for frozen_deleted_; built by StartMerge
  /// and LoadState.
  ValueFilter frozen_filter_;
  std::vector<value_t> merged_;  ///< shadow copy; invisible to queries
  size_t merge_cursor_ = 0;
  size_t merge_step_ = 0;  ///< source elements per query/batch slice

  double predicted_ = 0;
  /// Shared-scan machinery for the batched delta passes.
  exec::PredicateSet pset_;
  std::vector<QueryResult> scratch_;
};

}  // namespace progidx

#endif  // PROGIDX_CORE_UPDATABLE_INDEX_H_
