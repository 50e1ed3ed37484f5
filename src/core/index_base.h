#ifndef PROGIDX_CORE_INDEX_BASE_H_
#define PROGIDX_CORE_INDEX_BASE_H_

#include <cstddef>
#include <string>

#include "common/types.h"
#include "storage/column.h"

namespace progidx {

namespace persist {
class Writer;
class Reader;
}  // namespace persist

struct MachineConstants;
class UpdatableIndex;

/// Common interface of every indexing technique in this library — the
/// four progressive algorithms, all adaptive-indexing baselines, full
/// scan, and full index. The experiment harness drives all of them
/// uniformly.
class IndexBase {
 public:
  virtual ~IndexBase() = default;

  /// Executes one range-aggregate query. For incremental techniques
  /// this call also performs that query's share of indexing work (index
  /// construction is a side effect of querying, for both progressive
  /// and adaptive indexing).
  virtual QueryResult Query(const RangeQuery& q) = 0;

  /// Answers qs[0, count) against one consistent index state, writing
  /// results in input order to out[0, count).
  ///
  /// Batch-aware techniques (the four progressive indexes, full scan,
  /// standard cracking) charge a *single* per-query indexing budget for
  /// the whole batch — refinement advances at the same deterministic
  /// rate per batch as per query — and answer the unrefined portion of
  /// their data with one shared scan over all predicates
  /// (exec::PredicateSet); refined data goes through per-query lookups.
  /// Their Query(q) — and UpdatableIndex's — is QueryBatch(&q, 1, ...),
  /// so a query is a batch of one by construction. Full scan keeps its
  /// own Query: it is the oracle the batch paths are tested against
  /// (docs/batching.md). After a batched call, last_predicted_cost() is
  /// the predicted *per-query* cost with shared-scan terms split across
  /// the batch.
  ///
  /// The default runs the queries sequentially (one budget each) so
  /// non-batch-aware techniques stay correct under the batch harness.
  virtual void QueryBatch(const RangeQuery* qs, size_t count,
                          QueryResult* out) {
    for (size_t i = 0; i < count; i++) out[i] = Query(qs[i]);
  }

  /// True once the structure has reached its final state and no query
  /// will perform further indexing work. Full scan never converges;
  /// full index converges on the first query; cracking techniques
  /// converge only if the workload happens to fully refine them.
  virtual bool converged() const = 0;

  /// Coarse progress toward convergence in [0, 1], for telemetry only
  /// (Server::DumpMetrics). Progressive techniques report a
  /// phase-weighted estimate from their refinement cursors; the
  /// default collapses to the converged() bit. Never used in any
  /// execution decision, so its precision does not affect results.
  virtual double ConvergenceFraction() const { return converged() ? 1.0 : 0.0; }

  /// Answers `q` against the current structure without performing any
  /// indexing work or writing any state — not even mutable scratch — so
  /// any number of threads may call it concurrently as long as no
  /// Query/QueryBatch runs at the same time. This is the serving
  /// layer's read-epoch path (docs/serving.md): once the epoch
  /// scheduler observes converged() and publishes the fact, client
  /// threads answer directly through this call, lock-free.
  ///
  /// Returns false when the technique has no race-free read path for
  /// its current phase (the default); the caller then falls back to a
  /// scan of the immutable base column, which is equally exact.
  virtual bool TryReadOnlyQuery(const RangeQuery& q, QueryResult* out) const {
    (void)q;
    (void)out;
    return false;
  }

  /// True when this technique implements SaveState/LoadState. The
  /// checkpointer (src/persist/) skips snapshots for techniques that
  /// don't; they still recover exactly, by cold replay of the full
  /// admitted log (docs/recovery.md).
  virtual bool SupportsPersistence() const { return false; }

  /// The §4.3 machine constants this instance's budget math runs on,
  /// or nullptr when the technique has no cost model (its refinement
  /// trajectory then cannot depend on measured constants). The
  /// durability layer fingerprints these into every snapshot and pins
  /// them per persistence directory (persist/calibration_store.h), so
  /// replay in a fresh process — whose own measurement would differ —
  /// reproduces the crashed process's trajectory bit-identically.
  virtual const MachineConstants* machine_constants() const {
    return nullptr;
  }

  /// Serializes the complete resumable state — everything a fresh
  /// instance over the same column needs to continue the refinement
  /// trajectory bit-identically: phase, partially built arrays, and
  /// the per-technique refinement position (pivot tree, bucket chains
  /// + fill cursor, radix generations + digit cursor, B+-tree build
  /// progress). Must only be called between queries (never mid-epoch),
  /// and only when SupportsPersistence().
  virtual void SaveState(persist::Writer* w) const { (void)w; }

  /// Restores state saved by SaveState into this instance, which must
  /// have been freshly constructed over a column with identical
  /// contents and the same budget spec. Returns false (leaving the
  /// instance in an unspecified state — discard it) when the payload
  /// is corrupt or structurally impossible; callers fall back to an
  /// older snapshot or a cold start.
  virtual bool LoadState(persist::Reader* r) {
    (void)r;
    return false;
  }

  /// Human-readable name used in reports ("P. Quicksort", "Std.
  /// Cracking", ...).
  virtual std::string name() const = 0;

  /// Cost predicted by the technique's cost model for the most recent
  /// Query() call, in seconds; 0 for techniques without a cost model.
  /// Used to regenerate Figures 8 and 9 (measured vs. cost model).
  virtual double last_predicted_cost() const { return 0; }

  /// Non-null when this technique accepts appends/deletes
  /// (core/updatable_index.h). The serving layer keys the write path
  /// off this: update-carrying epochs are only legal against an
  /// updatable index, and degraded reads must then consult the delta,
  /// not just the original base column.
  virtual UpdatableIndex* AsUpdatable() { return nullptr; }
};

}  // namespace progidx

#endif  // PROGIDX_CORE_INDEX_BASE_H_
