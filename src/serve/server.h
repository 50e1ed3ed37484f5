#ifndef PROGIDX_SERVE_SERVER_H_
#define PROGIDX_SERVE_SERVER_H_

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "common/fault.h"
#include "common/types.h"
#include "core/index_base.h"
#include "obs/metrics.h"
#include "persist/checkpoint.h"
#include "persist/wal.h"
#include "serve/admission_queue.h"
#include "storage/column.h"

namespace progidx {
namespace serve {

/// Serving-layer configuration. Validated by the Server constructor
/// (common/validate.h): zero capacities, batch sizes above
/// exec::kMaxBatchSize or the column size, and exact batches larger
/// than the queue are rejected with a clear error.
struct ServerConfig {
  /// deadline_us value meaning "no deadline" (the default).
  static constexpr uint64_t kNoDeadline = ~uint64_t{0};

  /// Admission-queue capacity: the backpressure bound.
  size_t queue_capacity = 64;
  /// Write-epoch batch size: how many admitted queries one
  /// IndexBase::QueryBatch call serves (one budget per epoch).
  size_t batch_size = 16;
  /// Per-query deadline in microseconds; kNoDeadline disables
  /// deadlines. 0 is a real (already-expired) deadline: every query
  /// degrades immediately to the exact zero-budget scan — the
  /// "serve exactly, never wait" extreme.
  uint64_t deadline_us = kNoDeadline;
  /// Durability (docs/recovery.md): when non-empty, the scheduler
  /// write-ahead-logs every epoch to `<persist_dir>/wal` and serializes
  /// an index snapshot every `checkpoint_every` epochs, which the
  /// server's persistence thread then publishes crash-atomically.
  /// Pass an index produced by serve::RecoverIndex over the same
  /// directory, or an empty directory for a fresh serving run.
  std::string persist_dir;
  /// Write epochs between snapshots when persist_dir is set.
  size_t checkpoint_every = 8;
  /// When set, write epochs only form full batches (the epoch schedule
  /// is then a pure function of admission order — the determinism
  /// harness uses this). The submitted count must be a multiple of
  /// batch_size, or the tail is only drained at server destruction.
  bool exact_batches = false;
  /// Once the index converges, answer via the lock-free read-epoch
  /// path (IndexBase::TryReadOnlyQuery) instead of enqueueing. The
  /// determinism harness disables this so the admitted log covers the
  /// whole workload. Force-disabled for updatable indexes: an admitted
  /// update would un-converge the index after read mode was published,
  /// racing the lock-free readers (docs/updates.md).
  bool enable_read_epochs = true;

  /// Reads PROGIDX_DEADLINE_US, PROGIDX_PERSIST_DIR, and
  /// PROGIDX_CHECKPOINT_EVERY on top of the defaults.
  static ServerConfig FromEnv();
};

enum class SubmitStatus {
  kOk,          ///< answered (possibly degraded — see Response)
  kOverloaded,  ///< refused: queue full; caller sheds or retries
  kShutdown,    ///< server is shutting down
};

struct Response {
  QueryResult result;
  /// True when the answer came from the zero-budget degraded scan
  /// (deadline expired or admission fault) instead of the index. The
  /// answer is exact either way.
  bool degraded = false;
  /// Updates only: true when the update was refused (admission fault,
  /// deadline expiry, shutdown) and therefore NOT applied. Queries are
  /// always answered exactly and never set this; an update degrades to
  /// rejection, never to a half-applied write.
  bool rejected = false;
};

struct ServeStats {
  uint64_t submitted = 0;
  uint64_t served = 0;       ///< answered by a write epoch
  uint64_t degraded = 0;     ///< answered by the zero-budget scan
  uint64_t shed = 0;         ///< TrySubmit refused with kOverloaded
  uint64_t read_epoch = 0;   ///< answered on the lock-free read path
  uint64_t write_epochs = 0; ///< QueryBatch calls issued
  uint64_t faults_injected = 0;  ///< fault::InjectedCount() delta
  uint64_t updates_applied = 0;  ///< appends/deletes applied by epochs
  uint64_t updates_rejected = 0; ///< updates refused, not applied
  uint64_t durable_queries = 0;  ///< ops in the durable admitted log
  /// Snapshots serialized and handed to the persistence thread this
  /// run. Counted on the scheduler at the hand-off, so it is a pure
  /// function of the epoch schedule even while the last publication is
  /// still in flight; the `persist.snapshots` counter counts completed
  /// publications.
  uint64_t checkpoints = 0;
  /// True once a WAL append failed: the durable log is frozen at its
  /// valid prefix and no further checkpoints are taken (serving
  /// continues — durability degrades, answers never do).
  bool wal_broken = false;
};

/// Concurrent serving layer over one shared progressive index
/// (docs/serving.md). N client threads submit range queries — and,
/// against an updatable index, appends/deletes riding the same epochs
/// (docs/updates.md); a single scheduler thread alternates *write
/// epochs* — it pops a batch from the admission queue and runs it
/// through serve::ExecuteEpoch exclusively, so the index's
/// single-writer contract holds — with *read epochs*: once the index
/// converges, clients answer themselves through the race-free
/// TryReadOnlyQuery path without ever touching the queue.
///
/// Graceful degradation: a query whose deadline expires (while blocked
/// on a full queue, or queued when its epoch forms), or that an
/// injected admission fault refuses, is answered by the *client* thread
/// with a zero-budget scan of the immutable base column — exact, just
/// slower, and counted in ServeStats::degraded.
///
/// Durability: with ServerConfig::persist_dir set, every
/// checkpoint_every epochs the scheduler serializes a snapshot of the
/// index and a persistence thread publishes it (fsync, rename,
/// directory fsync, prune) while epochs go on; the next serialization
/// first waits for the previous publication.
///
/// Determinism: with SubmitOrdered + exact_batches (+ read epochs off,
/// no deadline), the epoch schedule is fixed by admission order, so the
/// final index state is bit-identical to serially replaying
/// admitted_log() in epoch_sizes() chunks — regardless of client count.
/// The epoch-determinism test enforces this for T ∈ {1, 2, 4}.
///
/// Destroy the server only after all submitting threads have returned;
/// destruction closes the queue, drains remaining slots through final
/// write epochs, joins the scheduler (which takes the final snapshot),
/// then lets the persistence thread publish it and joins that too.
class Server {
 public:
  Server(IndexBase* index, const Column& column, ServerConfig config = {});
  ~Server();

  Server(const Server&) = delete;
  Server& operator=(const Server&) = delete;

  /// Blocking submit: backpressure-blocks when the queue is full,
  /// degrades on deadline expiry or admission fault. A query always
  /// returns an exact answer; an update that cannot ride an epoch is
  /// rejected (Response::rejected), never half-applied. RangeQuery
  /// converts implicitly, so query call sites are unchanged.
  Response Submit(const ServeRequest& req);

  /// Non-blocking submit: kOverloaded when the queue is full (the
  /// overload-shedding path — no answer is produced), kOk otherwise
  /// with *out filled.
  SubmitStatus TrySubmit(const ServeRequest& req, Response* out);

  /// Submit with a global admission ticket (0, 1, 2, ... each presented
  /// exactly once across all threads): admission order — and with
  /// exact_batches the entire epoch schedule — is then independent of
  /// thread interleaving. Ignores deadlines and the read-epoch path.
  ///
  /// Blocks until the answer is ready, so with exact_batches there
  /// must be at least batch_size concurrently submitting threads to
  /// fill an epoch; use the two-phase form below otherwise.
  Response SubmitOrdered(uint64_t ticket, const ServeRequest& req);

  /// Two-phase ordered submit, for harnesses where one thread keeps
  /// many tickets in flight (the epoch-determinism test): Start blocks
  /// only for the ticket's turn and queue space — not for the answer —
  /// and Finish waits for the epoch and resolves degradation. The
  /// caller owns the slot and must keep it alive, untouched, between
  /// the two calls; every Start must be paired with exactly one
  /// Finish.
  void SubmitOrderedStart(uint64_t ticket, const ServeRequest& req,
                          ServeSlot* slot);
  Response SubmitOrderedFinish(ServeSlot* slot);

  ServeStats stats() const;

  /// Prometheus-style text snapshot (docs/observability.md): this
  /// server's lifecycle counters and derived gauges (q/s, convergence
  /// fraction, snapshot age) followed by the process-wide obs registry
  /// exposition (latency/epoch-size/residual histograms, WAL bytes,
  /// pool counters). The convergence gauges read the index directly,
  /// so call it while no write epoch can be mutating the index — i.e.
  /// from the submitting side only when submits are quiesced (the
  /// destructor's PROGIDX_METRICS dump runs after the scheduler has
  /// joined). `tools/metrics_dump` demonstrates the format.
  std::string DumpMetrics() const;

  /// Operations executed by write epochs, in admission order, and the
  /// epoch boundaries over that log. Replaying this log through
  /// serve::ExecuteEpoch in epoch_sizes() chunks reproduces the served
  /// index state bit-for-bit. Snapshot is only meaningful while no
  /// submits are in flight.
  std::vector<ServeRequest> admitted_log() const;
  std::vector<size_t> epoch_sizes() const;

  const ServerConfig& config() const { return config_; }

 private:
  void SchedulerLoop();
  /// Scheduler side of a checkpoint, run after an epoch's clients are
  /// woken (`shutdown`: once the queue has drained): when one is due,
  /// waits for the previous publication, serializes the index and
  /// hands the snapshot to the persistence thread.
  void Checkpoint(bool shutdown);
  /// Persistence thread: publishes each handed-off snapshot; returns
  /// once stopped with nothing pending.
  void PublisherLoop();
  Response Degrade(const ServeRequest& req);
  /// Read-epoch fast path; true when answered.
  bool TryReadEpoch(const RangeQuery& q, Response* out);
  /// Opens the WAL and checkpointer under config_.persist_dir;
  /// disables durability (with a warn-once) when the directory or its
  /// log is unusable.
  void SetUpDurability();

  IndexBase* const index_;
  /// Non-null iff index_ accepts updates (IndexBase::AsUpdatable).
  UpdatableIndex* const updatable_;
  const Column& column_;
  const ServerConfig config_;
  /// config_.enable_read_epochs, force-disabled for updatable indexes
  /// (see ServerConfig::enable_read_epochs).
  const bool read_epochs_enabled_;
  /// Fault seams fire only while a server is alive (common/fault.h).
  fault::ArmScope arm_;
  const uint64_t faults_at_start_;
  AdmissionQueue queue_;

  /// Set (release) by the scheduler when the index converges; clients
  /// load-acquire it before taking the lock-free read path.
  std::atomic<bool> read_mode_{false};

  std::atomic<uint64_t> submitted_{0};
  std::atomic<uint64_t> served_{0};
  std::atomic<uint64_t> degraded_{0};
  std::atomic<uint64_t> shed_{0};
  std::atomic<uint64_t> read_epoch_{0};
  std::atomic<uint64_t> write_epochs_{0};
  std::atomic<uint64_t> updates_applied_{0};
  std::atomic<uint64_t> updates_rejected_{0};

  /// Held by the scheduler around each epoch execution and by degraded
  /// clients scanning an updatable index: the base column is no longer
  /// immutable under updates (a finished merge swaps it), so the exact
  /// degraded scan must not race the single writer. Non-updatable
  /// serving never takes it — degraded scans there stay lock-free over
  /// the truly immutable column.
  std::mutex epoch_m_;

  mutable std::mutex log_m_;
  std::vector<ServeRequest> admitted_log_;
  std::vector<size_t> epoch_sizes_;

  /// Durability state (docs/recovery.md). Written by the scheduler
  /// thread only, after construction — except checkpointer_, whose
  /// Publish runs on the persistence thread, ordered after Serialize
  /// by the hand-off below; the atomics mirror the counters for stats()
  /// readers.
  bool persist_enabled_ = false;
  persist::WalWriter wal_;
  std::unique_ptr<persist::Checkpointer> checkpointer_;
  uint64_t wal_queries_ = 0;       ///< ops durably logged so far
  size_t epochs_since_ckpt_ = 0;
  /// Fingerprint of the machine constants index_ actually runs on
  /// (0 when it has no cost model); stamped into every snapshot so
  /// recovery can refuse to extend a snapshot under a different pin.
  uint64_t calibration_crc_ = 0;
  std::atomic<uint64_t> durable_queries_{0};
  std::atomic<uint64_t> checkpoints_{0};
  std::atomic<bool> wal_broken_{false};

  /// Telemetry-only timestamps (obs trace clock, ns): server start for
  /// uptime/qps, last published snapshot for the snapshot-age gauge
  /// (0 = none this run). Never consulted for execution decisions.
  uint64_t start_ns_ = 0;
  std::atomic<uint64_t> last_snapshot_ns_{0};

  /// Snapshot hand-off between the scheduler and the persistence
  /// thread: publish_pending_ is set when a serialized snapshot awaits
  /// Publish and cleared once it is published (or failed);
  /// publish_stop_ asks the thread to exit after draining.
  std::mutex publish_m_;
  std::condition_variable publish_cv_;
  bool publish_pending_ = false;
  bool publish_stop_ = false;

  std::thread scheduler_;
  /// Runs PublisherLoop; started only when checkpointer_ exists.
  std::thread publisher_;
};

}  // namespace serve
}  // namespace progidx

#endif  // PROGIDX_SERVE_SERVER_H_
