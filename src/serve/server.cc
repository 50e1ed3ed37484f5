#include "serve/server.h"

#include <sys/stat.h>

#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>

#include "common/env.h"
#include "common/validate.h"
#include "core/updatable_index.h"
#include "exec/query_batch.h"
#include "exec/zero_budget_scan.h"
#include "obs/telemetry.h"
#include "obs/trace.h"
#include "persist/calibration_store.h"
#include "persist/wal.h"
#include "serve/epoch.h"

namespace progidx {
namespace serve {

namespace {

// Process-global serve histograms (docs/observability.md). The
// per-server lifecycle counts stay in the Server's own atomics (they
// are per-instance state surfaced by stats()/DumpMetrics); the
// registry carries the distributions, which want the lock-free
// sharded recording path because clients write them concurrently.
const obs::Histogram& SubmitLatencyHist() {
  static const obs::Histogram h("serve.submit_latency_ns");
  return h;
}
const obs::Histogram& QueueWaitHist() {
  static const obs::Histogram h("serve.queue_wait_ns");
  return h;
}
const obs::Histogram& EpochSizeHist() {
  static const obs::Histogram h("serve.epoch_size");
  return h;
}

std::chrono::steady_clock::time_point DeadlineFor(uint64_t deadline_us) {
  if (deadline_us == ServerConfig::kNoDeadline) {
    return std::chrono::steady_clock::time_point::max();
  }
  // deadline_us == 0 yields an already-expired deadline: admission
  // still succeeds when there is space, but the query degrades to the
  // exact zero-budget scan at epoch formation.
  return std::chrono::steady_clock::now() +
         std::chrono::microseconds(deadline_us);
}

}  // namespace

ServerConfig ServerConfig::FromEnv() {
  ServerConfig cfg;
  // SIZE_MAX doubles as the "unset" sentinel: an explicit 0 means an
  // immediately-expiring deadline, absence means no deadline at all.
  const size_t us = env::BoundedSizeFromEnv(
      "PROGIDX_DEADLINE_US", 0, static_cast<size_t>(1) << 40, SIZE_MAX,
      "per-query deadline in microseconds", "no deadline");
  cfg.deadline_us = us == SIZE_MAX ? kNoDeadline : static_cast<uint64_t>(us);
  const char* dir = env::Get("PROGIDX_PERSIST_DIR");
  if (dir != nullptr && dir[0] != '\0') cfg.persist_dir = dir;
  cfg.checkpoint_every = env::BoundedSizeFromEnv(
      "PROGIDX_CHECKPOINT_EVERY", 1, static_cast<size_t>(1) << 20, 8,
      "write epochs between snapshots", nullptr);
  return cfg;
}

Server::Server(IndexBase* index, const Column& column, ServerConfig config)
    : index_(index),
      updatable_(index == nullptr ? nullptr : index->AsUpdatable()),
      column_(column),
      config_(config),
      read_epochs_enabled_(config.enable_read_epochs && updatable_ == nullptr),
      faults_at_start_(fault::InjectedCount()),
      queue_(config.queue_capacity == 0 ? 1 : config.queue_capacity) {
  CheckArg(index != nullptr, "serve: index must not be null");
  CheckArg(config.queue_capacity > 0, "serve: queue capacity must be > 0");
  CheckArg(config.batch_size > 0, "serve: batch size must be > 0");
  CheckArg(config.batch_size <= exec::kMaxBatchSize,
           "serve: batch size exceeds exec::kMaxBatchSize (" +
               std::to_string(exec::kMaxBatchSize) + ")");
  CheckArg(column.empty() || config.batch_size <= column.size(),
           "serve: batch size exceeds column size");
  CheckArg(!config.exact_batches || config.batch_size <= config.queue_capacity,
           "serve: exact batches need batch size <= queue capacity");
  CheckArg(config.persist_dir.empty() || config.checkpoint_every > 0,
           "serve: checkpoint interval must be > 0");
  start_ns_ = obs::TraceNowNs();
  if (!config_.persist_dir.empty()) SetUpDurability();
  if (checkpointer_ != nullptr) {
    publisher_ = std::thread([this] { PublisherLoop(); });
  }
  scheduler_ = std::thread([this] { SchedulerLoop(); });
}

void Server::SetUpDurability() {
  const std::string& dir = config_.persist_dir;
  ::mkdir(dir.c_str(), 0777);  // EEXIST is the common case
  // Re-validate the log even though recovery normally ran first: a
  // foreign file must never be appended to, and a torn tail (crash
  // without a recovery pass) must be dropped before the next record.
  std::vector<persist::WalEpoch> epochs;
  bool torn = false;
  if (!persist::ReadWal(dir + "/wal", &epochs, &torn) ||
      !wal_.Open(dir + "/wal")) {
    if (env::WarnOnce("serve-persist-dir")) {
      std::fprintf(stderr,
                   "progidx: PROGIDX_PERSIST_DIR %s unusable; serving "
                   "without durability\n",
                   dir.c_str());
    }
    return;
  }
  for (const persist::WalEpoch& e : epochs) wal_queries_ += e.ops.size();
  durable_queries_.store(wal_queries_, std::memory_order_relaxed);
  if (index_->SupportsPersistence()) {
    checkpointer_ = std::make_unique<persist::Checkpointer>(dir, column_);
  }
  // Publish this directory's calibration pin if it has none yet
  // (first server wins), and stamp snapshots with the fingerprint of
  // the constants index_ *actually* runs on. In the intended flow the
  // caller built index_ from the pin (serve::RecoverIndex), so the two
  // match; if a caller bypassed that, the mismatch makes recovery
  // reject this server's snapshots rather than extend them under a
  // different trajectory.
  if (const MachineConstants* mc = index_->machine_constants()) {
    MachineConstants pinned;
    persist::PinOrLoadCalibration(dir, [mc] { return *mc; }, &pinned);
    calibration_crc_ = persist::CalibrationFingerprint(*mc);
  }
  persist_enabled_ = true;
}

Server::~Server() {
  queue_.Close();
  if (scheduler_.joinable()) scheduler_.join();
  // The scheduler has handed off its last snapshot; the persistence
  // thread publishes it before exiting, so the directory is complete
  // (and the metrics below final) once the server is gone.
  if (publisher_.joinable()) {
    {
      std::lock_guard<std::mutex> lk(publish_m_);
      publish_stop_ = true;
    }
    publish_cv_.notify_all();
    publisher_.join();
  }
  if (const char* path = obs::MetricsDumpPathFromEnv()) {
    const std::string dump = DumpMetrics();
    if (std::strcmp(path, "-") == 0) {
      std::fputs(dump.c_str(), stderr);
    } else if (std::FILE* f = std::fopen(path, "w")) {
      std::fputs(dump.c_str(), f);
      std::fclose(f);
    } else if (env::WarnOnce("serve-metrics-path")) {
      std::fprintf(stderr, "progidx: cannot write PROGIDX_METRICS file %s\n",
                   path);
    }
  }
}

Response Server::Degrade(const ServeRequest& req) {
  degraded_.fetch_add(1, std::memory_order_relaxed);
  if (req.is_update()) {
    // An update that missed its epoch (deadline, admission fault,
    // shutdown) is rejected outright — there is no exact "degraded
    // write"; the caller learns it was never applied.
    updates_rejected_.fetch_add(1, std::memory_order_relaxed);
    Response resp;
    resp.degraded = true;
    resp.rejected = true;
    return resp;
  }
  if (updatable_ != nullptr) {
    // Under updates the base column is no longer immutable (merges
    // swap it) and a plain column scan would miss the delta, so the
    // exact degraded answer takes the epoch lock and scans base +
    // delta through the index's read-only path.
    std::lock_guard<std::mutex> lk(epoch_m_);
    return Response{updatable_->ReadOnlyScan(req.query), true};
  }
  return Response{exec::ZeroBudgetScan(column_, req.query), true};
}

bool Server::TryReadEpoch(const RangeQuery& q, Response* out) {
  if (!read_epochs_enabled_) return false;
  if (!read_mode_.load(std::memory_order_acquire)) return false;
  QueryResult r;
  if (!index_->TryReadOnlyQuery(q, &r)) return false;
  read_epoch_.fetch_add(1, std::memory_order_relaxed);
  *out = Response{r, false};
  return true;
}

Response Server::Submit(const ServeRequest& req) {
  obs::TraceScope submit_span("submit", "serve");
  obs::QueryTimer qt;
  submitted_.fetch_add(1, std::memory_order_relaxed);
  Response resp;
  if (req.is_query() && TryReadEpoch(req.query, &resp)) return resp;
  ServeSlot slot;
  slot.request = req;
  slot.deadline = DeadlineFor(config_.deadline_us);
  AdmitResult admit;
  {
    obs::TraceScope admit_span("admit", "serve");
    admit = queue_.Admit(&slot);
  }
  switch (admit) {
    case AdmitResult::kAdmitted:
      break;
    case AdmitResult::kOverloaded:  // admission fault refused the op
    case AdmitResult::kExpired:     // deadline passed waiting for space
    case AdmitResult::kClosed:      // shutdown race: still resolve exactly
      return Degrade(req);
  }
  return AwaitAdmitted(&slot, qt);
}

SubmitStatus Server::TrySubmit(const ServeRequest& req, Response* out) {
  obs::TraceScope submit_span("submit", "serve");
  obs::QueryTimer qt;
  submitted_.fetch_add(1, std::memory_order_relaxed);
  if (req.is_query() && TryReadEpoch(req.query, out)) return SubmitStatus::kOk;
  ServeSlot slot;
  slot.request = req;
  slot.deadline = DeadlineFor(config_.deadline_us);
  switch (queue_.TryAdmit(&slot)) {
    case AdmitResult::kAdmitted:
      break;
    case AdmitResult::kOverloaded:
    case AdmitResult::kExpired:
      shed_.fetch_add(1, std::memory_order_relaxed);
      return SubmitStatus::kOverloaded;
    case AdmitResult::kClosed:
      return SubmitStatus::kShutdown;
  }
  *out = AwaitAdmitted(&slot, qt);
  return SubmitStatus::kOk;
}

Response Server::AwaitAdmitted(ServeSlot* slot, const obs::QueryTimer& qt) {
  ServeSlot::State state;
  {
    obs::TraceScope wait_span("queue_wait", "serve");
    const uint64_t wait_start = qt.armed() ? obs::TraceNowNs() : 0;
    state = slot->Wait();
    if (qt.armed()) QueueWaitHist().Record(obs::TraceNowNs() - wait_start);
  }
  if (qt.armed()) SubmitLatencyHist().Record(qt.ElapsedNs());
  if (state == ServeSlot::State::kServed) {
    served_.fetch_add(1, std::memory_order_relaxed);
    return Response{slot->result, false};
  }
  return Degrade(slot->request);  // deadline expired at epoch formation
}

Response Server::SubmitOrdered(uint64_t ticket, const ServeRequest& req) {
  ServeSlot slot;
  SubmitOrderedStart(ticket, req, &slot);
  return SubmitOrderedFinish(&slot);
}

void Server::SubmitOrderedStart(uint64_t ticket, const ServeRequest& req,
                                ServeSlot* slot) {
  submitted_.fetch_add(1, std::memory_order_relaxed);
  slot->request = req;  // no deadline: ordered mode is the determinism harness
  switch (queue_.AdmitOrdered(ticket, slot)) {
    case AdmitResult::kAdmitted:
      return;
    case AdmitResult::kOverloaded:
    case AdmitResult::kExpired:
    case AdmitResult::kClosed:
      // Refused before admission (fault or shutdown): resolve the slot
      // now so Finish degrades without waiting on an epoch that will
      // never see it.
      slot->Complete(ServeSlot::State::kDegraded, QueryResult{});
      return;
  }
}

Response Server::SubmitOrderedFinish(ServeSlot* slot) {
  ServeSlot::State state;
  {
    obs::TraceScope wait_span("queue_wait", "serve");
    obs::QueryTimer qt;
    state = slot->Wait();
    if (qt.armed()) QueueWaitHist().Record(qt.ElapsedNs());
  }
  if (state == ServeSlot::State::kServed) {
    served_.fetch_add(1, std::memory_order_relaxed);
    return Response{slot->result, false};
  }
  return Degrade(slot->request);
}

void Server::SchedulerLoop() {
  std::vector<ServeSlot*> batch;
  std::vector<ServeSlot*> live;
  std::vector<ServeRequest> reqs;
  std::vector<QueryResult> rs;
  batch.reserve(config_.batch_size);
  for (;;) {
    size_t popped;
    {
      obs::TraceScope form_span("epoch_formation", "serve");
      popped =
          queue_.PopBatch(&batch, config_.batch_size, config_.exact_batches);
    }
    if (popped == 0) {
      // Closed and drained: one last snapshot so a clean shutdown
      // recovers without replay.
      Checkpoint(/*shutdown=*/true);
      return;
    }
    // Under kWorkerStall the scheduler itself occasionally stalls
    // before an epoch — the serving layer must absorb it as latency,
    // never as a wrong answer.
    fault::MaybeStall(fault::Site::kScheduler);
    const auto now = std::chrono::steady_clock::now();
    live.clear();
    reqs.clear();
    for (ServeSlot* slot : batch) {
      if (slot->deadline < now) {
        // Expired while queued: hand it back — a query answers itself
        // with an exact scan, an update is rejected — instead of
        // charging the epoch for it.
        slot->Complete(ServeSlot::State::kDegraded, QueryResult{});
        continue;
      }
      live.push_back(slot);
      reqs.push_back(slot->request);
    }
    if (!reqs.empty()) {
      if (persist_enabled_ && !wal_.broken()) {
        // Write-ahead: the epoch is durably promised before it
        // executes, so the index state is always ≤ one epoch ahead of
        // nothing — a pure function of the durable log. A failed
        // append freezes the log (and checkpointing) at its valid
        // prefix; serving continues undegraded.
        if (wal_.AppendEpoch(wal_queries_, reqs.data(), reqs.size())) {
          wal_queries_ += reqs.size();
          durable_queries_.store(wal_queries_, std::memory_order_relaxed);
        } else {
          wal_broken_.store(true, std::memory_order_relaxed);
        }
      }
      rs.resize(reqs.size());
      {
        // The epoch lock excludes only degraded base+delta scans (see
        // epoch_m_); queued clients are parked on their slots.
        std::lock_guard<std::mutex> lk(epoch_m_);
        ExecuteEpoch(index_, reqs.data(), reqs.size(), rs.data());
      }
      write_epochs_.fetch_add(1, std::memory_order_relaxed);
      EpochSizeHist().Record(reqs.size());
      uint64_t epoch_updates = 0;
      for (const ServeRequest& r : reqs) {
        if (r.is_update()) epoch_updates++;
      }
      if (epoch_updates > 0) {
        updates_applied_.fetch_add(epoch_updates, std::memory_order_relaxed);
      }
      {
        std::lock_guard<std::mutex> lk(log_m_);
        admitted_log_.insert(admitted_log_.end(), reqs.begin(), reqs.end());
        epoch_sizes_.push_back(reqs.size());
      }
      // Publish read mode *before* waking this epoch's clients: a
      // client whose submit has returned is then guaranteed to see the
      // converged index on its next query and go lock-free.
      if (read_epochs_enabled_ && index_->converged()) {
        read_mode_.store(true, std::memory_order_release);
      }
      {
        obs::TraceScope complete_span("complete", "serve");
        for (size_t i = 0; i < live.size(); ++i) {
          live[i]->Complete(ServeSlot::State::kServed, rs[i]);
        }
      }
      Checkpoint(/*shutdown=*/false);
    }
  }
}

void Server::Checkpoint(bool shutdown) {
  // Only while the WAL is healthy — a snapshot must never cover
  // queries the durable log lost.
  if (!persist_enabled_ || wal_.broken() || checkpointer_ == nullptr) return;
  if (shutdown ? epochs_since_ckpt_ == 0
               : ++epochs_since_ckpt_ < config_.checkpoint_every) {
    return;
  }
  epochs_since_ckpt_ = 0;
  // Taken after the epoch's clients were woken, but the next epoch
  // waits here: serialization reads the index it would mutate. The
  // disk-bound rest runs on the persistence thread.
  obs::TraceScope span("checkpoint", "persist");
  {
    std::unique_lock<std::mutex> lk(publish_m_);
    publish_cv_.wait(lk, [this] { return !publish_pending_; });
  }
  // The meta covers only ops already durably logged: each epoch's WAL
  // append precedes its execution.
  persist::SnapshotMeta meta;
  meta.applied_queries = wal_queries_;
  meta.epochs = write_epochs_.load(std::memory_order_relaxed);
  meta.calibration_crc = calibration_crc_;
  if (!checkpointer_->Serialize(*index_, meta)) return;
  checkpoints_.fetch_add(1, std::memory_order_relaxed);
  {
    std::lock_guard<std::mutex> lk(publish_m_);
    publish_pending_ = true;
  }
  publish_cv_.notify_all();
}

void Server::PublisherLoop() {
  std::unique_lock<std::mutex> lk(publish_m_);
  for (;;) {
    publish_cv_.wait(lk, [this] { return publish_pending_ || publish_stop_; });
    if (!publish_pending_) return;  // stopped, nothing left to publish
    lk.unlock();
    if (checkpointer_->Publish()) {
      last_snapshot_ns_.store(obs::TraceNowNs(), std::memory_order_relaxed);
    }
    lk.lock();
    publish_pending_ = false;
    publish_cv_.notify_all();
  }
}

ServeStats Server::stats() const {
  ServeStats s;
  s.submitted = submitted_.load(std::memory_order_relaxed);
  s.served = served_.load(std::memory_order_relaxed);
  s.degraded = degraded_.load(std::memory_order_relaxed);
  s.shed = shed_.load(std::memory_order_relaxed);
  s.read_epoch = read_epoch_.load(std::memory_order_relaxed);
  s.write_epochs = write_epochs_.load(std::memory_order_relaxed);
  s.faults_injected = fault::InjectedCount() - faults_at_start_;
  s.updates_applied = updates_applied_.load(std::memory_order_relaxed);
  s.updates_rejected = updates_rejected_.load(std::memory_order_relaxed);
  s.durable_queries = durable_queries_.load(std::memory_order_relaxed);
  s.checkpoints = checkpoints_.load(std::memory_order_relaxed);
  s.wal_broken = wal_broken_.load(std::memory_order_relaxed);
  return s;
}

std::string Server::DumpMetrics() const {
  std::string out;
  char buf[160];
  auto line = [&](const char* name, double v) {
    if (v == static_cast<double>(static_cast<int64_t>(v))) {
      std::snprintf(buf, sizeof(buf), "progidx_%s %lld\n", name,
                    static_cast<long long>(v));
    } else {
      std::snprintf(buf, sizeof(buf), "progidx_%s %.6g\n", name, v);
    }
    out.append(buf);
  };
  const ServeStats s = stats();
  const uint64_t now_ns = obs::TraceNowNs();
  const double uptime =
      static_cast<double>(now_ns - start_ns_) * 1e-9;
  const double answered =
      static_cast<double>(s.served + s.degraded + s.read_epoch);
  line("serve_uptime_seconds", uptime);
  line("serve_qps", uptime > 0 ? answered / uptime : 0);
  line("serve_submitted", static_cast<double>(s.submitted));
  line("serve_served", static_cast<double>(s.served));
  line("serve_degraded", static_cast<double>(s.degraded));
  line("serve_shed", static_cast<double>(s.shed));
  line("serve_read_epoch", static_cast<double>(s.read_epoch));
  line("serve_write_epochs", static_cast<double>(s.write_epochs));
  line("serve_faults_injected", static_cast<double>(s.faults_injected));
  line("serve_updates_applied", static_cast<double>(s.updates_applied));
  line("serve_updates_rejected", static_cast<double>(s.updates_rejected));
  line("serve_durable_queries", static_cast<double>(s.durable_queries));
  line("serve_checkpoints", static_cast<double>(s.checkpoints));
  line("serve_wal_broken", s.wal_broken ? 1 : 0);
  line("index_converged", index_->converged() ? 1 : 0);
  line("index_convergence_fraction", index_->ConvergenceFraction());
  const uint64_t snap_ns = last_snapshot_ns_.load(std::memory_order_relaxed);
  line("snapshot_age_seconds",
       snap_ns == 0 ? -1.0 : static_cast<double>(now_ns - snap_ns) * 1e-9);
  obs::Registry::Global().TextExposition(&out);
  return out;
}

std::vector<ServeRequest> Server::admitted_log() const {
  std::lock_guard<std::mutex> lk(log_m_);
  return admitted_log_;
}

std::vector<size_t> Server::epoch_sizes() const {
  std::lock_guard<std::mutex> lk(log_m_);
  return epoch_sizes_;
}

}  // namespace serve
}  // namespace progidx
