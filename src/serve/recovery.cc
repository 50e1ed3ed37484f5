#include "serve/recovery.h"

#include <vector>

#include "common/timer.h"
#include "obs/trace.h"
#include "persist/calibration_store.h"
#include "persist/checkpoint.h"
#include "persist/wal.h"
#include "serve/epoch.h"

namespace progidx {
namespace serve {
namespace {

/// True when `applied` lands exactly on an epoch boundary of the log;
/// `*start_epoch` receives the first epoch to replay.
bool FindReplayStart(const std::vector<persist::WalEpoch>& epochs,
                     uint64_t applied, size_t* start_epoch) {
  uint64_t covered = 0;
  for (size_t i = 0; i < epochs.size(); i++) {
    if (covered == applied) {
      *start_epoch = i;
      return true;
    }
    covered += epochs[i].ops.size();
  }
  if (covered == applied) {
    *start_epoch = epochs.size();
    return true;
  }
  return false;
}

}  // namespace

std::unique_ptr<IndexBase> RecoverIndex(
    const std::string& dir, const Column& column,
    const std::function<std::unique_ptr<IndexBase>(const MachineConstants&)>&
        make_fresh,
    RecoveryStats* stats) {
  RecoveryStats local;
  RecoveryStats& st = stats != nullptr ? *stats : local;
  st = RecoveryStats{};

  std::vector<persist::WalEpoch> epochs;
  {
    obs::TraceScope span("recovery.wal_read", "recovery");
    Timer t;
    if (!persist::ReadWal(dir + "/wal", &epochs, &st.log_tail_truncated)) {
      // Foreign or unreadable log: never replay it, never append to it
      // — the server will refuse durability on this directory too.
      st.log_unreadable = true;
      epochs.clear();
    }
    st.wal_read_ms = t.ElapsedSeconds() * 1e3;
  }
  st.log_epochs = epochs.size();
  for (const persist::WalEpoch& e : epochs) st.log_queries += e.ops.size();

  // Replay must run the budget arithmetic of the process that wrote
  // the log, not this process's own measurement — partition pause
  // points depend on the constants, so a fresh measurement would walk
  // a different trajectory over the very same queries, so this
  // process measures only when the directory has no valid pin yet. On
  // a foreign directory we don't publish anything; local measurement
  // is fine because nothing will be replayed or appended.
  MachineConstants constants;
  if (st.log_unreadable) {
    constants = GlobalMachineConstants();
  } else {
    persist::PinOrLoadCalibration(dir, GlobalMachineConstants, &constants,
                                  &st.calibration_pinned_now);
  }

  persist::Checkpointer ckpt(dir, column);
  std::unique_ptr<IndexBase> index = make_fresh(constants);
  const uint64_t pin_crc =
      index->machine_constants() != nullptr
          ? persist::CalibrationFingerprint(*index->machine_constants())
          : 0;
  size_t start_epoch = 0;
  if (index->SupportsPersistence() && !st.log_unreadable) {
    obs::TraceScope span("recovery.snapshot_load", "recovery");
    Timer snap_timer;
    const std::vector<uint64_t> seqs = ckpt.ListSnapshots();
    for (size_t i = seqs.size(); i-- > 0;) {
      std::unique_ptr<IndexBase> candidate = make_fresh(constants);
      persist::SnapshotMeta meta;
      size_t start = 0;
      // A snapshot covering log that does not exist (or a prefix off
      // an epoch boundary) is as unusable as a torn file: fall back.
      // So is one taken under machine constants other than the pinned
      // ones — e.g. after the pin itself was lost and re-created — as
      // extending it here would diverge from the lineage that wrote
      // it. calibration_crc 0 means the technique's trajectory doesn't
      // depend on constants at all; those snapshots are always safe.
      if (ckpt.TryLoad(seqs[i], candidate.get(), &meta) &&
          (meta.calibration_crc == 0 || meta.calibration_crc == pin_crc) &&
          FindReplayStart(epochs, meta.applied_queries, &start)) {
        index = std::move(candidate);
        start_epoch = start;
        st.snapshot_loaded = true;
        st.snapshot_seq = seqs[i];
        break;
      }
      st.snapshots_rejected++;
    }
    st.snapshot_load_ms = snap_timer.ElapsedSeconds() * 1e3;
  }

  // Replay the uncovered suffix in the recorded epoch sizes through
  // the same ExecuteEpoch the crashed scheduler ran (or durably
  // promised to run), so the state trajectory — query batches and
  // updates alike — is reproduced exactly.
  {
    obs::TraceScope span("recovery.replay", "recovery");
    Timer replay_timer;
    std::vector<QueryResult> sink;
    for (size_t i = start_epoch; i < epochs.size(); i++) {
      const std::vector<ServeRequest>& ops = epochs[i].ops;
      if (ops.empty()) continue;
      sink.resize(ops.size());
      ExecuteEpoch(index.get(), ops.data(), ops.size(), sink.data());
      st.replayed_queries += ops.size();
    }
    st.replay_ms = replay_timer.ElapsedSeconds() * 1e3;
  }
  return index;
}

}  // namespace serve
}  // namespace progidx
