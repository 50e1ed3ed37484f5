#ifndef PROGIDX_PERSIST_CHECKPOINT_H_
#define PROGIDX_PERSIST_CHECKPOINT_H_

#include <cstddef>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "core/index_base.h"
#include "persist/io.h"
#include "storage/column.h"

// Durable checkpoints of a served progressive index (docs/recovery.md).
//
// A checkpoint is one framed container file `snapshot-<seq>` holding a
// header (index name, column fingerprint, how much of the admitted log
// the snapshot covers) followed by the index's own SaveState payload.
// It is taken in two steps: Serialize reads the index and streams the
// payload to `snapshot-<seq>.tmp`; Publish only waits on the disk —
// fsync, rename, directory fsync (persist::Writer::Publish), prune —
// so the serving layer runs it off the epoch scheduler. Snapshots are
// validated end to end on load; recovery walks them newest-first and
// falls back — older snapshot, then cold start — whenever validation
// fails, so a torn or bit-flipped file costs replay time, never
// correctness.

namespace progidx {
namespace persist {

/// How much of the admitted log a snapshot covers. Replay resumes at
/// query `applied_queries` of the durable log.
struct SnapshotMeta {
  uint64_t applied_queries = 0;  ///< admitted-log records already applied
  uint64_t epochs = 0;           ///< write epochs executed so far
  /// CalibrationFingerprint of the machine constants the index ran on,
  /// or 0 when its trajectory does not depend on measured constants
  /// (techniques without a cost model). Recovery only replays on top of
  /// a snapshot whose fingerprint matches the directory's pinned
  /// calibration (persist/calibration_store.h) — extending a snapshot
  /// under different constants would pause refinement at different
  /// cursors than the crashed server did.
  uint64_t calibration_crc = 0;
};

/// Writes and recovers `snapshot-<seq>` files in one directory, for one
/// index over one column. At most one snapshot is in flight: each
/// Serialize is followed by one Publish before the next Serialize.
/// The two may run on different threads (the server serializes on its
/// epoch scheduler and publishes on its persistence thread) only when
/// the caller orders every call after the one before it
/// (happens-before); the class itself takes no lock.
class Checkpointer {
 public:
  /// `dir` must exist. Scans it for existing snapshots so the next
  /// Save continues the sequence.
  Checkpointer(std::string dir, const Column& column);

  /// Step 1, on the thread that owns `index` (the only step that reads
  /// it): streams the header and index.SaveState to the next
  /// snapshot's temp file, last frame included, starting each frame's
  /// writeback as it lands. Returns false — nothing is then pending —
  /// when the index has no SaveState or the temp file could not be
  /// written.
  bool Serialize(const IndexBase& index, const SnapshotMeta& meta);

  /// Step 2: publishes the pending snapshot atomically and prunes all
  /// but the newest two (the previous one stays as the fallback).
  /// Returns false when nothing was pending or publication failed (IO
  /// error or armed crash fault); the previous snapshot is untouched
  /// either way.
  bool Publish();

  /// Both steps on the calling thread: Serialize(index, meta) &&
  /// Publish().
  bool Save(const IndexBase& index, const SnapshotMeta& meta);

  /// Loads snapshot `seq` into `index` after full validation: container
  /// CRCs, index name, column size + CRC fingerprint, the index's own
  /// LoadState checks, and complete payload consumption. Returns false
  /// on any failure — `index` must then be discarded by the caller (its
  /// partial state is unspecified); recovery (serve/recovery.h)
  /// constructs a fresh instance per attempt and walks ListSnapshots()
  /// newest-first.
  bool TryLoad(uint64_t seq, IndexBase* index, SnapshotMeta* meta) const;

  /// Bytes of the last successfully published snapshot file.
  size_t last_snapshot_bytes() const { return last_snapshot_bytes_; }

  /// Existing snapshot sequence numbers in `dir`, ascending.
  std::vector<uint64_t> ListSnapshots() const;

 private:
  std::string PathForSeq(uint64_t seq) const;

  std::string dir_;
  const Column& column_;
  uint32_t column_crc_ = 0;
  uint64_t next_seq_ = 1;
  size_t last_snapshot_bytes_ = 0;
  /// The serialized snapshot awaiting Publish (its temp file open,
  /// its frames written), or null.
  std::unique_ptr<Writer> pending_;
};

}  // namespace persist
}  // namespace progidx

#endif  // PROGIDX_PERSIST_CHECKPOINT_H_
