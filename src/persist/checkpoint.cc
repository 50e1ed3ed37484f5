#include "persist/checkpoint.h"

#include <dirent.h>

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <cstring>

#include "obs/metrics.h"
#include "obs/trace.h"
#include "persist/io.h"

namespace progidx {
namespace persist {
namespace {

// Snapshot counters (docs/observability.md), exposed through
// Server::DumpMetrics as progidx_persist_snapshot_*.
const obs::Counter& SnapshotBytesCounter() {
  static const obs::Counter c("persist.snapshot_bytes");
  return c;
}
const obs::Counter& SnapshotsCounter() {
  static const obs::Counter c("persist.snapshots");
  return c;
}

constexpr char kSnapshotPrefix[] = "snapshot-";

/// Snapshots an index never re-reads are pruned down to this many.
constexpr size_t kKeepSnapshots = 2;

}  // namespace

Checkpointer::Checkpointer(std::string dir, const Column& column)
    : dir_(std::move(dir)), column_(column) {
  column_crc_ =
      Crc32(column_.data(), column_.size() * sizeof(value_t));
  const std::vector<uint64_t> seqs = ListSnapshots();
  if (!seqs.empty()) next_seq_ = seqs.back() + 1;
}

std::string Checkpointer::PathForSeq(uint64_t seq) const {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%s%010llu", kSnapshotPrefix,
                static_cast<unsigned long long>(seq));
  return dir_ + "/" + buf;
}

std::vector<uint64_t> Checkpointer::ListSnapshots() const {
  std::vector<uint64_t> seqs;
  DIR* d = ::opendir(dir_.c_str());
  if (d == nullptr) return seqs;
  const size_t prefix_len = std::strlen(kSnapshotPrefix);
  while (dirent* e = ::readdir(d)) {
    if (std::strncmp(e->d_name, kSnapshotPrefix, prefix_len) != 0) continue;
    char* end = nullptr;
    const unsigned long long seq = std::strtoull(e->d_name + prefix_len,
                                                 &end, 10);
    if (end == nullptr || *end != '\0' || seq == 0) continue;
    seqs.push_back(seq);
  }
  ::closedir(d);
  std::sort(seqs.begin(), seqs.end());
  return seqs;
}

bool Checkpointer::Serialize(const IndexBase& index,
                             const SnapshotMeta& meta) {
  if (!index.SupportsPersistence()) return false;
  // A snapshot serialized but never published is dropped (its writer
  // removes the temp file) before the next one reuses its sequence
  // number — and so its temp path.
  pending_.reset();
  // Streamed: frames reach the temp file while SaveState runs, so the
  // snapshot never exists as one in-memory payload.
  auto w = std::make_unique<Writer>(PathForSeq(next_seq_));
  w->WriteString(index.name());
  w->WriteU64(column_.size());
  w->WriteU32(column_crc_);
  w->WriteU64(meta.applied_queries);
  w->WriteU64(meta.epochs);
  w->WriteU64(meta.calibration_crc);
  index.SaveState(w.get());
  if (!w->FinishFrames()) return false;
  pending_ = std::move(w);
  return true;
}

bool Checkpointer::Publish() {
  if (pending_ == nullptr) return false;
  obs::TraceScope span("publish", "persist");
  const std::unique_ptr<Writer> w = std::move(pending_);
  if (!w->Publish(PathForSeq(next_seq_))) return false;
  next_seq_++;
  last_snapshot_bytes_ = w->size();
  SnapshotBytesCounter().Add(last_snapshot_bytes_);
  SnapshotsCounter().Add();
  // Prune: everything older than the newest kKeepSnapshots goes. The
  // fallback copy survives a torn newest snapshot (crash matrix in
  // docs/recovery.md).
  obs::TraceScope prune_span("snapshot_prune", "persist");
  const std::vector<uint64_t> seqs = ListSnapshots();
  if (seqs.size() > kKeepSnapshots) {
    for (size_t i = 0; i + kKeepSnapshots < seqs.size(); i++) {
      std::remove(PathForSeq(seqs[i]).c_str());
    }
  }
  return true;
}

bool Checkpointer::Save(const IndexBase& index, const SnapshotMeta& meta) {
  return Serialize(index, meta) && Publish();
}

bool Checkpointer::TryLoad(uint64_t seq, IndexBase* index,
                           SnapshotMeta* meta) const {
  Reader r = Reader::FromFile(PathForSeq(seq));
  const std::string name = r.ReadString();
  const uint64_t column_size = r.ReadU64();
  const uint32_t column_crc = r.ReadU32();
  SnapshotMeta m;
  m.applied_queries = r.ReadU64();
  m.epochs = r.ReadU64();
  m.calibration_crc = r.ReadU64();
  // The fingerprint binds a snapshot to exactly this index type over
  // exactly this base data: a snapshot from a different run must never
  // be replayed into a mismatched column.
  if (!r.ok() || name != index->name() || column_size != column_.size() ||
      column_crc != column_crc_ || !index->LoadState(&r) || !r.AtEnd()) {
    return false;
  }
  *meta = m;
  return true;
}

}  // namespace persist
}  // namespace progidx
