#ifndef PROGIDX_PERSIST_WAL_H_
#define PROGIDX_PERSIST_WAL_H_

#include <cstdint>
#include <cstdio>
#include <string>
#include <vector>

#include "common/types.h"

// Durable admitted log (docs/recovery.md).
//
// The epoch scheduler appends one record per write epoch *before*
// executing it (write-ahead), so the served index state is always a
// pure function of this log: recovery replays the log suffix after the
// newest snapshot through serve::ExecuteEpoch in the recorded epoch
// sizes and lands on bit-identical state.
//
//   magic "PIDXWAL1" (8 bytes)
//   record*  u32 length | u32 crc32(body) | body
//   body  =  u64 first_ticket | u64 count | count × entry
//   entry =  u64 op | u64 a | u64 b          (24 bytes)
//            op 0 = query (a = low, b = high)
//            op 1 = append (a = value), op 2 = delete (a = value)
//
// A record is valid only when len == 16 + count·24 exactly; any other
// shape — including the retired 16-byte query-pair entries — is
// treated as a torn tail.
//
// A crash can tear only the last record (appends are sequential);
// ReadWal validates records front to back, keeps the valid prefix, and
// physically truncates a torn tail so the next append continues from a
// clean boundary.

namespace progidx {
namespace persist {

/// One write epoch as recorded in the log. `first_ticket` is the
/// admission sequence number of the epoch's first operation.
struct WalEpoch {
  uint64_t first_ticket = 0;
  std::vector<ServeRequest> ops;
};

/// Reads every valid record of the log at `path` into `out` and
/// truncates any torn tail in place. A missing file is an empty log.
/// Returns false only for an unrecoverable container (bad magic /
/// unreadable file); `*tail_truncated` reports whether a torn record
/// was dropped.
bool ReadWal(const std::string& path, std::vector<WalEpoch>* out,
             bool* tail_truncated);

/// Append-only writer. Each AppendEpoch is flushed and fsync'd before
/// returning; on the first failed append (IO error or armed crash
/// fault) the writer latches broken() and refuses further appends, so
/// nothing is ever written after a possibly-torn record — exactly the
/// shape a real crashed writer leaves behind.
class WalWriter {
 public:
  WalWriter() = default;
  ~WalWriter() { Close(); }

  WalWriter(const WalWriter&) = delete;
  WalWriter& operator=(const WalWriter&) = delete;

  /// Opens `path` for appending, writing the magic when the file is
  /// new or empty. The caller must have run ReadWal first so a torn
  /// tail is already truncated. Returns false on IO error.
  bool Open(const std::string& path);

  /// Appends one epoch record durably. Returns false (and latches
  /// broken()) when the record may not have reached disk intact.
  bool AppendEpoch(uint64_t first_ticket, const ServeRequest* ops,
                   size_t count);

  bool broken() const { return broken_; }
  void Close();

 private:
  std::FILE* f_ = nullptr;
  bool broken_ = false;
};

}  // namespace persist
}  // namespace progidx

#endif  // PROGIDX_PERSIST_WAL_H_
