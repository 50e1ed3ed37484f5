#ifndef PROGIDX_PERSIST_IO_H_
#define PROGIDX_PERSIST_IO_H_

#include <cstddef>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "common/types.h"

// Serialization substrate of the durability layer (docs/recovery.md).
//
// A snapshot is a flat byte payload produced through Writer and
// published to disk in a CRC32-framed container:
//
//   magic "PIDXSNP1" (8 bytes)
//   frame*          u32 length (<= 1 MiB) | u32 crc32(chunk) | chunk
//   terminator      u32 0 | u32 crc32(whole payload)
//
// Every frame but the last carries exactly kMaxFrame bytes, so the
// file is a pure function of the payload, however it was written. A
// streaming Writer hands each frame to the temp file as soon as it
// fills — a checkpoint never holds more than one frame of payload in
// memory — and both writer and Reader derive the terminator's
// whole-payload CRC from the frame CRCs (Crc32Combine), so each
// payload byte is checksummed exactly once per write and once per
// read.
//
// Publication is crash-atomic: the container is written to
// `<path>.tmp`, fsync'd, renamed over `path`, and the parent directory
// fsync'd — a reader never observes a half-written file under POSIX
// rename semantics. Each frame's writeback is started as soon as the
// frame reaches the temp file (sync_file_range on Linux), so the fsync
// mostly waits on writes already in flight rather than on the whole
// file at once; the fsync alone stays the durability point. Torn
// writes (missing terminator, short tail frame) and bit flips (frame
// or payload CRC mismatch) are detected by Reader and reported as
// !ok(), never as silently wrong bytes.
//
// Layering: core/ index classes include this header for their
// SaveState/LoadState implementations, so the persist IO layer depends
// on nothing above common/ — except one edge down to kernels/, whose
// dispatched crc32 kernel checksums every frame.
//
// Crash-fault seams (common/fault.h) live in Writer::Publish:
// `fsync_fail` aborts before the data reaches disk, `crash_pre_rename`
// leaves only the temp file (a crash between write and publish), and
// `snapshot_torn` truncates the published file (lost tail pages after
// a crash that beat the rename to disk but not the data).

namespace progidx {
namespace persist {

/// Payload bytes per container frame (the last frame may be shorter).
/// The cap also means a corrupt length field can never drive a large
/// allocation before the CRC check rejects the file.
constexpr size_t kMaxFrame = size_t{1} << 20;

/// CRC-32 (IEEE 802.3, reflected poly 0xEDB88320) through the
/// dispatched kernel. `seed` chains incremental computation: pass the
/// previous return value.
uint32_t Crc32(const void* data, size_t n, uint32_t seed = 0);

/// CRC-32 of A‖B from crc_a = Crc32(A), crc_b = Crc32(B) and len_b =
/// |B|, without touching the bytes: crc_a is shifted over len_b zero
/// bytes (a GF(2) multiply by x^(8·len_b) mod P) and xored with crc_b.
/// O(log len_b).
uint32_t Crc32Combine(uint32_t crc_a, uint32_t crc_b, size_t len_b);

/// Accumulates a serialization payload. Every field is written as a
/// fixed 8-byte little-endian unit (strings are padded to an 8-byte
/// boundary), so payload bytes — and therefore the state-equality
/// comparisons in the crash harness — are platform-stable, and value
/// runs are always 8-byte aligned for direct typed reads out of the
/// payload buffer.
///
/// Two modes, one container format: the default writer keeps the whole
/// payload in memory (state-equality comparisons, the crash harness,
/// the calibration pin); a writer constructed with a path streams it
/// (checkpoints).
class Writer {
 public:
  Writer();
  /// Streaming writer for `path`: opens `<path>.tmp` and writes each
  /// frame there as soon as it fills, holding at most one frame in
  /// memory. Publish(path) — the same path — completes the container;
  /// a writer destroyed unpublished removes the temp file.
  explicit Writer(std::string path);
  ~Writer();
  Writer(const Writer&) = delete;
  Writer& operator=(const Writer&) = delete;

  void WriteU32(uint32_t v) { WriteU64(v); }
  void WriteU64(uint64_t v) { WriteRaw(&v, sizeof(v)); }
  void WriteI64(int64_t v) { WriteRaw(&v, sizeof(v)); }
  void WriteBool(bool v) { WriteU64(v ? 1 : 0); }
  /// Bit pattern, not text: exact round trip of doubles.
  void WriteDouble(double v);
  void WriteString(const std::string& s);
  /// u64 count followed by the raw values.
  void WriteValues(const value_t* p, size_t n);
  void WriteValueVector(const std::vector<value_t>& v) {
    WriteValues(v.data(), v.size());
  }

  /// The raw payload accumulated so far (in-memory writers; a streaming
  /// writer holds only its open frame). State equality between two
  /// index instances is defined as equality of these bytes.
  const std::string& payload() const { return payload_; }

  /// Payload bytes written so far, streamed frames included.
  size_t size() const { return streamed_ + payload_.size(); }

  /// Streaming writers: writes the open frame — the last one, which
  /// may be short — to the temp file and frees the frame buffer, so
  /// until Publish the writer holds only the open file and the running
  /// CRC. Returns false when the temp file could not be opened or a
  /// frame could not be written (Publish would then fail too). Nothing
  /// may be written after it; Publish calls it when the caller has
  /// not. In-memory writers have no frames to finish: returns true.
  bool FinishFrames();

  /// Frames the payload and atomically publishes it at `path` (temp
  /// file + fsync + rename + directory fsync). Returns false when an
  /// IO error or an armed crash fault aborted publication; `path` then
  /// still holds its previous content (or is absent) — except under
  /// the `snapshot_torn` fault, which deliberately publishes a
  /// truncated file and returns true so recovery must catch it. An
  /// in-memory writer may publish repeatedly; a streaming writer
  /// publishes once, to the path it was constructed with, and may do
  /// so on another thread than the one that wrote the payload once
  /// FinishFrames has returned there (the caller orders the two).
  bool Publish(const std::string& path);

 private:
  class Stream;

  void WriteRaw(const void* p, size_t n);

  std::string payload_;
  std::unique_ptr<Stream> stream_;  ///< null for in-memory writers
  size_t streamed_ = 0;             ///< payload bytes already framed out
};

/// Sequential reader over a validated payload. Construction via
/// FromFile performs the full container validation up front (magic,
/// every frame CRC, terminator, whole-payload CRC) in one pass over the
/// file, into a buffer no larger than the file; any torn, truncated,
/// or bit-flipped file yields ok() == false and zero readable bytes.
/// Read past the payload end flips ok() to false and returns zeros, so
/// loaders can read optimistically and check ok() once at the end.
class Reader {
 public:
  /// Reads and validates a framed container from disk.
  static Reader FromFile(const std::string& path);
  /// Wraps an in-memory payload (no framing): the round-trip path used
  /// by tests and the crash harness.
  static Reader FromPayload(std::string payload);

  bool ok() const { return ok_; }

  uint32_t ReadU32() { return static_cast<uint32_t>(ReadU64()); }
  uint64_t ReadU64();
  int64_t ReadI64();
  bool ReadBool() { return ReadU64() != 0; }
  double ReadDouble();
  std::string ReadString();
  /// Reads the u64 count written by WriteValues and returns a pointer
  /// to the contiguous values inside the payload (valid while the
  /// Reader lives), or nullptr on corruption. `*n` receives the count.
  const value_t* ReadValueRun(size_t* n);
  bool ReadValueVector(std::vector<value_t>* out);

  /// True when the whole payload has been consumed — loaders assert
  /// this to catch format drift between Save and Load.
  bool AtEnd() const { return ok_ && pos_ == payload_.size(); }

 private:
  Reader() = default;
  bool ReadRaw(void* p, size_t n);

  std::string payload_;
  size_t pos_ = 0;
  bool ok_ = true;
};

}  // namespace persist
}  // namespace progidx

#endif  // PROGIDX_PERSIST_IO_H_
