#include "persist/io.h"

#include <fcntl.h>
#include <sys/stat.h>
#include <unistd.h>

#include <algorithm>
#include <array>
#include <cstdio>
#include <cstring>

#include "common/fault.h"
#include "kernels/kernels.h"
#include "obs/metrics.h"

namespace progidx {
namespace persist {
namespace {

// Publication counters (docs/observability.md): bytes made durable
// through the crash-atomic temp+fsync+rename path, and how many
// publishes (≈ 2 fsyncs each: file + parent directory) happened.
const obs::Counter& PublishedBytesCounter() {
  static const obs::Counter c("persist.published_bytes");
  return c;
}
const obs::Counter& PublishesCounter() {
  static const obs::Counter c("persist.publishes");
  return c;
}

constexpr char kMagic[8] = {'P', 'I', 'D', 'X', 'S', 'N', 'P', '1'};

/// a·b mod P over GF(2), both in the reflected representation (bit 31
/// holds x^0).
constexpr uint32_t MultModP(uint32_t a, uint32_t b) {
  uint32_t product = 0;
  for (uint32_t m = 1u << 31; m != 0; m >>= 1) {
    if ((a & m) != 0) product ^= b;
    b = (b & 1) != 0 ? (b >> 1) ^ 0xEDB88320u : b >> 1;
  }
  return product;
}

/// kX8n[j] = x^(8·2^j) mod P: the shift over 2^j zero bytes, one entry
/// per bit of a size_t byte count.
constexpr std::array<uint32_t, 64> kX8n = [] {
  std::array<uint32_t, 64> t{};
  uint32_t p = 1u << 23;  // x^8
  for (uint32_t& e : t) {
    e = p;
    p = MultModP(p, p);
  }
  return t;
}();

/// Fsyncs the directory containing `path` so the rename itself is
/// durable, not just the file contents.
void FsyncParentDir(const std::string& path) {
  const size_t slash = path.find_last_of('/');
  const std::string dir = slash == std::string::npos ? "." : path.substr(0, slash);
  const int fd = ::open(dir.empty() ? "/" : dir.c_str(), O_RDONLY);
  if (fd < 0) return;
  ::fsync(fd);
  ::close(fd);
}

bool WriteAll(FILE* f, const void* p, size_t n) {
  return std::fwrite(p, 1, n, f) == n;
}

bool ReadAll(FILE* f, void* p, size_t n) {
  return std::fread(p, 1, n, f) == n;
}

}  // namespace

uint32_t Crc32(const void* data, size_t n, uint32_t seed) {
  return kernels::Crc32(data, n, seed);
}

uint32_t Crc32Combine(uint32_t crc_a, uint32_t crc_b, size_t len_b) {
  uint32_t shift = 1u << 31;  // x^0
  for (size_t j = 0; len_b != 0; len_b >>= 1, j++) {
    if ((len_b & 1) != 0) shift = MultModP(kX8n[j], shift);
  }
  return MultModP(shift, crc_a) ^ crc_b;
}

/// One container under construction at `<path>.tmp`: the magic on
/// open, one frame per Append, then Publish's terminator, fsync and
/// rename. The whole-payload CRC accumulates from the frame CRCs.
/// Destroyed unpublished, it removes the temp file.
class Writer::Stream {
 public:
  explicit Stream(std::string path)
      : path_(std::move(path)), tmp_(path_ + ".tmp") {
    f_ = std::fopen(tmp_.c_str(), "wb");
    ok_ = f_ != nullptr && WriteAll(f_, kMagic, sizeof(kMagic));
  }
  ~Stream() {
    if (f_ != nullptr) {
      std::fclose(f_);
      std::remove(tmp_.c_str());
    }
  }
  Stream(const Stream&) = delete;
  Stream& operator=(const Stream&) = delete;

  const std::string& path() const { return path_; }

  void Append(const char* chunk, size_t len) {
    if (!ok_) return;
    const uint32_t header[2] = {static_cast<uint32_t>(len),
                                Crc32(chunk, len)};
    ok_ = WriteAll(f_, header, sizeof(header)) && WriteAll(f_, chunk, len);
    total_crc_ = Crc32Combine(total_crc_, header[1], len);
  }

  /// Terminates, syncs and renames the container into place; see
  /// Writer::Publish for the contract. `payload_bytes` sizes the
  /// counters and the `snapshot_torn` truncation.
  bool Publish(size_t payload_bytes);

 private:
  std::string path_;
  std::string tmp_;
  FILE* f_ = nullptr;  ///< open until Publish; null afterwards
  bool ok_ = false;
  uint32_t total_crc_ = 0;  ///< Crc32 of the payload appended so far
};

bool Writer::Stream::Publish(size_t payload_bytes) {
  if (f_ == nullptr) return false;
  const uint32_t terminator[2] = {0, total_crc_};
  bool ok = ok_ && WriteAll(f_, terminator, sizeof(terminator)) &&
            std::fflush(f_) == 0;
  if (ok) {
    if (fault::Fires(fault::Mode::kFsyncFail, fault::Site::kPersistFsync)) {
      // Simulated fsync failure: the bytes may never reach disk, so
      // the publication must be abandoned, not renamed into place.
      ok = false;
    } else {
      ok = ::fsync(fileno(f_)) == 0;
    }
  }
  if (std::fclose(f_) != 0) ok = false;
  f_ = nullptr;
  ok_ = false;
  if (!ok) {
    std::remove(tmp_.c_str());
    return false;
  }

  if (fault::Fires(fault::Mode::kCrashPreRename, fault::Site::kPersistRename)) {
    // Simulated crash between the durable temp write and the publish
    // rename: the temp file is left behind exactly as a real crash
    // would leave it, and `path` keeps its previous content.
    return false;
  }
  if (std::rename(tmp_.c_str(), path_.c_str()) != 0) {
    std::remove(tmp_.c_str());
    return false;
  }
  FsyncParentDir(path_);
  PublishedBytesCounter().Add(payload_bytes);
  PublishesCounter().Add();

  if (fault::Fires(fault::Mode::kSnapshotTorn, fault::Site::kPersistTorn)) {
    // Simulated torn publish: the rename reached disk but the tail of
    // the data did not. Returns true — the writer believes it
    // succeeded — so recovery must detect the damage on its own.
    const off_t full =
        static_cast<off_t>(sizeof(kMagic) + payload_bytes + 16);
    ::truncate(path_.c_str(), full / 2);
  }
  return true;
}

Writer::Writer() = default;

Writer::Writer(std::string path)
    : stream_(std::make_unique<Stream>(std::move(path))) {
  payload_.reserve(kMaxFrame);
}

Writer::~Writer() = default;

void Writer::WriteRaw(const void* p, size_t n) {
  const char* src = static_cast<const char*>(p);
  if (stream_ == nullptr) {
    payload_.append(src, n);
    return;
  }
  while (n > 0) {
    const size_t take = std::min(n, kMaxFrame - payload_.size());
    payload_.append(src, take);
    src += take;
    n -= take;
    if (payload_.size() == kMaxFrame) {
      stream_->Append(payload_.data(), kMaxFrame);
      streamed_ += kMaxFrame;
      payload_.clear();
    }
  }
}

void Writer::WriteDouble(double v) {
  uint64_t bits;
  static_assert(sizeof(bits) == sizeof(v));
  std::memcpy(&bits, &v, sizeof(bits));
  WriteU64(bits);
}

void Writer::WriteString(const std::string& s) {
  WriteU64(s.size());
  WriteRaw(s.data(), s.size());
  // Pad to an 8-byte boundary so later value runs stay aligned.
  static const char kZeros[8] = {};
  WriteRaw(kZeros, (8 - s.size() % 8) % 8);
}

void Writer::WriteValues(const value_t* p, size_t n) {
  WriteU64(n);
  WriteRaw(p, n * sizeof(value_t));
}

bool Writer::Publish(const std::string& path) {
  if (stream_ == nullptr) {
    Stream stream(path);
    for (size_t off = 0; off < payload_.size(); off += kMaxFrame) {
      stream.Append(payload_.data() + off,
                    std::min(kMaxFrame, payload_.size() - off));
    }
    return stream.Publish(payload_.size());
  }
  if (path != stream_->path()) return false;
  if (!payload_.empty()) {
    // The open frame is the last one: it may be short.
    stream_->Append(payload_.data(), payload_.size());
    streamed_ += payload_.size();
    payload_.clear();
  }
  return stream_->Publish(streamed_);
}

Reader Reader::FromFile(const std::string& path) {
  Reader r;
  r.ok_ = false;
  FILE* f = std::fopen(path.c_str(), "rb");
  if (f == nullptr) return r;
  struct stat st {};
  char magic[sizeof(kMagic)] = {};
  if (::fstat(fileno(f), &st) == 0 && ReadAll(f, magic, sizeof(magic)) &&
      std::memcmp(magic, kMagic, sizeof(kMagic)) == 0) {
    // Frames are read straight into place. The payload is smaller than
    // the file holding it, so the file size bounds the buffer whatever
    // the length fields claim.
    r.payload_.resize(static_cast<size_t>(st.st_size));
    size_t filled = 0;
    uint32_t total_crc = 0;
    uint32_t header[2] = {};
    while (ReadAll(f, header, sizeof(header))) {
      const uint32_t len = header[0];
      if (len == 0) {
        // Terminator: whole-payload CRC, and nothing may follow it.
        r.ok_ = header[1] == total_crc && std::fgetc(f) == EOF &&
                std::ferror(f) == 0;
        break;
      }
      char* chunk = r.payload_.data() + filled;
      // Each frame is checksummed once, while it is still in cache;
      // the whole-payload CRC is combined from the frame CRCs.
      if (len > kMaxFrame || len > r.payload_.size() - filled ||
          !ReadAll(f, chunk, len) || Crc32(chunk, len) != header[1]) {
        break;
      }
      total_crc = Crc32Combine(total_crc, header[1], len);
      filled += len;
    }
    r.payload_.resize(filled);
  }
  std::fclose(f);
  if (!r.ok_) r.payload_ = std::string();
  return r;
}

Reader Reader::FromPayload(std::string payload) {
  Reader r;
  r.payload_ = std::move(payload);
  return r;
}

bool Reader::ReadRaw(void* p, size_t n) {
  if (!ok_ || pos_ + n > payload_.size()) {
    ok_ = false;
    std::memset(p, 0, n);
    return false;
  }
  std::memcpy(p, payload_.data() + pos_, n);
  pos_ += n;
  return true;
}

uint64_t Reader::ReadU64() {
  uint64_t v = 0;
  ReadRaw(&v, sizeof(v));
  return v;
}

int64_t Reader::ReadI64() {
  int64_t v = 0;
  ReadRaw(&v, sizeof(v));
  return v;
}

double Reader::ReadDouble() {
  const uint64_t bits = ReadU64();
  double v;
  std::memcpy(&v, &bits, sizeof(v));
  return v;
}

std::string Reader::ReadString() {
  const uint64_t n = ReadU64();
  const uint64_t padded = n + (8 - n % 8) % 8;
  if (!ok_ || n > payload_.size() || pos_ + padded > payload_.size()) {
    ok_ = false;
    return std::string();
  }
  std::string s(payload_.data() + pos_, n);
  pos_ += padded;
  return s;
}

const value_t* Reader::ReadValueRun(size_t* n) {
  *n = 0;
  const uint64_t count = ReadU64();
  // The count is untrusted: bound it by the bytes left before
  // multiplying, so a huge count cannot wrap the byte size.
  if (!ok_ || count > (payload_.size() - pos_) / sizeof(value_t)) {
    ok_ = false;
    return nullptr;
  }
  const value_t* p = reinterpret_cast<const value_t*>(payload_.data() + pos_);
  pos_ += static_cast<size_t>(count) * sizeof(value_t);
  *n = static_cast<size_t>(count);
  return p;
}

bool Reader::ReadValueVector(std::vector<value_t>* out) {
  size_t n = 0;
  const value_t* p = ReadValueRun(&n);
  if (p == nullptr) {
    out->clear();
    return false;
  }
  out->assign(p, p + n);
  return true;
}

}  // namespace persist
}  // namespace progidx
