#include "persist/wal.h"

#include <unistd.h>

#include <cstring>

#include "common/fault.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "persist/io.h"

namespace progidx {
namespace persist {
namespace {

// Durability counters (docs/observability.md): how many bytes the WAL
// has fsynced and how many appends it has served — the
// progidx_persist_wal_* lines of Server::DumpMetrics.
const obs::Counter& WalBytesCounter() {
  static const obs::Counter c("persist.wal_bytes");
  return c;
}
const obs::Counter& WalAppendsCounter() {
  static const obs::Counter c("persist.wal_appends");
  return c;
}

constexpr char kWalMagic[8] = {'P', 'I', 'D', 'X', 'W', 'A', 'L', '1'};

/// Upper bound on one record's body: matches the snapshot frame bound.
constexpr uint32_t kMaxRecord = 1u << 20;

void AppendU64(std::string* buf, uint64_t v) {
  buf->append(reinterpret_cast<const char*>(&v), sizeof(v));
}

void AppendU32(std::string* buf, uint32_t v) {
  buf->append(reinterpret_cast<const char*>(&v), sizeof(v));
}

uint64_t LoadU64(const char* p) {
  uint64_t v;
  std::memcpy(&v, p, sizeof(v));
  return v;
}

uint32_t LoadU32(const char* p) {
  uint32_t v;
  std::memcpy(&v, p, sizeof(v));
  return v;
}

}  // namespace

bool ReadWal(const std::string& path, std::vector<WalEpoch>* out,
             bool* tail_truncated) {
  out->clear();
  if (tail_truncated != nullptr) *tail_truncated = false;
  std::FILE* f = std::fopen(path.c_str(), "rb");
  if (f == nullptr) return true;  // no log yet
  std::string file;
  char buf[1 << 16];
  size_t got;
  while ((got = std::fread(buf, 1, sizeof(buf), f)) > 0) {
    file.append(buf, got);
  }
  std::fclose(f);
  if (file.empty()) return true;
  if (file.size() < sizeof(kWalMagic)) {
    // A crash tore even the magic: treat as an empty log.
    if (tail_truncated != nullptr) *tail_truncated = true;
    return ::truncate(path.c_str(), 0) == 0;
  }
  if (std::memcmp(file.data(), kWalMagic, sizeof(kWalMagic)) != 0) {
    return false;  // not our log — refuse to touch it
  }
  size_t pos = sizeof(kWalMagic);
  while (pos < file.size()) {
    if (file.size() - pos < 8) break;  // torn header
    const uint32_t len = LoadU32(file.data() + pos);
    const uint32_t crc = LoadU32(file.data() + pos + 4);
    if (len > kMaxRecord || len < 16 || file.size() - pos - 8 < len) break;
    const char* body = file.data() + pos + 8;
    if (Crc32(body, len) != crc) break;
    const uint64_t first_ticket = LoadU64(body);
    const uint64_t count = LoadU64(body + 8);
    // The count is untrusted: derive the entry count from the length
    // instead of multiplying it out (a wrapping product could pass a
    // 16 + count·24 check). Any other shape is a torn tail.
    if ((len - 16) % 24 != 0 || count != (len - 16) / 24) break;
    WalEpoch epoch;
    epoch.first_ticket = first_ticket;
    epoch.ops.resize(count);
    bool valid = true;
    for (uint64_t i = 0; i < count; i++) {
      ServeRequest& req = epoch.ops[i];
      const uint64_t op = LoadU64(body + 16 + i * 24);
      const uint64_t a = LoadU64(body + 16 + i * 24 + 8);
      const uint64_t b = LoadU64(body + 16 + i * 24 + 16);
      if (op > 2) {
        valid = false;
        break;
      }
      req.op = static_cast<OpKind>(op);
      if (req.op == OpKind::kQuery) {
        req.query.low = static_cast<value_t>(a);
        req.query.high = static_cast<value_t>(b);
      } else {
        req.value = static_cast<value_t>(a);
      }
    }
    if (!valid) break;
    out->push_back(std::move(epoch));
    pos += 8 + len;
  }
  if (pos < file.size()) {
    // Torn tail record: drop it physically so the next append starts
    // at a clean record boundary.
    if (tail_truncated != nullptr) *tail_truncated = true;
    if (::truncate(path.c_str(), static_cast<off_t>(pos)) != 0) return false;
  }
  return true;
}

bool WalWriter::Open(const std::string& path) {
  Close();
  broken_ = false;
  f_ = std::fopen(path.c_str(), "ab");
  if (f_ == nullptr) return false;
  std::fseek(f_, 0, SEEK_END);
  if (std::ftell(f_) == 0) {
    if (std::fwrite(kWalMagic, 1, sizeof(kWalMagic), f_) !=
            sizeof(kWalMagic) ||
        std::fflush(f_) != 0 || ::fsync(::fileno(f_)) != 0) {
      Close();
      return false;
    }
  }
  return true;
}

bool WalWriter::AppendEpoch(uint64_t first_ticket, const ServeRequest* ops,
                            size_t count) {
  if (f_ == nullptr || broken_) return false;
  std::string body;
  body.reserve(16 + count * 24);
  AppendU64(&body, first_ticket);
  AppendU64(&body, count);
  for (size_t i = 0; i < count; i++) {
    AppendU64(&body, static_cast<uint64_t>(ops[i].op));
    if (ops[i].is_query()) {
      AppendU64(&body, static_cast<uint64_t>(ops[i].query.low));
      AppendU64(&body, static_cast<uint64_t>(ops[i].query.high));
    } else {
      AppendU64(&body, static_cast<uint64_t>(ops[i].value));
      AppendU64(&body, 0);
    }
  }
  std::string record;
  record.reserve(8 + body.size());
  AppendU32(&record, static_cast<uint32_t>(body.size()));
  AppendU32(&record, Crc32(body.data(), body.size()));
  record.append(body);
  if (fault::Fires(fault::Mode::kLogTorn, fault::Site::kWalAppend)) {
    // Crash mid-append: half the record reaches disk. Nothing may be
    // written after it — the latch models the writer dying here.
    const size_t half = record.size() / 2;
    std::fwrite(record.data(), 1, half, f_);
    std::fflush(f_);
    ::fsync(::fileno(f_));
    broken_ = true;
    return false;
  }
  if (fault::Fires(fault::Mode::kFsyncFail, fault::Site::kWalAppend)) {
    // Append never became durable: model a crash before any byte of
    // the record hit disk.
    broken_ = true;
    return false;
  }
  {
    obs::TraceScope span("wal_fsync", "persist");
    if (std::fwrite(record.data(), 1, record.size(), f_) != record.size() ||
        std::fflush(f_) != 0 || ::fsync(::fileno(f_)) != 0) {
      broken_ = true;
      return false;
    }
  }
  WalBytesCounter().Add(record.size());
  WalAppendsCounter().Add();
  return true;
}

void WalWriter::Close() {
  if (f_ != nullptr) {
    std::fclose(f_);
    f_ = nullptr;
  }
}

}  // namespace persist
}  // namespace progidx
