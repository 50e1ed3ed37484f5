// Durability tests (docs/recovery.md): snapshot container integrity
// and format (streamed and in-memory publication against a hand-built
// reference container), hostile counts in snapshots and the WAL,
// per-index Save/Load round-trip parity (identical state bytes AND
// identical subsequent query trajectory), checkpoint fallback across
// corrupt files, torn-tail WAL truncation, and end-to-end server
// recovery — including under every injected crash-fault mode. The one
// invariant mirrored from the serving layer: corruption costs replay
// time or durability, never a wrong answer and never a silently-loaded
// corrupt state.

#include <unistd.h>

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "common/fault.h"
#include "common/rng.h"
#include "core/budget.h"
#include "core/updatable_index.h"
#include "eval/registry.h"
#include "exec/zero_budget_scan.h"
#include "persist/calibration_store.h"
#include "persist/checkpoint.h"
#include "persist/io.h"
#include "persist/wal.h"
#include "serve/epoch.h"
#include "serve/recovery.h"
#include "serve/server.h"
#include "workload/data_generator.h"
#include "workload/synthetic.h"

namespace progidx {
namespace {

/// Restores the environment fault mode on scope exit.
struct FaultModeGuard {
  explicit FaultModeGuard(fault::Mode mode) { fault::SetModeForTesting(mode); }
  ~FaultModeGuard() { fault::ClearModeForTesting(); }
};

/// A unique empty directory, removed (recursively) on scope exit.
struct TempDir {
  TempDir() {
    char tmpl[] = "/tmp/progidx_persist_XXXXXX";
    path = ::mkdtemp(tmpl);
    EXPECT_FALSE(path.empty());
  }
  ~TempDir() {
    const std::string cmd = "rm -rf " + path;
    (void)std::system(cmd.c_str());
  }
  std::string path;
};

std::string StatePayload(const IndexBase& index) {
  persist::Writer w;
  index.SaveState(&w);
  return w.payload();
}

/// Flips one byte of a file in place.
void FlipByte(const std::string& path, long offset) {
  std::FILE* f = std::fopen(path.c_str(), "r+b");
  ASSERT_NE(f, nullptr);
  ASSERT_EQ(std::fseek(f, offset, offset < 0 ? SEEK_END : SEEK_SET), 0);
  const int c = std::fgetc(f);
  ASSERT_NE(c, EOF);
  ASSERT_EQ(std::fseek(f, -1, SEEK_CUR), 0);
  std::fputc(c ^ 0x40, f);
  std::fclose(f);
}

void TruncateFile(const std::string& path, long keep) {
  ASSERT_EQ(::truncate(path.c_str(), keep), 0);
}

// --- io layer ----------------------------------------------------------

TEST(PersistIoTest, WriterReaderRoundTrip) {
  persist::Writer w;
  w.WriteU64(42);
  w.WriteI64(-7);
  w.WriteBool(true);
  w.WriteDouble(0.125);
  w.WriteString("P. Quicksort");
  const std::vector<value_t> values = {5, -3, 0, 99};
  w.WriteValueVector(values);

  persist::Reader r = persist::Reader::FromPayload(w.payload());
  EXPECT_EQ(r.ReadU64(), 42u);
  EXPECT_EQ(r.ReadI64(), -7);
  EXPECT_TRUE(r.ReadBool());
  EXPECT_EQ(r.ReadDouble(), 0.125);
  EXPECT_EQ(r.ReadString(), "P. Quicksort");
  std::vector<value_t> out;
  EXPECT_TRUE(r.ReadValueVector(&out));
  EXPECT_EQ(out, values);
  EXPECT_TRUE(r.AtEnd());
  // Reading past the end returns zeros and flips ok().
  EXPECT_EQ(r.ReadU64(), 0u);
  EXPECT_FALSE(r.ok());
}

TEST(PersistIoTest, PublishedFileRoundTrips) {
  TempDir dir;
  const std::string path = dir.path + "/snap";
  persist::Writer w;
  for (uint64_t i = 0; i < 1000; i++) w.WriteU64(i * 31);
  ASSERT_TRUE(w.Publish(path));
  persist::Reader r = persist::Reader::FromFile(path);
  ASSERT_TRUE(r.ok());
  for (uint64_t i = 0; i < 1000; i++) EXPECT_EQ(r.ReadU64(), i * 31);
  EXPECT_TRUE(r.AtEnd());
}

TEST(PersistIoTest, BitFlipAndTruncationAreDetected) {
  TempDir dir;
  const std::string path = dir.path + "/snap";
  persist::Writer w;
  for (uint64_t i = 0; i < 4096; i++) w.WriteU64(i);
  ASSERT_TRUE(w.Publish(path));

  // A flipped payload byte fails a frame CRC.
  FlipByte(path, 200);
  EXPECT_FALSE(persist::Reader::FromFile(path).ok());

  // A flipped bit in the *framing* itself is equally fatal.
  ASSERT_TRUE(w.Publish(path));
  FlipByte(path, 9);
  EXPECT_FALSE(persist::Reader::FromFile(path).ok());

  // A torn tail (lost terminator) is detected even with intact frames.
  ASSERT_TRUE(w.Publish(path));
  TruncateFile(path, 1000);
  EXPECT_FALSE(persist::Reader::FromFile(path).ok());

  // Trailing garbage after the terminator is rejected too.
  ASSERT_TRUE(w.Publish(path));
  {
    std::FILE* f = std::fopen(path.c_str(), "ab");
    ASSERT_NE(f, nullptr);
    std::fputc('x', f);
    std::fclose(f);
  }
  EXPECT_FALSE(persist::Reader::FromFile(path).ok());

  EXPECT_FALSE(persist::Reader::FromFile(dir.path + "/absent").ok());
}

bool FileExists(const std::string& path) {
  return ::access(path.c_str(), F_OK) == 0;
}

/// Whole file as bytes ("" when absent).
std::string ReadFileBytes(const std::string& path) {
  std::string bytes;
  std::FILE* f = std::fopen(path.c_str(), "rb");
  if (f == nullptr) return bytes;
  char buf[1 << 16];
  size_t got;
  while ((got = std::fread(buf, 1, sizeof(buf), f)) > 0) bytes.append(buf, got);
  std::fclose(f);
  return bytes;
}

/// Bit-at-a-time CRC-32 straight from the polynomial the container
/// format was defined with, independent of the kernel tiers.
uint32_t BitwiseCrc32(const std::string& bytes) {
  uint32_t c = 0xFFFFFFFFu;
  for (const char ch : bytes) {
    c ^= static_cast<uint8_t>(ch);
    for (int k = 0; k < 8; k++) c = (c & 1) ? 0xEDB88320u ^ (c >> 1) : c >> 1;
  }
  return ~c;
}

/// The container for `payload`, laid out by hand from the format in
/// persist/io.h: magic, kMaxFrame-byte frames (the last one short), and
/// the whole-payload CRC terminator.
std::string ReferenceContainer(const std::string& payload) {
  std::string out = "PIDXSNP1";
  auto u32 = [&out](uint32_t v) {
    out.append(reinterpret_cast<const char*>(&v), sizeof(v));
  };
  for (size_t off = 0; off < payload.size(); off += persist::kMaxFrame) {
    const std::string chunk = payload.substr(off, persist::kMaxFrame);
    u32(static_cast<uint32_t>(chunk.size()));
    u32(BitwiseCrc32(chunk));
    out += chunk;
  }
  u32(0);
  u32(BitwiseCrc32(payload));
  return out;
}

TEST(PersistIoTest, Crc32CombineMatchesConcatenation) {
  Rng rng(3);
  std::string bytes(3 * persist::kMaxFrame / 2, '\0');
  for (char& c : bytes) c = static_cast<char>(rng.NextBounded(256));
  const size_t splits[] = {0, 1, 7, 64, 1000, persist::kMaxFrame, bytes.size()};
  for (const size_t split : splits) {
    const uint32_t crc_a = persist::Crc32(bytes.data(), split);
    const uint32_t crc_b =
        persist::Crc32(bytes.data() + split, bytes.size() - split);
    EXPECT_EQ(persist::Crc32Combine(crc_a, crc_b, bytes.size() - split),
              persist::Crc32(bytes.data(), bytes.size()))
        << "split=" << split;
  }
  // Empty A and empty B.
  const uint32_t crc_all = persist::Crc32(bytes.data(), 100);
  EXPECT_EQ(persist::Crc32Combine(0, crc_all, 100), crc_all);
  EXPECT_EQ(persist::Crc32Combine(crc_all, 0, 0), crc_all);
  EXPECT_EQ(persist::Crc32Combine(0, 0, 0), 0u);
}

// Streaming is an implementation of publication, not a format: for the
// same payload, the streamed file, the in-memory publication and the
// hand-built reference container are the same bytes — across the frame
// boundary and for one value run spanning three frames.
TEST(PersistIoTest, StreamedAndInMemoryPublishAreByteIdentical) {
  TempDir dir;
  std::vector<value_t> run(2 * persist::kMaxFrame / sizeof(value_t) + 100);
  Rng rng(11);
  for (value_t& v : run) v = static_cast<value_t>(rng.Next());
  struct Case {
    const char* name;
    std::function<void(persist::Writer*)> write;
  };
  auto fill_u64s = [](size_t bytes) {
    return [bytes](persist::Writer* w) {
      for (uint64_t i = 0; i < bytes / 8; i++) w->WriteU64(i * 0x9E3779B9u);
    };
  };
  const std::vector<Case> cases = {
      {"frame-8", fill_u64s(persist::kMaxFrame - 8)},
      {"frame", fill_u64s(persist::kMaxFrame)},
      {"frame+8", fill_u64s(persist::kMaxFrame + 8)},
      {"run-spanning-3-frames",
       [&run](persist::Writer* w) {
         w->WriteString("header");
         w->WriteValueVector(run);
         w->WriteU64(7);
       }},
  };
  for (const Case& c : cases) {
    persist::Writer memory;
    c.write(&memory);
    const std::string memory_path = dir.path + "/memory";
    ASSERT_TRUE(memory.Publish(memory_path)) << c.name;

    const std::string streamed_path = dir.path + "/streamed";
    persist::Writer streamed(streamed_path);
    c.write(&streamed);
    EXPECT_EQ(streamed.size(), memory.payload().size()) << c.name;
    ASSERT_TRUE(streamed.Publish(streamed_path)) << c.name;

    const std::string expected = ReferenceContainer(memory.payload());
    EXPECT_EQ(ReadFileBytes(memory_path), expected) << c.name;
    EXPECT_EQ(ReadFileBytes(streamed_path), expected) << c.name;
    EXPECT_FALSE(FileExists(streamed_path + ".tmp")) << c.name;

    persist::Reader r = persist::Reader::FromFile(streamed_path);
    ASSERT_TRUE(r.ok()) << c.name;
    persist::Reader ref = persist::Reader::FromPayload(memory.payload());
    while (!ref.AtEnd()) ASSERT_EQ(r.ReadU64(), ref.ReadU64()) << c.name;
    EXPECT_TRUE(r.AtEnd()) << c.name;
  }
}

TEST(PersistIoTest, UnpublishedStreamingWriterLeavesNoTempFile) {
  TempDir dir;
  const std::string path = dir.path + "/snap";
  {
    persist::Writer w(path);
    for (uint64_t i = 0; i < persist::kMaxFrame / 4; i++) w.WriteU64(i);
    EXPECT_TRUE(FileExists(path + ".tmp"));  // frames already streamed
  }
  EXPECT_FALSE(FileExists(path + ".tmp"));
  EXPECT_FALSE(FileExists(path));

  // Publishing to another path is refused, and cleans up the same way.
  {
    persist::Writer w(path);
    w.WriteU64(1);
    EXPECT_FALSE(w.Publish(dir.path + "/elsewhere"));
  }
  EXPECT_FALSE(FileExists(path + ".tmp"));
  EXPECT_FALSE(FileExists(dir.path + "/elsewhere"));
}

TEST(PersistIoTest, ValueRunCountOverflowIsRejected) {
  // 24 bytes: a count of 2^61 + 1 — whose byte size wraps to 8 — and two
  // values. The count must be rejected, not multiplied out.
  std::string payload;
  const uint64_t words[3] = {(uint64_t{1} << 61) + 1, 5, 6};
  payload.append(reinterpret_cast<const char*>(words), sizeof(words));
  persist::Reader r = persist::Reader::FromPayload(payload);
  size_t n = 123;
  EXPECT_EQ(r.ReadValueRun(&n), nullptr);
  EXPECT_EQ(n, 0u);
  EXPECT_FALSE(r.ok());

  persist::Reader r2 = persist::Reader::FromPayload(payload);
  std::vector<value_t> out = {1, 2};
  EXPECT_FALSE(r2.ReadValueVector(&out));
  EXPECT_TRUE(out.empty());
}

// --- per-index round-trip parity ---------------------------------------

class PersistRoundTripTest : public ::testing::TestWithParam<const char*> {};

// Save → Load at many points along the index's lifetime must reproduce
// identical state bytes and an identical subsequent query trajectory —
// the acceptance bar for every phase of every persistent technique.
TEST_P(PersistRoundTripTest, SaveLoadParityAcrossPhases) {
  const std::string algo = GetParam();
  const Column column = MakeUniformColumn(8000, 71);
  const auto workload = WorkloadGenerator::Generate(
      WorkloadPattern::kRandom, column.min_value(), column.max_value(), 120,
      0.1, 73);
  const BudgetSpec budget = BudgetSpec::FixedDelta(0.25);
  auto index = MakeIndex(algo, column, budget);
  ASSERT_TRUE(index->SupportsPersistence());

  for (size_t i = 0; i < workload.size(); i++) {
    const QueryResult got = index->Query(workload[i]);
    EXPECT_EQ(got, exec::ZeroBudgetScan(column, workload[i]));
    if (i % 7 != 0) continue;

    // Round-trip through the in-memory payload path.
    const std::string saved = StatePayload(*index);
    auto reloaded = MakeIndex(algo, column, budget);
    persist::Reader r = persist::Reader::FromPayload(saved);
    ASSERT_TRUE(reloaded->LoadState(&r)) << algo << " at query " << i;
    EXPECT_TRUE(r.AtEnd());
    EXPECT_EQ(StatePayload(*reloaded), saved)
        << algo << ": reloaded state diverges at query " << i;

    // Identical trajectory: the next queries give identical answers
    // and land on identical state.
    const size_t stop = std::min(i + 5, workload.size());
    for (size_t j = i + 1; j < stop; j++) {
      EXPECT_EQ(index->Query(workload[j]), reloaded->Query(workload[j]));
    }
    EXPECT_EQ(StatePayload(*index), StatePayload(*reloaded));

    // Continue the outer loop from the *reloaded* instance: later
    // phases are reached through recovered state, not in spite of it.
    index = std::move(reloaded);
    i = stop - 1;
  }
  EXPECT_TRUE(index->converged())
      << algo << " should converge within the workload";
}

INSTANTIATE_TEST_SUITE_P(PersistAllIndexes, PersistRoundTripTest,
                         ::testing::Values("pq", "pb", "plsd", "pmsd", "fi"),
                         [](const ::testing::TestParamInfo<const char*>& i) {
                           return std::string(i.param);
                         });

TEST(PersistRoundTrip, RejectsPayloadForDifferentColumnSize) {
  const Column column = MakeUniformColumn(4000, 79);
  const Column other = MakeUniformColumn(5000, 79);
  auto index = MakeIndex("pq", column, BudgetSpec::FixedDelta(0.25));
  index->Query({column.min_value(), column.max_value()});
  const std::string saved = StatePayload(*index);
  auto wrong = MakeIndex("pq", other, BudgetSpec::FixedDelta(0.25));
  persist::Reader r = persist::Reader::FromPayload(saved);
  EXPECT_FALSE(wrong->LoadState(&r));
}

// --- checkpointer ------------------------------------------------------

TEST(PersistCheckpointTest, SaveLoadAndRetention) {
  TempDir dir;
  const Column column = MakeUniformColumn(4000, 83);
  auto index = MakeIndex("pq", column, BudgetSpec::FixedDelta(0.25));
  persist::Checkpointer ckpt(dir.path, column);

  for (int i = 0; i < 5; i++) {
    index->Query({column.min_value(), column.max_value()});
    persist::SnapshotMeta meta;
    meta.applied_queries = static_cast<uint64_t>(i + 1);
    ASSERT_TRUE(ckpt.Save(*index, meta));
    EXPECT_GT(ckpt.last_snapshot_bytes(), 0u);
  }
  // Retention: only the newest two snapshots survive.
  const std::vector<uint64_t> seqs = ckpt.ListSnapshots();
  ASSERT_EQ(seqs.size(), 2u);
  EXPECT_EQ(seqs[0], 4u);
  EXPECT_EQ(seqs[1], 5u);

  auto loaded = MakeIndex("pq", column, BudgetSpec::FixedDelta(0.25));
  persist::SnapshotMeta meta;
  ASSERT_TRUE(ckpt.TryLoad(5, loaded.get(), &meta));
  EXPECT_EQ(meta.applied_queries, 5u);
  EXPECT_EQ(StatePayload(*loaded), StatePayload(*index));
}

// A checkpoint of real index state, streamed by Checkpointer::Save, is
// the same file an in-memory writer publishes for the same header and
// SaveState payload.
TEST(PersistCheckpointTest, StreamedSnapshotMatchesInMemoryPublish) {
  TempDir dir;
  const Column column = MakeUniformColumn(300000, 87);
  auto index = MakeIndex("pq", column, BudgetSpec::FixedDelta(0.25));
  for (int i = 0; i < 3; i++) {
    index->Query({column.min_value() + i, column.max_value() / 2});
  }
  persist::Checkpointer ckpt(dir.path, column);
  persist::SnapshotMeta meta;
  meta.applied_queries = 3;
  meta.epochs = 2;
  ASSERT_TRUE(ckpt.Save(*index, meta));

  persist::Writer w;
  w.WriteString(index->name());
  w.WriteU64(column.size());
  w.WriteU32(persist::Crc32(column.data(), column.size() * sizeof(value_t)));
  w.WriteU64(meta.applied_queries);
  w.WriteU64(meta.epochs);
  w.WriteU64(meta.calibration_crc);
  index->SaveState(&w);
  ASSERT_GT(w.payload().size(), persist::kMaxFrame);  // several frames
  EXPECT_EQ(ckpt.last_snapshot_bytes(), w.payload().size());
  ASSERT_TRUE(w.Publish(dir.path + "/in_memory"));
  EXPECT_EQ(ReadFileBytes(dir.path + "/snapshot-0000000001"),
            ReadFileBytes(dir.path + "/in_memory"));
}

TEST(PersistCheckpointTest, RejectsWrongIndexAndWrongColumn) {
  TempDir dir;
  const Column column = MakeUniformColumn(4000, 89);
  auto index = MakeIndex("pq", column, BudgetSpec::FixedDelta(0.25));
  index->Query({column.min_value(), column.max_value()});
  persist::Checkpointer ckpt(dir.path, column);
  ASSERT_TRUE(ckpt.Save(*index, {}));

  // A different technique must refuse the snapshot (name mismatch).
  auto other_algo = MakeIndex("pb", column, BudgetSpec::FixedDelta(0.25));
  persist::SnapshotMeta meta;
  EXPECT_FALSE(ckpt.TryLoad(1, other_algo.get(), &meta));

  // A different column must refuse it too (CRC fingerprint mismatch).
  const Column other = MakeUniformColumn(4000, 97);
  persist::Checkpointer other_ckpt(dir.path, other);
  auto fresh = MakeIndex("pq", other, BudgetSpec::FixedDelta(0.25));
  EXPECT_FALSE(other_ckpt.TryLoad(1, fresh.get(), &meta));
}

// --- WAL ---------------------------------------------------------------

TEST(PersistWalTest, AppendReadRoundTripAndTornTail) {
  TempDir dir;
  const std::string path = dir.path + "/wal";
  const std::vector<ServeRequest> ops = {
      RangeQuery{1, 5}, RangeQuery{-3, 8}, RangeQuery{100, 200}};
  {
    persist::WalWriter w;
    ASSERT_TRUE(w.Open(path));
    ASSERT_TRUE(w.AppendEpoch(0, ops.data(), 2));
    ASSERT_TRUE(w.AppendEpoch(2, ops.data() + 2, 1));
    EXPECT_FALSE(w.broken());
  }
  std::vector<persist::WalEpoch> epochs;
  bool torn = false;
  ASSERT_TRUE(persist::ReadWal(path, &epochs, &torn));
  EXPECT_FALSE(torn);
  ASSERT_EQ(epochs.size(), 2u);
  EXPECT_EQ(epochs[0].first_ticket, 0u);
  ASSERT_EQ(epochs[0].ops.size(), 2u);
  EXPECT_EQ(epochs[0].ops[1].query.low, -3);
  EXPECT_EQ(epochs[1].ops[0].query.high, 200);

  // Tear the tail record: the valid prefix survives, the torn bytes are
  // physically dropped, and appends continue cleanly afterwards.
  {
    std::FILE* f = std::fopen(path.c_str(), "ab");
    ASSERT_NE(f, nullptr);
    const char garbage[] = "\x30\x00\x00\x00partial";
    std::fwrite(garbage, 1, sizeof(garbage), f);
    std::fclose(f);
  }
  ASSERT_TRUE(persist::ReadWal(path, &epochs, &torn));
  EXPECT_TRUE(torn);
  ASSERT_EQ(epochs.size(), 2u);
  {
    persist::WalWriter w;
    ASSERT_TRUE(w.Open(path));
    ASSERT_TRUE(w.AppendEpoch(3, ops.data(), 3));
  }
  ASSERT_TRUE(persist::ReadWal(path, &epochs, &torn));
  EXPECT_FALSE(torn);
  ASSERT_EQ(epochs.size(), 3u);
  EXPECT_EQ(epochs[2].ops.size(), 3u);
}

/// Appends one record — u32 len | u32 crc32(body) | body — to `path`
/// by hand, exactly as a writer would lay it out.
void AppendRawWalRecord(const std::string& path, const std::string& body) {
  std::FILE* f = std::fopen(path.c_str(), "ab");
  ASSERT_NE(f, nullptr);
  const uint32_t len = static_cast<uint32_t>(body.size());
  const uint32_t crc = persist::Crc32(body.data(), body.size());
  std::fwrite(&len, 4, 1, f);
  std::fwrite(&crc, 4, 1, f);
  std::fwrite(body.data(), 1, body.size(), f);
  std::fclose(f);
}

std::string U64s(std::initializer_list<uint64_t> words) {
  std::string out;
  for (const uint64_t w : words) {
    out.append(reinterpret_cast<const char*>(&w), sizeof(w));
  }
  return out;
}

TEST(PersistWalTest, UpdateOpsRoundTripAndLegacyRecordIsTornTail) {
  TempDir dir;
  const std::string path = dir.path + "/wal";
  // A current-format mixed epoch appended by the writer...
  const std::vector<ServeRequest> mixed = {
      ServeRequest::Append(42), RangeQuery{0, 100}, ServeRequest::Delete(42)};
  {
    persist::WalWriter w;
    ASSERT_TRUE(w.Open(path));
    ASSERT_TRUE(w.AppendEpoch(0, mixed.data(), mixed.size()));
  }
  const long valid_bytes = static_cast<long>(ReadFileBytes(path).size());
  // ...then a CRC-valid record in the retired 16-byte query-pair
  // layout (first_ticket, count 2, two low/high pairs). No reader
  // accepts that shape any more: it is a torn tail.
  AppendRawWalRecord(path, U64s({3, 2, 7, 9, static_cast<uint64_t>(-4), 12}));

  std::vector<persist::WalEpoch> epochs;
  bool torn = false;
  ASSERT_TRUE(persist::ReadWal(path, &epochs, &torn));
  EXPECT_TRUE(torn);
  ASSERT_EQ(epochs.size(), 1u);
  ASSERT_EQ(epochs[0].ops.size(), 3u);
  EXPECT_EQ(epochs[0].ops[0].op, OpKind::kAppend);
  EXPECT_EQ(epochs[0].ops[0].value, 42);
  EXPECT_TRUE(epochs[0].ops[1].is_query());
  EXPECT_EQ(epochs[0].ops[1].query.high, 100);
  EXPECT_EQ(epochs[0].ops[2].op, OpKind::kDelete);
  EXPECT_EQ(epochs[0].ops[2].value, 42);
  EXPECT_EQ(static_cast<long>(ReadFileBytes(path).size()), valid_bytes);
}

TEST(PersistWalTest, WrappingCountRecordIsTornTail) {
  TempDir dir;
  const std::string path = dir.path + "/wal";
  const std::vector<ServeRequest> ops = {RangeQuery{1, 5}};
  {
    persist::WalWriter w;
    ASSERT_TRUE(w.Open(path));
    ASSERT_TRUE(w.AppendEpoch(0, ops.data(), ops.size()));
  }
  const long valid_bytes = static_cast<long>(ReadFileBytes(path).size());
  // A CRC-valid 40-byte body whose count, 2^61 + 1, makes 16 + count·24
  // wrap to exactly 40: it must read as a torn tail, not as an epoch of
  // 2^61 + 1 ops.
  AppendRawWalRecord(path, U64s({1, (uint64_t{1} << 61) + 1, 0, 1, 5}));

  std::vector<persist::WalEpoch> epochs;
  bool torn = false;
  ASSERT_TRUE(persist::ReadWal(path, &epochs, &torn));
  EXPECT_TRUE(torn);
  ASSERT_EQ(epochs.size(), 1u);
  EXPECT_EQ(epochs[0].ops[0].query.high, 5);
  EXPECT_EQ(static_cast<long>(ReadFileBytes(path).size()), valid_bytes);
}

TEST(PersistWalTest, CorruptRecordTruncatesSuffix) {
  TempDir dir;
  const std::string path = dir.path + "/wal";
  const std::vector<ServeRequest> ops = {RangeQuery{1, 5}, RangeQuery{7, 9}};
  {
    persist::WalWriter w;
    ASSERT_TRUE(w.Open(path));
    ASSERT_TRUE(w.AppendEpoch(0, ops.data(), 1));
    ASSERT_TRUE(w.AppendEpoch(1, ops.data() + 1, 1));
  }
  // Flip a byte inside the second record's body: everything from that
  // record on is dropped.
  FlipByte(path, -10);
  std::vector<persist::WalEpoch> epochs;
  bool torn = false;
  ASSERT_TRUE(persist::ReadWal(path, &epochs, &torn));
  EXPECT_TRUE(torn);
  ASSERT_EQ(epochs.size(), 1u);
  EXPECT_EQ(epochs[0].ops[0].query.high, 5);
}

TEST(PersistWalTest, RefusesForeignFile) {
  TempDir dir;
  const std::string path = dir.path + "/wal";
  {
    std::FILE* f = std::fopen(path.c_str(), "wb");
    ASSERT_NE(f, nullptr);
    std::fputs("NOTAWALFILE!", f);
    std::fclose(f);
  }
  std::vector<persist::WalEpoch> epochs;
  bool torn = false;
  EXPECT_FALSE(persist::ReadWal(path, &epochs, &torn));
}

// --- end-to-end server recovery ----------------------------------------

serve::ServerConfig DurableConfig(const std::string& dir) {
  serve::ServerConfig cfg;
  cfg.batch_size = 4;
  cfg.checkpoint_every = 2;
  cfg.enable_read_epochs = false;
  cfg.persist_dir = dir;
  return cfg;
}

// The three strict PersistServerTest cases assert *fault-free*
// durability outcomes (unbroken WAL, exact checkpoint counts, zero
// replay after clean shutdown), so they skip when the crash-fault lane
// arms a mode through the environment — armed-mode behavior is what
// PersistFaultTest covers, per mode, with exact expectations.

TEST(PersistServerTest, CleanShutdownRecoversBitIdentical) {
  if (fault::ModeFromEnv() != fault::Mode::kNone) {
    GTEST_SKIP() << "strict durability accounting requires no armed fault";
  }
  TempDir dir;
  const Column column = MakeUniformColumn(6000, 101);
  const auto workload = WorkloadGenerator::Generate(
      WorkloadPattern::kRandom, column.min_value(), column.max_value(), 40,
      0.1, 103);
  const BudgetSpec budget = BudgetSpec::FixedDelta(0.1);
  auto index = MakeIndex("pq", column, budget);
  uint64_t durable = 0;
  {
    serve::Server server(index.get(), column, DurableConfig(dir.path));
    for (const RangeQuery& q : workload) {
      EXPECT_EQ(server.Submit(q).result, exec::ZeroBudgetScan(column, q));
    }
    const serve::ServeStats stats = server.stats();
    EXPECT_FALSE(stats.wal_broken);
    EXPECT_GT(stats.checkpoints, 0u);
    durable = stats.durable_queries;
  }
  EXPECT_EQ(durable, workload.size());

  serve::RecoveryStats rec;
  auto recovered = serve::RecoverIndex(
      dir.path, column,
      [&](const MachineConstants& mc) {
    ProgressiveOptions opt;
    opt.machine = &mc;
    return MakeIndex("pq", column, budget, opt);
  }, &rec);
  EXPECT_TRUE(rec.snapshot_loaded);
  EXPECT_EQ(rec.log_queries, workload.size());
  // The shutdown checkpoint covers the whole log: zero replay.
  EXPECT_EQ(rec.replayed_queries, 0u);
  EXPECT_EQ(StatePayload(*recovered), StatePayload(*index));

  // A second serving generation continues from the recovered state.
  {
    serve::Server server(recovered.get(), column, DurableConfig(dir.path));
    for (const RangeQuery& q : workload) {
      EXPECT_EQ(server.Submit(q).result, exec::ZeroBudgetScan(column, q));
    }
    EXPECT_EQ(server.stats().durable_queries, 2 * workload.size());
  }
}

TEST(PersistServerTest, RecoveryFallsBackAcrossCorruptSnapshots) {
  if (fault::ModeFromEnv() != fault::Mode::kNone) {
    GTEST_SKIP() << "exact snapshot/replay counts require no armed fault";
  }
  TempDir dir;
  const Column column = MakeUniformColumn(6000, 107);
  const auto workload = WorkloadGenerator::Generate(
      WorkloadPattern::kRandom, column.min_value(), column.max_value(), 40,
      0.1, 109);
  const BudgetSpec budget = BudgetSpec::FixedDelta(0.1);
  auto index = MakeIndex("pq", column, budget);
  {
    serve::Server server(index.get(), column, DurableConfig(dir.path));
    for (const RangeQuery& q : workload) server.Submit(q);
  }
  auto make_fresh = [&](const MachineConstants& mc) {
    ProgressiveOptions opt;
    opt.machine = &mc;
    return MakeIndex("pq", column, budget, opt);
  };

  // Corrupt the newest snapshot: recovery falls back to the older one
  // plus a longer replay, landing on the same state.
  {
    persist::Checkpointer ckpt(dir.path, column);
    const std::vector<uint64_t> seqs = ckpt.ListSnapshots();
    ASSERT_EQ(seqs.size(), 2u);
    char name[32];
    std::snprintf(name, sizeof(name), "snapshot-%010llu",
                  static_cast<unsigned long long>(seqs[1]));
    FlipByte(dir.path + "/" + name, 100);
  }
  serve::RecoveryStats rec;
  auto recovered = serve::RecoverIndex(dir.path, column, make_fresh, &rec);
  EXPECT_TRUE(rec.snapshot_loaded);
  EXPECT_EQ(rec.snapshots_rejected, 1u);
  EXPECT_GT(rec.replayed_queries, 0u);
  EXPECT_EQ(StatePayload(*recovered), StatePayload(*index));

  // Corrupt both snapshots: cold start, full-log replay, same state.
  // (A different offset than above — re-flipping byte 100 of the
  // already-damaged newest snapshot would restore it.)
  {
    persist::Checkpointer ckpt(dir.path, column);
    for (const uint64_t seq : ckpt.ListSnapshots()) {
      char name[32];
      std::snprintf(name, sizeof(name), "snapshot-%010llu",
                    static_cast<unsigned long long>(seq));
      FlipByte(dir.path + "/" + name, 150);
    }
  }
  auto cold = serve::RecoverIndex(dir.path, column, make_fresh, &rec);
  EXPECT_FALSE(rec.snapshot_loaded);
  EXPECT_EQ(rec.snapshots_rejected, 2u);
  EXPECT_EQ(rec.replayed_queries, workload.size());
  EXPECT_EQ(StatePayload(*cold), StatePayload(*index));
}

TEST(PersistServerTest, IndexWithoutPersistenceRecoversByColdReplay) {
  if (fault::ModeFromEnv() != fault::Mode::kNone) {
    GTEST_SKIP() << "exact replay counts require no armed fault";
  }
  TempDir dir;
  const Column column = MakeUniformColumn(4000, 113);
  const auto workload = WorkloadGenerator::Generate(
      WorkloadPattern::kRandom, column.min_value(), column.max_value(), 20,
      0.1, 127);
  // Standard cracking has no SaveState; the WAL alone must carry it.
  const BudgetSpec budget = BudgetSpec::FixedDelta(0.1);
  auto index = MakeIndex("std", column, budget);
  ASSERT_FALSE(index->SupportsPersistence());
  {
    serve::Server server(index.get(), column, DurableConfig(dir.path));
    for (const RangeQuery& q : workload) server.Submit(q);
    EXPECT_EQ(server.stats().checkpoints, 0u);
    EXPECT_EQ(server.stats().durable_queries, workload.size());
  }
  serve::RecoveryStats rec;
  auto recovered = serve::RecoverIndex(
      dir.path, column, [&](const MachineConstants&) { return MakeIndex("std", column, budget); },
      &rec);
  EXPECT_FALSE(rec.snapshot_loaded);
  EXPECT_EQ(rec.replayed_queries, workload.size());
  // No state bytes to compare; answers must be exact.
  for (const RangeQuery& q : workload) {
    EXPECT_EQ(recovered->Query(q), exec::ZeroBudgetScan(column, q));
  }
}

// --- calibration pinning -----------------------------------------------

/// Distinctive-but-valid constants, clearly not this process's own
/// measurement.
MachineConstants CraftedConstants() {
  MachineConstants mc = GlobalMachineConstants();
  mc.swap_secs *= 2.0;
  mc.sort_unit_scale *= 3.0;
  mc.seq_read_secs *= 1.5;
  return mc;
}

TEST(PersistCalibrationTest, PinRoundTripWinsOverLaterConstants) {
  TempDir dir;
  MachineConstants a = CraftedConstants();
  bool pinned_now = false;
  ASSERT_TRUE(persist::PinOrLoadCalibration(dir.path, &a, &pinned_now));
  EXPECT_TRUE(pinned_now);

  // A later open with different constants gets the pin, not its own.
  MachineConstants b = GlobalMachineConstants();
  ASSERT_NE(persist::CalibrationFingerprint(b),
            persist::CalibrationFingerprint(a));
  ASSERT_TRUE(persist::PinOrLoadCalibration(dir.path, &b, &pinned_now));
  EXPECT_FALSE(pinned_now);
  EXPECT_EQ(persist::CalibrationFingerprint(b),
            persist::CalibrationFingerprint(a));
  EXPECT_EQ(b.swap_secs, a.swap_secs);
  EXPECT_EQ(b.sort_unit_scale, a.sort_unit_scale);
  EXPECT_STREQ(b.kernel_name, a.kernel_name);  // interned onto a known tier
}

TEST(PersistCalibrationTest, CorruptPinIsReplacedNeverLoaded) {
  TempDir dir;
  MachineConstants a = CraftedConstants();
  ASSERT_TRUE(persist::PinOrLoadCalibration(dir.path, &a));
  FlipByte(dir.path + "/calibration", 20);

  MachineConstants b = GlobalMachineConstants();
  bool pinned_now = false;
  ASSERT_TRUE(persist::PinOrLoadCalibration(dir.path, &b, &pinned_now));
  EXPECT_TRUE(pinned_now);  // damaged pin re-pinned, not silently loaded
  EXPECT_EQ(persist::CalibrationFingerprint(b),
            persist::CalibrationFingerprint(GlobalMachineConstants()));
}

// The determinism regression the pin exists for: snapshots taken under
// constants other than the directory's pin must be rejected (replaying
// their suffix under the pin would walk a different trajectory than
// the server that wrote them), and recovery must land on the pin's own
// cold-replay trajectory instead.
TEST(PersistCalibrationTest, MismatchedSnapshotsRejectedColdReplayOnPin) {
  if (fault::ModeFromEnv() != fault::Mode::kNone) {
    GTEST_SKIP() << "exact snapshot/replay counts require no armed fault";
  }
  TempDir dir;
  const Column column = MakeUniformColumn(6000, 113);
  const auto workload = WorkloadGenerator::Generate(
      WorkloadPattern::kRandom, column.min_value(), column.max_value(), 40,
      0.1, 127);
  const BudgetSpec budget = BudgetSpec::FixedDelta(0.1);

  // Pin crafted constants before any server touches the directory.
  MachineConstants pinned = CraftedConstants();
  ASSERT_TRUE(persist::PinOrLoadCalibration(dir.path, &pinned));

  // Serve on this process's own measurement: every snapshot gets
  // stamped with a fingerprint that does not match the pin.
  auto served = MakeIndex("pq", column, budget);
  {
    serve::Server server(served.get(), column, DurableConfig(dir.path));
    for (const RangeQuery& q : workload) server.Submit(q);
    EXPECT_GT(server.stats().checkpoints, 0u);
  }

  uint64_t factory_crc = 0;
  auto make_fresh = [&](const MachineConstants& mc) {
    factory_crc = persist::CalibrationFingerprint(mc);
    ProgressiveOptions opt;
    opt.machine = &mc;
    return MakeIndex("pq", column, budget, opt);
  };
  serve::RecoveryStats rec;
  auto recovered = serve::RecoverIndex(dir.path, column, make_fresh, &rec);
  // Recovery built on the pinned constants, not this process's own...
  EXPECT_EQ(factory_crc, persist::CalibrationFingerprint(pinned));
  EXPECT_FALSE(rec.calibration_pinned_now);
  // ...and rejected every foreign-fingerprint snapshot.
  EXPECT_FALSE(rec.snapshot_loaded);
  EXPECT_GT(rec.snapshots_rejected, 0u);
  EXPECT_EQ(rec.replayed_queries, workload.size());

  ProgressiveOptions opt;
  opt.machine = &pinned;
  auto cold = MakeIndex("pq", column, budget, opt);
  std::vector<persist::WalEpoch> epochs;
  bool torn = false;
  ASSERT_TRUE(persist::ReadWal(dir.path + "/wal", &epochs, &torn));
  std::vector<QueryResult> sink;
  for (const persist::WalEpoch& e : epochs) {
    if (e.ops.empty()) continue;
    sink.resize(e.ops.size());
    serve::ExecuteEpoch(cold.get(), e.ops.data(), e.ops.size(), sink.data());
  }
  EXPECT_EQ(StatePayload(*recovered), StatePayload(*cold));
  for (int i = 0; i < 8; i++) {
    EXPECT_EQ(recovered->Query(workload[i]),
              exec::ZeroBudgetScan(column, workload[i]));
  }
}

// --- crash faults end to end -------------------------------------------

class PersistFaultTest : public ::testing::TestWithParam<fault::Mode> {};

// Under every crash-fault mode the serving run damages (or withholds)
// its own durable state — yet recovery must still land bit-identical
// to a cold replay of whatever log survived, and never load a corrupt
// file.
TEST_P(PersistFaultTest, RecoveryExactUnderCrashFaults) {
  FaultModeGuard guard(GetParam());
  TempDir dir;
  const Column column = MakeUniformColumn(6000, 131);
  const auto workload = WorkloadGenerator::Generate(
      WorkloadPattern::kRandom, column.min_value(), column.max_value(), 60,
      0.1, 137);
  const BudgetSpec budget = BudgetSpec::FixedDelta(0.1);
  auto make_fresh = [&](const MachineConstants& mc) {
    ProgressiveOptions opt;
    opt.machine = &mc;
    return MakeIndex("pq", column, budget, opt);
  };
  auto index = make_fresh(GlobalMachineConstants());
  {
    serve::Server server(index.get(), column, DurableConfig(dir.path));
    for (const RangeQuery& q : workload) {
      EXPECT_EQ(server.Submit(q).result, exec::ZeroBudgetScan(column, q));
    }
  }

  // Recovery runs fault-free (no server armed): it must reproduce the
  // cold replay of the durable log exactly, whatever the faults tore.
  serve::RecoveryStats rec;
  auto recovered = serve::RecoverIndex(dir.path, column, make_fresh, &rec);
  std::vector<persist::WalEpoch> epochs;
  bool torn = false;
  ASSERT_TRUE(persist::ReadWal(dir.path + "/wal", &epochs, &torn));
  auto cold = make_fresh(GlobalMachineConstants());
  std::vector<QueryResult> sink;
  for (const persist::WalEpoch& e : epochs) {
    if (e.ops.empty()) continue;
    sink.resize(e.ops.size());
    serve::ExecuteEpoch(cold.get(), e.ops.data(), e.ops.size(), sink.data());
  }
  EXPECT_EQ(StatePayload(*recovered), StatePayload(*cold))
      << "mode " << fault::ModeName(GetParam());
  for (int i = 0; i < 8; i++) {
    const RangeQuery q = workload[i];
    EXPECT_EQ(recovered->Query(q), exec::ZeroBudgetScan(column, q));
  }
}

// Instantiation name starts with "Persist" so the crash-fault ctest
// lane's --gtest_filter='Persist*' matches the parameterized names.
INSTANTIATE_TEST_SUITE_P(PersistCrashModes, PersistFaultTest,
                         ::testing::Values(fault::Mode::kCrashPreRename,
                                           fault::Mode::kSnapshotTorn,
                                           fault::Mode::kLogTorn,
                                           fault::Mode::kFsyncFail),
                         [](const ::testing::TestParamInfo<fault::Mode>& i) {
                           return std::string(fault::ModeName(i.param));
                         });

// --- durability under updates (docs/updates.md) ------------------------

/// An updatable-index factory matching serve::RecoverIndex's contract:
/// the inner factory owns a copy of the handed-back (pinned) constants,
/// because it re-fires on every completed merge.
std::function<std::unique_ptr<IndexBase>(const MachineConstants&)>
UpdatableFactory(const Column& column, double merge_threshold) {
  return [&column, merge_threshold](const MachineConstants& mc) {
    auto pinned = std::make_shared<MachineConstants>(mc);
    UpdatableIndex::IndexFactory inner = [pinned](const Column& c) {
      ProgressiveOptions opt;
      opt.machine = pinned.get();
      return MakeIndex("pq", c, BudgetSpec::FixedDelta(0.1), opt);
    };
    return std::unique_ptr<IndexBase>(new UpdatableIndex(
        std::vector<value_t>(column.values()), std::move(inner),
        merge_threshold));
  };
}

// Mid-merge Save/Load round trip: freeze an index while its budgeted
// merge is part-way through, load the payload into a fresh instance,
// and require identical bytes (delta, tombstones, merge cursor) AND an
// identical trajectory over further queries — the loaded instance must
// re-derive the unserialized shadow copy deterministically.
TEST(PersistUpdatableTest, MidMergeSaveLoadRoundTripsByteForByte) {
  const Column column = MakeUniformColumn(4000, 151);
  auto make = UpdatableFactory(column, 0.01);
  std::unique_ptr<IndexBase> original = make(GlobalMachineConstants());
  UpdatableIndex* updatable = original->AsUpdatable();
  ASSERT_NE(updatable, nullptr);

  Rng rng(157);
  auto next_query = [&] {
    value_t a = rng.NextInRange(column.min_value(), column.max_value());
    value_t b = rng.NextInRange(column.min_value(), column.max_value());
    if (b < a) std::swap(a, b);
    return RangeQuery{a, b};
  };
  // Cross the threshold (0.01 × 4000 = 40 delta entries), then query
  // until the merge is strictly mid-flight.
  for (int i = 0; i < 48; i++) {
    updatable->Append(rng.NextInRange(column.min_value(), column.max_value()));
  }
  size_t guard = 0;
  while (!updatable->merge_in_progress() && guard++ < 8) {
    (void)updatable->Query(next_query());
  }
  ASSERT_TRUE(updatable->merge_in_progress());
  ASSERT_GT(updatable->merge_cursor(), 0u);
  ASSERT_LT(updatable->merge_cursor(), column.size() + 48);

  const std::string payload = StatePayload(*original);
  std::unique_ptr<IndexBase> loaded = make(GlobalMachineConstants());
  persist::Reader r = persist::Reader::FromPayload(payload);
  ASSERT_TRUE(loaded->LoadState(&r));
  EXPECT_EQ(StatePayload(*loaded), payload);
  EXPECT_EQ(loaded->AsUpdatable()->merge_cursor(), updatable->merge_cursor());

  // Lockstep continuation: the merge finishes, the inner index is
  // rebuilt, and every step stays bit-identical.
  for (int i = 0; i < 64; i++) {
    const RangeQuery q = next_query();
    EXPECT_EQ(original->Query(q), loaded->Query(q));
  }
  EXPECT_GE(updatable->merge_count(), 1u);
  EXPECT_EQ(StatePayload(*original), StatePayload(*loaded));
}

class PersistUpdateFaultTest : public ::testing::TestWithParam<fault::Mode> {};

// End-to-end durable serving of a mixed query/append/delete workload
// under every crash-fault mode: whatever the fault tore or withheld,
// recovery must land bit-identical to a cold ExecuteEpoch replay of
// the surviving log, and post-recovery answers must match the log
// applied to a plain multiset (the base column is stale under updates).
TEST_P(PersistUpdateFaultTest, MixedWorkloadRecoveryExactUnderCrashFaults) {
  FaultModeGuard guard(GetParam());
  TempDir dir;
  const Column column = MakeUniformColumn(4000, 163);
  auto make_fresh = UpdatableFactory(column, 0.01);
  auto index = make_fresh(GlobalMachineConstants());
  Rng rng(167);
  std::vector<value_t> pool;
  {
    serve::Server server(index.get(), column, DurableConfig(dir.path));
    for (size_t i = 0; i < 200; i++) {
      const uint64_t roll = rng.NextBounded(10);
      ServeRequest op;
      size_t at = 0;
      if (roll >= 7) {
        const bool del = roll == 9 && !pool.empty();
        if (del) {
          at = rng.NextBounded(pool.size());
          op = ServeRequest::Delete(pool[at]);
        } else {
          op = ServeRequest::Append(column.max_value() + 1 +
                                    static_cast<value_t>(i));
        }
      } else {
        value_t a = rng.NextInRange(column.min_value(), column.max_value());
        value_t b = rng.NextInRange(column.min_value(), column.max_value());
        if (b < a) std::swap(a, b);
        op = RangeQuery{a, b};
      }
      const serve::Response resp = server.Submit(op);
      if (op.is_update() && !resp.rejected) {
        if (op.op == OpKind::kDelete) {
          pool[at] = pool.back();
          pool.pop_back();
        } else {
          pool.push_back(op.value);
        }
      }
    }
  }

  // Recovery runs fault-free (no server armed).
  serve::RecoveryStats rec;
  auto recovered = serve::RecoverIndex(dir.path, column, make_fresh, &rec);
  std::vector<persist::WalEpoch> epochs;
  bool torn = false;
  ASSERT_TRUE(persist::ReadWal(dir.path + "/wal", &epochs, &torn));
  auto cold = make_fresh(GlobalMachineConstants());
  std::vector<QueryResult> sink;
  std::vector<value_t> oracle(column.values());
  for (const persist::WalEpoch& e : epochs) {
    if (e.ops.empty()) continue;
    sink.resize(e.ops.size());
    serve::ExecuteEpoch(cold.get(), e.ops.data(), e.ops.size(), sink.data());
    for (const ServeRequest& op : e.ops) {
      if (op.op == OpKind::kAppend) {
        oracle.push_back(op.value);
      } else if (op.op == OpKind::kDelete) {
        auto it = std::find(oracle.begin(), oracle.end(), op.value);
        ASSERT_NE(it, oracle.end()) << "durable delete of absent value";
        *it = oracle.back();
        oracle.pop_back();
      }
    }
  }
  EXPECT_EQ(StatePayload(*recovered), StatePayload(*cold))
      << "mode " << fault::ModeName(GetParam());
  for (int i = 0; i < 8; i++) {
    value_t a = rng.NextInRange(column.min_value(), column.max_value() + 200);
    value_t b = rng.NextInRange(column.min_value(), column.max_value() + 200);
    if (b < a) std::swap(a, b);
    QueryResult want;
    for (const value_t v : oracle) {
      if (v >= a && v <= b) {
        want.sum += v;
        want.count++;
      }
    }
    EXPECT_EQ(recovered->Query(RangeQuery{a, b}), want);
  }
}

INSTANTIATE_TEST_SUITE_P(PersistUpdateCrashModes, PersistUpdateFaultTest,
                         ::testing::Values(fault::Mode::kCrashPreRename,
                                           fault::Mode::kSnapshotTorn,
                                           fault::Mode::kLogTorn,
                                           fault::Mode::kFsyncFail),
                         [](const ::testing::TestParamInfo<fault::Mode>& i) {
                           return std::string(fault::ModeName(i.param));
                         });

}  // namespace
}  // namespace progidx
