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
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "common/fault.h"
#include "common/rng.h"
#include "core/budget.h"
#include "core/incremental_quicksort.h"
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
#include "tests/fixed_constants.h"
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

// --- snapshot geometry -------------------------------------------------

uint64_t GetU64(const std::string& s, size_t offset) {
  uint64_t v = 0;
  std::memcpy(&v, s.data() + offset, sizeof(v));
  return v;
}

void PutU64(std::string* s, size_t offset, uint64_t v) {
  std::memcpy(s->data() + offset, &v, sizeof(v));
}

// The full index's sorted array must be sorted: the B+-tree replay
// checks only the keys it samples, so two values swapped inside one
// leaf loaded before and answered ranges around them wrongly.
TEST(PersistRoundTrip, FullIndexRejectsUnsortedArray) {
  constexpr size_t kN = 4096;
  const Column column = MakeUniformColumn(kN, 191);
  auto index = MakeIndex("fi", column, BudgetSpec::FixedDelta(0.25));
  index->Query({column.min_value(), column.max_value()});
  const std::string saved = StatePayload(*index);
  // The built flag, then the array's count and values.
  ASSERT_EQ(GetU64(saved, 0), 1u);
  ASSERT_EQ(GetU64(saved, 8), kN);
  const auto loads = [&](const std::string& payload) {
    auto reloaded = MakeIndex("fi", column, BudgetSpec::FixedDelta(0.25));
    persist::Reader r = persist::Reader::FromPayload(payload);
    return reloaded->LoadState(&r);
  };
  ASSERT_TRUE(loads(saved));
  // Positions 10 and 20 sit inside the first 64-key leaf.
  const size_t a = 16 + 8 * 10;
  const size_t b = 16 + 8 * 20;
  ASSERT_NE(GetU64(saved, a), GetU64(saved, b));
  std::string patched = saved;
  PutU64(&patched, a, GetU64(saved, b));
  PutU64(&patched, b, GetU64(saved, a));
  EXPECT_FALSE(loads(patched));
}

// While creating, pq's snapshot carries only its two filled fringes:
// 8·copy_pos_ bytes of values, not the n-slot array whose gap holds
// only zeros and the partition kernels' stray writes. Two creation
// payloads differ in size by exactly the values copied between them.
TEST(PersistRoundTrip, QuicksortCreationPayloadCarriesOnlyCopiedValues) {
  constexpr size_t kN = 8000;
  const Column column = MakeUniformColumn(kN, 71);
  ProgressiveOptions options;
  options.machine = &FixedConstants();
  auto index = MakeIndex("pq", column, BudgetSpec::FixedDelta(0.1), options);
  // copy_pos_, from the creation convergence fraction 0.5·copy_pos_/n.
  const auto copied = [&] {
    return static_cast<size_t>(
        std::llround(2.0 * kN * index->ConvergenceFraction()));
  };
  const RangeQuery all{column.min_value(), column.max_value()};
  index->Query(all);
  const size_t copied1 = copied();
  const std::string first = StatePayload(*index);
  index->Query(all);
  const size_t copied2 = copied();
  const std::string second = StatePayload(*index);
  ASSERT_EQ(GetU64(second, 0), 0u) << "still creating";
  ASSERT_GT(copied1, 0u);
  ASSERT_GT(copied2, copied1);
  ASSERT_LT(copied2, kN);
  EXPECT_EQ(second.size() - first.size(), 8 * (copied2 - copied1));
  // The phase word, four scalars, the budget and two run counts.
  EXPECT_LT(first.size(), 8 * copied1 + 256);
}

/// Offset just past the BucketChain saved at `offset` (block capacity,
/// element count, then one count-prefixed run per block).
size_t SkipChain(const std::string& s, size_t offset) {
  size_t left = GetU64(s, offset + 8);
  offset += 16;
  while (left > 0) {
    const size_t run = GetU64(s, offset);
    offset += 8 + 8 * run;
    left -= run;
  }
  return offset;
}

/// Offset of pb's bucket chain `b`. The chains follow min_, max_, the
/// boundaries, copy_pos_, final_ and the chain count.
size_t PbChainOffset(const std::string& s, size_t n, size_t b) {
  size_t offset = 56 + 8 * GetU64(s, 24) + 8 * n;
  for (size_t i = 0; i < b; i++) offset = SkipChain(s, offset);
  return offset;
}

/// Offset of pb's merge_bucket_, which follows the last chain.
size_t PbMergeBucketOffset(const std::string& s, size_t n) {
  return PbChainOffset(s, n, GetU64(s, 48 + 8 * GetU64(s, 24) + 8 * n));
}

/// Offset of the B+-tree tail of a consolidation or done payload: n,
/// fanout (64), complete, level count and the count-prefixed levels,
/// followed only by the builder's cursor and keys remaining. npos when
/// the payload has none.
size_t TreeOffset(const std::string& s, size_t n) {
  for (size_t o = 8; o + 48 <= s.size(); o += 8) {
    if (GetU64(s, o) != n || GetU64(s, o + 8) != 64) continue;
    size_t p = o + 32;
    uint64_t levels = GetU64(s, o + 24);
    while (levels > 0 && p + 8 <= s.size() && GetU64(s, p) < s.size()) {
      p += 8 + 8 * GetU64(s, p);
      levels--;
    }
    if (levels == 0 && p + 16 == s.size()) return o;
  }
  return std::string::npos;
}

/// One field of a real, CRC-valid payload rewritten to contradict what
/// the constructor derives from the same column and options, or what
/// the rest of the payload says. Offsets follow each index's SaveBody
/// layout after the 8-byte phase word; `n` is the column size. `patch`
/// returns false when the payload lacks the state it rewrites (the
/// test then runs another query and tries again).
struct GeometryMutation {
  const char* name;
  const char* algo;
  uint64_t phase;  ///< phase word of the payload (the index's Phase enum)
  bool (*patch)(std::string* payload, size_t n);
  /// Build on FixedConstants() rather than this process's calibration,
  /// for a phase that some calibrations finish within one query.
  bool fixed_constants = false;
};

const GeometryMutation kGeometryMutations[] = {
    // pq while creating: pivot_, copy_pos_, low_pos_, high_pos_, the
    // budget controller, then the two fringes (count + values each),
    // which end the payload. From refinement on: index_ (count + n
    // values), the same scalars and budget, then the refinement sorter
    // (span length first). A high_pos_ off the fringe invariant would
    // make the next creation step write before index_; fringes that
    // overlap past the end would make it read past the column; a
    // fringe shorter than its frontier says would leave a copied slot
    // zero.
    {"pq_high_pos", "pq", 0,
     [](std::string* s, size_t) {
       PutU64(s, 32, static_cast<uint64_t>(int64_t{-5}));
       return true;
     }},
    {"pq_overlapping_fringes", "pq", 0,
     [](std::string* s, size_t n) {
       PutU64(s, 16, 2 * n);
       PutU64(s, 24, n);
       PutU64(s, 32, static_cast<uint64_t>(int64_t{-1}));
       return true;
     }},
    {"pq_pivot", "pq", 0,
     [](std::string* s, size_t) {
       PutU64(s, 8, GetU64(*s, 8) + 1);
       return true;
     }},
    {"pq_fringe_short_of_copy_pos", "pq", 0,
     [](std::string* s, size_t n) {
       // Drop the high fringe's last value: the runs then hold
       // copy_pos_ − 1 values.
       const size_t high_count = n - 1 - GetU64(*s, 32);
       const size_t count_at = s->size() - 8 * high_count - 8;
       if (high_count == 0 || GetU64(*s, count_at) != high_count) {
         return false;
       }
       PutU64(s, count_at, high_count - 1);
       s->resize(s->size() - 8);
       return true;
     }},
    {"pq_sorter_length", "pq", 1,
     [](std::string* s, size_t n) {
       PutU64(s, 64 + 8 * n, n + 1);
       return true;
     }},
    // pmsd: min_, max_, root_shift_, root_mask_, copy_pos_, merged_,
    // the budget controller, then final_ and the pending buckets. Shift
    // 0 would send root bucket ids past the 64 chains; a split with
    // one child would scatter up to 64 ids into it.
    {"pmsd_root_shift", "pmsd", 0,
     [](std::string* s, size_t) {
       PutU64(s, 24, 0);
       return true;
     }},
    {"pmsd_root_mask", "pmsd", 0,
     [](std::string* s, size_t) {
       PutU64(s, 32, 255);
       return true;
     }},
    {"pmsd_min", "pmsd", 0,
     [](std::string* s, size_t) {
       PutU64(s, 8, GetU64(*s, 8) - 1);
       return true;
     }},
    {"pmsd_split_children", "pmsd", 1,
     [](std::string* s, size_t n) {
       // The front pending bucket: lo, hi, shift, chain, splitting,
       // cursor (block, offset), child count, children.
       const size_t front = 88 + 8 * n;
       if (GetU64(*s, 80 + 8 * n) == 0 || GetU64(*s, front + 16) < 6) {
         return false;
       }
       const size_t splitting = SkipChain(*s, front + 24);
       if (GetU64(*s, splitting) != 0) return false;
       PutU64(s, splitting, 1);
       PutU64(s, splitting + 24, 1);
       std::string empty_child(16, '\0');
       PutU64(&empty_child, 0, GetU64(*s, front + 24));
       s->insert(splitting + 32, empty_child);
       return true;
     }},
    // plsd: min_, max_, total_passes_, copy_pos_, pass_. Pass 0 in
    // refinement would shift the input generation's digits by
    // 6·(2^64 − 1); a copy_pos_ behind the chains' contents would copy
    // elements twice.
    {"plsd_pass_zero", "plsd", 1,
     [](std::string* s, size_t) {
       PutU64(s, 40, 0);
       return true;
     }},
    {"plsd_total_passes", "plsd", 1,
     [](std::string* s, size_t) {
       PutU64(s, 24, GetU64(*s, 24) + 1);
       return true;
     }},
    {"plsd_max", "plsd", 1,
     [](std::string* s, size_t) {
       PutU64(s, 16, GetU64(*s, 16) + 1);
       return true;
     }},
    {"plsd_copy_pos", "plsd", 0,
     [](std::string* s, size_t) {
       if (GetU64(*s, 32) == 0) return false;
       PutU64(s, 32, GetU64(*s, 32) - 1);
       return true;
     }},
    // pb: min_, max_, boundaries_ (count + values), copy_pos_, final_,
    // the bucket chains, then merge_bucket_, sorted_end_, fill_pos_,
    // filling_, fill_cursor_ (block, offset). No boundaries would send
    // BucketHi past the end of the vector; a fill position past the
    // drained elements would make the next fill write past final_, or
    // sort final_ slots the bucket never filled into its sorted prefix.
    {"pb_no_boundaries", "pb", 0,
     [](std::string* s, size_t) {
       const size_t count = GetU64(*s, 24);
       s->erase(32, 8 * count);
       PutU64(s, 24, 0);
       return true;
     }},
    {"pb_boundary_order", "pb", 0,
     [](std::string* s, size_t) {
       PutU64(s, 32, GetU64(*s, 16));
       return true;
     }},
    {"pb_fill_past_end", "pb", 1,
     [](std::string* s, size_t n) {
       const size_t merge_bucket = PbMergeBucketOffset(*s, n);
       if (GetU64(*s, merge_bucket + 24) == 0) return false;  // not filling
       PutU64(s, merge_bucket + 16, n);
       return true;
     }},
    {"pb_fill_cursor_at_chain_end", "pb", 1,
     [](std::string* s, size_t n) {
       const size_t merge_bucket = PbMergeBucketOffset(*s, n);
       if (GetU64(*s, merge_bucket + 24) == 0) return false;  // not filling
       // The end cursor of an active chain with a partial tail block,
       // with fill_pos_ block × capacity past sorted_end_: more elements
       // than the chain holds.
       const size_t chain = PbChainOffset(*s, n, GetU64(*s, merge_bucket));
       const size_t capacity = GetU64(*s, chain);
       const size_t size = GetU64(*s, chain + 8);
       const size_t blocks = (size + capacity - 1) / capacity;
       const size_t sorted_end = GetU64(*s, merge_bucket + 8);
       if (size % capacity == 0 || sorted_end + blocks * capacity > n) {
         return false;
       }
       PutU64(s, merge_bucket + 16, sorted_end + blocks * capacity);
       PutU64(s, merge_bucket + 32, blocks);
       PutU64(s, merge_bucket + 40, 0);
       return true;
     }},
    // The B+-tree tail every index shares, taken from converged
    // payloads (phase 3 is done for pq and pmsd, 4 for plsd), which
    // these three reach within the workload whatever the calibrated
    // constants. A fanout other than the options', or levels other than
    // the build copies from the sorted array, would descend windows
    // that do not match the level below — a root key too many sends
    // LowerBound's window past it; a cursor or remaining count off the
    // levels would resume the build elsewhere.
    {"pq_btree_fanout", "pq", 3,
     [](std::string* s, size_t n) {
       const size_t tree = TreeOffset(*s, n);
       if (tree == std::string::npos) return false;
       PutU64(s, tree + 8, 32);
       return true;
     }},
    {"pmsd_btree_level_size", "pmsd", 3,
     [](std::string* s, size_t n) {
       const size_t tree = TreeOffset(*s, n);
       if (tree == std::string::npos || GetU64(*s, tree + 24) == 0) {
         return false;
       }
       // Repeat the root level's last key.
       size_t root = tree + 32;
       for (uint64_t l = GetU64(*s, tree + 24); l > 1; l--) {
         root += 8 + 8 * GetU64(*s, root);
       }
       const size_t keys = GetU64(*s, root);
       if (keys == 0) return false;
       s->insert(root + 8 + 8 * keys, s->substr(root + 8 * keys, 8));
       PutU64(s, root, keys + 1);
       return true;
     }},
    {"plsd_btree_key", "plsd", 4,
     [](std::string* s, size_t n) {
       const size_t tree = TreeOffset(*s, n);
       if (tree == std::string::npos || GetU64(*s, tree + 24) == 0 ||
           GetU64(*s, tree + 32) == 0) {
         return false;
       }
       PutU64(s, tree + 40, GetU64(*s, tree + 40) - 1);
       return true;
     }},
    {"pq_btree_complete", "pq", 3,
     [](std::string* s, size_t n) {
       const size_t tree = TreeOffset(*s, n);
       if (tree == std::string::npos || GetU64(*s, tree + 16) != 1) {
         return false;
       }
       PutU64(s, tree + 16, 0);
       return true;
     }},
    {"pmsd_builder_cursor", "pmsd", 3,
     [](std::string* s, size_t n) {
       if (TreeOffset(*s, n) == std::string::npos) return false;
       PutU64(s, s->size() - 16, GetU64(*s, s->size() - 16) + 64);
       return true;
     }},
    {"plsd_builder_remaining", "plsd", 4,
     [](std::string* s, size_t n) {
       if (TreeOffset(*s, n) == std::string::npos) return false;
       PutU64(s, s->size() - 8, GetU64(*s, s->size() - 8) + 1);
       return true;
     }},
    // pq's consolidation payloads (phase 2), on fixed constants. The
    // done body is the consolidation body, so a consolidation payload
    // relabeled done would report convergence over a partial tree that
    // no later query completes; a cursor off the levels would resume
    // the copy at the wrong key.
    {"pq_done_over_partial_tree", "pq", 2,
     [](std::string* s, size_t n) {
       const size_t tree = TreeOffset(*s, n);
       if (tree == std::string::npos || GetU64(*s, tree + 16) != 0) {
         return false;
       }
       PutU64(s, 0, 3);
       return true;
     },
     true},
    {"pq_consolidation_builder_cursor", "pq", 2,
     [](std::string* s, size_t n) {
       if (TreeOffset(*s, n) == std::string::npos) return false;
       PutU64(s, s->size() - 16, GetU64(*s, s->size() - 16) + 64);
       return true;
     },
     true},
};

class PersistGeometryTest
    : public ::testing::TestWithParam<GeometryMutation> {};

TEST_P(PersistGeometryTest, RejectsPayloadContradictingConstructor) {
  const GeometryMutation& m = GetParam();
  const Column column = MakeUniformColumn(8000, 71);
  const auto workload = WorkloadGenerator::Generate(
      WorkloadPattern::kRandom, column.min_value(), column.max_value(), 60,
      0.1, 73);
  const BudgetSpec budget = BudgetSpec::FixedDelta(0.25);
  ProgressiveOptions options;
  if (m.fixed_constants) options.machine = &FixedConstants();
  auto index = MakeIndex(m.algo, column, budget, options);
  std::string saved;
  std::string patched;
  for (size_t i = 0; i < workload.size(); i++) {
    index->Query(workload[i]);
    saved = StatePayload(*index);
    if (GetU64(saved, 0) > m.phase) break;
    patched = saved;
    if (GetU64(saved, 0) == m.phase && m.patch(&patched, column.size())) {
      break;
    }
  }
  ASSERT_EQ(GetU64(saved, 0), m.phase) << "no payload to patch";
  {
    auto reloaded = MakeIndex(m.algo, column, budget, options);
    persist::Reader r = persist::Reader::FromPayload(saved);
    ASSERT_TRUE(reloaded->LoadState(&r)) << "the unpatched payload loads";
  }
  ASSERT_NE(patched, saved);
  auto reloaded = MakeIndex(m.algo, column, budget, options);
  persist::Reader r = persist::Reader::FromPayload(patched);
  EXPECT_FALSE(reloaded->LoadState(&r)) << m.name;
}

INSTANTIATE_TEST_SUITE_P(
    AllMutations, PersistGeometryTest, ::testing::ValuesIn(kGeometryMutations),
    [](const ::testing::TestParamInfo<GeometryMutation>& i) {
      return std::string(i.param.name);
    });

TEST(PersistSorterGeometry, RejectsSpanOrCursorOutsideTheArray) {
  constexpr size_t kN = 4096;
  std::vector<value_t> data(kN);
  Rng rng(13);
  for (value_t& v : data) v = static_cast<value_t>(rng.NextBounded(kN));
  IncrementalQuicksort sorter;
  sorter.Init(data.data(), kN, 0, kN - 1, /*l1_elements=*/256);
  sorter.DoWork(1000, RangeQuery{0, static_cast<value_t>(kN)});
  persist::Writer w;
  sorter.SaveState(&w);
  const std::string saved = w.payload();
  // n, l1, scale, height, then the root: present, start, end, pivot,
  // min, max, lo, hi, partitioned, sorted. The root is mid-partition,
  // its unclassified region [lo, hi] inside [0, n).
  ASSERT_EQ(GetU64(saved, 96), 0u);
  const auto loads = [&](const std::string& payload, size_t n) {
    IncrementalQuicksort reloaded;
    persist::Reader r = persist::Reader::FromPayload(payload);
    return reloaded.LoadState(&r, data.data(), n);
  };
  EXPECT_TRUE(loads(saved, kN));
  EXPECT_FALSE(loads(saved, kN - 1)) << "a sort over another length";
  std::string patched = saved;
  PutU64(&patched, 88, kN);
  EXPECT_FALSE(loads(patched, kN)) << "hi past the span";
  patched = saved;
  PutU64(&patched, 80, GetU64(saved, 88) + 1);
  EXPECT_FALSE(loads(patched, kN)) << "lo past hi";
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

// ServeStats::checkpoints counts snapshots handed to the persistence
// thread, on the scheduler: read right after the last answer — while
// the last publication may still be in flight — it is a pure function
// of the epoch schedule.
TEST(PersistServerTest, CheckpointCountFollowsEpochSchedule) {
  if (fault::ModeFromEnv() != fault::Mode::kNone) {
    GTEST_SKIP() << "exact checkpoint counts require no armed fault";
  }
  constexpr size_t kEpochs = 10;
  const Column column = MakeUniformColumn(6000, 197);
  serve::ServerConfig cfg = DurableConfig("");
  cfg.checkpoint_every = 3;
  cfg.exact_batches = true;
  const auto workload = WorkloadGenerator::Generate(
      WorkloadPattern::kRandom, column.min_value(), column.max_value(),
      kEpochs * cfg.batch_size, 0.1, 199);
  for (int run = 0; run < 3; run++) {
    TempDir dir;
    cfg.persist_dir = dir.path;
    auto index = MakeIndex("pq", column, BudgetSpec::FixedDelta(0.1));
    serve::Server server(index.get(), column, cfg);
    std::vector<serve::ServeSlot> slots(workload.size());
    for (size_t i = 0; i < workload.size(); i++) {
      server.SubmitOrderedStart(i, workload[i], &slots[i]);
    }
    for (size_t i = 0; i < workload.size(); i++) {
      EXPECT_EQ(server.SubmitOrderedFinish(&slots[i]).result,
                exec::ZeroBudgetScan(column, workload[i]));
    }
    const serve::ServeStats stats = server.stats();
    EXPECT_EQ(stats.write_epochs, kEpochs);
    EXPECT_EQ(stats.checkpoints, kEpochs / cfg.checkpoint_every)
        << "run " << run;
  }
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

/// The measurement callback of an open that must find a valid pin:
/// calibrating there would only be thrown away.
MachineConstants MustNotMeasure() {
  ADD_FAILURE() << "measured although the directory holds a valid pin";
  return FixedConstants();
}

TEST(PersistCalibrationTest, PinRoundTripWinsOverLaterConstants) {
  TempDir dir;
  const MachineConstants a = CraftedConstants();
  int measured = 0;
  MachineConstants first;
  bool pinned_now = false;
  ASSERT_TRUE(persist::PinOrLoadCalibration(
      dir.path,
      [&] {
        measured++;
        return a;
      },
      &first, &pinned_now));
  EXPECT_TRUE(pinned_now);
  EXPECT_EQ(measured, 1);  // an empty directory measures exactly once
  EXPECT_EQ(persist::CalibrationFingerprint(first),
            persist::CalibrationFingerprint(a));

  // A later open with different constants gets the pin, not its own,
  // and never measures.
  MachineConstants b = GlobalMachineConstants();
  ASSERT_NE(persist::CalibrationFingerprint(b),
            persist::CalibrationFingerprint(a));
  ASSERT_TRUE(persist::PinOrLoadCalibration(dir.path, MustNotMeasure, &b,
                                            &pinned_now));
  EXPECT_FALSE(pinned_now);
  EXPECT_EQ(persist::CalibrationFingerprint(b),
            persist::CalibrationFingerprint(a));
  EXPECT_EQ(b.swap_secs, a.swap_secs);
  EXPECT_EQ(b.sort_unit_scale, a.sort_unit_scale);
  EXPECT_STREQ(b.kernel_name, a.kernel_name);  // interned onto a known tier
}

// The pin file and the fingerprint are on-disk and snapshot formats:
// these values were produced by the code before the numeric fields were
// listed once, and any change to that list must move them on purpose.
TEST(PersistCalibrationTest, PinBytesAndFingerprintAreStable) {
  EXPECT_EQ(persist::CalibrationFingerprint(FixedConstants()), 1004694974u);
  TempDir dir;
  MachineConstants pinned;
  ASSERT_TRUE(persist::PinOrLoadCalibration(
      dir.path, [] { return FixedConstants(); }, &pinned));
  const std::string bytes = ReadFileBytes(dir.path + "/calibration");
  EXPECT_EQ(bytes.size(), 216u);
  EXPECT_EQ(persist::Crc32(bytes.data(), bytes.size()), 1317466601u);
}

TEST(PersistCalibrationTest, CorruptPinIsReplacedNeverLoaded) {
  TempDir dir;
  const MachineConstants a = CraftedConstants();
  MachineConstants first;
  ASSERT_TRUE(persist::PinOrLoadCalibration(
      dir.path, [&] { return a; }, &first));
  FlipByte(dir.path + "/calibration", 20);

  int measured = 0;
  MachineConstants b;
  bool pinned_now = false;
  ASSERT_TRUE(persist::PinOrLoadCalibration(
      dir.path,
      [&] {
        measured++;
        return GlobalMachineConstants();
      },
      &b, &pinned_now));
  // The damaged pin is re-measured and re-pinned, not silently loaded.
  EXPECT_TRUE(pinned_now);
  EXPECT_EQ(measured, 1);
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
  const MachineConstants crafted = CraftedConstants();
  MachineConstants pinned;
  ASSERT_TRUE(persist::PinOrLoadCalibration(
      dir.path, [&] { return crafted; }, &pinned));

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

/// Offsets of the four count-prefixed delta runs in an UpdatableIndex
/// payload with no completed merge: merges, phase, merge cursor and
/// step come first, then pending, deleted, frozen pending and frozen
/// deleted.
struct DeltaOffsets {
  size_t pending, deleted, frozen_pending, frozen_deleted;
};
DeltaOffsets UpdatableDeltaOffsets(const std::string& s) {
  DeltaOffsets d{};
  d.pending = 32;
  d.deleted = d.pending + 8 + 8 * GetU64(s, d.pending);
  d.frozen_pending = d.deleted + 8 + 8 * GetU64(s, d.deleted);
  d.frozen_deleted = d.frozen_pending + 8 + 8 * GetU64(s, d.frozen_pending);
  return d;
}

/// Base values 0..999, each once.
Column IotaColumn() {
  std::vector<value_t> values(1000);
  for (size_t i = 0; i < values.size(); i++) {
    values[i] = static_cast<value_t>(i);
  }
  return Column(std::move(values));
}

bool UpdatableLoads(const Column& column, double merge_threshold,
                    const std::string& payload) {
  std::unique_ptr<IndexBase> loaded =
      UpdatableFactory(column, merge_threshold)(GlobalMachineConstants());
  persist::Reader r = persist::Reader::FromPayload(payload);
  return loaded->LoadState(&r);
}

// A tombstone must name a value the multiset holds. One for an absent
// value loaded before: answers covering it subtracted a value nobody
// added, and the merge that froze it aborted on the unconsumed
// tombstone.
TEST(PersistUpdatableTest, RejectsIdleTombstoneForAbsentValue) {
  const Column column = IotaColumn();
  auto original = UpdatableFactory(column, 0.5)(GlobalMachineConstants());
  original->AsUpdatable()->Delete(7);
  original->AsUpdatable()->Delete(8);
  const std::string saved = StatePayload(*original);
  const DeltaOffsets d = UpdatableDeltaOffsets(saved);
  ASSERT_EQ(GetU64(saved, d.deleted), 2u);
  ASSERT_EQ(GetU64(saved, d.deleted + 8), 7u);
  ASSERT_TRUE(UpdatableLoads(column, 0.5, saved));

  std::string patched = saved;
  PutU64(&patched, d.deleted + 8, static_cast<uint64_t>(int64_t{-5}));
  EXPECT_FALSE(UpdatableLoads(column, 0.5, patched)) << "absent value";
  patched = saved;
  PutU64(&patched, d.deleted + 16, 7);
  EXPECT_FALSE(UpdatableLoads(column, 0.5, patched))
      << "two tombstones for the one 7";
}

TEST(PersistUpdatableTest, RejectsMidMergeTombstoneForAbsentValue) {
  const Column column = IotaColumn();
  auto original = UpdatableFactory(column, 0.01)(GlobalMachineConstants());
  UpdatableIndex* updatable = original->AsUpdatable();
  // 12 delta entries cross the threshold (0.01 × 1000); one query
  // freezes them and copies the first slice.
  updatable->Delete(7);
  updatable->Delete(8);
  for (value_t v = 1000; v < 1010; v++) updatable->Append(v);
  (void)updatable->Query(RangeQuery{0, 2000});
  ASSERT_TRUE(updatable->merge_in_progress());
  // The live delta, after the freeze.
  updatable->Append(2000);
  updatable->Delete(500);
  const std::string saved = StatePayload(*original);
  const DeltaOffsets d = UpdatableDeltaOffsets(saved);
  ASSERT_EQ(GetU64(saved, d.deleted), 1u);
  ASSERT_EQ(GetU64(saved, d.frozen_deleted), 2u);
  ASSERT_EQ(GetU64(saved, d.frozen_deleted + 8), 7u);
  ASSERT_EQ(GetU64(saved, d.frozen_deleted + 16), 8u);
  ASSERT_TRUE(UpdatableLoads(column, 0.01, saved));

  // A frozen tombstone for an absent value (still sorted).
  std::string patched = saved;
  PutU64(&patched, d.frozen_deleted + 8, static_cast<uint64_t>(int64_t{-5}));
  EXPECT_FALSE(UpdatableLoads(column, 0.01, patched)) << "frozen, absent";
  // A live tombstone for an absent value, and one for the 8 that the
  // frozen tombstone already deletes.
  patched = saved;
  PutU64(&patched, d.deleted + 8, 5000);
  EXPECT_FALSE(UpdatableLoads(column, 0.01, patched)) << "live, absent";
  patched = saved;
  PutU64(&patched, d.deleted + 8, 8);
  EXPECT_FALSE(UpdatableLoads(column, 0.01, patched))
      << "live, already deleted by a frozen tombstone";
  // A live tombstone for the live append is legal.
  patched = saved;
  PutU64(&patched, d.deleted + 8, 2000);
  EXPECT_TRUE(UpdatableLoads(column, 0.01, patched));
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
