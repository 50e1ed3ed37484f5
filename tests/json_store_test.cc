// bench/json_store.h hardening: a corrupt or truncated
// BENCH_kernels.json must never silently lose data — the unparseable
// bytes are backed up to `.bak` and the store starts fresh — and the
// read-merge-write cycle must round-trip foreign sections untouched.

#include <stdlib.h>

#include <cstdio>
#include <string>

#include <gtest/gtest.h>

#include "bench/json_store.h"

namespace progidx {
namespace bench {
namespace {

/// A directory of this process's own, removed at exit: test processes
/// running side by side (the parallel ctest lanes) never share a path.
struct ProcessTempDir {
  ProcessTempDir() {
    std::string tmpl = ::testing::TempDir() + "progidx_json_store_XXXXXX";
    if (::mkdtemp(tmpl.data()) != nullptr) path = tmpl;
  }
  ~ProcessTempDir() {
    if (path.empty()) return;
    const std::string cmd = "rm -rf " + path;
    (void)std::system(cmd.c_str());
  }
  std::string path;
};

std::string TempPath(const char* name) {
  static const ProcessTempDir dir;
  EXPECT_FALSE(dir.path.empty()) << "mkdtemp failed";
  return dir.path + "/" + name;
}

void WriteFile(const std::string& path, const std::string& content) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  ASSERT_NE(f, nullptr);
  ASSERT_EQ(std::fwrite(content.data(), 1, content.size(), f),
            content.size());
  ASSERT_EQ(std::fclose(f), 0);
}

std::string ReadFile(const std::string& path) {
  std::string text;
  if (std::FILE* f = std::fopen(path.c_str(), "r")) {
    char buf[4096];
    size_t got;
    while ((got = std::fread(buf, 1, sizeof buf, f)) > 0) text.append(buf, got);
    std::fclose(f);
  }
  return text;
}

TEST(JsonStoreTest, MissingFileReadsEmpty) {
  const std::string path = TempPath("json_store_missing.json");
  std::remove(path.c_str());
  EXPECT_TRUE(ReadJsonSections(path.c_str()).empty());
  // No spurious backup for a file that never existed.
  EXPECT_TRUE(ReadFile(path + ".bak").empty());
}

TEST(JsonStoreTest, RoundTripPreservesForeignSections) {
  const std::string path = TempPath("json_store_roundtrip.json");
  WriteFile(path, "{\n  \"kernels\": [ {\"tier\": \"avx2\"} ],\n"
                  "  \"batch\": [1, 2, 3]\n}\n");
  std::vector<JsonSection> sections = ReadJsonSections(path.c_str());
  ASSERT_EQ(sections.size(), 2u);
  UpsertJsonSection(&sections, "serving", "[{\"clients\": 4}]");
  ASSERT_TRUE(WriteJsonSections(path.c_str(), sections));

  const std::vector<JsonSection> reread = ReadJsonSections(path.c_str());
  ASSERT_EQ(reread.size(), 3u);
  EXPECT_EQ(reread[0].key, "kernels");
  EXPECT_EQ(reread[0].raw, "[ {\"tier\": \"avx2\"} ]");
  EXPECT_EQ(reread[1].key, "batch");
  EXPECT_EQ(reread[2].key, "serving");
  EXPECT_EQ(reread[2].raw, "[{\"clients\": 4}]");
}

TEST(JsonStoreTest, TruncatedFileIsBackedUpAndStartsFresh) {
  const std::string path = TempPath("json_store_truncated.json");
  const std::string bak = path + ".bak";
  std::remove(bak.c_str());
  // A write interrupted mid-value: unbalanced braces, no closing brace.
  const std::string truncated = "{\n  \"kernels\": [ {\"tier\": \"sc";
  WriteFile(path, truncated);

  EXPECT_TRUE(ReadJsonSections(path.c_str()).empty());
  // The bad bytes moved to the backup, byte-for-byte.
  EXPECT_EQ(ReadFile(bak), truncated);

  // The next write starts a fresh object that parses cleanly.
  std::vector<JsonSection> sections;
  UpsertJsonSection(&sections, "serving", "[]");
  ASSERT_TRUE(WriteJsonSections(path.c_str(), sections));
  const std::vector<JsonSection> reread = ReadJsonSections(path.c_str());
  ASSERT_EQ(reread.size(), 1u);
  EXPECT_EQ(reread[0].key, "serving");
  // And the backup still holds the pre-corruption bytes.
  EXPECT_EQ(ReadFile(bak), truncated);
}

TEST(JsonStoreTest, GarbageContentIsBackedUp) {
  const std::string path = TempPath("json_store_garbage.json");
  WriteFile(path, "not json at all");
  EXPECT_TRUE(ReadJsonSections(path.c_str()).empty());
  EXPECT_EQ(ReadFile(path + ".bak"), "not json at all");
}

TEST(JsonStoreTest, RepeatedCorruptionKeepsEveryBackup) {
  // A second corruption event must not clobber the first event's
  // backup: the suffixes number upward (.bak, .bak.1, .bak.2, …).
  const std::string path = TempPath("json_store_repeat.json");
  std::remove((path + ".bak").c_str());
  std::remove((path + ".bak.1").c_str());
  std::remove((path + ".bak.2").c_str());

  WriteFile(path, "first corruption");
  EXPECT_TRUE(ReadJsonSections(path.c_str()).empty());
  WriteFile(path, "second corruption");
  EXPECT_TRUE(ReadJsonSections(path.c_str()).empty());
  WriteFile(path, "third corruption");
  EXPECT_TRUE(ReadJsonSections(path.c_str()).empty());

  EXPECT_EQ(ReadFile(path + ".bak"), "first corruption");
  EXPECT_EQ(ReadFile(path + ".bak.1"), "second corruption");
  EXPECT_EQ(ReadFile(path + ".bak.2"), "third corruption");

  std::remove((path + ".bak").c_str());
  std::remove((path + ".bak.1").c_str());
  std::remove((path + ".bak.2").c_str());
}

TEST(JsonStoreTest, WhitespaceOnlyFileIsFreshNotCorrupt) {
  const std::string path = TempPath("json_store_blank.json");
  const std::string bak = path + ".bak";
  std::remove(bak.c_str());
  WriteFile(path, "  \n\t\n");
  EXPECT_TRUE(ReadJsonSections(path.c_str()).empty());
  // Whitespace is treated as an empty store, not corruption: no backup.
  EXPECT_TRUE(ReadFile(bak).empty());
}

}  // namespace
}  // namespace bench
}  // namespace progidx
