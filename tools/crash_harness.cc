// Crash-recovery harness (docs/recovery.md): SIGKILLs a serving child
// at a seeded random point mid-workload, recovers in a fresh process,
// and asserts the recovered index is bit-identical to a cold replay of
// the durable admitted log — and that its answers match the scan
// oracle.
//
// Three modes, self-exec'd so every phase runs in a process that has
// never forked with live threads:
//
//   crash_harness                      coordinator (default: 10 trials)
//   crash_harness --serve  <dir> <algo> <seed>   serve until killed
//   crash_harness --verify <dir> <algo> <seed>   recover + assert
//
// The coordinator runs two kill rounds per trial on the same directory
// (the second serving child must itself recover first), cycling the
// four progressive indexes plus their UpdatableIndex-wrapped variants
// ("pq+u" ...), whose workload mixes appends and deletes into the
// served queries — so a kill can land mid-delta or mid-budgeted-merge
// and recovery must reproduce delta, tombstones, and merge cursor byte
// for byte (docs/updates.md). PROGIDX_CRASH_TRIALS and PROGIDX_SEED
// override the defaults; PROGIDX_FAULT=crash_* modes compose — the
// serving child then also damages its own durable state on the way
// down, and recovery must still hold.

#include <sys/stat.h>
#include <sys/types.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "baselines/full_index.h"
#include "common/env.h"
#include "common/rng.h"
#include "core/progressive_bucketsort.h"
#include "core/progressive_quicksort.h"
#include "core/progressive_radixsort_lsd.h"
#include "core/progressive_radixsort_msd.h"
#include "core/updatable_index.h"
#include "exec/zero_budget_scan.h"
#include "persist/calibration_store.h"
#include "persist/io.h"
#include "persist/wal.h"
#include "serve/epoch.h"
#include "serve/recovery.h"
#include "serve/server.h"

namespace {

using namespace progidx;  // NOLINT — single-file tool

constexpr size_t kColumnSize = 20000;
constexpr size_t kWorkloadOps = 400;
constexpr double kDelta = 0.05;

Column MakeColumn(uint64_t seed) {
  Rng rng(seed);
  std::vector<value_t> values(kColumnSize);
  for (value_t& v : values) v = rng.NextInRange(0, 1 << 20);
  return Column(std::move(values));
}

RangeQuery MakeQuery(Rng* rng) {
  const value_t a = rng->NextInRange(0, 1 << 20);
  const value_t b = rng->NextInRange(0, 1 << 20);
  return a <= b ? RangeQuery{a, b} : RangeQuery{b, a};
}

bool IsUpdatableAlgo(const std::string& algo) {
  return algo.size() > 2 && algo.compare(algo.size() - 2, 2, "+u") == 0;
}

std::unique_ptr<IndexBase> MakeInner(const std::string& base,
                                     const Column& column,
                                     const MachineConstants* mc) {
  const BudgetSpec budget = BudgetSpec::FixedDelta(kDelta);
  ProgressiveOptions opt;
  opt.machine = mc;
  if (base == "pq") {
    return std::unique_ptr<IndexBase>(
        new ProgressiveQuicksort(column, budget, opt));
  }
  if (base == "pb") {
    return std::unique_ptr<IndexBase>(
        new ProgressiveBucketsort(column, budget, opt));
  }
  if (base == "plsd") {
    return std::unique_ptr<IndexBase>(
        new ProgressiveRadixsortLSD(column, budget, opt));
  }
  if (base == "pmsd") {
    return std::unique_ptr<IndexBase>(
        new ProgressiveRadixsortMSD(column, budget, opt));
  }
  std::fprintf(stderr, "crash_harness: unknown algo %s\n", base.c_str());
  std::exit(2);
}

/// Builds instances from the machine constants RecoverIndex hands
/// back — the directory's pinned calibration — never this process's
/// own measurement, so every run over one persist dir walks the same
/// budget trajectory (docs/recovery.md, calibration pinning). "<algo>+u"
/// wraps the progressive index in an UpdatableIndex whose factory
/// rebuilds the inner index (same constants) after every merge.
std::function<std::unique_ptr<IndexBase>(const MachineConstants&)> FactoryFor(
    const std::string& algo, const Column& column) {
  if (!IsUpdatableAlgo(algo)) {
    return [&column, algo](const MachineConstants& mc) {
      return MakeInner(algo, column, &mc);
    };
  }
  const std::string base = algo.substr(0, algo.size() - 2);
  return [&column, base](const MachineConstants& mc) {
    // The inner factory outlives this call (it re-fires on every
    // merge), so it owns a copy of the constants.
    auto pinned = std::make_shared<MachineConstants>(mc);
    UpdatableIndex::IndexFactory inner = [base, pinned](const Column& c) {
      return MakeInner(base, c, pinned.get());
    };
    return std::unique_ptr<IndexBase>(new UpdatableIndex(
        std::vector<value_t>(column.values()), std::move(inner)));
  };
}

/// The seeded mixed workload of one serving round: ~70% queries, the
/// rest appends and deletes (updatable algos only). Deletes target only
/// values this run appended earlier, so the Delete precondition —
/// value present — holds no matter where a previous kill landed: the
/// blocking Submit orders the WAL, so any durable delete's append is in
/// the durable prefix too.
ServeRequest NextOp(Rng* rng, bool updatable, std::vector<value_t>* pool) {
  if (updatable) {
    const uint64_t roll = rng->NextBounded(10);
    if (roll >= 7) {
      const bool del = roll == 9 && !pool->empty();
      if (del) {
        const size_t at = rng->NextBounded(pool->size());
        const value_t v = (*pool)[at];
        (*pool)[at] = pool->back();
        pool->pop_back();
        return ServeRequest::Delete(v);
      }
      const value_t v = rng->NextInRange(0, 1 << 20);
      pool->push_back(v);
      return ServeRequest::Append(v);
    }
  }
  return ServeRequest(MakeQuery(rng));
}

std::string StatePayload(const IndexBase& index) {
  persist::Writer w;
  index.SaveState(&w);
  return w.payload();
}

int RunServe(const std::string& dir, const std::string& algo,
             uint64_t seed) {
  const Column column = MakeColumn(seed);
  auto make_fresh = FactoryFor(algo, column);
  // A restarted server must recover before serving — the second kill
  // round exercises recovery-of-recovered state.
  serve::RecoveryStats rec;
  std::unique_ptr<IndexBase> index =
      serve::RecoverIndex(dir, column, make_fresh, &rec);
  serve::ServerConfig cfg;
  cfg.queue_capacity = 16;
  cfg.batch_size = 4;
  cfg.enable_read_epochs = false;  // keep every op in the durable log
  cfg.persist_dir = dir;
  cfg.checkpoint_every = 3;
  serve::Server server(index.get(), column, cfg);
  Rng rng(seed ^ 0x9e3779b97f4a7c15ull);
  const bool updatable = IsUpdatableAlgo(algo);
  std::vector<value_t> pool;
  for (size_t i = 0; i < kWorkloadOps; i++) {
    (void)server.Submit(NextOp(&rng, updatable, &pool));
  }
  return 0;
}

int RunVerify(const std::string& dir, const std::string& algo,
              uint64_t seed) {
  const Column column = MakeColumn(seed);
  auto make_fresh = FactoryFor(algo, column);

  serve::RecoveryStats rec;
  std::unique_ptr<IndexBase> recovered =
      serve::RecoverIndex(dir, column, make_fresh, &rec);

  // Phase breakdown instead of one opaque wall-clock total: where the
  // recovery time went, per serve::RecoveryStats (and the matching
  // recovery.* trace spans when PROGIDX_TRACE is set).
  std::printf(
      "recovery %-6s: wal_read=%.2fms snapshot_load=%.2fms replay=%.2fms "
      "(snapshot=%s seq=%llu rejected=%zu replayed=%llu/%llu)\n",
      algo.c_str(), rec.wal_read_ms, rec.snapshot_load_ms, rec.replay_ms,
      rec.snapshot_loaded ? "yes" : "no",
      (unsigned long long)rec.snapshot_seq, rec.snapshots_rejected,
      (unsigned long long)rec.replayed_queries,
      (unsigned long long)rec.log_queries);

  // Independent cold replay of the whole durable log: the ground truth
  // the snapshot+suffix path must land on, byte for byte.
  std::vector<persist::WalEpoch> epochs;
  bool torn = false;
  if (!persist::ReadWal(dir + "/wal", &epochs, &torn)) {
    std::fprintf(stderr, "verify: unreadable WAL in %s\n", dir.c_str());
    return 1;
  }
  // The cold replay must also run on the directory's pinned constants:
  // the crashed server's trajectory is a function of the log AND the
  // pin, not of whatever this verifier process happens to measure.
  MachineConstants pinned;
  persist::PinOrLoadCalibration(dir, GlobalMachineConstants, &pinned);
  std::unique_ptr<IndexBase> cold = make_fresh(pinned);
  std::vector<QueryResult> sink;
  for (const persist::WalEpoch& e : epochs) {
    if (e.ops.empty()) continue;
    sink.resize(e.ops.size());
    serve::ExecuteEpoch(cold.get(), e.ops.data(), e.ops.size(), sink.data());
  }

  if (StatePayload(*recovered) != StatePayload(*cold)) {
    std::fprintf(stderr,
                 "verify: recovered state diverges from cold replay "
                 "(algo=%s seed=%llu snapshot_loaded=%d rejected=%zu "
                 "replayed=%llu log_queries=%llu)\n",
                 algo.c_str(), (unsigned long long)seed,
                 rec.snapshot_loaded ? 1 : 0, rec.snapshots_rejected,
                 (unsigned long long)rec.replayed_queries,
                 (unsigned long long)rec.log_queries);
    return 1;
  }

  // Post-recovery answers must match a scan oracle exactly. Under
  // updates the original column is stale, so the oracle is the durable
  // log applied to a plain multiset: appends push, deletes remove one
  // occurrence.
  std::vector<value_t> oracle(column.values());
  for (const persist::WalEpoch& e : epochs) {
    for (const ServeRequest& op : e.ops) {
      if (op.op == OpKind::kAppend) {
        oracle.push_back(op.value);
      } else if (op.op == OpKind::kDelete) {
        auto it = std::find(oracle.begin(), oracle.end(), op.value);
        if (it == oracle.end()) {
          std::fprintf(stderr, "verify: durable delete of absent value\n");
          return 1;
        }
        *it = oracle.back();
        oracle.pop_back();
      }
    }
  }
  Rng rng(seed ^ 0x7f4a7c159e3779b9ull);
  for (int i = 0; i < 16; i++) {
    const RangeQuery q = MakeQuery(&rng);
    const QueryResult got = recovered->Query(q);
    QueryResult want;
    for (const value_t v : oracle) {
      if (v >= q.low && v <= q.high) {
        want.sum += v;
        want.count++;
      }
    }
    if (!(got == want)) {
      std::fprintf(stderr, "verify: wrong answer after recovery (algo=%s)\n",
                   algo.c_str());
      return 1;
    }
  }
  return 0;
}

pid_t SpawnSelf(const char* self, const char* mode, const std::string& dir,
                const std::string& algo, uint64_t seed) {
  const pid_t pid = ::fork();
  if (pid != 0) return pid;
  const std::string seed_s = std::to_string(seed);
  ::execl(self, self, mode, dir.c_str(), algo.c_str(), seed_s.c_str(),
          (char*)nullptr);
  std::perror("crash_harness: execl");
  std::_Exit(127);
}

int WaitFor(pid_t pid) {
  int status = 0;
  ::waitpid(pid, &status, 0);
  if (WIFEXITED(status)) return WEXITSTATUS(status);
  return -WTERMSIG(status);
}

int RunCoordinator(const char* self) {
  const uint64_t seed = env::BoundedSizeFromEnv(
      "PROGIDX_SEED", 0, SIZE_MAX, 42, "crash harness seed", nullptr);
  const size_t trials = env::BoundedSizeFromEnv(
      "PROGIDX_CRASH_TRIALS", 1, 1000, 10, "crash trials", nullptr);
  // Interleaved so the default 10 trials cover both halves: plain
  // then updatable for each algorithm.
  const char* algos[] = {"pq",   "pq+u",   "pb",   "pb+u",
                         "plsd", "plsd+u", "pmsd", "pmsd+u"};
  Rng rng(seed);
  char dir_template[] = "/tmp/progidx_crash_XXXXXX";
  const char* tmp_root = ::mkdtemp(dir_template);
  if (tmp_root == nullptr) {
    std::perror("crash_harness: mkdtemp");
    return 2;
  }
  int failures = 0;
  for (size_t t = 0; t < trials; t++) {
    const std::string algo = algos[t % 8];
    const uint64_t trial_seed = seed + t;
    const std::string dir =
        std::string(tmp_root) + "/trial" + std::to_string(t);
    ::mkdir(dir.c_str(), 0777);
    for (int round = 0; round < 2; round++) {
      const pid_t child = SpawnSelf(self, "--serve", dir, algo, trial_seed);
      // Seeded kill point: somewhere inside the workload. Some rounds
      // let the child finish cleanly — recovery must be exact then too.
      ::usleep(static_cast<useconds_t>(5000 + rng.NextBounded(250000)));
      ::kill(child, SIGKILL);
      const int serve_rc = WaitFor(child);
      const pid_t verifier =
          SpawnSelf(self, "--verify", dir, algo, trial_seed);
      const int rc = WaitFor(verifier);
      std::printf("trial %zu round %d algo=%-6s serve_rc=%4d verify=%s\n", t,
                  round, algo.c_str(), serve_rc, rc == 0 ? "OK" : "FAIL");
      if (rc != 0) failures++;
    }
  }
  if (failures > 0) {
    std::fprintf(stderr, "crash_harness: %d failed round(s), state kept in %s\n",
                 failures, tmp_root);
    return 1;
  }
  const std::string cleanup = std::string("rm -rf ") + tmp_root;
  (void)std::system(cleanup.c_str());
  std::printf("crash_harness: all %zu trials recovered exactly\n", trials);
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc == 5 && std::strcmp(argv[1], "--serve") == 0) {
    return RunServe(argv[2], argv[3], std::strtoull(argv[4], nullptr, 10));
  }
  if (argc == 5 && std::strcmp(argv[1], "--verify") == 0) {
    return RunVerify(argv[2], argv[3], std::strtoull(argv[4], nullptr, 10));
  }
  return RunCoordinator(argv[0]);
}
