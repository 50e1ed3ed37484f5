// Serving-layer tests (docs/serving.md): exactness under concurrent
// clients, deterministic epoch schedules under SubmitOrdered, deadline
// degradation, overload shedding, the lock-free read-epoch path, and
// every fault-injection mode. The one invariant that holds in *every*
// scenario — overload, expiry, injected faults — is that an answered
// query is answered exactly.

#include <algorithm>
#include <atomic>
#include <chrono>
#include <condition_variable>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "common/fault.h"
#include "common/rng.h"
#include "core/budget.h"
#include "core/progressive_quicksort.h"
#include "core/updatable_index.h"
#include "exec/zero_budget_scan.h"
#include "eval/registry.h"
#include "obs/metrics.h"
#include "parallel/primitives.h"
#include "parallel/thread_pool.h"
#include "serve/epoch.h"
#include "serve/server.h"
#include "workload/data_generator.h"
#include "workload/synthetic.h"

namespace progidx {
namespace {

std::vector<value_t> BaseValues(size_t n, uint64_t seed) {
  return MakeUniformColumn(n, seed).values();
}

/// Restores the environment fault mode on scope exit.
struct FaultModeGuard {
  explicit FaultModeGuard(fault::Mode mode) { fault::SetModeForTesting(mode); }
  ~FaultModeGuard() { fault::ClearModeForTesting(); }
};

TEST(ServeTest, SingleClientServedExactly) {
  const Column column = MakeUniformColumn(5000, 3);
  const auto workload = WorkloadGenerator::Generate(
      WorkloadPattern::kRandom, column.min_value(), column.max_value(), 40,
      0.1, 7);
  auto index = MakeIndex("pq", column, BudgetSpec::FixedDelta(0.1));
  serve::Server server(index.get(), column);
  for (const RangeQuery& q : workload) {
    const serve::Response r = server.Submit(q);
    EXPECT_EQ(r.result, exec::ZeroBudgetScan(column, q));
  }
  const serve::ServeStats stats = server.stats();
  EXPECT_EQ(stats.submitted, workload.size());
  EXPECT_EQ(stats.served + stats.degraded + stats.read_epoch,
            stats.submitted);
}

TEST(ServeTest, ConcurrentClientsServedExactly) {
  constexpr size_t kClients = 4;
  constexpr size_t kPerClient = 50;
  const Column column = MakeUniformColumn(20000, 5);
  const auto workload = WorkloadGenerator::Generate(
      WorkloadPattern::kRandom, column.min_value(), column.max_value(),
      kClients * kPerClient, 0.1, 11);
  auto index = MakeIndex("pq", column, BudgetSpec::FixedDelta(0.05));
  serve::ServerConfig cfg;
  cfg.batch_size = 8;
  serve::Server server(index.get(), column, cfg);
  std::atomic<size_t> wrong{0};
  std::vector<std::thread> clients;
  for (size_t c = 0; c < kClients; ++c) {
    clients.emplace_back([&, c] {
      for (size_t i = 0; i < kPerClient; ++i) {
        const RangeQuery& q = workload[c * kPerClient + i];
        const serve::Response r = server.Submit(q);
        if (!(r.result == exec::ZeroBudgetScan(column, q))) wrong++;
      }
    });
  }
  for (std::thread& t : clients) t.join();
  EXPECT_EQ(wrong.load(), 0u);
  const serve::ServeStats stats = server.stats();
  EXPECT_EQ(stats.submitted, kClients * kPerClient);
  EXPECT_EQ(stats.served + stats.degraded + stats.read_epoch,
            stats.submitted);
}

// The tentpole determinism contract: with ticket-ordered submission and
// exact batches, the epoch schedule is a pure function of admission
// order, so (a) the final index state is bit-identical across client
// counts, and (b) serially replaying the admitted log in the recorded
// epoch chunks on a fresh index reproduces that state bit-for-bit.
TEST(ServeTest, DeterministicEpochScheduleAcrossThreadCounts) {
  constexpr size_t kN = 20000;
  constexpr size_t kQueries = 64;
  constexpr size_t kBatch = 8;
  // Armed for the whole test so the budget-starvation seam (which uses
  // a per-BudgetController counter precisely so replay matches) fires
  // identically in the served run and the serial replay below.
  fault::ArmScope arm;
  const bool faults = fault::ModeFromEnv() != fault::Mode::kNone;
  const std::vector<value_t> values = BaseValues(kN, 13);
  const Column base{std::vector<value_t>(values)};
  const auto workload = WorkloadGenerator::Generate(
      WorkloadPattern::kRandom, base.min_value(), base.max_value(), kQueries,
      0.1, 17);

  std::vector<value_t> reference;
  bool have_reference = false;
  for (const size_t threads : {size_t{1}, size_t{2}, size_t{4}}) {
    Column column{std::vector<value_t>(values)};
    ProgressiveQuicksort index(column, BudgetSpec::FixedDelta(0.05));
    std::vector<ServeRequest> admitted;
    std::vector<size_t> epochs;
    std::vector<serve::Response> responses(kQueries);
    {
      serve::ServerConfig cfg;
      cfg.queue_capacity = 16;
      cfg.batch_size = kBatch;
      // Under injected admission faults some tickets are refused, so a
      // full tail batch may never form — exact batches would strand it.
      cfg.exact_batches = !faults;
      cfg.enable_read_epochs = false;
      serve::Server server(&index, column, cfg);
      // Two-phase ordered submits: each thread admits all its tickets
      // first (so full epochs can form regardless of the client count),
      // then collects the answers.
      std::vector<serve::ServeSlot> slots(kQueries);
      std::vector<std::thread> clients;
      for (size_t t = 0; t < threads; ++t) {
        clients.emplace_back([&, t] {
          for (size_t q = t; q < kQueries; q += threads) {
            server.SubmitOrderedStart(q, workload[q], &slots[q]);
          }
          for (size_t q = t; q < kQueries; q += threads) {
            responses[q] = server.SubmitOrderedFinish(&slots[q]);
          }
        });
      }
      for (std::thread& t : clients) t.join();
      admitted = server.admitted_log();
      epochs = server.epoch_sizes();
    }

    // (b) Serial replay parity, which holds even under injected faults
    // — through the same ExecuteEpoch the scheduler ran.
    Column replay_column{std::vector<value_t>(values)};
    ProgressiveQuicksort replay(replay_column, BudgetSpec::FixedDelta(0.05));
    std::vector<QueryResult> out(kBatch);
    size_t off = 0;
    for (const size_t e : epochs) {
      ASSERT_LE(off + e, admitted.size());
      out.resize(e);
      serve::ExecuteEpoch(&replay, admitted.data() + off, e, out.data());
      off += e;
    }
    EXPECT_EQ(off, admitted.size());
    EXPECT_EQ(replay.phase(), index.phase());
    EXPECT_EQ(replay.index_array(), index.index_array());

    // Answers are exact in every mode.
    for (size_t q = 0; q < kQueries; ++q) {
      EXPECT_EQ(responses[q].result, exec::ZeroBudgetScan(base, workload[q]));
    }

    if (!faults) {
      // (a) Strict schedule: every query admitted in ticket order, all
      // epochs full, and the final state independent of client count.
      ASSERT_EQ(admitted.size(), kQueries);
      for (size_t q = 0; q < kQueries; ++q) {
        EXPECT_EQ(admitted[q].query.low, workload[q].low);
        EXPECT_EQ(admitted[q].query.high, workload[q].high);
        EXPECT_FALSE(responses[q].degraded);
      }
      for (const size_t e : epochs) EXPECT_EQ(e, kBatch);
      if (!have_reference) {
        reference = index.index_array();
        have_reference = true;
      } else {
        EXPECT_EQ(index.index_array(), reference);
      }
    }
  }
}

TEST(ServeTest, DeadlineExpiryDegradesToExactScan) {
  constexpr size_t kClients = 4;
  constexpr size_t kPerClient = 30;
  const Column column = MakeUniformColumn(200000, 19);
  const auto workload = WorkloadGenerator::Generate(
      WorkloadPattern::kRandom, column.min_value(), column.max_value(),
      kClients * kPerClient, 0.1, 23);
  auto index = MakeIndex("pq", column, BudgetSpec::FixedDelta(0.02));
  serve::ServerConfig cfg;
  cfg.batch_size = 4;
  cfg.deadline_us = 1;  // expires while queued behind full-column epochs
  serve::Server server(index.get(), column, cfg);
  std::atomic<size_t> wrong{0};
  std::vector<std::thread> clients;
  for (size_t c = 0; c < kClients; ++c) {
    clients.emplace_back([&, c] {
      for (size_t i = 0; i < kPerClient; ++i) {
        const RangeQuery& q = workload[c * kPerClient + i];
        const serve::Response r = server.Submit(q);
        if (!(r.result == exec::ZeroBudgetScan(column, q))) wrong++;
      }
    });
  }
  for (std::thread& t : clients) t.join();
  EXPECT_EQ(wrong.load(), 0u);
  const serve::ServeStats stats = server.stats();
  EXPECT_GT(stats.degraded, 0u) << "1us deadline should expire some queries";
  EXPECT_EQ(stats.served + stats.degraded + stats.read_epoch,
            stats.submitted);
}

TEST(ServeTest, DeadlineZeroDegradesEveryQueryImmediately) {
  // deadline_us = 0 is a *real* deadline that has already expired at
  // submit time — not "no deadline" (that is kNoDeadline, the default).
  // Every query must degrade to the exact zero-budget scan without ever
  // reaching a write epoch: the "serve exactly, never wait" extreme.
  const Column column = MakeUniformColumn(20000, 61);
  const auto workload = WorkloadGenerator::Generate(
      WorkloadPattern::kRandom, column.min_value(), column.max_value(), 64,
      0.1, 67);
  auto index = MakeIndex("pq", column, BudgetSpec::FixedDelta(0.1));
  serve::ServerConfig cfg;
  cfg.deadline_us = 0;
  cfg.enable_read_epochs = false;
  serve::Server server(index.get(), column, cfg);
  for (const RangeQuery& q : workload) {
    const serve::Response r = server.Submit(q);
    EXPECT_TRUE(r.degraded);
    EXPECT_EQ(r.result, exec::ZeroBudgetScan(column, q));
  }
  const serve::ServeStats stats = server.stats();
  EXPECT_EQ(stats.degraded, stats.submitted);
  EXPECT_EQ(stats.served, 0u);
}

TEST(ServeTest, DeadlineExpiresWhileBlockedInAdmit) {
  // A 1-deep queue under several clients forces submitters to block
  // *inside* AdmissionQueue::Admit waiting for space; a short deadline
  // then expires on that wait (AdmitResult::kExpired), and the client
  // must answer itself — exactly. The large column + tiny delta keeps
  // each epoch slow enough that the queue stays full.
  constexpr size_t kClients = 4;
  constexpr size_t kPerClient = 25;
  const Column column = MakeUniformColumn(400000, 71);
  const auto workload = WorkloadGenerator::Generate(
      WorkloadPattern::kRandom, column.min_value(), column.max_value(),
      kClients * kPerClient, 0.1, 73);
  auto index = MakeIndex("pq", column, BudgetSpec::FixedDelta(0.01));
  serve::ServerConfig cfg;
  cfg.queue_capacity = 1;
  cfg.batch_size = 1;
  cfg.deadline_us = 200;
  cfg.enable_read_epochs = false;
  serve::Server server(index.get(), column, cfg);
  std::atomic<size_t> wrong{0};
  std::vector<std::thread> clients;
  for (size_t c = 0; c < kClients; ++c) {
    clients.emplace_back([&, c] {
      for (size_t i = 0; i < kPerClient; ++i) {
        const RangeQuery& q = workload[c * kPerClient + i];
        const serve::Response r = server.Submit(q);
        if (!(r.result == exec::ZeroBudgetScan(column, q))) wrong++;
      }
    });
  }
  for (std::thread& t : clients) t.join();
  EXPECT_EQ(wrong.load(), 0u);
  const serve::ServeStats stats = server.stats();
  EXPECT_GT(stats.degraded, 0u)
      << "queue_capacity=1 under 4 clients must expire some admits";
  EXPECT_EQ(stats.served + stats.degraded + stats.read_epoch,
            stats.submitted);
}

TEST(ServeTest, DeadlineAndQueueFullFaultComposeExactly) {
  // Deadlines and injected admission refusals armed *together*: both
  // degradation causes are live at once, and every query must still
  // come back exact with the accounting closed.
  FaultModeGuard guard(fault::Mode::kQueueFull);
  constexpr size_t kClients = 4;
  constexpr size_t kPerClient = 25;
  const Column column = MakeUniformColumn(200000, 79);
  const auto workload = WorkloadGenerator::Generate(
      WorkloadPattern::kRandom, column.min_value(), column.max_value(),
      kClients * kPerClient, 0.1, 83);
  auto index = MakeIndex("pq", column, BudgetSpec::FixedDelta(0.02));
  serve::ServerConfig cfg;
  cfg.batch_size = 4;
  cfg.deadline_us = 500;
  serve::Server server(index.get(), column, cfg);
  std::atomic<size_t> wrong{0};
  std::vector<std::thread> clients;
  for (size_t c = 0; c < kClients; ++c) {
    clients.emplace_back([&, c] {
      for (size_t i = 0; i < kPerClient; ++i) {
        const RangeQuery& q = workload[c * kPerClient + i];
        const serve::Response r = server.Submit(q);
        if (!(r.result == exec::ZeroBudgetScan(column, q))) wrong++;
      }
    });
  }
  for (std::thread& t : clients) t.join();
  EXPECT_EQ(wrong.load(), 0u);
  const serve::ServeStats stats = server.stats();
  EXPECT_GT(stats.degraded, 0u);
  EXPECT_GT(stats.faults_injected, 0u) << "queue_full seam never fired";
  EXPECT_EQ(stats.served + stats.degraded + stats.read_epoch,
            stats.submitted);
}

TEST(ServeTest, CloseRacingOrderedAdmitsNeverWedges) {
  // Regression test for AdmissionQueue::Close racing AdmitOrdered:
  // tickets in flight when the queue closes — waiting for their turn,
  // or for space — must resolve as kClosed (the caller then answers
  // itself, mirroring Server::Degrade) or complete normally; none may
  // wedge. Run under the TSan lane, this also proves the close/admit
  // handshake race-free. Several rounds vary where Close lands.
  constexpr size_t kThreads = 8;
  constexpr size_t kPerThread = 25;
  for (int round = 0; round < 4; ++round) {
    serve::AdmissionQueue queue(4);
    std::atomic<uint64_t> next_ticket{0};
    std::atomic<size_t> served{0};
    std::atomic<size_t> refused{0};
    std::thread popper([&] {
      std::vector<serve::ServeSlot*> batch;
      while (queue.PopBatch(&batch, 3, /*exact=*/false) > 0) {
        for (serve::ServeSlot* s : batch) {
          s->Complete(serve::ServeSlot::State::kServed, QueryResult{});
        }
      }
    });
    std::vector<std::thread> clients;
    for (size_t c = 0; c < kThreads; ++c) {
      clients.emplace_back([&] {
        for (size_t i = 0; i < kPerThread; ++i) {
          const uint64_t ticket = next_ticket.fetch_add(1);
          serve::ServeSlot slot;
          slot.request = RangeQuery{0, 1};
          if (queue.AdmitOrdered(ticket, &slot) ==
              serve::AdmitResult::kAdmitted) {
            slot.Wait();
            served++;
          } else {
            refused++;  // kClosed or fault-refused: caller resolves
          }
        }
      });
    }
    std::this_thread::sleep_for(std::chrono::microseconds(100 * (round + 1)));
    queue.Close();
    for (std::thread& t : clients) t.join();
    popper.join();
    // The joins completing *is* the regression assertion; the ledger
    // must balance on top.
    EXPECT_EQ(served.load() + refused.load(), kThreads * kPerThread);
  }
}

/// Parks the scheduler inside one epoch: while armed, QueryBatch
/// records that it was entered and blocks until Release(). Answers
/// come from the wrapped index either way.
class LatchedIndex : public IndexBase {
 public:
  explicit LatchedIndex(std::unique_ptr<IndexBase> inner)
      : inner_(std::move(inner)) {}

  void Arm() {
    std::lock_guard<std::mutex> lk(m_);
    armed_ = true;
  }
  void WaitEntered() {
    std::unique_lock<std::mutex> lk(m_);
    cv_.wait(lk, [this] { return entered_; });
  }
  void Release() {
    std::lock_guard<std::mutex> lk(m_);
    armed_ = false;
    cv_.notify_all();
  }

  QueryResult Query(const RangeQuery& q) override {
    QueryResult r;
    QueryBatch(&q, 1, &r);
    return r;
  }
  void QueryBatch(const RangeQuery* qs, size_t count,
                  QueryResult* out) override {
    {
      std::unique_lock<std::mutex> lk(m_);
      if (armed_) {
        entered_ = true;
        cv_.notify_all();
        cv_.wait(lk, [this] { return !armed_; });
      }
    }
    inner_->QueryBatch(qs, count, out);
  }
  bool converged() const override { return inner_->converged(); }
  std::string name() const override { return inner_->name(); }

 private:
  std::unique_ptr<IndexBase> inner_;
  std::mutex m_;
  std::condition_variable cv_;
  bool armed_ = false;
  bool entered_ = false;
};

TEST(ServeTest, OverloadShedsInsteadOfBlocking) {
  constexpr size_t kClients = 4;
  constexpr size_t kPerClient = 50;
  const Column column = MakeUniformColumn(100000, 29);
  const auto workload = WorkloadGenerator::Generate(
      WorkloadPattern::kRandom, column.min_value(), column.max_value(),
      kClients * kPerClient, 0.1, 31);
  LatchedIndex index(MakeIndex("pq", column, BudgetSpec::FixedDelta(0.02)));
  serve::ServerConfig cfg;
  cfg.queue_capacity = 2;
  cfg.batch_size = 2;
  serve::Server server(&index, column, cfg);

  // Parked phase: a blocking submit's epoch holds the scheduler, so
  // nothing leaves the 2-deep queue while four TrySubmits arrive —
  // exactly two are admitted and two shed, whatever the timing. An
  // armed fault mode may refuse admissions on its own, so the exact
  // split is only asserted without one.
  if (fault::ModeFromEnv() == fault::Mode::kNone) {
    index.Arm();
    std::thread parked([&] {
      EXPECT_EQ(server.Submit(workload[0]).result,
                exec::ZeroBudgetScan(column, workload[0]));
    });
    index.WaitEntered();
    std::mutex m;
    std::condition_variable cv;
    size_t returned = 0;
    bool done[kClients] = {};
    serve::SubmitStatus status[kClients] = {};
    serve::Response resp[kClients];
    std::vector<std::thread> tries;
    for (size_t i = 0; i < kClients; ++i) {
      tries.emplace_back([&, i] {
        const serve::SubmitStatus st =
            server.TrySubmit(workload[1 + i], &resp[i]);
        std::lock_guard<std::mutex> lk(m);
        status[i] = st;
        done[i] = true;
        returned++;
        cv.notify_all();
      });
    }
    {
      // Only a refused TrySubmit can return while the scheduler is
      // parked; an admitted one waits for its epoch.
      std::unique_lock<std::mutex> lk(m);
      EXPECT_TRUE(cv.wait_for(lk, std::chrono::seconds(60),
                              [&] { return returned >= 2; }));
      size_t shed = 0;
      for (size_t i = 0; i < kClients; ++i) {
        if (done[i] && status[i] == serve::SubmitStatus::kOverloaded) shed++;
      }
      EXPECT_EQ(returned, 2u);
      EXPECT_EQ(shed, 2u) << "a full 2-deep queue must shed, not block";
    }
    index.Release();
    parked.join();
    for (std::thread& t : tries) t.join();
    size_t admitted = 0;
    for (size_t i = 0; i < kClients; ++i) {
      if (status[i] != serve::SubmitStatus::kOk) continue;
      admitted++;
      EXPECT_EQ(resp[i].result, exec::ZeroBudgetScan(column, workload[1 + i]));
    }
    EXPECT_EQ(admitted, 2u);
    const serve::ServeStats stats = server.stats();
    EXPECT_EQ(stats.shed, 2u);
    EXPECT_EQ(stats.served + stats.degraded + stats.read_epoch + stats.shed,
              stats.submitted);
  }

  // Free-running phase: four clients against the same queue. Whether
  // any of them sheds depends on thread timing; every answer they get
  // must be exact either way.
  std::atomic<size_t> wrong{0};
  std::atomic<size_t> answered{0};
  std::vector<std::thread> clients;
  for (size_t c = 0; c < kClients; ++c) {
    clients.emplace_back([&, c] {
      serve::Response r;
      for (size_t i = 0; i < kPerClient; ++i) {
        const RangeQuery& q = workload[c * kPerClient + i];
        if (server.TrySubmit(q, &r) == serve::SubmitStatus::kOk) {
          answered++;
          if (!(r.result == exec::ZeroBudgetScan(column, q))) wrong++;
        }
      }
    });
  }
  for (std::thread& t : clients) t.join();
  EXPECT_EQ(wrong.load(), 0u);
  const serve::ServeStats stats = server.stats();
  EXPECT_GT(answered.load(), 0u);
  EXPECT_EQ(stats.served + stats.degraded + stats.read_epoch + stats.shed,
            stats.submitted);
}

TEST(ServeTest, ReadEpochsServeConvergedIndexLockFree) {
  constexpr size_t kClients = 4;
  constexpr size_t kPerClient = 20;
  const Column column = MakeUniformColumn(5000, 37);
  const auto workload = WorkloadGenerator::Generate(
      WorkloadPattern::kRandom, column.min_value(), column.max_value(), 256,
      0.1, 41);
  ProgressiveQuicksort index(column, BudgetSpec::FixedDelta(0.5));
  serve::Server server(&index, column);
  // Drive to convergence serially (bounded: even with an injected
  // budget-starvation fault refusing ~1/4 of the budgets, a δ=0.5
  // index converges in a handful of served queries).
  size_t warmup = 0;
  for (; warmup < 2000 && !index.converged(); ++warmup) {
    server.Submit(workload[warmup % workload.size()]);
  }
  ASSERT_TRUE(index.converged());
  // One more submit so the scheduler has certainly published read mode
  // (it publishes at the end of the epoch that converged).
  server.Submit(workload[0]);
  const uint64_t read_before = server.stats().read_epoch;

  std::atomic<size_t> wrong{0};
  std::vector<std::thread> clients;
  for (size_t c = 0; c < kClients; ++c) {
    clients.emplace_back([&, c] {
      for (size_t i = 0; i < kPerClient; ++i) {
        const RangeQuery& q = workload[(c * kPerClient + i) % workload.size()];
        const serve::Response r = server.Submit(q);
        if (!(r.result == exec::ZeroBudgetScan(column, q))) wrong++;
      }
    });
  }
  for (std::thread& t : clients) t.join();
  EXPECT_EQ(wrong.load(), 0u);
  const uint64_t read_after = server.stats().read_epoch;
  EXPECT_EQ(read_after - read_before, kClients * kPerClient)
      << "every post-convergence submit should take the lock-free path";
}

// Read epochs answer on the clients' own threads while the thread pool
// belongs to the scheduler's write epoch, so a read never fans out to
// the pool — not even a range wide enough that the parallel scan seam
// would split it across four lanes.
TEST(ServeTest, ReadEpochsStayOffThePool) {
  constexpr size_t kN = size_t{1} << 17;
  constexpr size_t kClients = 4;
  constexpr size_t kPerClient = 8;
  struct LanesAndMetricsGuard {
    bool metrics = obs::MetricsEnabled();
    LanesAndMetricsGuard() {
      parallel::SetLanesForTesting(4);
      obs::SetMetricsEnabledForTesting(true);
    }
    ~LanesAndMetricsGuard() {
      parallel::SetLanesForTesting(0);
      obs::SetMetricsEnabledForTesting(metrics);
    }
  } guard;
  const Column column = MakeUniformColumn(kN, 43);
  const auto warmup = WorkloadGenerator::Generate(
      WorkloadPattern::kRandom, column.min_value(), column.max_value(), 64,
      0.1, 47);
  ProgressiveQuicksort index(column, BudgetSpec::FixedDelta(0.5));
  serve::Server server(&index, column);
  for (size_t i = 0; i < 2000 && !index.converged(); ++i) {
    server.Submit(warmup[i % warmup.size()]);
  }
  ASSERT_TRUE(index.converged());
  server.Submit(warmup[0]);  // read mode is published by now
  // Every range spans at least 3/4 of the column's 0..n-1 permutation.
  Rng rng(53);
  std::vector<RangeQuery> wide(kClients * kPerClient);
  for (RangeQuery& q : wide) {
    q.low = static_cast<value_t>(rng.NextBounded(kN / 8));
    q.high = static_cast<value_t>(kN - 1 - rng.NextBounded(kN / 8));
  }
  const obs::Counter tasks("pool.tasks");
  const uint64_t tasks_before = tasks.Value();
  const uint64_t read_before = server.stats().read_epoch;
  std::vector<serve::Response> responses(wide.size());
  std::vector<std::thread> clients;
  for (size_t c = 0; c < kClients; ++c) {
    clients.emplace_back([&, c] {
      for (size_t i = c * kPerClient; i < (c + 1) * kPerClient; ++i) {
        responses[i] = server.Submit(wide[i]);
      }
    });
  }
  for (std::thread& t : clients) t.join();
  EXPECT_EQ(tasks.Value(), tasks_before)
      << "a read-epoch answer ran on the thread pool";
  EXPECT_EQ(server.stats().read_epoch - read_before, wide.size());
  for (size_t i = 0; i < wide.size(); ++i) {
    const QueryResult expected = exec::ZeroBudgetScan(column, wide[i]);
    EXPECT_GE(static_cast<size_t>(expected.count),
              2 * parallel::kMinParallelElements);
    EXPECT_EQ(responses[i].result, expected);
  }
}

TEST(ServeTest, BatchOfOneMatchesQueryThroughServer) {
  // A server with batch_size 1 over a single client is the serial
  // Query() trajectory by the batching contract (docs/batching.md).
  // Injected admission faults divert some submits away from the index,
  // so the strict trajectory comparison only holds fault-free.
  if (fault::ModeFromEnv() != fault::Mode::kNone) {
    GTEST_SKIP() << "trajectory comparison requires fault-free admission";
  }
  const std::vector<value_t> values = BaseValues(5000, 43);
  Column served_col{std::vector<value_t>(values)};
  Column serial_col{std::vector<value_t>(values)};
  const auto workload = WorkloadGenerator::Generate(
      WorkloadPattern::kRandom, served_col.min_value(),
      served_col.max_value(), 48, 0.1, 47);
  ProgressiveQuicksort served(served_col, BudgetSpec::FixedDelta(0.1));
  ProgressiveQuicksort serial(serial_col, BudgetSpec::FixedDelta(0.1));
  {
    serve::ServerConfig cfg;
    cfg.batch_size = 1;
    cfg.enable_read_epochs = false;
    serve::Server server(&served, served_col, cfg);
    for (size_t i = 0; i < workload.size(); ++i) {
      const serve::Response r = server.Submit(workload[i]);
      EXPECT_EQ(r.result, serial.Query(workload[i]));
    }
  }
  EXPECT_EQ(served.index_array(), serial.index_array());
  EXPECT_EQ(served.phase(), serial.phase());
}

class ServeFaultTest : public ::testing::TestWithParam<fault::Mode> {};

TEST_P(ServeFaultTest, AnswersStayExactUnderInjectedFaults) {
  FaultModeGuard guard(GetParam());
  constexpr size_t kClients = 2;
  constexpr size_t kPerClient = 40;
  const Column column = MakeUniformColumn(10000, 53);
  const auto workload = WorkloadGenerator::Generate(
      WorkloadPattern::kRandom, column.min_value(), column.max_value(),
      kClients * kPerClient, 0.1, 59);
  auto index = MakeIndex("pq", column, BudgetSpec::FixedDelta(0.05));
  serve::ServerConfig cfg;
  cfg.batch_size = 4;
  serve::Server server(index.get(), column, cfg);
  std::atomic<size_t> wrong{0};
  std::vector<std::thread> clients;
  for (size_t c = 0; c < kClients; ++c) {
    clients.emplace_back([&, c] {
      for (size_t i = 0; i < kPerClient; ++i) {
        const RangeQuery& q = workload[c * kPerClient + i];
        const serve::Response r = server.Submit(q);
        if (!(r.result == exec::ZeroBudgetScan(column, q))) wrong++;
      }
    });
  }
  for (std::thread& t : clients) t.join();
  EXPECT_EQ(wrong.load(), 0u);
  const serve::ServeStats stats = server.stats();
  EXPECT_EQ(stats.served + stats.degraded + stats.read_epoch,
            stats.submitted);
  // The seams must actually fire: ~80 epochs/admissions at a 1-in-4
  // deterministic fire rate.
  EXPECT_GT(stats.faults_injected, 0u)
      << "mode " << fault::ModeName(GetParam()) << " never fired";
  if (GetParam() == fault::Mode::kQueueFull ||
      GetParam() == fault::Mode::kAllocFail) {
    EXPECT_GT(stats.degraded, 0u)
        << "refused admissions must degrade, not vanish";
  }
}

// Instantiation name starts with "Serve" so the fault ctest lane's
// --gtest_filter='Serve*' matches the full parameterized test names.
INSTANTIATE_TEST_SUITE_P(ServeAllModes, ServeFaultTest,
                         ::testing::Values(fault::Mode::kBudgetStarvation,
                                           fault::Mode::kWorkerStall,
                                           fault::Mode::kQueueFull,
                                           fault::Mode::kAllocFail),
                         [](const ::testing::TestParamInfo<fault::Mode>& i) {
                           return std::string(fault::ModeName(i.param));
                         });

class ServeUpdateFaultTest : public ::testing::TestWithParam<fault::Mode> {};

// Update-carrying epochs under injected faults (docs/updates.md): one
// client drives a seeded query/append/delete mix through the server
// while the parameterized seam fires. Invariants: every answered query
// matches a step-by-step multiset oracle exactly (including queries the
// fault degrades, which must scan base + delta, not the stale column);
// every update is either applied or reported rejected — never silently
// dropped or half-applied — and the server's update ledger matches the
// client's count; the lock-free read-epoch path stays off.
TEST_P(ServeUpdateFaultTest, MixedEpochsStayExactAndAccounted) {
  FaultModeGuard guard(GetParam());
  const Column column = MakeUniformColumn(2000, 61);
  UpdatableIndex index(
      std::vector<value_t>(column.values()),
      [](const Column& c) {
        return std::unique_ptr<IndexBase>(
            new ProgressiveQuicksort(c, BudgetSpec::FixedDelta(0.1)));
      },
      /*merge_threshold=*/0.02);
  serve::ServerConfig cfg;
  cfg.batch_size = 4;
  cfg.queue_capacity = 16;
  serve::Server server(&index, column, cfg);

  Rng rng(67);
  std::vector<value_t> oracle(column.values());
  std::vector<value_t> pool;  // applied appends, safe to delete
  uint64_t updates = 0, applied = 0, rejected = 0;
  for (size_t i = 0; i < 400; ++i) {
    const uint64_t roll = rng.NextBounded(10);
    if (roll >= 7) {
      updates++;
      const bool del = roll == 9 && !pool.empty();
      size_t at = 0;
      ServeRequest op;
      if (del) {
        at = rng.NextBounded(pool.size());
        op = ServeRequest::Delete(pool[at]);
      } else {
        // Values above the base range: presence is then decided purely
        // by this test's own applied appends.
        op = ServeRequest::Append(column.max_value() + 1 +
                                  static_cast<value_t>(i));
      }
      const serve::Response r = server.Submit(op);
      if (r.rejected) {
        rejected++;
        continue;
      }
      applied++;
      if (del) {
        const value_t v = pool[at];
        pool[at] = pool.back();
        pool.pop_back();
        auto it = std::find(oracle.begin(), oracle.end(), v);
        ASSERT_NE(it, oracle.end());
        *it = oracle.back();
        oracle.pop_back();
      } else {
        oracle.push_back(op.value);
        pool.push_back(op.value);
      }
    } else {
      value_t a = rng.NextInRange(column.min_value(), column.max_value() + 400);
      value_t b = rng.NextInRange(column.min_value(), column.max_value() + 400);
      if (b < a) std::swap(a, b);
      const RangeQuery q{a, b};
      const serve::Response r = server.Submit(q);
      EXPECT_FALSE(r.rejected);
      QueryResult want;
      for (const value_t v : oracle) {
        if (v >= q.low && v <= q.high) {
          want.sum += v;
          want.count++;
        }
      }
      EXPECT_EQ(r.result, want) << "op " << i;
    }
  }
  const serve::ServeStats stats = server.stats();
  EXPECT_EQ(stats.updates_applied, applied);
  EXPECT_EQ(stats.updates_rejected, rejected);
  EXPECT_EQ(applied + rejected, updates);
  EXPECT_EQ(stats.read_epoch, 0u)
      << "read epochs must stay force-disabled under updates";
  EXPECT_EQ(stats.served + stats.degraded, stats.submitted);
  EXPECT_GT(stats.faults_injected, 0u)
      << "mode " << fault::ModeName(GetParam()) << " never fired";
  // Enough updates land (even with fault-refused ones) to cross the
  // merge threshold: the budgeted merge ran under faults.
  EXPECT_GE(index.merge_count() + (index.merge_in_progress() ? 1 : 0), 1u);
}

INSTANTIATE_TEST_SUITE_P(ServeUpdateAllModes, ServeUpdateFaultTest,
                         ::testing::Values(fault::Mode::kBudgetStarvation,
                                           fault::Mode::kWorkerStall,
                                           fault::Mode::kQueueFull,
                                           fault::Mode::kAllocFail),
                         [](const ::testing::TestParamInfo<fault::Mode>& i) {
                           return std::string(fault::ModeName(i.param));
                         });

}  // namespace
}  // namespace progidx
