#include "parallel/thread_pool.h"

#include "common/env.h"
#include "common/fault.h"

#include <algorithm>
#include <condition_variable>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <deque>
#include <exception>
#include <mutex>
#include <thread>
#include <vector>

#include "obs/metrics.h"

namespace progidx {
namespace parallel {
namespace {

thread_local bool tls_on_worker = false;

// Pool health counters (docs/observability.md): executed tasks, and
// how often a worker went to sleep empty-handed — the starvation
// signal behind multi-lane scaling numbers.
const obs::Counter& TasksCounter() {
  static const obs::Counter c("pool.tasks");
  return c;
}
const obs::Counter& SleepsCounter() {
  static const obs::Counter c("pool.sleeps");
  return c;
}

size_t HardwareLanes() {
  const unsigned hw = std::thread::hardware_concurrency();
  return hw == 0 ? 1 : std::min<size_t>(hw, kMaxLanes);
}

/// PROGIDX_THREADS, with the subsystem's warn-once contract: a value
/// that does not parse to an integer in [1, kMaxLanes] warns once on
/// stderr and falls back to the hardware count instead of silently
/// running serial (or wild).
size_t LanesFromEnvironment() {
  return env::BoundedSizeFromEnv("PROGIDX_THREADS", 1, kMaxLanes,
                                 HardwareLanes(), "thread count",
                                 "hardware concurrency");
}

std::atomic<size_t> g_test_lanes{0};   // 0 = no override
std::atomic<bool> g_ever_parallel{false};

}  // namespace

struct ThreadPool::Impl {
  std::vector<std::thread> workers;
  std::mutex grow_m;
  std::atomic<size_t> worker_count{0};
  /// One FIFO of lane tasks. Balance comes from ParallelFor's atomic
  /// chunk cursor, not from where a lane is queued, so a single queue
  /// is all the pool needs.
  std::mutex m;
  std::condition_variable cv;
  std::deque<std::function<void()>> queue;
  std::atomic<bool> stop{false};

  void WorkerLoop() {
    tls_on_worker = true;
    std::unique_lock<std::mutex> lk(m);
    for (;;) {
      if (!queue.empty()) {
        std::function<void()> task = std::move(queue.front());
        queue.pop_front();
        lk.unlock();
        fault::MaybeStall(fault::Site::kPoolWorker);
        TasksCounter().Add();
        task();
        lk.lock();
        continue;
      }
      // Shutdown ordering: a stopping worker first drains every queued
      // task — it exits only once stop is set AND the queue is empty,
      // so a RunOnLanes caller blocked on its lanes is never stranded
      // by teardown (the drain-before-exit contract of Shutdown()).
      if (stop.load()) return;
      SleepsCounter().Add();
      cv.wait(lk, [this] { return stop.load() || !queue.empty(); });
    }
  }

  /// False when the pool has stopped: the task was not queued and the
  /// caller must run it inline. The push happens under `m`, like the
  /// workers' stop-and-drained exit check, so a submit that wins the
  /// race against Shutdown is guaranteed to be drained.
  bool Submit(std::function<void()> task) {
    {
      std::lock_guard<std::mutex> lk(m);
      if (stop.load() || worker_count.load() == 0) return false;
      queue.push_back(std::move(task));
    }
    cv.notify_one();
    return true;
  }
};

ThreadPool::ThreadPool() : impl_(new Impl) {}

ThreadPool::~ThreadPool() {
  Shutdown();
  delete impl_;
}

void ThreadPool::Shutdown() {
  {
    std::lock_guard<std::mutex> lk(impl_->m);
    impl_->stop.store(true, std::memory_order_release);
  }
  impl_->cv.notify_all();
  // grow_m also makes a second concurrent Shutdown wait for the first
  // join pass instead of racing it.
  std::lock_guard<std::mutex> lk(impl_->grow_m);
  for (std::thread& t : impl_->workers) {
    if (t.joinable()) t.join();
  }
}

ThreadPool& ThreadPool::Global() {
  // Leaked on purpose: worker threads must never outlive the pool, and
  // static-destruction order against other globals is not worth
  // defending — the process is exiting anyway.
  static ThreadPool* const pool = new ThreadPool();
  return *pool;
}

void ThreadPool::EnsureWorkers(size_t count) {
  count = std::min(count, kMaxLanes - 1);
  if (impl_->worker_count.load(std::memory_order_acquire) >= count) return;
  std::lock_guard<std::mutex> lk(impl_->grow_m);
  if (impl_->stop.load(std::memory_order_acquire)) return;
  while (impl_->workers.size() < count) {
    impl_->workers.emplace_back([this] { impl_->WorkerLoop(); });
    impl_->worker_count.store(impl_->workers.size(),
                              std::memory_order_release);
  }
}

bool ThreadPool::OnWorkerThread() { return tls_on_worker; }

void ThreadPool::RunOnLanes(size_t lanes,
                            const std::function<void(size_t)>& body) {
  if (lanes == 0) return;
  if (lanes == 1 || OnWorkerThread()) {
    for (size_t l = 0; l < lanes; l++) body(l);
    return;
  }
  EnsureWorkers(lanes - 1);
  struct Sync {
    std::mutex m;
    std::condition_variable cv;
    size_t remaining;
    std::exception_ptr error;
  } sync;
  sync.remaining = lanes - 1;
  std::exception_ptr caller_err;
  for (size_t l = 1; l < lanes; l++) {
    const bool queued = impl_->Submit([&body, &sync, l] {
      std::exception_ptr err;
      try {
        body(l);
      } catch (...) {
        err = std::current_exception();
      }
      std::lock_guard<std::mutex> lk(sync.m);
      if (err && !sync.error) sync.error = err;
      if (--sync.remaining == 0) sync.cv.notify_one();
    });
    if (!queued) {
      // Pool already shut down: run the lane inline on the caller so
      // post-shutdown RunOnLanes still completes every lane.
      try {
        body(l);
      } catch (...) {
        if (!caller_err) caller_err = std::current_exception();
      }
      std::lock_guard<std::mutex> lk(sync.m);
      sync.remaining--;
    }
  }
  try {
    body(0);
  } catch (...) {
    caller_err = std::current_exception();
  }
  std::unique_lock<std::mutex> lk(sync.m);
  sync.cv.wait(lk, [&sync] { return sync.remaining == 0; });
  if (caller_err) std::rethrow_exception(caller_err);
  if (sync.error) std::rethrow_exception(sync.error);
}

size_t DefaultLanes() {
  static const size_t lanes = [] {
    const size_t l = LanesFromEnvironment();
    if (l > 1) g_ever_parallel.store(true, std::memory_order_release);
    return l;
  }();
  return lanes;
}

size_t EffectiveLanes() {
  const size_t over = g_test_lanes.load(std::memory_order_acquire);
  return over != 0 ? over : DefaultLanes();
}

void SetLanesForTesting(size_t lanes) {
  if (lanes > kMaxLanes) lanes = kMaxLanes;
  g_test_lanes.store(lanes, std::memory_order_release);
  if (lanes > 1) g_ever_parallel.store(true, std::memory_order_release);
}

size_t LanesOverrideForTesting() {
  return g_test_lanes.load(std::memory_order_acquire);
}

bool ParallelConfigured() {
  if (g_ever_parallel.load(std::memory_order_acquire)) return true;
  return DefaultLanes() > 1;
}

}  // namespace parallel
}  // namespace progidx
