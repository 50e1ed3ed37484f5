#ifndef PROGIDX_PARALLEL_THREAD_POOL_H_
#define PROGIDX_PARALLEL_THREAD_POOL_H_

#include <atomic>
#include <cstddef>
#include <functional>

// The parallel execution subsystem: a persistent thread pool with one
// shared task queue, plus the ParallelFor loop the composite primitives
// (parallel/primitives.h) are built on.
//
// Lanes, not threads, are the unit of parallelism: a ParallelFor over L
// lanes runs lane 0 on the calling thread and lanes 1..L-1 on pool
// workers, so L = 1 never touches the pool and the pool holds L_max - 1
// workers. The lane count is decided once per process from
// std::thread::hardware_concurrency(), overridable with
// PROGIDX_THREADS=N (1 <= N <= 64; anything else warns once on stderr
// and falls back to the hardware count, the same warn-once contract as
// PROGIDX_FORCE_KERNEL). Tests and benchmarks vary the count at runtime
// with SetLanesForTesting().
//
// Determinism contract (docs/parallel.md): every composite primitive
// built on this pool produces bit-identical results for every lane
// count, because work is split into lane-count-independent chunks whose
// outputs either commute exactly (mod-2^64 sums), land in
// precomputed disjoint slices (partition / scatter offsets), or are
// idempotent per span (leaf sorts). The pool therefore never needs —
// and never provides — any ordering guarantee between chunks.

namespace progidx {
namespace parallel {

/// Hard cap on lanes (and so on pool workers); PROGIDX_THREADS beyond
/// it is invalid. 64 matches the radix fan-out and is far above any
/// sensible oversubscription.
constexpr size_t kMaxLanes = 64;

/// A persistent pool of worker threads fed by one mutex-guarded FIFO of
/// lane tasks. Load balance is ParallelFor's job (its lanes claim
/// chunks through one atomic cursor), so the queue only hands each
/// lane to the next free worker. Workers are spawned lazily
/// (EnsureWorkers) and live until process exit; idle workers sleep on
/// a condition variable, so an unused pool costs nothing per query.
class ThreadPool {
 public:
  /// The process-wide pool every primitive shares.
  static ThreadPool& Global();

  ThreadPool();
  ~ThreadPool();
  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  /// Spawns workers until at least `count` exist (capped at
  /// kMaxLanes - 1). Thread-safe; cheap when already satisfied. No-op
  /// after Shutdown().
  void EnsureWorkers(size_t count);

  /// Stops the pool: already-queued tasks are drained (never
  /// abandoned — a RunOnLanes in flight when Shutdown begins completes
  /// normally), then every worker is joined. Idempotent and safe to
  /// call twice or from the destructor; RunOnLanes calls issued after
  /// shutdown run all lanes inline on the caller. Must not be called
  /// from a pool worker.
  void Shutdown();

  /// Runs body(0), ..., body(lanes - 1): lane 0 on the calling thread,
  /// the rest as queued pool tasks. Blocks until every lane
  /// finished; rethrows the first exception any lane threw. Called from
  /// inside a pool worker (nested parallelism), runs every lane inline
  /// on the caller instead — the subsystem never deadlocks on its own
  /// workers.
  void RunOnLanes(size_t lanes, const std::function<void(size_t)>& body);

  /// True on a pool worker thread (used to serialize nested
  /// parallelism).
  static bool OnWorkerThread();

 private:
  struct Impl;
  Impl* impl_;
};

/// Lane count resolved from PROGIDX_THREADS / hardware_concurrency once
/// per process (>= 1). This is the default for every primitive.
size_t DefaultLanes();

/// DefaultLanes(), unless a test/bench override is active.
size_t EffectiveLanes();

/// Overrides EffectiveLanes() for tests and thread-sweep benchmarks
/// (0 clears the override). Any override > 1 also marks the process as
/// parallel-configured (see ParallelConfigured()), stickily.
void SetLanesForTesting(size_t lanes);

/// The current override (0 when none). Lets code that must pin lanes
/// mid-measurement — the calibration's serial shared-scan probe —
/// save and restore whatever override its caller had active.
size_t LanesOverrideForTesting();

/// True once any lane source (environment, hardware, or a testing
/// override) has ever exceeded 1. Primitives whose *serial* fast path
/// is laid out differently from the chunked parallel path (the
/// two-sided partition) key off this instead of the instantaneous lane
/// count, so an index's layout never depends on *when* a thread-count
/// override changed — only on whether the process runs parallel at all.
bool ParallelConfigured();

/// Chunked parallel loop over [begin, end): splits the range into
/// fixed `grain`-sized chunks (geometry independent of the lane count)
/// and lets `lanes` lanes claim chunks through a shared atomic cursor —
/// dynamic balancing at chunk granularity, so an uneven chunk only
/// delays its own lane. body(chunk_begin, chunk_end) must be safe to run
/// concurrently for disjoint chunks. Runs inline when lanes <= 1, the
/// range fits one grain, or the caller is itself a pool worker.
template <typename Body>
void ParallelFor(size_t begin, size_t end, size_t grain, size_t lanes,
                 const Body& body) {
  if (end <= begin) return;
  const size_t n = end - begin;
  if (grain == 0) grain = 1;
  if (lanes > kMaxLanes) lanes = kMaxLanes;
  if (lanes <= 1 || n <= grain || ThreadPool::OnWorkerThread()) {
    // Same chunk geometry as the parallel path (one lane claims every
    // chunk), so serial and parallel runs see identical sub-calls.
    for (size_t i = begin; i < end; i += grain) {
      body(i, i + grain < end ? i + grain : end);
    }
    return;
  }
  const size_t chunks = (n + grain - 1) / grain;
  if (lanes > chunks) lanes = chunks;
  ThreadPool& pool = ThreadPool::Global();
  pool.EnsureWorkers(lanes - 1);
  std::atomic<size_t> next{0};
  pool.RunOnLanes(lanes, [&](size_t) {
    for (;;) {
      const size_t c = next.fetch_add(1, std::memory_order_relaxed);
      if (c >= chunks) return;
      const size_t b = begin + c * grain;
      const size_t e = b + grain < end ? b + grain : end;
      body(b, e);
    }
  });
}

}  // namespace parallel
}  // namespace progidx

#endif  // PROGIDX_PARALLEL_THREAD_POOL_H_
