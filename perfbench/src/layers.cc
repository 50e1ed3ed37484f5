#include "layers.h"

#include <algorithm>

#include "btree/btree.h"
#include "exec/batch_refine.h"
#include "exec/shared_scan.h"
#include "kernels/kernels.h"
#include "obs/trace.h"
#include "parallel/primitives.h"
#include "parallel/thread_pool.h"
#include "storage/bucket_chain.h"

namespace perfbench {

namespace {

class Timings {
 public:
  explicit Timings(const char* span) : span_(span) {}
  template <typename Body>
  void Time(Body&& body) {
    const double t0 = NowSecs();
    {
      progidx::obs::TraceScope s(span_, "bench");
      body();
    }
    secs_.push_back(NowSecs() - t0);
  }
  double median() const { return Median(secs_); }

 private:
  const char* span_;
  std::vector<double> secs_;
};

}  // namespace

void DirectLayerProbes(const progidx::Column& column,
                       const StaticOracle& oracle,
                       const std::vector<RangeQuery>& queries, bool smoke,
                       Report* rep) {
  namespace kernels = progidx::kernels;
  namespace parallel = progidx::parallel;
  const value_t* data = column.data();
  const size_t n = column.size();
  const std::vector<value_t>& sorted = oracle.sorted();
  const double gb = static_cast<double>(n * sizeof(value_t)) / 1e9;
  const size_t reps = smoke ? 3 : 9;
  // The pool composites are timed at the machine's lane count even when
  // the workload itself runs on fewer lanes.
  constexpr size_t kPoolLanes = 4;
  const size_t lanes_before = parallel::LanesOverrideForTesting();
  uint64_t attempted = 0;
  uint64_t wrong = 0;
  auto check = [&](bool ok) {
    attempted++;
    if (!ok) wrong++;
  };
  auto below = [&](value_t pivot) {
    return static_cast<size_t>(
        std::lower_bound(sorted.begin(), sorted.end(), pivot) - sorted.begin());
  };

  {
    Timings serial("kernels.scan");
    Timings pooled("parallel.scan");
    for (size_t r = 0; r < reps; r++) {
      const RangeQuery& q = queries[r % queries.size()];
      QueryResult a;
      QueryResult b;
      serial.Time([&] { a = kernels::RangeSumPredicated(data, n, q); });
      pooled.Time([&] {
        b = parallel::RangeSumPredicatedWithLanes(data, n, q, kPoolLanes);
      });
      const QueryResult expect = oracle.Answer(q);
      check(a == expect);
      check(b == expect);
    }
    rep->Layer("kernels.scan_gbps", gb / serial.median(), "GB/s");
    rep->Layer("parallel.scan_speedup", serial.median() / pooled.median(), "x");
  }

  {
    std::vector<value_t> dst(n);
    Timings serial("kernels.partition");
    Timings pooled("parallel.partition");
    for (size_t r = 0; r < reps; r++) {
      const value_t pivot = queries[r % queries.size()].low;
      size_t lo = 0;
      int64_t hi = static_cast<int64_t>(n) - 1;
      serial.Time([&] {
        kernels::PartitionTwoSided(data, n, pivot, dst.data(), &lo, &hi);
      });
      check(lo == below(pivot));
      lo = 0;
      hi = static_cast<int64_t>(n) - 1;
      parallel::SetLanesForTesting(kPoolLanes);
      pooled.Time([&] {
        parallel::PartitionTwoSided(data, n, pivot, dst.data(), &lo, &hi);
      });
      parallel::SetLanesForTesting(lanes_before);
      check(lo == below(pivot));
    }
    rep->Layer("kernels.partition_gbps", gb / serial.median(), "GB/s");
    rep->Layer("parallel.partition_speedup", serial.median() / pooled.median(),
               "x");

    Timings crack("kernels.crack");
    for (size_t r = 0; r < reps; r++) {
      const value_t pivot = queries[r % queries.size()].low;
      std::copy(data, data + n, dst.begin());
      size_t lo = 0;
      size_t hi = n - 1;
      bool done = false;
      crack.Time([&] {
        kernels::CrackInPlace(dst.data(), &lo, &hi, pivot, n + 1, &done);
      });
      check(done && lo == below(pivot));
    }
    rep->Layer("kernels.crack_gbps", gb / crack.median(), "GB/s");
  }

  {
    // 64 chains, the radix/bucket fan-out of the progressive indexes.
    const value_t base = column.min_value();
    const uint64_t range =
        static_cast<uint64_t>(column.max_value()) - static_cast<uint64_t>(base);
    int shift = 0;
    while ((range >> shift) >= 64) shift++;
    const value_t first_bucket_end = base + (value_t{1} << shift);
    Timings scatter("storage.chain_scatter");
    for (size_t r = 0; r < reps; r++) {
      std::vector<progidx::BucketChain> chains(64);
      scatter.Time([&] {
        parallel::ScatterToChains(data, n, base, shift, 63, chains.data());
      });
      size_t total = 0;
      for (const progidx::BucketChain& c : chains) total += c.size();
      check(total == n && chains[0].size() == below(first_bucket_end));
    }
    rep->Layer("storage.chain_scatter_gbps", gb / scatter.median(), "GB/s");
  }

  progidx::BPlusTree tree(sorted.data(), n, 64);
  tree.BuildAll();
  {
    const size_t count = std::min<size_t>(queries.size(), smoke ? 64 : 256);
    std::vector<QueryResult> got(count);
    Timings sums("btree.range_sum");
    for (size_t r = 0; r < reps; r++) {
      sums.Time([&] {
        for (size_t i = 0; i < count; i++) got[i] = tree.RangeSum(queries[i]);
      });
    }
    double summed_gb = 0;
    for (size_t i = 0; i < count; i++) {
      const QueryResult expect = oracle.Answer(queries[i]);
      check(got[i] == expect);
      summed_gb += static_cast<double>(expect.count) * sizeof(value_t) / 1e9;
    }
    rep->Layer("btree.range_sum_gbps", summed_gb / sums.median(), "GB/s");

    constexpr size_t kLookups = 4096;
    std::vector<size_t> pos(kLookups);
    Timings lookups("btree.lower_bound");
    for (size_t r = 0; r < reps; r++) {
      lookups.Time([&] {
        for (size_t i = 0; i < kLookups; i++) {
          pos[i] = tree.LowerBound(queries[i % queries.size()].low);
        }
      });
    }
    for (size_t i = 0; i < kLookups; i++) {
      check(pos[i] == below(queries[i % queries.size()].low));
    }
    rep->Layer("btree.lower_bound_ns",
               lookups.median() / static_cast<double>(kLookups) * 1e9, "ns");
  }

  {
    constexpr size_t kBatch = 16;
    progidx::exec::PredicateSet pset;
    std::vector<progidx::exec::PosRange> scratch;
    std::vector<QueryResult> out(kBatch);
    Timings shared("exec.shared_scan");
    Timings batched("exec.batch_btree");
    for (size_t r = 0; r < reps; r++) {
      std::vector<RangeQuery> batch(kBatch);
      for (size_t i = 0; i < kBatch; i++) {
        batch[i] = queries[(r * kBatch + i) % queries.size()];
      }
      std::fill(out.begin(), out.end(), QueryResult{});
      shared.Time([&] {
        pset.Reset(batch.data(), kBatch);
        pset.Scan(data, n);
        pset.AccumulateInto(out.data());
      });
      for (size_t i = 0; i < kBatch; i++) {
        check(out[i] == oracle.Answer(batch[i]));
      }
      std::fill(out.begin(), out.end(), QueryResult{});
      batched.Time([&] {
        progidx::exec::BatchBTreeRangeSum(tree, batch.data(), kBatch,
                                          out.data(), &pset, &scratch);
      });
      for (size_t i = 0; i < kBatch; i++) {
        check(out[i] == oracle.Answer(batch[i]));
      }
    }
    rep->Layer("exec.shared_scan_gbps", gb / shared.median(), "GB/s");
    rep->Layer("exec.batch_btree_us", batched.median() * 1e6, "us");
  }
  rep->Attempt(attempted);
  rep->Fail(wrong, "wrong layer-probe outputs");
}

}  // namespace perfbench
