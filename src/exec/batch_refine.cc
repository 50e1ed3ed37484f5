#include "exec/batch_refine.h"

#include <algorithm>
#include <limits>

#include "common/predication.h"

namespace progidx {
namespace exec {
namespace {

/// One endpoint of a query's matched leaf run.
struct RunEdge {
  size_t pos = 0;
  size_t query = 0;
  bool end = false;
};

}  // namespace

size_t BatchBTreeRangeSum(const BPlusTree& tree, const RangeQuery* qs,
                          size_t count, QueryResult* out, PredicateSet*,
                          std::vector<PosRange>*) {
  std::vector<RunEdge> edges;
  edges.reserve(2 * count);
  for (size_t i = 0; i < count; i++) {
    const size_t begin = tree.LowerBound(qs[i].low);
    const size_t end = tree.UpperBound(qs[i].high);
    if (begin >= end) continue;  // low > high, or no match: adds nothing
    edges.push_back({begin, i, false});
    edges.push_back({end, i, true});
  }
  std::sort(edges.begin(), edges.end(),
            [](const RunEdge& a, const RunEdge& b) { return a.pos < b.pos; });
  // Sweep the endpoints in position order. Two consecutive distinct
  // endpoints bound a segment of the runs' union when some run is open
  // across it; every leaf there qualifies for that run, so the
  // full-domain predicate sums the segment exactly, once. `prefix` is
  // the sum of the covered leaves before `at`, so a run's answer is its
  // end mark minus its begin mark: the sum of its leaves and, positions
  // counting leaves, how many there are. Endpoints at one position need
  // no order among them: no leaf lies between them.
  constexpr RangeQuery kEveryValue{std::numeric_limits<value_t>::min(),
                                   std::numeric_limits<value_t>::max()};
  const value_t* leaves = tree.leaf_data();
  uint64_t prefix = 0;  // mod 2^64, like the kernels
  size_t at = 0;
  size_t open = 0;
  size_t covered = 0;
  for (const RunEdge& e : edges) {
    if (open > 0 && e.pos > at) {
      prefix += static_cast<uint64_t>(
          PredicatedRangeSum(leaves + at, e.pos - at, kEveryValue).sum);
      covered += e.pos - at;
    }
    at = e.pos;
    const QueryResult mark{static_cast<int64_t>(prefix),
                           static_cast<int64_t>(at)};
    if (e.end) {
      out[e.query] += mark;
      open--;
    } else {
      out[e.query] -= mark;
      open++;
    }
  }
  return covered;
}

}  // namespace exec
}  // namespace progidx
