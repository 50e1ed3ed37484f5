#ifndef PROGIDX_COMMON_TYPES_H_
#define PROGIDX_COMMON_TYPES_H_

#include <cstdint>
#include <cstdlib>
#include <cstdio>

namespace progidx {

/// Element type of all indexed columns. The paper evaluates on 8-byte
/// integers; every algorithm in this library operates on `value_t`.
using value_t = int64_t;

/// A closed-interval range predicate `low <= A <= high`, matching the
/// paper's `SELECT SUM(R.A) FROM R WHERE R.A BETWEEN V1 AND V2`.
/// A point query is expressed as `low == high`.
struct RangeQuery {
  value_t low = 0;
  value_t high = 0;

  /// True when this query selects a single value.
  bool IsPoint() const { return low == high; }
};

/// Result of a range-aggregate query: the SUM of qualifying values and
/// the number of qualifying tuples (used by tests as a second oracle).
struct QueryResult {
  int64_t sum = 0;
  int64_t count = 0;

  /// Merge and remove partial answers. The arithmetic wraps mod 2^64,
  /// as the scan kernels' does: a SUM of 64-bit values may exceed
  /// int64_t, and partials must combine to the same bits in any order.
  QueryResult& operator+=(const QueryResult& o) {
    sum = static_cast<int64_t>(static_cast<uint64_t>(sum) +
                               static_cast<uint64_t>(o.sum));
    count = static_cast<int64_t>(static_cast<uint64_t>(count) +
                                 static_cast<uint64_t>(o.count));
    return *this;
  }
  QueryResult& operator-=(const QueryResult& o) {
    sum = static_cast<int64_t>(static_cast<uint64_t>(sum) -
                               static_cast<uint64_t>(o.sum));
    count = static_cast<int64_t>(static_cast<uint64_t>(count) -
                                 static_cast<uint64_t>(o.count));
    return *this;
  }

  friend bool operator==(const QueryResult&, const QueryResult&) = default;
};

/// Kind of one served operation: a range-aggregate query, or one of the
/// delta-store updates (core/updatable_index.h). Updates flow through
/// the same admission/epoch/WAL machinery as queries so the
/// deterministic-replay contract covers mixed workloads.
enum class OpKind : uint8_t {
  kQuery = 0,
  kAppend = 1,
  kDelete = 2,
};

/// One operation submitted to the serving layer (src/serve/) or
/// recorded in the durable admitted log (src/persist/wal.h): either a
/// range query (`query` is meaningful) or an append/delete of `value`.
/// Implicitly constructible from RangeQuery so pure-query call sites
/// read unchanged.
struct ServeRequest {
  OpKind op = OpKind::kQuery;
  RangeQuery query;
  value_t value = 0;

  ServeRequest() = default;
  // NOLINTNEXTLINE(google-explicit-constructor): queries are the
  // common case and convert transparently.
  ServeRequest(const RangeQuery& q) : op(OpKind::kQuery), query(q) {}

  static ServeRequest Append(value_t v) {
    ServeRequest r;
    r.op = OpKind::kAppend;
    r.value = v;
    return r;
  }
  static ServeRequest Delete(value_t v) {
    ServeRequest r;
    r.op = OpKind::kDelete;
    r.value = v;
    return r;
  }

  bool is_query() const { return op == OpKind::kQuery; }
  bool is_update() const { return op != OpKind::kQuery; }
};

/// Lightweight assertion used across the library; active in all build
/// types because index-structure invariants guard correctness of query
/// answers, not just debugging.
#define PROGIDX_CHECK(cond)                                              \
  do {                                                                   \
    if (!(cond)) {                                                       \
      std::fprintf(stderr, "PROGIDX_CHECK failed: %s at %s:%d\n", #cond, \
                   __FILE__, __LINE__);                                  \
      std::abort();                                                      \
    }                                                                    \
  } while (0)

}  // namespace progidx

#endif  // PROGIDX_COMMON_TYPES_H_
