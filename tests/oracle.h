#ifndef PROGIDX_TESTS_ORACLE_H_
#define PROGIDX_TESTS_ORACLE_H_

#include <cstddef>
#include <cstdint>

#include "common/types.h"
#include "storage/column.h"

namespace progidx {

/// The reference answer every index and kernel is held to: a plain
/// branched loop over data[0, n) with the sum wrapping mod 2^64, the
/// way every answer path sums.
inline QueryResult OracleRangeSum(const value_t* data, size_t n,
                                  const RangeQuery& q) {
  uint64_t sum = 0;
  int64_t count = 0;
  for (size_t i = 0; i < n; i++) {
    const value_t v = data[i];
    if (v < q.low || v > q.high) continue;
    sum += static_cast<uint64_t>(v);
    count++;
  }
  return {static_cast<int64_t>(sum), count};
}

inline QueryResult OracleRangeSum(const Column& column, const RangeQuery& q) {
  return OracleRangeSum(column.data(), column.size(), q);
}

}  // namespace progidx

#endif  // PROGIDX_TESTS_ORACLE_H_
