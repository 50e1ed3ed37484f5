#ifndef PROGIDX_TESTS_EDGE_COLUMNS_H_
#define PROGIDX_TESTS_EDGE_COLUMNS_H_

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <limits>
#include <utility>
#include <vector>

#include "common/rng.h"
#include "common/types.h"
#include "storage/column.h"

// Columns and queries at the edges of the 64-bit value domain, shared by
// the suites that hold indexes to tests/oracle.h there.

namespace progidx {

/// 4096 values in [2^61, 2^61 + 2^20): the domain is narrow but every
/// wide SUM exceeds INT64_MAX and wraps.
inline Column WrappingSumsColumn() {
  Rng rng(3);
  std::vector<value_t> values(4096);
  for (value_t& v : values) {
    v = (value_t{1} << 61) + static_cast<value_t>(rng.NextBounded(1u << 20));
  }
  return Column(std::move(values));
}

/// 4096 values spanning exactly [lo, hi] over the full 64-bit range,
/// with a cluster just below hi so radix buckets at the top of the
/// domain fill up and split.
inline Column FullWidthColumn(value_t lo, value_t hi) {
  Rng rng(5);
  std::vector<value_t> values = {lo, hi};
  while (values.size() < 1024) {
    values.push_back(
        hi - static_cast<value_t>(rng.NextBounded(uint64_t{1} << 45)));
  }
  while (values.size() < 4096) {
    values.push_back(std::clamp(static_cast<value_t>(rng.Next()), lo, hi));
  }
  return Column(std::move(values));
}

/// Ranges between column values, points, the whole domain, and ranges
/// open at either end of it.
inline std::vector<RangeQuery> EdgeQueries(const Column& column,
                                           size_t count) {
  constexpr value_t kMin = std::numeric_limits<value_t>::min();
  constexpr value_t kMax = std::numeric_limits<value_t>::max();
  Rng rng(11);
  const std::vector<value_t>& v = column.values();
  std::vector<RangeQuery> qs;
  for (size_t i = 0; i < count; i++) {
    value_t a = v[rng.NextBounded(v.size())];
    value_t b = v[rng.NextBounded(v.size())];
    if (a > b) std::swap(a, b);
    switch (i % 5) {
      case 0: qs.push_back({a, b}); break;
      case 1: qs.push_back({a, a}); break;
      case 2: qs.push_back({kMin, kMax}); break;
      case 3: qs.push_back({a, kMax}); break;
      default: qs.push_back({kMin, b}); break;
    }
  }
  return qs;
}

}  // namespace progidx

#endif  // PROGIDX_TESTS_EDGE_COLUMNS_H_
