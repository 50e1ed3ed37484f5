#include "workload/data_generator.h"

#include <numeric>
#include <utility>
#include <vector>

#include "common/rng.h"
#include "common/validate.h"

namespace progidx {

Column MakeUniformColumn(size_t n, uint64_t seed) {
  CheckArg(n > 0, "data generator: column size must be > 0");
  std::vector<value_t> values(n);
  std::iota(values.begin(), values.end(), 0);
  Rng rng(seed);
  for (size_t i = n; i > 1; i--) {
    std::swap(values[i - 1], values[rng.NextBounded(i)]);
  }
  return Column(std::move(values));
}

Column MakeSkewedColumn(size_t n, uint64_t seed, double concentration) {
  CheckArg(n > 0, "data generator: column size must be > 0");
  if (!(concentration >= 0 && concentration <= 1)) {
    FailInvalidArgument(
        "data generator: concentration must be in [0, 1], got " +
        std::to_string(concentration));
  }
  std::vector<value_t> values(n);
  Rng rng(seed);
  const value_t domain = static_cast<value_t>(n);
  const value_t band_lo = static_cast<value_t>(0.45 * static_cast<double>(n));
  const value_t band_width =
      std::max<value_t>(1, static_cast<value_t>(0.1 * static_cast<double>(n)));
  for (size_t i = 0; i < n; i++) {
    if (rng.NextDouble() < concentration) {
      values[i] = band_lo + static_cast<value_t>(
                                rng.NextBounded(
                                    static_cast<uint64_t>(band_width)));
    } else {
      values[i] = static_cast<value_t>(
          rng.NextBounded(static_cast<uint64_t>(domain)));
    }
  }
  return Column(std::move(values));
}

Column MakeConstantColumn(size_t n, value_t value) {
  return Column(std::vector<value_t>(n, value));
}

}  // namespace progidx
