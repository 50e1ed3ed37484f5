// The two tier-independent kernels: the leaf sort and the branch-free
// bucket lookup (kernels.h, docs/kernels.md).

#include <algorithm>
#include <bit>
#include <limits>
#include <memory>

#include "kernels/kernels.h"

namespace progidx {
namespace kernels {
namespace {

/// Below this many elements a comparison sort beats zeroing and
/// prefix-summing 256 counters per pass.
constexpr size_t kComparisonSortMax = 32;

}  // namespace

void SortLeaf(value_t* data, size_t n) {
  if (n <= kComparisonSortMax) {
    std::sort(data, data + n);
    return;
  }
  value_t min_v = data[0];
  value_t max_v = data[0];
  for (size_t i = 1; i < n; i++) {
    min_v = std::min(min_v, data[i]);
    max_v = std::max(max_v, data[i]);
  }
  // One leaf of scratch, freed on return. A buffer kept across calls
  // pins the heap it landed on: calibration sorts while 16 MiB of chain
  // blocks are live, and a buffer above them kept that heap from
  // shrinking after they were freed.
  const std::unique_ptr<value_t[]> scratch =
      std::make_unique_for_overwrite<value_t[]>(n);
  RadixSortFlatWith(
      data, scratch.get(), n, min_v, max_v,
      [](const value_t* src, size_t len, value_t base, int shift,
         uint32_t mask, uint64_t* counts) {
        const uint64_t lo = static_cast<uint64_t>(base);
        for (size_t i = 0; i < len; i++) {
          counts[((static_cast<uint64_t>(src[i]) - lo) >> shift) & mask]++;
        }
      },
      [](const value_t* src, size_t len, value_t base, int shift,
         uint32_t mask, value_t* dst, size_t* offsets) {
        const uint64_t lo = static_cast<uint64_t>(base);
        for (size_t i = 0; i < len; i++) {
          const value_t v = src[i];
          dst[offsets[((static_cast<uint64_t>(v) - lo) >> shift) & mask]++] = v;
        }
      });
}

UpperBoundLookup::UpperBoundLookup(const value_t* bounds, size_t count)
    : count_(count) {
  const size_t steps_span = std::bit_ceil(count + 1);
  half_ = steps_span / 2;
  padded_.assign(steps_span - 1, std::numeric_limits<value_t>::max());
  if (count > 0) std::copy(bounds, bounds + count, padded_.begin());
}

}  // namespace kernels
}  // namespace progidx
