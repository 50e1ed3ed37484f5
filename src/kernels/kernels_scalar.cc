#include <cstring>

#include "kernels/kernels_internal.h"

// The scalar tier: portable reference implementations. The scans are
// cache-blocked (L1-sized tiles) and manually 4-way unrolled so the
// compiler keeps four independent accumulator pairs in registers; the
// predicated forms compile to cmov/setcc, never a data-dependent
// branch. The CRC-32 is slicing-by-8: eight table lookups per 8-byte
// word instead of one dependent lookup per byte.

namespace progidx {
namespace kernels {
namespace detail {
namespace {

/// One L1 tile of value_t (4096 * 8 B = 32 KiB).
constexpr size_t kScanTile = 4096;

/// Slicing-by-8 tables for the reflected CRC-32 polynomial: t[0] is the
/// bytewise table, t[k][b] is t[k-1][b] advanced over one more zero
/// byte, so a byte k positions before the end of a word uses t[k].
struct Crc32Tables {
  uint32_t t[8][256];
};

constexpr Crc32Tables MakeCrc32Tables() {
  Crc32Tables tables{};
  for (uint32_t i = 0; i < 256; i++) {
    uint32_t c = i;
    for (int k = 0; k < 8; k++) c = (c & 1) ? 0xEDB88320u ^ (c >> 1) : c >> 1;
    tables.t[0][i] = c;
  }
  for (int k = 1; k < 8; k++) {
    for (uint32_t i = 0; i < 256; i++) {
      const uint32_t prev = tables.t[k - 1][i];
      tables.t[k][i] = (prev >> 8) ^ tables.t[0][prev & 0xFF];
    }
  }
  return tables;
}

constexpr Crc32Tables kCrc32Tables = MakeCrc32Tables();

}  // namespace

QueryResult RangeSumPredicatedScalar(const value_t* data, size_t n,
                                     const RangeQuery& q) {
  // Sums accumulate in uint64_t: the kernel contract is exact mod-2^64
  // arithmetic (matching the SIMD lanes), and unsigned wraparound is
  // defined where int64 overflow would be UB.
  uint64_t s0 = 0, s1 = 0, s2 = 0, s3 = 0;
  int64_t c0 = 0, c1 = 0, c2 = 0, c3 = 0;
  size_t i = 0;
  while (i < n) {
    const size_t tile_end = i + std::min(kScanTile, n - i);
    const size_t unrolled = i + ((tile_end - i) & ~size_t{3});
    for (; i < unrolled; i += 4) {
      const value_t v0 = data[i];
      const value_t v1 = data[i + 1];
      const value_t v2 = data[i + 2];
      const value_t v3 = data[i + 3];
      const uint64_t m0 = static_cast<uint64_t>(v0 >= q.low) &
                          static_cast<uint64_t>(v0 <= q.high);
      const uint64_t m1 = static_cast<uint64_t>(v1 >= q.low) &
                          static_cast<uint64_t>(v1 <= q.high);
      const uint64_t m2 = static_cast<uint64_t>(v2 >= q.low) &
                          static_cast<uint64_t>(v2 <= q.high);
      const uint64_t m3 = static_cast<uint64_t>(v3 >= q.low) &
                          static_cast<uint64_t>(v3 <= q.high);
      // v & -m == v * m for m in {0, 1}: the masked add the SIMD tiers
      // use, so every tier performs the identical mod-2^64 arithmetic.
      s0 += static_cast<uint64_t>(v0) & (0 - m0);
      s1 += static_cast<uint64_t>(v1) & (0 - m1);
      s2 += static_cast<uint64_t>(v2) & (0 - m2);
      s3 += static_cast<uint64_t>(v3) & (0 - m3);
      c0 += static_cast<int64_t>(m0);
      c1 += static_cast<int64_t>(m1);
      c2 += static_cast<int64_t>(m2);
      c3 += static_cast<int64_t>(m3);
    }
    for (; i < tile_end; i++) {
      const value_t v = data[i];
      const uint64_t m = static_cast<uint64_t>(v >= q.low) &
                         static_cast<uint64_t>(v <= q.high);
      s0 += static_cast<uint64_t>(v) & (0 - m);
      c0 += static_cast<int64_t>(m);
    }
  }
  return {static_cast<int64_t>(s0 + s1 + s2 + s3), c0 + c1 + c2 + c3};
}

void PartitionTwoSidedScalar(const value_t* src, size_t n, value_t pivot,
                             value_t* dst, size_t* lo_pos, int64_t* hi_pos) {
  size_t lo = *lo_pos;
  int64_t hi = *hi_pos;
  for (size_t i = 0; i < n; i++) {
    // Two-sided predicated write (§3.1): the value lands on both
    // frontiers and exactly one frontier advances.
    const value_t v = src[i];
    const bool below = v < pivot;
    dst[lo] = v;
    dst[hi] = v;
    lo += below ? 1 : 0;
    hi -= below ? 0 : 1;
  }
  *lo_pos = lo;
  *hi_pos = hi;
}

size_t CrackInPlaceScalar(value_t* data, size_t* lo_io, size_t* hi_io,
                          value_t pivot, size_t max_steps, bool* done) {
  size_t lo = *lo_io;
  size_t hi = *hi_io;
  size_t steps = 0;
  *done = false;
  // Predicated swap: both slots are written every iteration and exactly
  // one cursor advances, so the loop body has no data-dependent branch.
  // The gap shrinks by exactly 1 per step, so 4 steps are safe (and can
  // skip the per-step budget/collision checks) whenever the gap holds
  // at least 4; the AVX2/AVX-512 tiers override this with a buffered
  // vector partition, this unrolled loop is the ladder's floor.
  while (steps + 4 <= max_steps && lo < hi && hi - lo >= 4) {
    for (int u = 0; u < 4; u++) {
      const value_t a = data[lo];
      const value_t b = data[hi];
      const bool stay = a < pivot;
      data[lo] = stay ? a : b;
      data[hi] = stay ? b : a;
      lo += stay ? 1 : 0;
      hi -= stay ? 0 : 1;
    }
    steps += 4;
  }
  while (lo < hi && steps < max_steps) {
    const value_t a = data[lo];
    const value_t b = data[hi];
    const bool stay = a < pivot;
    data[lo] = stay ? a : b;
    data[hi] = stay ? b : a;
    lo += stay ? 1 : 0;
    hi -= stay ? 0 : 1;
    steps++;
  }
  if (lo == hi && steps < max_steps) {
    // Classify the final unpartitioned element; *lo becomes the
    // boundary.
    lo += data[lo] < pivot ? 1 : 0;
    *done = true;
    steps++;
  }
  *lo_io = lo;
  *hi_io = hi;
  return steps;
}

void ComputeDigitsScalar(const value_t* src, size_t n, value_t base,
                         int shift, uint32_t mask, uint32_t* digits) {
  const uint64_t b = static_cast<uint64_t>(base);
  for (size_t i = 0; i < n; i++) {
    digits[i] = static_cast<uint32_t>(
        ((static_cast<uint64_t>(src[i]) - b) >> shift) & mask);
  }
}

void RadixHistogramScalar(const value_t* src, size_t n, value_t base,
                          int shift, uint32_t mask, uint64_t* counts) {
  if (mask <= 255) {
    HistogramWithDigits(&ComputeDigitsScalar, src, n, base, shift, mask,
                        counts);
    return;
  }
  const uint64_t b = static_cast<uint64_t>(base);
  for (size_t i = 0; i < n; i++) {
    counts[((static_cast<uint64_t>(src[i]) - b) >> shift) & mask]++;
  }
}

void RadixScatterScalar(const value_t* src, size_t n, value_t base,
                        int shift, uint32_t mask, value_t* dst,
                        size_t* offsets) {
  ScatterWithDigits(&ComputeDigitsScalar, src, n, base, shift, mask, dst,
                    offsets);
}

uint32_t Crc32Scalar(const void* data, size_t n, uint32_t crc) {
  static_assert(__BYTE_ORDER__ == __ORDER_LITTLE_ENDIAN__,
                "slicing-by-8 folds the CRC into little-endian words");
  const auto& t = kCrc32Tables.t;
  const uint8_t* p = static_cast<const uint8_t*>(data);
  uint32_t c = ~crc;
  for (; n >= 8; n -= 8, p += 8) {
    uint64_t w = 0;
    std::memcpy(&w, p, sizeof(w));
    w ^= c;
    c = t[7][w & 0xFF] ^ t[6][(w >> 8) & 0xFF] ^ t[5][(w >> 16) & 0xFF] ^
        t[4][(w >> 24) & 0xFF] ^ t[3][(w >> 32) & 0xFF] ^
        t[2][(w >> 40) & 0xFF] ^ t[1][(w >> 48) & 0xFF] ^ t[0][w >> 56];
  }
  for (; n > 0; n--, p++) c = t[0][(c ^ *p) & 0xFF] ^ (c >> 8);
  return ~c;
}

}  // namespace detail

const KernelOps& ScalarKernels() {
  static constexpr KernelOps kOps = {
      "scalar",
      &detail::RangeSumPredicatedScalar,
      &detail::PartitionTwoSidedScalar,
      &detail::CrackInPlaceScalar,
      &detail::ComputeDigitsScalar,
      &detail::RadixHistogramScalar,
      &detail::RadixScatterScalar,
      &detail::Crc32Scalar,
  };
  return kOps;
}

}  // namespace kernels
}  // namespace progidx
