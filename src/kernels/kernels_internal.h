#ifndef PROGIDX_KERNELS_KERNELS_INTERNAL_H_
#define PROGIDX_KERNELS_KERNELS_INTERNAL_H_

#include <algorithm>
#include <cstddef>
#include <cstdint>

#include "kernels/kernels.h"

// Scalar building blocks shared across tiers: the SIMD translation
// units use these for loop tails, for budget-exhausted crack
// remainders, and for the scatter, histogram and CRC loops they wrap.

namespace progidx {
namespace kernels {
namespace detail {

QueryResult RangeSumPredicatedScalar(const value_t* data, size_t n,
                                     const RangeQuery& q);
void PartitionTwoSidedScalar(const value_t* src, size_t n, value_t pivot,
                             value_t* dst, size_t* lo_pos, int64_t* hi_pos);
size_t CrackInPlaceScalar(value_t* data, size_t* lo, size_t* hi,
                          value_t pivot, size_t max_steps, bool* done);
void ComputeDigitsScalar(const value_t* src, size_t n, value_t base,
                         int shift, uint32_t mask, uint32_t* digits);
void RadixHistogramScalar(const value_t* src, size_t n, value_t base,
                          int shift, uint32_t mask, uint64_t* counts);
void RadixScatterScalar(const value_t* src, size_t n, value_t base,
                        int shift, uint32_t mask, value_t* dst,
                        size_t* offsets);
uint32_t Crc32Scalar(const void* data, size_t n, uint32_t crc);
/// PCLMULQDQ folding CRC-32 shared by the avx2 and avx512 tiers;
/// inputs under 64 bytes and the sub-16-byte tail take Crc32Scalar.
uint32_t Crc32Clmul(const void* data, size_t n, uint32_t crc);

using ComputeDigitsFn = void (*)(const value_t*, size_t, value_t, int,
                                 uint32_t, uint32_t*);

/// Scatter loop shared by all tiers: digits are precomputed per
/// cache-resident batch by `digits_fn`, and each store's destination
/// bucket head is software-prefetched a few elements ahead (the scatter
/// touches up to mask + 1 distinct cache lines per batch, which is what
/// makes the unprefetched loop memory-bound).
inline void ScatterWithDigits(ComputeDigitsFn digits_fn, const value_t* src,
                              size_t n, value_t base, int shift,
                              uint32_t mask, value_t* dst, size_t* offsets) {
  constexpr size_t kBatch = 1024;
  constexpr size_t kPrefetchDist = 8;
  uint32_t digits[kBatch];
  size_t i = 0;
  while (i < n) {
    const size_t len = std::min(kBatch, n - i);
    digits_fn(src + i, len, base, shift, mask, digits);
    for (size_t j = 0; j < len; j++) {
      if (j + kPrefetchDist < len) {
        __builtin_prefetch(dst + offsets[digits[j + kPrefetchDist]], 1, 1);
      }
      dst[offsets[digits[j]]++] = src[i + j];
    }
    i += len;
  }
}

// --- Software write-combining scatter ---------------------------------
//
// The direct scatter above keeps up to mask + 1 store streams open at
// once; every store RFOs a far cache line and the loop is bound by
// store latency, not bandwidth (BENCH_kernels.json: 1.17x from
// dispatch alone). The SIMD tiers instead stage each bucket's writes
// in a 256 B per-bucket buffer (4 cache lines; the whole table is
// L1/L2-resident) and flush full buffers in one burst — with
// streaming stores when the destination line is 64 B-aligned and the
// scattered region is too big to profit from landing in cache anyway.
// The first flush of each bucket is a short head that re-aligns the
// bucket's write position to a cache line, so every later flush is a
// whole number of aligned lines.

/// 32 values = 256 B staged per bucket.
constexpr size_t kWcSlotsPerBucket = 32;
/// Measured on the dev container (see docs/kernels.md): at <= 64
/// buckets the prefetching direct scatter still wins (~3.9 vs ~3.2
/// GB/s — few enough write streams that prefetch hides the RFOs; a
/// vpconflictq-vectorized WC loop measured slower still), so WC
/// buffering kicks in above it, where the direct loop collapses
/// (1.75 -> 3.3 GB/s at 256 buckets).
constexpr uint32_t kWcMinMask = 64;
/// The WC table covers 8-bit digits at most ((255 + 1) * 256 B = 64 KiB);
/// wider masks take the direct prefetching scatter.
constexpr uint32_t kWcMaxMask = 255;
/// The WC path is taken only when the scattered region is at least this
/// big: below it the lines are worth caching for the scans that follow
/// (and without streaming flushes the WC loop measures *slower* than
/// the prefetching scatter — the RFOs come back), so small scatters
/// keep the direct loop.
constexpr size_t kWcStreamMinBytes = size_t{4} << 20;

/// FlushFn: void(value_t* dst, const value_t* buf, uint32_t cnt).
/// `buf` is 64 B-aligned; when cnt == kWcSlotsPerBucket, `dst` is
/// 64 B-aligned too (whole lines — the streaming-store case).
template <typename FlushFn>
inline void ScatterWithWcBuffers(ComputeDigitsFn digits_fn, const value_t* src,
                                 size_t n, value_t base, int shift,
                                 uint32_t mask, value_t* dst, size_t* offsets,
                                 FlushFn&& flush_fn) {
  struct WcTable {
    alignas(64) value_t buf[(kWcMaxMask + 1) * kWcSlotsPerBucket];
    uint32_t fill[kWcMaxMask + 1];
    uint32_t target[kWcMaxMask + 1];
  };
  static thread_local WcTable wc;
  const uint32_t buckets = mask + 1;
  for (uint32_t d = 0; d < buckets; d++) {
    wc.fill[d] = 0;
    // Head run that brings this bucket's write position to the next
    // 64 B line (0..7 values; 0 means already aligned).
    const uintptr_t addr = reinterpret_cast<uintptr_t>(dst + offsets[d]);
    const uint32_t head = static_cast<uint32_t>(((64 - (addr & 63)) & 63) >> 3);
    wc.target[d] = head == 0 ? kWcSlotsPerBucket : head;
  }
  constexpr size_t kBatch = 1024;
  uint32_t digits[kBatch];
  size_t i = 0;
  while (i < n) {
    const size_t len = std::min(kBatch, n - i);
    digits_fn(src + i, len, base, shift, mask, digits);
    for (size_t j = 0; j < len; j++) {
      const uint32_t d = digits[j];
      value_t* buf = wc.buf + d * kWcSlotsPerBucket;
      uint32_t f = wc.fill[d];
      buf[f++] = src[i + j];
      if (f == wc.target[d]) {
        flush_fn(dst + offsets[d], buf, f);
        offsets[d] += f;
        f = 0;
        wc.target[d] = kWcSlotsPerBucket;
      }
      wc.fill[d] = f;
    }
    i += len;
  }
  for (uint32_t d = 0; d < buckets; d++) {
    if (wc.fill[d] != 0) {
      flush_fn(dst + offsets[d], wc.buf + d * kWcSlotsPerBucket, wc.fill[d]);
      offsets[d] += wc.fill[d];
    }
  }
}

/// Histogram loop shared by all tiers when mask <= 255: four interleaved
/// sub-tables break the store-to-load dependency on repeated digits.
inline void HistogramWithDigits(ComputeDigitsFn digits_fn, const value_t* src,
                                size_t n, value_t base, int shift,
                                uint32_t mask, uint64_t* counts) {
  constexpr size_t kBatch = 4096;
  uint32_t digits[kBatch];
  uint64_t sub[4][256] = {};
  size_t i = 0;
  while (i < n) {
    const size_t len = std::min(kBatch, n - i);
    digits_fn(src + i, len, base, shift, mask, digits);
    size_t j = 0;
    for (; j + 4 <= len; j += 4) {
      sub[0][digits[j]]++;
      sub[1][digits[j + 1]]++;
      sub[2][digits[j + 2]]++;
      sub[3][digits[j + 3]]++;
    }
    for (; j < len; j++) sub[0][digits[j]]++;
    i += len;
  }
  for (uint32_t d = 0; d <= mask; d++) {
    counts[d] += sub[0][d] + sub[1][d] + sub[2][d] + sub[3][d];
  }
}

}  // namespace detail
}  // namespace kernels
}  // namespace progidx

#endif  // PROGIDX_KERNELS_KERNELS_INTERNAL_H_
