#include "kernels/kernels_internal.h"

// The AVX-512 tier: 8-lane masked range-sum scans (32 elements per
// unrolled iteration), vpcompressq-based two-sided partitioning (exact
// compress-stores, no clobber slack needed), a Bramas-style buffered
// in-place crack, vector digit extraction, and a write-combining
// scatter flushed with 512-bit streaming stores; the CRC-32 is the AVX2
// tier's PCLMULQDQ fold. Compiled with -mavx512f for this translation
// unit only; Dispatch() routes here only after CPUID leaf-7 reports
// AVX512F, XGETBV confirms the OS saves ZMM/opmask state, and leaf 1
// reports PCLMULQDQ.

#if defined(PROGIDX_HAVE_SIMD_TIERS) && defined(__AVX512F__)

#include <immintrin.h>

#include <cstring>

namespace progidx {
namespace kernels {
namespace {

QueryResult RangeSumPredicatedAvx512(const value_t* data, size_t n,
                                     const RangeQuery& q) {
  const __m512i lo = _mm512_set1_epi64(q.low);
  const __m512i hi = _mm512_set1_epi64(q.high);
  __m512i s0 = _mm512_setzero_si512(), s1 = s0, s2 = s0, s3 = s0;
  uint64_t count = 0;
  size_t i = 0;
  for (; i + 32 <= n; i += 32) {
    const __m512i v0 = _mm512_loadu_si512(data + i);
    const __m512i v1 = _mm512_loadu_si512(data + i + 8);
    const __m512i v2 = _mm512_loadu_si512(data + i + 16);
    const __m512i v3 = _mm512_loadu_si512(data + i + 24);
    const __mmask8 m0 = _mm512_cmp_epi64_mask(lo, v0, _MM_CMPINT_LE) &
                        _mm512_cmp_epi64_mask(v0, hi, _MM_CMPINT_LE);
    const __mmask8 m1 = _mm512_cmp_epi64_mask(lo, v1, _MM_CMPINT_LE) &
                        _mm512_cmp_epi64_mask(v1, hi, _MM_CMPINT_LE);
    const __mmask8 m2 = _mm512_cmp_epi64_mask(lo, v2, _MM_CMPINT_LE) &
                        _mm512_cmp_epi64_mask(v2, hi, _MM_CMPINT_LE);
    const __mmask8 m3 = _mm512_cmp_epi64_mask(lo, v3, _MM_CMPINT_LE) &
                        _mm512_cmp_epi64_mask(v3, hi, _MM_CMPINT_LE);
    s0 = _mm512_mask_add_epi64(s0, m0, s0, v0);
    s1 = _mm512_mask_add_epi64(s1, m1, s1, v1);
    s2 = _mm512_mask_add_epi64(s2, m2, s2, v2);
    s3 = _mm512_mask_add_epi64(s3, m3, s3, v3);
    count += static_cast<unsigned>(__builtin_popcount(m0)) +
             static_cast<unsigned>(__builtin_popcount(m1)) +
             static_cast<unsigned>(__builtin_popcount(m2)) +
             static_cast<unsigned>(__builtin_popcount(m3));
  }
  const __m512i s = _mm512_add_epi64(_mm512_add_epi64(s0, s1),
                                     _mm512_add_epi64(s2, s3));
  const QueryResult tail = detail::RangeSumPredicatedScalar(data + i, n - i, q);
  // Tail merge in uint64_t: mod-2^64 like the lanes, without
  // signed-overflow UB.
  const uint64_t sum = static_cast<uint64_t>(_mm512_reduce_add_epi64(s)) +
                       static_cast<uint64_t>(tail.sum);
  return {static_cast<int64_t>(sum),
          static_cast<int64_t>(count) + tail.count};
}

void PartitionTwoSidedAvx512(const value_t* src, size_t n, value_t pivot,
                             value_t* dst, size_t* lo_pos, int64_t* hi_pos) {
  size_t lo = *lo_pos;
  int64_t hi = *hi_pos;
  const __m512i piv = _mm512_set1_epi64(pivot);
  size_t i = 0;
  // vpcompressq writes exactly popcount(mask) elements, so unlike the
  // AVX2 permute-table version nothing past either frontier is
  // clobbered; the gap only needs room for the 8 values themselves.
  while (i + 8 <= n && hi - static_cast<int64_t>(lo) >= 7) {
    const __m512i v = _mm512_loadu_si512(src + i);
    const __mmask8 below = _mm512_cmp_epi64_mask(v, piv, _MM_CMPINT_LT);
    const unsigned nlow = static_cast<unsigned>(__builtin_popcount(below));
    _mm512_mask_compressstoreu_epi64(dst + lo, below, v);
    _mm512_mask_compressstoreu_epi64(dst + hi + 1 - (8 - nlow),
                                     static_cast<__mmask8>(~below), v);
    lo += nlow;
    hi -= 8 - nlow;
    i += 8;
  }
  *lo_pos = lo;
  *hi_pos = hi;
  detail::PartitionTwoSidedScalar(src + i, n - i, pivot, dst, lo_pos, hi_pos);
}

size_t CrackInPlaceAvx512(value_t* data, size_t* lo_io, size_t* hi_io,
                          value_t pivot, size_t max_steps, bool* done) {
  constexpr size_t kW = 8;
  size_t lo = *lo_io;
  size_t hi = *hi_io;
  // Bramas-style buffered in-place partition (see the AVX2 tier for the
  // slack argument): two vectors held in registers open 2·kW free
  // slots; each step reads from the emptier end and compress-stores the
  // split to both frontiers. Compress-stores write exactly their
  // popcount, so frontier stores never clobber anything.
  if (lo < hi && hi - lo + 1 >= 4 * kW && max_steps >= 2 * kW) {
    const __m512i piv = _mm512_set1_epi64(pivot);
    const __m512i l_held = _mm512_loadu_si512(data + lo);
    const __m512i r_held = _mm512_loadu_si512(data + hi + 1 - kW);
    size_t ur_lo = lo + kW;      // unread region: [ur_lo, ur_hi)
    size_t ur_hi = hi + 1 - kW;
    size_t lw = lo;              // next free slot on the left
    size_t rw = hi;              // next free slot on the right
    size_t vec_steps = 0;
    while (ur_hi - ur_lo >= kW && vec_steps + kW <= max_steps) {
      __m512i v;
      if (ur_lo - lw <= rw + 1 - ur_hi) {
        v = _mm512_loadu_si512(data + ur_lo);
        ur_lo += kW;
      } else {
        ur_hi -= kW;
        v = _mm512_loadu_si512(data + ur_hi);
      }
      const __mmask8 below = _mm512_cmp_epi64_mask(v, piv, _MM_CMPINT_LT);
      const unsigned nlow = static_cast<unsigned>(__builtin_popcount(below));
      _mm512_mask_compressstoreu_epi64(data + lw, below, v);
      _mm512_mask_compressstoreu_epi64(data + rw + 1 - (kW - nlow),
                                       static_cast<__mmask8>(~below), v);
      lw += nlow;
      rw -= kW - nlow;
      vec_steps += kW;
    }
    // Spill the held vectors into the free slots on both sides; the
    // unclassified region is again contiguous at [lw, rw] and reported
    // steps equal the region's shrinkage (spilled elements are re-read
    // later without being double-counted against the budget).
    alignas(64) value_t held[2 * kW];
    _mm512_store_si512(held, l_held);
    _mm512_store_si512(held + kW, r_held);
    const size_t left_free = ur_lo - lw;
    for (size_t k = 0; k < left_free; k++) data[lw + k] = held[k];
    for (size_t k = left_free; k < 2 * kW; k++) {
      data[ur_hi + (k - left_free)] = held[k];
    }
    *lo_io = lw;
    *hi_io = rw;
    const size_t tail_steps = detail::CrackInPlaceScalar(
        data, lo_io, hi_io, pivot, max_steps - vec_steps, done);
    return vec_steps + tail_steps;
  }
  return detail::CrackInPlaceScalar(data, lo_io, hi_io, pivot, max_steps,
                                    done);
}

void ComputeDigitsAvx512(const value_t* src, size_t n, value_t base,
                         int shift, uint32_t mask, uint32_t* digits) {
  const __m512i basev = _mm512_set1_epi64(base);
  const __m128i shiftv = _mm_cvtsi32_si128(shift);
  const __m512i maskv = _mm512_set1_epi64(mask);
  size_t i = 0;
  for (; i + 8 <= n; i += 8) {
    const __m512i v = _mm512_loadu_si512(src + i);
    const __m512i d = _mm512_and_si512(
        _mm512_srl_epi64(_mm512_sub_epi64(v, basev), shiftv), maskv);
    _mm256_storeu_si256(reinterpret_cast<__m256i*>(digits + i),
                        _mm512_cvtepi64_epi32(d));
  }
  detail::ComputeDigitsScalar(src + i, n - i, base, shift, mask, digits + i);
}

void RadixHistogramAvx512(const value_t* src, size_t n, value_t base,
                          int shift, uint32_t mask, uint64_t* counts) {
  if (mask <= 255) {
    detail::HistogramWithDigits(&ComputeDigitsAvx512, src, n, base, shift,
                                mask, counts);
    return;
  }
  detail::RadixHistogramScalar(src, n, base, shift, mask, counts);
}

void RadixScatterAvx512(const value_t* src, size_t n, value_t base, int shift,
                        uint32_t mask, value_t* dst, size_t* offsets) {
  if (mask < detail::kWcMinMask || mask > detail::kWcMaxMask ||
      n * sizeof(value_t) < detail::kWcStreamMinBytes) {
    detail::ScatterWithDigits(&ComputeDigitsAvx512, src, n, base, shift, mask,
                              dst, offsets);
    return;
  }
  detail::ScatterWithWcBuffers(
      &ComputeDigitsAvx512, src, n, base, shift, mask, dst, offsets,
      [](value_t* out, const value_t* buf, uint32_t cnt) {
        if (cnt == detail::kWcSlotsPerBucket &&
            (reinterpret_cast<uintptr_t>(out) & 63) == 0) {
          for (uint32_t k = 0; k < detail::kWcSlotsPerBucket; k += 8) {
            _mm512_stream_si512(reinterpret_cast<__m512i*>(out + k),
                                _mm512_load_si512(buf + k));
          }
        } else {
          std::memcpy(out, buf, cnt * sizeof(value_t));
        }
      });
  _mm_sfence();
}

#if defined(__AVX512CD__) && defined(__AVX512VPOPCNTDQ__)

// vpconflictq-based vectorized WC buffering for <= 64-bucket scatters:
// the per-element WC loop is CPU-bound there (the direct prefetching
// scatter wins ~3.9 vs ~3.2 GB/s single-core), so vectorize the
// buffering itself — digits, staging positions, and fill updates all
// computed 8 lanes at a time. Intra-vector duplicate buckets are the
// crux: vpconflictq marks, per lane, which *earlier* lanes carry the
// same digit, so popcount of that mask is the lane's rank among its
// duplicates — every lane gets a distinct staging slot and one 8-lane
// scatter stores the whole vector. The fill-counter update exploits
// scatter ordering (on overlapping indices the highest lane wins): the
// last occurrence of a bucket writes fill = its pos + 1 = fill + count.
void RadixScatterConflictWcAvx512(const value_t* src, size_t n, value_t base,
                                  int shift, uint32_t mask, value_t* dst,
                                  size_t* offsets) {
  constexpr size_t kSlots = 32;  // 256 B staged per bucket, as the WC loop
  struct Table {
    alignas(64) value_t buf[64 * kSlots];
    uint64_t fill[64];  // 8-byte counters: one vpgatherqq/vpscatterqq each
  };
  static thread_local Table t;
  const uint32_t buckets = mask + 1;  // caller contract: mask <= 63
  for (uint32_t d = 0; d < buckets; d++) t.fill[d] = 0;
  auto flush = [&](uint64_t b) {
    const uint64_t f = t.fill[b];
    if (f != 0) {
      std::memcpy(dst + offsets[b], t.buf + b * kSlots,
                  static_cast<size_t>(f) * sizeof(value_t));
      offsets[b] += static_cast<size_t>(f);
      t.fill[b] = 0;
    }
  };
  const __m512i basev = _mm512_set1_epi64(base);
  const __m128i shiftv = _mm_cvtsi32_si128(shift);
  const __m512i maskv = _mm512_set1_epi64(mask);
  const __m512i slots = _mm512_set1_epi64(static_cast<int64_t>(kSlots));
  const __m512i one = _mm512_set1_epi64(1);
  size_t i = 0;
  for (; i + 8 <= n; i += 8) {
    const __m512i v = _mm512_loadu_si512(src + i);
    const __m512i d = _mm512_and_si512(
        _mm512_srl_epi64(_mm512_sub_epi64(v, basev), shiftv), maskv);
    const __m512i rank = _mm512_popcnt_epi64(_mm512_conflict_epi64(d));
    __m512i fills = _mm512_i64gather_epi64(d, t.fill, 8);
    __m512i pos = _mm512_add_epi64(fills, rank);
    const __mmask8 over = _mm512_cmp_epu64_mask(pos, slots, _MM_CMPINT_GE);
    if (over != 0) {
      // A bucket crossed the 32-slot boundary (every ~4th vector at 64
      // uniform buckets): flush the offending buckets, recompute.
      alignas(64) uint64_t dd[8];
      _mm512_store_si512(dd, d);
      for (__mmask8 m = over; m != 0; m &= static_cast<__mmask8>(m - 1)) {
        flush(dd[__builtin_ctz(m)]);
      }
      fills = _mm512_i64gather_epi64(d, t.fill, 8);
      pos = _mm512_add_epi64(fills, rank);
    }
    const __m512i slot = _mm512_add_epi64(_mm512_slli_epi64(d, 5), pos);
    _mm512_i64scatter_epi64(t.buf, slot, v, 8);
    _mm512_i64scatter_epi64(t.fill, d, _mm512_add_epi64(pos, one), 8);
  }
  for (; i < n; i++) {
    const uint64_t b = ((static_cast<uint64_t>(src[i]) -
                         static_cast<uint64_t>(base)) >>
                       shift) &
                      mask;
    if (t.fill[b] == kSlots) flush(b);
    t.buf[b * kSlots + t.fill[b]++] = src[i];
  }
  for (uint32_t d = 0; d < buckets; d++) flush(d);
}

#endif  // __AVX512CD__ && __AVX512VPOPCNTDQ__

}  // namespace

namespace detail {
ScatterFn ConflictWcScatterAvx512() {
#if defined(__AVX512CD__) && defined(__AVX512VPOPCNTDQ__)
  static const bool supported = __builtin_cpu_supports("avx512cd") &&
                                __builtin_cpu_supports("avx512vpopcntdq");
  return supported ? &RadixScatterConflictWcAvx512 : nullptr;
#else
  return nullptr;
#endif
}
}  // namespace detail

const KernelOps& Avx512Kernels() {
  static constexpr KernelOps kOps = {
      "avx512",
      &RangeSumPredicatedAvx512,
      &detail::RangeSumBranchedScalar,
      &PartitionTwoSidedAvx512,
      &CrackInPlaceAvx512,
      &ComputeDigitsAvx512,
      &RadixHistogramAvx512,
      &RadixScatterAvx512,
      &detail::Crc32Clmul,
  };
  return kOps;
}

}  // namespace kernels
}  // namespace progidx

#elif defined(PROGIDX_HAVE_SIMD_TIERS)

// SIMD tiers requested but this TU was built without -mavx512f (e.g. a
// compiler that predates it); keep the symbols resolvable (Dispatch()
// still CPUID-checks before use, and a scalar table is always correct).
namespace progidx {
namespace kernels {
const KernelOps& Avx512Kernels() { return ScalarKernels(); }
namespace detail {
ScatterFn ConflictWcScatterAvx512() { return nullptr; }
}  // namespace detail
}  // namespace kernels
}  // namespace progidx

#else

// Scalar-only build (PROGIDX_NO_SIMD): the probe reports "unavailable".
namespace progidx {
namespace kernels {
namespace detail {
ScatterFn ConflictWcScatterAvx512() { return nullptr; }
}  // namespace detail
}  // namespace kernels
}  // namespace progidx

#endif  // PROGIDX_HAVE_SIMD_TIERS && __AVX512F__
