#include "kernels/kernels_internal.h"

// The AVX2 tier: 4-lane range-sum scans (16 elements per unrolled
// iteration), compress-store two-sided partitioning, and vector digit
// extraction feeding the shared prefetching histogram/scatter loops;
// plus the PCLMULQDQ CRC-32 that the AVX-512 tier shares. Compiled
// with -mavx2 -mpclmul for this translation unit only; Dispatch() only
// routes here when CPUID reports AVX2 and PCLMULQDQ.

#if defined(PROGIDX_HAVE_SIMD_TIERS) && defined(__AVX2__)

#include <immintrin.h>

#include <cstring>

namespace progidx {
namespace kernels {
namespace {

/// 32-bit permutation indices that compact the 64-bit lanes selected by
/// a 4-bit mask to the front (low lanes) or back (high lanes) of a
/// 256-bit register, preserving lane order. Lane L maps to index pair
/// {2L, 2L+1} for _mm256_permutevar8x32_epi32.
struct CompressTables {
  alignas(32) int32_t front[16][8];
  alignas(32) int32_t back[16][8];
};

const CompressTables kCompress = [] {
  CompressTables t{};
  for (int m = 0; m < 16; m++) {
    int cnt = 0;
    for (int lane = 0; lane < 4; lane++) {
      if (m & (1 << lane)) {
        t.front[m][2 * cnt] = 2 * lane;
        t.front[m][2 * cnt + 1] = 2 * lane + 1;
        cnt++;
      }
    }
    const int pad = 4 - cnt;
    int k = 0;
    for (int lane = 0; lane < 4; lane++) {
      if (m & (1 << lane)) {
        t.back[m][2 * (pad + k)] = 2 * lane;
        t.back[m][2 * (pad + k) + 1] = 2 * lane + 1;
        k++;
      }
    }
  }
  return t;
}();

QueryResult RangeSumPredicatedAvx2(const value_t* data, size_t n,
                                   const RangeQuery& q) {
  const __m256i lo = _mm256_set1_epi64x(q.low);
  const __m256i hi = _mm256_set1_epi64x(q.high);
  const __m256i ones = _mm256_set1_epi64x(-1);
  __m256i s0 = _mm256_setzero_si256(), s1 = s0, s2 = s0, s3 = s0;
  __m256i c0 = s0, c1 = s0, c2 = s0, c3 = s0;
  size_t i = 0;
  for (; i + 16 <= n; i += 16) {
    const __m256i v0 =
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(data + i));
    const __m256i v1 =
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(data + i + 4));
    const __m256i v2 =
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(data + i + 8));
    const __m256i v3 =
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(data + i + 12));
    const __m256i out0 = _mm256_or_si256(_mm256_cmpgt_epi64(lo, v0),
                                         _mm256_cmpgt_epi64(v0, hi));
    const __m256i out1 = _mm256_or_si256(_mm256_cmpgt_epi64(lo, v1),
                                         _mm256_cmpgt_epi64(v1, hi));
    const __m256i out2 = _mm256_or_si256(_mm256_cmpgt_epi64(lo, v2),
                                         _mm256_cmpgt_epi64(v2, hi));
    const __m256i out3 = _mm256_or_si256(_mm256_cmpgt_epi64(lo, v3),
                                         _mm256_cmpgt_epi64(v3, hi));
    s0 = _mm256_add_epi64(s0, _mm256_andnot_si256(out0, v0));
    s1 = _mm256_add_epi64(s1, _mm256_andnot_si256(out1, v1));
    s2 = _mm256_add_epi64(s2, _mm256_andnot_si256(out2, v2));
    s3 = _mm256_add_epi64(s3, _mm256_andnot_si256(out3, v3));
    c0 = _mm256_sub_epi64(c0, _mm256_andnot_si256(out0, ones));
    c1 = _mm256_sub_epi64(c1, _mm256_andnot_si256(out1, ones));
    c2 = _mm256_sub_epi64(c2, _mm256_andnot_si256(out2, ones));
    c3 = _mm256_sub_epi64(c3, _mm256_andnot_si256(out3, ones));
  }
  alignas(32) int64_t sums[4];
  alignas(32) int64_t counts[4];
  const __m256i s =
      _mm256_add_epi64(_mm256_add_epi64(s0, s1), _mm256_add_epi64(s2, s3));
  const __m256i c =
      _mm256_add_epi64(_mm256_add_epi64(c0, c1), _mm256_add_epi64(c2, c3));
  _mm256_store_si256(reinterpret_cast<__m256i*>(sums), s);
  _mm256_store_si256(reinterpret_cast<__m256i*>(counts), c);
  const QueryResult tail = detail::RangeSumPredicatedScalar(data + i, n - i, q);
  // Horizontal reduction and tail merge in uint64_t: mod-2^64 like the
  // lanes, without signed-overflow UB.
  const uint64_t sum =
      static_cast<uint64_t>(sums[0]) + static_cast<uint64_t>(sums[1]) +
      static_cast<uint64_t>(sums[2]) + static_cast<uint64_t>(sums[3]) +
      static_cast<uint64_t>(tail.sum);
  return {static_cast<int64_t>(sum),
          counts[0] + counts[1] + counts[2] + counts[3] + tail.count};
}

void PartitionTwoSidedAvx2(const value_t* src, size_t n, value_t pivot,
                           value_t* dst, size_t* lo_pos, int64_t* hi_pos) {
  size_t lo = *lo_pos;
  int64_t hi = *hi_pos;
  const __m256i piv = _mm256_set1_epi64x(pivot);
  size_t i = 0;
  // Full-width stores clobber up to 3 slots past each frontier, which
  // is safe while those slots lie in the unwritten gap [lo, hi]: the
  // gap shrinks by exactly 4 per step, so require >= 8 free slots.
  while (i + 4 <= n && hi - static_cast<int64_t>(lo) >= 7) {
    const __m256i v =
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(src + i));
    const unsigned below = static_cast<unsigned>(
        _mm256_movemask_pd(_mm256_castsi256_pd(_mm256_cmpgt_epi64(piv, v))));
    const __m256i lows = _mm256_permutevar8x32_epi32(
        v, _mm256_load_si256(
               reinterpret_cast<const __m256i*>(kCompress.front[below])));
    const __m256i highs = _mm256_permutevar8x32_epi32(
        v, _mm256_load_si256(reinterpret_cast<const __m256i*>(
               kCompress.back[below ^ 0xFu])));
    _mm256_storeu_si256(reinterpret_cast<__m256i*>(dst + lo), lows);
    _mm256_storeu_si256(reinterpret_cast<__m256i*>(dst + hi - 3), highs);
    const unsigned nlow = static_cast<unsigned>(__builtin_popcount(below));
    lo += nlow;
    hi -= 4 - nlow;
    i += 4;
  }
  *lo_pos = lo;
  *hi_pos = hi;
  detail::PartitionTwoSidedScalar(src + i, n - i, pivot, dst, lo_pos, hi_pos);
}

size_t CrackInPlaceAvx2(value_t* data, size_t* lo_io, size_t* hi_io,
                        value_t pivot, size_t max_steps, bool* done) {
  constexpr size_t kW = 4;
  size_t lo = *lo_io;
  size_t hi = *hi_io;
  // Bramas-style buffered in-place partition: hold one vector from each
  // end in registers, which opens 2·kW free slots in the array; each
  // step reads one vector from whichever end has fewer free slots and
  // compress-stores its low/high halves to the two write frontiers.
  // Loading from the emptier side keeps >= kW free slots in front of
  // both frontiers, so the full-width (clobbering) stores only ever
  // touch free slots. On exit the two held vectors are spilled back
  // into the remaining gap, re-establishing the scalar invariant that
  // [*lo, *hi] is exactly the unclassified region.
  if (lo < hi && hi - lo + 1 >= 4 * kW && max_steps >= 2 * kW) {
    const __m256i piv = _mm256_set1_epi64x(pivot);
    const __m256i l_held =
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(data + lo));
    const __m256i r_held =
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(data + hi - 3));
    size_t ur_lo = lo + kW;      // unread region: [ur_lo, ur_hi)
    size_t ur_hi = hi + 1 - kW;
    size_t lw = lo;              // next free slot on the left
    size_t rw = hi;              // next free slot on the right
    size_t vec_steps = 0;
    while (ur_hi - ur_lo >= kW && vec_steps + kW <= max_steps) {
      __m256i v;
      if (ur_lo - lw <= rw + 1 - ur_hi) {
        v = _mm256_loadu_si256(reinterpret_cast<const __m256i*>(data + ur_lo));
        ur_lo += kW;
      } else {
        ur_hi -= kW;
        v = _mm256_loadu_si256(reinterpret_cast<const __m256i*>(data + ur_hi));
      }
      const unsigned below = static_cast<unsigned>(
          _mm256_movemask_pd(_mm256_castsi256_pd(_mm256_cmpgt_epi64(piv, v))));
      const __m256i lows = _mm256_permutevar8x32_epi32(
          v, _mm256_load_si256(
                 reinterpret_cast<const __m256i*>(kCompress.front[below])));
      const __m256i highs = _mm256_permutevar8x32_epi32(
          v, _mm256_load_si256(reinterpret_cast<const __m256i*>(
                 kCompress.back[below ^ 0xFu])));
      _mm256_storeu_si256(reinterpret_cast<__m256i*>(data + lw), lows);
      _mm256_storeu_si256(reinterpret_cast<__m256i*>(data + rw - 3), highs);
      const unsigned nlow = static_cast<unsigned>(__builtin_popcount(below));
      lw += nlow;
      rw -= kW - nlow;
      vec_steps += kW;
    }
    // Spill the held vectors into the free slots on both sides; the
    // unclassified region is again contiguous at [lw, rw]. Reported
    // steps are the region's shrinkage, so resuming never double-counts
    // the spilled (re-read) elements against the budget.
    alignas(32) value_t held[2 * kW];
    _mm256_store_si256(reinterpret_cast<__m256i*>(held), l_held);
    _mm256_store_si256(reinterpret_cast<__m256i*>(held + kW), r_held);
    const size_t left_free = ur_lo - lw;
    for (size_t k = 0; k < left_free; k++) data[lw + k] = held[k];
    for (size_t k = left_free; k < 2 * kW; k++) {
      data[ur_hi + (k - left_free)] = held[k];
    }
    lo = lw;
    hi = rw;
    *lo_io = lo;
    *hi_io = hi;
    const size_t tail_steps = detail::CrackInPlaceScalar(
        data, lo_io, hi_io, pivot, max_steps - vec_steps, done);
    return vec_steps + tail_steps;
  }
  return detail::CrackInPlaceScalar(data, lo_io, hi_io, pivot, max_steps,
                                    done);
}

void ComputeDigitsAvx2(const value_t* src, size_t n, value_t base, int shift,
                       uint32_t mask, uint32_t* digits) {
  const __m256i basev = _mm256_set1_epi64x(base);
  const __m128i shiftv = _mm_cvtsi32_si128(shift);
  const __m256i maskv = _mm256_set1_epi64x(mask);
  // Digits fit in 32 bits; gather the low dword of each 64-bit lane.
  const __m256i pick = _mm256_setr_epi32(0, 2, 4, 6, 0, 0, 0, 0);
  size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    const __m256i v =
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(src + i));
    const __m256i d = _mm256_and_si256(
        _mm256_srl_epi64(_mm256_sub_epi64(v, basev), shiftv), maskv);
    const __m256i packed = _mm256_permutevar8x32_epi32(d, pick);
    _mm_storeu_si128(reinterpret_cast<__m128i*>(digits + i),
                     _mm256_castsi256_si128(packed));
  }
  detail::ComputeDigitsScalar(src + i, n - i, base, shift, mask, digits + i);
}

void RadixHistogramAvx2(const value_t* src, size_t n, value_t base, int shift,
                        uint32_t mask, uint64_t* counts) {
  if (mask <= 255) {
    detail::HistogramWithDigits(&ComputeDigitsAvx2, src, n, base, shift, mask,
                                counts);
    return;
  }
  detail::RadixHistogramScalar(src, n, base, shift, mask, counts);
}

void RadixScatterAvx2(const value_t* src, size_t n, value_t base, int shift,
                      uint32_t mask, value_t* dst, size_t* offsets) {
  if (mask < detail::kWcMinMask || mask > detail::kWcMaxMask ||
      n * sizeof(value_t) < detail::kWcStreamMinBytes) {
    detail::ScatterWithDigits(&ComputeDigitsAvx2, src, n, base, shift, mask,
                              dst, offsets);
    return;
  }
  detail::ScatterWithWcBuffers(
      &ComputeDigitsAvx2, src, n, base, shift, mask, dst, offsets,
      [](value_t* out, const value_t* buf, uint32_t cnt) {
        if (cnt == detail::kWcSlotsPerBucket &&
            (reinterpret_cast<uintptr_t>(out) & 63) == 0) {
          for (uint32_t k = 0; k < detail::kWcSlotsPerBucket; k += 4) {
            _mm256_stream_si256(
                reinterpret_cast<__m256i*>(out + k),
                _mm256_load_si256(
                    reinterpret_cast<const __m256i*>(buf + k)));
          }
        } else {
          std::memcpy(out, buf, cnt * sizeof(value_t));
        }
      });
  _mm_sfence();
}

}  // namespace

namespace detail {

// CRC-32 by carry-less multiplication (Gopal et al., "Fast CRC
// Computation for Generic Polynomials Using PCLMULQDQ Instruction",
// Intel, 2009): four 128-bit accumulators fold 64 bytes per step, are
// folded into one, which then folds the remaining 16-byte blocks; the
// last 128 bits reduce to 64, then to 32 by Barrett reduction. The
// constants are the paper's, bit-reflected and shifted: k1..k4 are
// x^(4·128+32), x^(4·128-32), x^(128+32), x^(128-32) mod P, k5 is
// x^64 mod P, P′ the polynomial itself and μ = floor(x^64 / P).
uint32_t Crc32Clmul(const void* data, size_t n, uint32_t crc) {
  const uint8_t* p = static_cast<const uint8_t*>(data);
  if (n < 64) return Crc32Scalar(p, n, crc);
  const __m128i k1k2 = _mm_set_epi64x(0x1c6e41596, 0x154442bd4);
  const __m128i k3k4 = _mm_set_epi64x(0x0ccaa009e, 0x1751997d0);
  const __m128i k5 = _mm_set_epi64x(0, 0x163cd6124);
  const __m128i poly_mu = _mm_set_epi64x(0x1f7011641, 0x1db710641);
  const __m128i low32 = _mm_setr_epi32(-1, 0, -1, 0);
  auto load = [](const uint8_t* src) {
    return _mm_loadu_si128(reinterpret_cast<const __m128i*>(src));
  };
  // Carries `acc` forward over the distance its constant pair encodes
  // (low half times the first constant, high half times the second)
  // and adds the block found there.
  auto fold = [](__m128i acc, __m128i k, __m128i next) {
    return _mm_xor_si128(_mm_xor_si128(_mm_clmulepi64_si128(acc, k, 0x00),
                                       _mm_clmulepi64_si128(acc, k, 0x11)),
                         next);
  };

  __m128i x0 =
      _mm_xor_si128(load(p), _mm_cvtsi32_si128(static_cast<int>(~crc)));
  __m128i x1 = load(p + 16);
  __m128i x2 = load(p + 32);
  __m128i x3 = load(p + 48);
  p += 64;
  n -= 64;
  for (; n >= 64; p += 64, n -= 64) {
    x0 = fold(x0, k1k2, load(p));
    x1 = fold(x1, k1k2, load(p + 16));
    x2 = fold(x2, k1k2, load(p + 32));
    x3 = fold(x3, k1k2, load(p + 48));
  }
  x0 = fold(x0, k3k4, x1);
  x0 = fold(x0, k3k4, x2);
  x0 = fold(x0, k3k4, x3);
  for (; n >= 16; p += 16, n -= 16) x0 = fold(x0, k3k4, load(p));

  // 128 -> 64 bits, then 64 -> 32 (as 96 -> 64 with the zero-extended
  // low word times k5).
  x0 = _mm_xor_si128(_mm_srli_si128(x0, 8),
                     _mm_clmulepi64_si128(x0, k3k4, 0x10));
  x0 = _mm_xor_si128(
      _mm_clmulepi64_si128(_mm_and_si128(x0, low32), k5, 0x00),
      _mm_srli_si128(x0, 4));
  // Barrett: q = floor(x0·μ), crc = x0 - q·P′ (the low word's multiple
  // of P lands the remainder in word 1).
  __m128i q = _mm_clmulepi64_si128(_mm_and_si128(x0, low32), poly_mu, 0x10);
  q = _mm_clmulepi64_si128(_mm_and_si128(q, low32), poly_mu, 0x00);
  const uint32_t folded =
      static_cast<uint32_t>(_mm_extract_epi32(_mm_xor_si128(x0, q), 1));
  // The fold works on the inverted register; re-invert it so the tail
  // continues from a plain CRC.
  return Crc32Scalar(p, n, ~folded);
}

}  // namespace detail

const KernelOps& Avx2Kernels() {
  static constexpr KernelOps kOps = {
      "avx2",
      &RangeSumPredicatedAvx2,
      &detail::RangeSumBranchedScalar,
      &PartitionTwoSidedAvx2,
      &CrackInPlaceAvx2,
      &ComputeDigitsAvx2,
      &RadixHistogramAvx2,
      &RadixScatterAvx2,
      &detail::Crc32Clmul,
  };
  return kOps;
}

}  // namespace kernels
}  // namespace progidx

#elif defined(PROGIDX_HAVE_SIMD_TIERS)

// SIMD tiers requested but this TU was built without -mavx2; keep the
// symbol resolvable (Dispatch() will still CPUID-check before use, and
// a scalar table is always correct).
namespace progidx {
namespace kernels {
const KernelOps& Avx2Kernels() { return ScalarKernels(); }
namespace detail {
uint32_t Crc32Clmul(const void* data, size_t n, uint32_t crc) {
  return Crc32Scalar(data, n, crc);
}
}  // namespace detail
}  // namespace kernels
}  // namespace progidx

#endif  // PROGIDX_HAVE_SIMD_TIERS && __AVX2__
