#include "kernels/kernels_internal.h"

// The SSE2 tier: 2-lane scans for plain x86-64 baseline silicon. SSE2
// has no 64-bit compare, so one is emulated (overflow-safe, Hacker's
// Delight 2-13); everything else (partition, crack, digits, scatter,
// CRC) falls back to the scalar building blocks, where 2-lane SIMD
// buys nothing over the cmov loop — and baseline x86-64 does not
// guarantee the PCLMULQDQ the wide tiers' CRC needs.

#if defined(PROGIDX_HAVE_SIMD_TIERS) && defined(__SSE2__)

#include <emmintrin.h>

namespace progidx {
namespace kernels {
namespace {

/// Signed 64-bit a > b with SSE2 only: the sign bit of
/// (b - a) ^ ((b ^ a) & ((b - a) ^ b)), broadcast across the lane.
inline __m128i CmpGtEpi64(__m128i a, __m128i b) {
  const __m128i d = _mm_sub_epi64(b, a);
  const __m128i r = _mm_xor_si128(
      d, _mm_and_si128(_mm_xor_si128(b, a), _mm_xor_si128(d, b)));
  return _mm_srai_epi32(_mm_shuffle_epi32(r, _MM_SHUFFLE(3, 3, 1, 1)), 31);
}

QueryResult RangeSumPredicatedSse2(const value_t* data, size_t n,
                                   const RangeQuery& q) {
  const __m128i lo = _mm_set1_epi64x(q.low);
  const __m128i hi = _mm_set1_epi64x(q.high);
  __m128i s0 = _mm_setzero_si128(), s1 = s0, s2 = s0, s3 = s0;
  __m128i c0 = s0, c1 = s0, c2 = s0, c3 = s0;
  size_t i = 0;
  for (; i + 8 <= n; i += 8) {
    const __m128i v0 =
        _mm_loadu_si128(reinterpret_cast<const __m128i*>(data + i));
    const __m128i v1 =
        _mm_loadu_si128(reinterpret_cast<const __m128i*>(data + i + 2));
    const __m128i v2 =
        _mm_loadu_si128(reinterpret_cast<const __m128i*>(data + i + 4));
    const __m128i v3 =
        _mm_loadu_si128(reinterpret_cast<const __m128i*>(data + i + 6));
    const __m128i out0 =
        _mm_or_si128(CmpGtEpi64(lo, v0), CmpGtEpi64(v0, hi));
    const __m128i out1 =
        _mm_or_si128(CmpGtEpi64(lo, v1), CmpGtEpi64(v1, hi));
    const __m128i out2 =
        _mm_or_si128(CmpGtEpi64(lo, v2), CmpGtEpi64(v2, hi));
    const __m128i out3 =
        _mm_or_si128(CmpGtEpi64(lo, v3), CmpGtEpi64(v3, hi));
    s0 = _mm_add_epi64(s0, _mm_andnot_si128(out0, v0));
    s1 = _mm_add_epi64(s1, _mm_andnot_si128(out1, v1));
    s2 = _mm_add_epi64(s2, _mm_andnot_si128(out2, v2));
    s3 = _mm_add_epi64(s3, _mm_andnot_si128(out3, v3));
    // ~outside is all-ones (-1) on matching lanes; subtracting it
    // increments the lane count.
    const __m128i ones = _mm_set1_epi64x(-1);
    c0 = _mm_sub_epi64(c0, _mm_andnot_si128(out0, ones));
    c1 = _mm_sub_epi64(c1, _mm_andnot_si128(out1, ones));
    c2 = _mm_sub_epi64(c2, _mm_andnot_si128(out2, ones));
    c3 = _mm_sub_epi64(c3, _mm_andnot_si128(out3, ones));
  }
  alignas(16) int64_t sums[2];
  alignas(16) int64_t counts[2];
  const __m128i s = _mm_add_epi64(_mm_add_epi64(s0, s1), _mm_add_epi64(s2, s3));
  const __m128i c = _mm_add_epi64(_mm_add_epi64(c0, c1), _mm_add_epi64(c2, c3));
  _mm_store_si128(reinterpret_cast<__m128i*>(sums), s);
  _mm_store_si128(reinterpret_cast<__m128i*>(counts), c);
  const QueryResult tail = detail::RangeSumPredicatedScalar(data + i, n - i, q);
  // Horizontal reduction and tail merge in uint64_t: mod-2^64 like the
  // lanes, without signed-overflow UB.
  const uint64_t sum = static_cast<uint64_t>(sums[0]) +
                       static_cast<uint64_t>(sums[1]) +
                       static_cast<uint64_t>(tail.sum);
  return {static_cast<int64_t>(sum), counts[0] + counts[1] + tail.count};
}

}  // namespace

const KernelOps& Sse2Kernels() {
  static constexpr KernelOps kOps = {
      "sse2",
      &RangeSumPredicatedSse2,
      &detail::RangeSumBranchedScalar,
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

#elif defined(PROGIDX_HAVE_SIMD_TIERS)

// SIMD tiers requested but this TU was built without SSE2 (should not
// happen on x86-64); keep the symbol resolvable.
namespace progidx {
namespace kernels {
const KernelOps& Sse2Kernels() { return ScalarKernels(); }
}  // namespace kernels
}  // namespace progidx

#endif  // PROGIDX_HAVE_SIMD_TIERS && __SSE2__
