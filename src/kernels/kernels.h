#ifndef PROGIDX_KERNELS_KERNELS_H_
#define PROGIDX_KERNELS_KERNELS_H_

#include <cstddef>
#include <cstdint>
#include <cstring>
#include <vector>

#include "common/types.h"

// Vectorized scan/partition kernel layer.
//
// Every tight loop the progressive indexes spend their per-query budget
// in — predicated range-sum scans, two-sided pivot partitioning, the
// in-place crack, radix digit extraction / histogram / scatter — lives
// here, in three implementation tiers, together with the CRC-32 that
// checksums every checkpoint byte:
//
//   * scalar — portable, cache-blocked, 4-way unrolled, slicing-by-8
//     CRC; the reference implementation every other tier must match
//     bit for bit.
//   * avx2   — 4-lane scans, compress-store partitioning, a buffered
//     (Bramas-style) in-place crack, vector digit extraction, a
//     write-combining radix scatter, and a PCLMULQDQ folding CRC.
//   * avx512 — 8-lane masked scans, vpcompressq partitioning/crack,
//     a write-combining scatter flushed with 512-bit streaming
//     stores, and the same PCLMULQDQ CRC.
//
// Two kernels have no tiers: the leaf sort (SortLeaf) and the
// branch-free bucket lookup (UpperBoundLookup) are portable code that
// every tier shares.
//
// Which tier runs is decided once per process by Dispatch(): the
// widest of avx512 → avx2 → scalar that CPUID feature detection
// admits (leaf 7 + XGETBV ZMM-state for AVX-512, and the PCLMULQDQ bit
// for both wide tiers), overridable with the environment variable
// PROGIDX_FORCE_KERNEL=scalar|avx2|avx512 (unknown or unsupported
// names warn once on stderr and fall back to scalar). Compiling with
// -DPROGIDX_NO_SIMD removes the SIMD tiers entirely.
//
// All tiers produce *bit-identical* query results: sums/counts are
// exact int64 arithmetic (associative mod 2^64, so lane order is free),
// partition frontiers advance by the same counts, and the stable
// scatter produces the same permutation. The in-place crack may order
// elements differently *within* the two sides across tiers (every tier
// yields a valid partition with the same boundary — the contract every
// caller relies on). See docs/kernels.md.

namespace progidx {
namespace kernels {

#if !defined(PROGIDX_NO_SIMD) && (defined(__x86_64__) || defined(_M_X64))
#define PROGIDX_HAVE_SIMD_TIERS 1
#endif

/// One tier's implementations. Selected once at startup; call through
/// Dispatch() (or the inline wrappers below) on hot paths.
struct KernelOps {
  const char* name;

  /// SUM + COUNT of values in [q.low, q.high] over data[0, n),
  /// branch-free (cost independent of selectivity).
  QueryResult (*range_sum_predicated)(const value_t* data, size_t n,
                                      const RangeQuery& q);

  /// Two-sided out-of-place partition: the Progressive Quicksort
  /// creation loop. Each src value is written to the low (< pivot) or
  /// high (>= pivot) frontier of dst; `*lo_pos` / `*hi_pos` are the
  /// next write slots and are advanced in place.
  void (*partition_two_sided)(const value_t* src, size_t n, value_t pivot,
                              value_t* dst, size_t* lo_pos,
                              int64_t* hi_pos);

  /// Budgeted in-place two-sided predicated partition ("crack"). On
  /// entry [*lo, *hi] (inclusive) is the unclassified region. Processes
  /// at most `max_steps` element classifications; returns steps used
  /// (summed across resumed calls, never more than region size + 1).
  /// When the region collapses with budget to spare, the final element
  /// is classified, `*lo` becomes the partition boundary and `*done` is
  /// set. Tiers agree on the boundary and on which side each element
  /// lands, not on the order within a side (callers only ever scan or
  /// re-crack the sides, so ordering inside a side is free).
  size_t (*crack_in_place)(value_t* data, size_t* lo, size_t* hi,
                           value_t pivot, size_t max_steps, bool* done);

  /// digits[i] = ((uint64_t)src[i] - (uint64_t)base) >> shift & mask.
  /// Wrap-around subtraction: INT64_MIN..INT64_MAX domains are fine.
  void (*compute_digits)(const value_t* src, size_t n, value_t base,
                         int shift, uint32_t mask, uint32_t* digits);

  /// counts[digit] += occurrences over src[0, n). `counts` must have
  /// mask + 1 entries and is added to, not reset.
  void (*radix_histogram)(const value_t* src, size_t n, value_t base,
                          int shift, uint32_t mask, uint64_t* counts);

  /// Stable scatter: dst[offsets[digit]++] = v, in src order, with
  /// software prefetch of upcoming destinations. `offsets` must hold
  /// mask + 1 running write positions (exclusive prefix sums of the
  /// histogram) and is advanced in place.
  void (*radix_scatter)(const value_t* src, size_t n, value_t base,
                        int shift, uint32_t mask, value_t* dst,
                        size_t* offsets);

  /// CRC-32 (IEEE 802.3, reflected polynomial 0xEDB88320) of
  /// data[0, n) bytes, continuing from `crc` — the CRC of everything
  /// before `data`, 0 to start. Any alignment. The checksum of the
  /// durability layer's snapshot frames and WAL records.
  uint32_t (*crc32)(const void* data, size_t n, uint32_t crc);
};

/// The portable reference tier; always available.
const KernelOps& ScalarKernels();

#ifdef PROGIDX_HAVE_SIMD_TIERS
/// SIMD tiers. Present whenever SIMD is compiled in; only *run* them on
/// CPUs whose feature bits Dispatch()/ResolveKernels() checked.
const KernelOps& Avx2Kernels();
const KernelOps& Avx512Kernels();
#endif

/// Pure selection logic behind Dispatch(), exposed so tests can
/// exercise every tier name without re-execing the process: `force`
/// models PROGIDX_FORCE_KERNEL (nullptr or empty = auto). A forced tier
/// the CPU cannot run falls back to scalar — silently by default (tests
/// and probes call this to *ask* what resolves); Dispatch() passes
/// `warn_on_fallback` so an unknown/unsupported tier genuinely set in
/// the environment warns once on stderr instead of masquerading as a
/// scalar run.
const KernelOps& ResolveKernels(const char* force,
                                bool warn_on_fallback = false);

/// The process-wide tier, selected on first use from CPUID and
/// PROGIDX_FORCE_KERNEL.
const KernelOps& Dispatch();

/// Name of the dispatched tier ("scalar", "avx2", "avx512").
const char* ActiveKernelName();

// --- Hot-path wrappers -------------------------------------------------

inline QueryResult RangeSumPredicated(const value_t* data, size_t n,
                                      const RangeQuery& q) {
  return Dispatch().range_sum_predicated(data, n, q);
}

inline void PartitionTwoSided(const value_t* src, size_t n, value_t pivot,
                              value_t* dst, size_t* lo_pos,
                              int64_t* hi_pos) {
  Dispatch().partition_two_sided(src, n, pivot, dst, lo_pos, hi_pos);
}

inline size_t CrackInPlace(value_t* data, size_t* lo, size_t* hi,
                           value_t pivot, size_t max_steps, bool* done) {
  return Dispatch().crack_in_place(data, lo, hi, pivot, max_steps, done);
}

inline void ComputeDigits(const value_t* src, size_t n, value_t base,
                          int shift, uint32_t mask, uint32_t* digits) {
  Dispatch().compute_digits(src, n, base, shift, mask, digits);
}

inline uint32_t Crc32(const void* data, size_t n, uint32_t crc = 0) {
  return Dispatch().crc32(data, n, crc);
}

/// Stable LSD radix sort of data[0, n) whose values lie in
/// [min_v, max_v], built on the dispatched histogram/scatter kernels.
/// `scratch` must hold n elements. O(n · ceil(bits/8)).
void RadixSortFlat(value_t* data, value_t* scratch, size_t n, value_t min_v,
                   value_t max_v);

/// Pass-structure core of RadixSortFlat, parameterized on the
/// histogram/scatter implementations (the serial kernel contracts:
/// `hist(src, n, base, shift, mask, counts)` adds into counts,
/// `scatter(src, n, base, shift, mask, dst, offsets)` advances
/// offsets). RadixSortFlat instantiates it with the dispatched kernels,
/// parallel::RadixSortFlat with the pool composites and SortLeaf with
/// two plain loops, so the pass logic — including the dead-digit-pass
/// skip (every element in one bucket means the scatter would be the
/// identity permutation; common for low-entropy or clustered columns),
/// the buffer ping-pong, and the odd-pass copy-back — lives exactly
/// once.
template <typename HistFn, typename ScatterFn>
void RadixSortFlatWith(value_t* data, value_t* scratch, size_t n,
                       value_t min_v, value_t max_v, const HistFn& hist,
                       const ScatterFn& scatter) {
  if (n < 2) return;
  const uint64_t width =
      static_cast<uint64_t>(max_v) - static_cast<uint64_t>(min_v);
  if (width == 0) return;  // all values equal
  const int bits = 64 - __builtin_clzll(width);
  // Dead pass: the bucket of any one key holds every element. Reading
  // that one counter, not a max over all 256, keeps leaf-sized runs
  // cheap.
  const uint64_t first_key =
      static_cast<uint64_t>(data[0]) - static_cast<uint64_t>(min_v);
  value_t* a = data;
  value_t* b = scratch;
  for (int shift = 0; shift < bits; shift += 8) {
    uint64_t counts[256] = {};
    hist(a, n, min_v, shift, 255u, counts);
    if (counts[(first_key >> shift) & 255u] == n) continue;
    size_t offsets[256];
    size_t acc = 0;
    for (int d = 0; d < 256; d++) {
      offsets[d] = acc;
      acc += static_cast<size_t>(counts[d]);
    }
    scatter(a, n, min_v, shift, 255u, b, offsets);
    value_t* tmp = a;
    a = b;
    b = tmp;
  }
  if (a != data) std::memcpy(data, a, n * sizeof(value_t));
}

/// Sorts data[0, n) ascending in place: the sort-outright leaves of
/// the progressive indexes (L1-sized pivot-tree nodes, cache-sized MSD
/// buckets) and the calibration that prices them. RadixSortFlatWith
/// over the leaf's own [min, max]: an LSD radix sort on the narrowed
/// key v − min (in uint64_t) with 8-bit digits, one counting pass and
/// one stable scatter per byte of (max − min), skipping a pass whose
/// digit every key shares. Up to 32 elements take std::sort. The
/// result is the sorted permutation, so it equals std::sort's exactly.
/// Scratch is one leaf, allocated per call, so concurrent calls on
/// disjoint spans are safe. See docs/kernels.md.
void SortLeaf(value_t* data, size_t n);

/// std::upper_bound over a fixed ascending list of bounds, without
/// branches: the equi-height bucket of a value. The bounds are padded
/// with INT64_MAX to 2^k − 1 entries, so every lookup takes the same k
/// conditional steps, and the result is clamped to the bound count
/// (a probe of INT64_MAX would otherwise count the padding).
class UpperBoundLookup {
 public:
  UpperBoundLookup() = default;
  UpperBoundLookup(const value_t* bounds, size_t count);

  /// std::upper_bound(bounds, bounds + count, v) − bounds.
  size_t operator()(value_t v) const {
    size_t pos = 0;
    for (size_t step = half_; step > 0; step >>= 1) {
      pos += step & (size_t{0} - static_cast<size_t>(
                                     padded_[pos + step - 1] <= v));
    }
    return pos < count_ ? pos : count_;
  }

 private:
  std::vector<value_t> padded_;
  size_t count_ = 0;
  size_t half_ = 0;  ///< the first step, 2^(k−1); 0 when count is 0
};

}  // namespace kernels
}  // namespace progidx

#endif  // PROGIDX_KERNELS_KERNELS_H_
