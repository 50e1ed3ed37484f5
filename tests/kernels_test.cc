// Kernel-layer parity: every tier (scalar, sse2, avx2, avx512) must
// return bit-identical query results for every kernel, across alignment
// offsets, tail lengths 0-63, degenerate predicates, and INT64_MIN/MAX
// boundaries. The scalar tier is the reference; the CRC-32 is checked
// against a bitwise oracle as well. The in-place crack is
// held to its contract (same boundary, valid sides, same multiset,
// steps bounded) rather than byte layout — tiers may order elements
// differently within a side.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
#include <limits>
#include <string>
#include <vector>

#include "common/env.h"
#include "common/rng.h"
#include "common/types.h"
#include "kernels/kernels.h"
#include "storage/bucket_chain.h"

namespace progidx {
namespace {

using kernels::KernelOps;

/// Every tier compiled into this binary that the host CPU can run.
std::vector<const KernelOps*> AvailableTiers() {
  std::vector<const KernelOps*> tiers;
  tiers.push_back(&kernels::ScalarKernels());
#ifdef PROGIDX_HAVE_SIMD_TIERS
  for (const char* name : {"sse2", "avx2", "avx512"}) {
    const KernelOps& ops = kernels::ResolveKernels(name, false);
    if (std::string(ops.name) == name) tiers.push_back(&ops);
  }
#endif
  return tiers;
}

std::vector<value_t> RandomData(size_t n, uint64_t seed, value_t lo,
                                value_t hi) {
  Rng rng(seed);
  std::vector<value_t> data(n);
  for (value_t& v : data) v = rng.NextInRange(lo, hi);
  return data;
}

TEST(KernelDispatchTest, ScalarAlwaysAvailable) {
  EXPECT_STREQ(kernels::ScalarKernels().name, "scalar");
  EXPECT_NE(kernels::ActiveKernelName(), nullptr);
}

TEST(KernelDispatchTest, ForceScalarWinsOverEverything) {
  EXPECT_STREQ(kernels::ResolveKernels(nullptr, true).name, "scalar");
  EXPECT_STREQ(kernels::ResolveKernels("avx2", true).name, "scalar");
}

TEST(KernelDispatchTest, UnknownForcedTierFallsBackToScalar) {
  EXPECT_STREQ(kernels::ResolveKernels("avx512vnni", false).name, "scalar");
  EXPECT_STREQ(kernels::ResolveKernels("", false).name,
               kernels::ResolveKernels(nullptr, false).name);
}

TEST(KernelDispatchTest, Avx512ResolvesToItselfOrScalar) {
  // Forced avx512 must either run the real tier (CPU + build support)
  // or fall back to scalar — never silently land on another SIMD tier.
  const std::string name = kernels::ResolveKernels("avx512", false).name;
  EXPECT_TRUE(name == "avx512" || name == "scalar") << name;
}

TEST(KernelDispatchTest, DispatchHonorsForceScalarEnv) {
  // The ctest suite runs twice, once with PROGIDX_FORCE_SCALAR=1; under
  // that env the process-wide dispatch must have pinned scalar.
  const char* forced = env::Get("PROGIDX_FORCE_SCALAR");
  if (forced != nullptr && std::strcmp(forced, "0") != 0) {
    EXPECT_STREQ(kernels::ActiveKernelName(), "scalar");
  }
}

TEST(KernelParityTest, RangeSumAcrossAlignmentsAndTails) {
  const auto tiers = AvailableTiers();
  // 256 base elements cover the unrolled body; offsets 0-7 exercise
  // every 32-byte alignment; extra lengths 0-63 exercise every tail.
  const std::vector<value_t> data =
      RandomData(256 + 8 + 63, 42, -1000, 1000);
  const RangeQuery q{-250, 400};
  for (size_t offset = 0; offset <= 7; offset++) {
    for (size_t tail = 0; tail <= 63; tail++) {
      const size_t n = 256 + tail;
      const QueryResult ref = kernels::ScalarKernels().range_sum_predicated(
          data.data() + offset, n, q);
      for (const KernelOps* ops : tiers) {
        EXPECT_EQ(ops->range_sum_predicated(data.data() + offset, n, q), ref)
            << ops->name << " offset=" << offset << " tail=" << tail;
        EXPECT_EQ(ops->range_sum_branched(data.data() + offset, n, q), ref)
            << ops->name << " offset=" << offset << " tail=" << tail;
      }
    }
  }
}

TEST(KernelParityTest, RangeSumDegeneratePredicates) {
  const auto tiers = AvailableTiers();
  constexpr value_t kMin = std::numeric_limits<value_t>::min();
  constexpr value_t kMax = std::numeric_limits<value_t>::max();
  std::vector<value_t> data = RandomData(1013, 7, kMin / 2, kMax / 2);
  // Salt with exact boundary values.
  data[3] = kMin;
  data[500] = kMax;
  data[700] = 0;
  const std::vector<RangeQuery> queries = {
      {kMin, kMax},   // all-match
      {1, 0},         // empty interval (low > high): none match
      {kMax, kMax},   // point at the upper boundary
      {kMin, kMin},   // point at the lower boundary
      {0, 0},         // point at zero
      {kMin, 0},      // half-open at the bottom
      {0, kMax},      // half-open at the top
  };
  for (const RangeQuery& q : queries) {
    const QueryResult ref =
        kernels::ScalarKernels().range_sum_predicated(data.data(),
                                                      data.size(), q);
    for (const KernelOps* ops : tiers) {
      EXPECT_EQ(ops->range_sum_predicated(data.data(), data.size(), q), ref)
          << ops->name << " q=[" << q.low << "," << q.high << "]";
      EXPECT_EQ(ops->range_sum_branched(data.data(), data.size(), q), ref)
          << ops->name << " q=[" << q.low << "," << q.high << "]";
    }
  }
  // Empty input never touches data.
  for (const KernelOps* ops : tiers) {
    EXPECT_EQ(ops->range_sum_predicated(nullptr, 0, queries[0]),
              (QueryResult{0, 0}))
        << ops->name;
  }
}

TEST(KernelParityTest, RangeSumRandomizedSoak) {
  const auto tiers = AvailableTiers();
  Rng rng(2026);
  for (int round = 0; round < 200; round++) {
    const size_t n = rng.NextBounded(700);
    const value_t domain = 1 + static_cast<value_t>(rng.NextBounded(10000));
    const std::vector<value_t> data =
        RandomData(n, rng.Next(), -domain, domain);
    value_t a = rng.NextInRange(-domain, domain);
    value_t b = rng.NextInRange(-domain, domain);
    if (rng.NextBounded(8) != 0 && a > b) std::swap(a, b);
    const RangeQuery q{a, b};
    const QueryResult ref =
        kernels::ScalarKernels().range_sum_predicated(data.data(), n, q);
    for (const KernelOps* ops : tiers) {
      ASSERT_EQ(ops->range_sum_predicated(data.data(), n, q), ref)
          << ops->name << " round=" << round;
    }
  }
}

void ExpectValidPartition(const std::vector<value_t>& src,
                          const std::vector<value_t>& dst, size_t lo,
                          int64_t hi, value_t pivot) {
  // All n elements were classified: frontiers met around the boundary.
  ASSERT_EQ(static_cast<int64_t>(lo), hi + 1);
  std::vector<value_t> lows(dst.begin(), dst.begin() + lo);
  std::vector<value_t> highs(dst.begin() + lo, dst.end());
  for (value_t v : lows) EXPECT_LT(v, pivot);
  for (value_t v : highs) EXPECT_GE(v, pivot);
  // Same multiset as the input.
  std::vector<value_t> all = dst;
  std::vector<value_t> expected = src;
  std::sort(all.begin(), all.end());
  std::sort(expected.begin(), expected.end());
  EXPECT_EQ(all, expected);
}

TEST(KernelParityTest, PartitionTwoSidedAllTiers) {
  const auto tiers = AvailableTiers();
  Rng rng(11);
  for (int round = 0; round < 100; round++) {
    const size_t n = rng.NextBounded(300);
    const value_t domain = 1 + static_cast<value_t>(rng.NextBounded(500));
    const std::vector<value_t> src =
        RandomData(n, rng.Next(), -domain, domain);
    const value_t pivot = rng.NextInRange(-domain, domain + 1);
    size_t ref_lo = 0;
    int64_t ref_hi = -1;
    if (n > 0) {
      for (const KernelOps* ops : tiers) {
        std::vector<value_t> dst(n, std::numeric_limits<value_t>::max());
        size_t lo = 0;
        int64_t hi = static_cast<int64_t>(n) - 1;
        ops->partition_two_sided(src.data(), n, pivot, dst.data(), &lo, &hi);
        ExpectValidPartition(src, dst, lo, hi, pivot);
        if (ops == tiers.front()) {
          ref_lo = lo;
          ref_hi = hi;
        } else {
          // Frontier advance counts are tier-independent.
          EXPECT_EQ(lo, ref_lo) << ops->name;
          EXPECT_EQ(hi, ref_hi) << ops->name;
        }
      }
    }
  }
}

TEST(KernelParityTest, PartitionTwoSidedResumable) {
  // The creation phase partitions in budgeted slices; slicing must give
  // the same frontiers as one shot.
  const auto tiers = AvailableTiers();
  const size_t n = 1000;
  const std::vector<value_t> src = RandomData(n, 99, -500, 500);
  const value_t pivot = 17;
  for (const KernelOps* ops : tiers) {
    std::vector<value_t> dst(n);
    size_t lo = 0;
    int64_t hi = static_cast<int64_t>(n) - 1;
    size_t consumed = 0;
    Rng rng(5);
    while (consumed < n) {
      const size_t slice = std::min(n - consumed, 1 + rng.NextBounded(97));
      ops->partition_two_sided(src.data() + consumed, slice, pivot,
                               dst.data(), &lo, &hi);
      consumed += slice;
    }
    ExpectValidPartition(src, dst, lo, hi, pivot);
  }
}

TEST(KernelParityTest, CrackInPlaceMatchesReference) {
  const auto tiers = AvailableTiers();
  Rng rng(23);
  for (int round = 0; round < 50; round++) {
    const size_t n = 2 + rng.NextBounded(200);
    const std::vector<value_t> original =
        RandomData(n, rng.Next(), -100, 100);
    const value_t pivot = rng.NextInRange(-100, 101);
    for (const KernelOps* ops : tiers) {
      std::vector<value_t> data = original;
      size_t lo = 0;
      size_t hi = n - 1;
      bool done = false;
      size_t total_steps = 0;
      // Budgeted in random slices until completion.
      while (!done) {
        total_steps += ops->crack_in_place(data.data(), &lo, &hi, pivot,
                                           1 + rng.NextBounded(17), &done);
      }
      EXPECT_LE(total_steps, n + 1) << ops->name;
      const size_t boundary = lo;
      for (size_t i = 0; i < boundary; i++) EXPECT_LT(data[i], pivot);
      for (size_t i = boundary; i < n; i++) EXPECT_GE(data[i], pivot);
      std::vector<value_t> sorted_out = data;
      std::vector<value_t> sorted_in = original;
      std::sort(sorted_out.begin(), sorted_out.end());
      std::sort(sorted_in.begin(), sorted_in.end());
      EXPECT_EQ(sorted_out, sorted_in) << ops->name;
    }
  }
}

/// Full-crack contract check: `data` was `original` and has been
/// cracked to completion around `pivot` with reported `boundary`.
void ExpectValidCrack(const std::vector<value_t>& original,
                      const std::vector<value_t>& data, size_t boundary,
                      value_t pivot, const char* tier) {
  for (size_t i = 0; i < boundary; i++) {
    ASSERT_LT(data[i], pivot) << tier << " i=" << i;
  }
  for (size_t i = boundary; i < data.size(); i++) {
    ASSERT_GE(data[i], pivot) << tier << " i=" << i;
  }
  std::vector<value_t> sorted_out = data;
  std::vector<value_t> sorted_in = original;
  std::sort(sorted_out.begin(), sorted_out.end());
  std::sort(sorted_in.begin(), sorted_in.end());
  EXPECT_EQ(sorted_out, sorted_in) << tier;
}

TEST(KernelParityTest, CrackInPlaceUnalignedBasesAndShortTails) {
  // Bases at every 32/64-byte misalignment and region sizes straddling
  // the vector-path gates (one vector, the 2/4-vector preload minimums,
  // and sub-vector tails).
  const auto tiers = AvailableTiers();
  Rng rng(67);
  const std::vector<value_t> backing = RandomData(7 + 200, rng.Next(),
                                                  -1000, 1000);
  for (size_t offset = 0; offset <= 7; offset++) {
    for (size_t n : {2u, 3u, 5u, 7u, 8u, 9u, 15u, 16u, 17u, 31u, 32u, 33u,
                     63u, 64u, 65u, 100u, 200u}) {
      const value_t pivot = 37;
      std::vector<value_t> original(backing.begin() + offset,
                                    backing.begin() + offset + n);
      for (const KernelOps* ops : tiers) {
        // Crack inside the original (misaligned) storage, not a copy,
        // so vector loads/stores see the misaligned addresses.
        std::vector<value_t> buffer = backing;
        size_t lo = offset;
        size_t hi = offset + n - 1;
        bool done = false;
        size_t total_steps = 0;
        while (!done) {
          total_steps += ops->crack_in_place(buffer.data(), &lo, &hi, pivot,
                                             1 + (n / 3), &done);
        }
        EXPECT_LE(total_steps, n + 1) << ops->name;
        // Bytes outside [offset, offset + n) must be untouched.
        for (size_t i = 0; i < offset; i++) {
          ASSERT_EQ(buffer[i], backing[i]) << ops->name;
        }
        for (size_t i = offset + n; i < backing.size(); i++) {
          ASSERT_EQ(buffer[i], backing[i]) << ops->name;
        }
        const std::vector<value_t> region(buffer.begin() + offset,
                                          buffer.begin() + offset + n);
        ExpectValidCrack(original, region, lo - offset, pivot, ops->name);
      }
    }
  }
}

TEST(KernelParityTest, CrackInPlaceAllDuplicatePivotValues) {
  const auto tiers = AvailableTiers();
  for (size_t n : {4u, 37u, 64u, 301u}) {
    struct Case {
      value_t fill;
      value_t pivot;
    };
    // All-equal inputs on every side of the pivot, including all equal
    // *to* the pivot (everything >= side, boundary 0).
    const Case cases[] = {{50, 50}, {49, 50}, {51, 50}};
    for (const Case& c : cases) {
      for (const KernelOps* ops : tiers) {
        std::vector<value_t> data(n, c.fill);
        size_t lo = 0;
        size_t hi = n - 1;
        bool done = false;
        size_t total_steps = 0;
        while (!done) {
          total_steps +=
              ops->crack_in_place(data.data(), &lo, &hi, c.pivot, 13, &done);
        }
        EXPECT_LE(total_steps, n + 1) << ops->name;
        const size_t expected_boundary = c.fill < c.pivot ? n : 0;
        EXPECT_EQ(lo, expected_boundary) << ops->name << " n=" << n;
        ExpectValidCrack(std::vector<value_t>(n, c.fill), data, lo, c.pivot,
                         ops->name);
      }
    }
  }
}

TEST(KernelParityTest, CrackInPlaceAlreadyPartitionedInputs) {
  const auto tiers = AvailableTiers();
  Rng rng(71);
  for (size_t n : {16u, 64u, 257u}) {
    const value_t pivot = 0;
    // Already partitioned (all lows, then all highs), reverse
    // partitioned, and fully sorted inputs.
    std::vector<std::vector<value_t>> inputs;
    std::vector<value_t> part(n);
    const size_t n_low = n / 3;
    for (size_t i = 0; i < n; i++) {
      part[i] = i < n_low ? -static_cast<value_t>(1 + rng.NextBounded(100))
                          : static_cast<value_t>(rng.NextBounded(100));
    }
    inputs.push_back(part);
    std::vector<value_t> reversed(part.rbegin(), part.rend());
    inputs.push_back(reversed);
    std::vector<value_t> sorted = part;
    std::sort(sorted.begin(), sorted.end());
    inputs.push_back(sorted);
    for (const std::vector<value_t>& original : inputs) {
      for (const KernelOps* ops : tiers) {
        std::vector<value_t> data = original;
        size_t lo = 0;
        size_t hi = n - 1;
        bool done = false;
        size_t total_steps = 0;
        while (!done) {
          total_steps +=
              ops->crack_in_place(data.data(), &lo, &hi, pivot, 29, &done);
        }
        EXPECT_LE(total_steps, n + 1) << ops->name;
        EXPECT_EQ(lo, n_low) << ops->name << " n=" << n;
        ExpectValidCrack(original, data, lo, pivot, ops->name);
      }
    }
  }
}

TEST(KernelParityTest, WriteCombiningScatterLargeUnalignedParity) {
  // Big enough (> 4 MiB scattered) to take the WC + streaming-store
  // path at 256 buckets, on a deliberately misaligned destination base
  // so head/full/tail flushes all occur. Output must be bit-identical
  // to the scalar reference scatter.
  const auto tiers = AvailableTiers();
  constexpr size_t kBig = (4u << 20) / sizeof(value_t) + 12345;
  const uint32_t mask = 255u;
  const int shift = 2;
  const std::vector<value_t> data = RandomData(kBig, 83, 0, 1 << 16);
  std::vector<uint64_t> counts(mask + 1, 0);
  kernels::ScalarKernels().radix_histogram(data.data(), kBig, 0, shift, mask,
                                           counts.data());
  auto prefix = [&](std::vector<size_t>* offsets, size_t extra) {
    size_t acc = extra;
    for (uint32_t d = 0; d <= mask; d++) {
      (*offsets)[d] = acc;
      acc += static_cast<size_t>(counts[d]);
    }
  };
  for (size_t misalign : {0u, 1u, 3u}) {
    std::vector<size_t> ref_offsets(mask + 1);
    prefix(&ref_offsets, misalign);
    std::vector<value_t> ref_dst(kBig + 8, -1);
    kernels::ScalarKernels().radix_scatter(data.data(), kBig, 0, shift, mask,
                                           ref_dst.data(),
                                           ref_offsets.data());
    for (const KernelOps* ops : tiers) {
      std::vector<size_t> offsets(mask + 1);
      prefix(&offsets, misalign);
      std::vector<value_t> dst(kBig + 8, -1);
      ops->radix_scatter(data.data(), kBig, 0, shift, mask, dst.data(),
                         offsets.data());
      ASSERT_EQ(dst, ref_dst) << ops->name << " misalign=" << misalign;
      ASSERT_EQ(offsets, ref_offsets) << ops->name;
    }
  }
}

TEST(KernelParityTest, ComputeDigitsHistogramScatter) {
  const auto tiers = AvailableTiers();
  Rng rng(31);
  for (int round = 0; round < 40; round++) {
    const size_t n = rng.NextBounded(3000);
    const value_t base = rng.NextInRange(-1000, 1000);
    const std::vector<value_t> data =
        RandomData(n, rng.Next(), base, base + 4095);
    const int shift = static_cast<int>(rng.NextBounded(7));
    const uint32_t mask = 63u;
    std::vector<uint32_t> ref_digits(n);
    kernels::ScalarKernels().compute_digits(data.data(), n, base, shift, mask,
                                            ref_digits.data());
    std::vector<uint64_t> ref_counts(mask + 1, 0);
    kernels::ScalarKernels().radix_histogram(data.data(), n, base, shift,
                                             mask, ref_counts.data());
    for (const KernelOps* ops : tiers) {
      std::vector<uint32_t> digits(n);
      ops->compute_digits(data.data(), n, base, shift, mask, digits.data());
      EXPECT_EQ(digits, ref_digits) << ops->name;
      std::vector<uint64_t> counts(mask + 1, 0);
      ops->radix_histogram(data.data(), n, base, shift, mask, counts.data());
      EXPECT_EQ(counts, ref_counts) << ops->name;
      // Scatter: stable bucket-major permutation driven by the counts.
      std::vector<size_t> offsets(mask + 1, 0);
      size_t acc = 0;
      for (uint32_t d = 0; d <= mask; d++) {
        offsets[d] = acc;
        acc += counts[d];
      }
      std::vector<value_t> dst(n);
      ops->radix_scatter(data.data(), n, base, shift, mask, dst.data(),
                         offsets.data());
      size_t pos = 0;
      for (uint32_t d = 0; d <= mask; d++) {
        for (size_t i = 0; i < n; i++) {
          if (ref_digits[i] == d) {
            EXPECT_EQ(dst[pos], data[i]) << ops->name << " pos=" << pos;
            pos++;
          }
        }
      }
      ASSERT_EQ(pos, n);
    }
  }
}

TEST(KernelParityTest, DigitsWrapAroundInt64Boundaries) {
  const auto tiers = AvailableTiers();
  constexpr value_t kMin = std::numeric_limits<value_t>::min();
  constexpr value_t kMax = std::numeric_limits<value_t>::max();
  const std::vector<value_t> data = {kMin,     kMin + 1, -1, 0, 1,
                                     kMax - 1, kMax};
  // base = kMin: digits span the full unsigned range without UB.
  std::vector<uint32_t> ref(data.size());
  kernels::ScalarKernels().compute_digits(data.data(), data.size(), kMin, 58,
                                          63u, ref.data());
  for (const KernelOps* ops : tiers) {
    std::vector<uint32_t> digits(data.size());
    ops->compute_digits(data.data(), data.size(), kMin, 58, 63u,
                        digits.data());
    EXPECT_EQ(digits, ref) << ops->name;
  }
  EXPECT_EQ(ref.back(), 63u);
  EXPECT_EQ(ref.front(), 0u);
}

TEST(KernelParityTest, RadixSortFlatSortsLikeStdSort) {
  Rng rng(47);
  for (int round = 0; round < 20; round++) {
    const size_t n = rng.NextBounded(5000);
    const value_t domain =
        1 + static_cast<value_t>(rng.NextBounded(1u << 20));
    std::vector<value_t> data = RandomData(n, rng.Next(), -domain, domain);
    std::vector<value_t> expected = data;
    std::sort(expected.begin(), expected.end());
    std::vector<value_t> scratch(n);
    const value_t min_v =
        n == 0 ? 0 : *std::min_element(data.begin(), data.end());
    const value_t max_v =
        n == 0 ? 0 : *std::max_element(data.begin(), data.end());
    kernels::RadixSortFlat(data.data(), scratch.data(), n, min_v, max_v);
    EXPECT_EQ(data, expected) << "round=" << round;
  }
}

TEST(KernelParityTest, RadixSortFlatHandlesExtremeDomain) {
  constexpr value_t kMin = std::numeric_limits<value_t>::min();
  constexpr value_t kMax = std::numeric_limits<value_t>::max();
  std::vector<value_t> data = {kMax, 5, kMin, -5, 0, kMax, kMin + 1};
  std::vector<value_t> expected = data;
  std::sort(expected.begin(), expected.end());
  std::vector<value_t> scratch(data.size());
  kernels::RadixSortFlat(data.data(), scratch.data(), data.size(), kMin,
                         kMax);
  EXPECT_EQ(data, expected);
}

/// Bit-at-a-time CRC-32 straight from the polynomial: an oracle that
/// shares no table or fold with any tier.
uint32_t BitwiseCrc32(const uint8_t* p, size_t n, uint32_t crc) {
  uint32_t c = ~crc;
  for (size_t i = 0; i < n; i++) {
    c ^= p[i];
    for (int k = 0; k < 8; k++) c = (c & 1) ? 0xEDB88320u ^ (c >> 1) : c >> 1;
  }
  return ~c;
}

std::vector<uint8_t> RandomBytes(size_t n, uint64_t seed) {
  Rng rng(seed);
  std::vector<uint8_t> bytes(n);
  for (uint8_t& b : bytes) b = static_cast<uint8_t>(rng.NextBounded(256));
  return bytes;
}

TEST(KernelParityTest, Crc32CheckValue) {
  for (const KernelOps* ops : AvailableTiers()) {
    EXPECT_EQ(ops->crc32("123456789", 9, 0), 0xCBF43926u) << ops->name;
    EXPECT_EQ(ops->crc32("", 0, 0), 0u) << ops->name;
    EXPECT_EQ(ops->crc32("", 0, 0xDEADBEEFu), 0xDEADBEEFu) << ops->name;
  }
  EXPECT_EQ(kernels::Crc32("123456789", 9), 0xCBF43926u);
}

TEST(KernelParityTest, Crc32AcrossLengthsOffsetsAndSeeds) {
  // Lengths 0-300 cover the scalar-only short path (< 64 bytes), every
  // 16-byte fold count and every tail; offsets 0-15 every alignment of
  // the 128-bit loads; the seed makes each call a continuation.
  const std::vector<uint8_t> bytes = RandomBytes(300 + 15, 5);
  for (const KernelOps* ops : AvailableTiers()) {
    for (size_t offset = 0; offset <= 15; offset++) {
      for (size_t n = 0; n <= 300; n++) {
        const uint32_t seed = static_cast<uint32_t>(n * 2654435761u);
        ASSERT_EQ(ops->crc32(bytes.data() + offset, n, seed),
                  BitwiseCrc32(bytes.data() + offset, n, seed))
            << ops->name << " offset=" << offset << " n=" << n;
      }
    }
  }
}

TEST(KernelParityTest, Crc32FrameSizedInputsAndChaining) {
  constexpr size_t kMiB = size_t{1} << 20;
  const std::vector<uint8_t> bytes = RandomBytes(kMiB + 1 + 7, 9);
  for (const size_t n : {kMiB - 1, kMiB, kMiB + 1}) {
    const uint32_t ref = BitwiseCrc32(bytes.data() + 7, n, 0);
    for (const KernelOps* ops : AvailableTiers()) {
      EXPECT_EQ(ops->crc32(bytes.data() + 7, n, 0), ref)
          << ops->name << " n=" << n;
      // Chained in uneven pieces: each call continues the previous
      // CRC, so the split points must not matter.
      uint32_t chained = 0;
      size_t done = 0;
      for (size_t piece = 1; done < n; piece = piece * 3 + 5) {
        const size_t len = std::min(piece, n - done);
        chained = ops->crc32(bytes.data() + 7 + done, len, chained);
        done += len;
      }
      EXPECT_EQ(chained, ref) << ops->name << " chained n=" << n;
    }
  }
}

TEST(ScatterToChainsTest, MatchesElementwiseAppend) {
  Rng rng(53);
  for (int round = 0; round < 20; round++) {
    const size_t n = rng.NextBounded(20000);
    const std::vector<value_t> data = RandomData(n, rng.Next(), 0, 4095);
    // Reference: the seed's one-element-at-a-time append loop.
    std::vector<BucketChain> expected;
    std::vector<BucketChain> actual;
    for (size_t i = 0; i < 64; i++) {
      expected.emplace_back(128);  // small blocks: many boundaries
      actual.emplace_back(128);
    }
    const int shift = 6;
    for (const value_t v : data) {
      expected[(static_cast<uint64_t>(v) >> shift) & 63u].Append(v);
    }
    ScatterToChains(data.data(), n, 0, shift, 63u, actual.data());
    for (size_t b = 0; b < 64; b++) {
      ASSERT_EQ(actual[b].size(), expected[b].size()) << "bucket " << b;
      std::vector<value_t> got(actual[b].size());
      std::vector<value_t> want(expected[b].size());
      actual[b].CopyTo(got.data());
      expected[b].CopyTo(want.data());
      EXPECT_EQ(got, want) << "bucket " << b;
    }
  }
}

TEST(BucketChainKernelTest, RangeSumMatchesForEach) {
  Rng rng(59);
  for (int round = 0; round < 20; round++) {
    BucketChain chain(64);
    const size_t n = rng.NextBounded(3000);
    for (size_t i = 0; i < n; i++) {
      chain.Append(rng.NextInRange(-500, 500));
    }
    const RangeQuery q{rng.NextInRange(-500, 0), rng.NextInRange(0, 500)};
    int64_t sum = 0;
    int64_t count = 0;
    chain.ForEach([&](value_t v) {
      const int64_t match = static_cast<int64_t>(v >= q.low) &
                            static_cast<int64_t>(v <= q.high);
      sum += v * match;
      count += match;
    });
    EXPECT_EQ(chain.RangeSum(q), (QueryResult{sum, count}));
    // And from a random cursor position.
    BucketChain::Cursor cursor;
    const size_t skip = n == 0 ? 0 : rng.NextBounded(n);
    int64_t suffix_sum = sum;
    int64_t suffix_count = count;
    for (size_t i = 0; i < skip; i++) {
      const value_t v = chain.ReadAndAdvance(&cursor);
      const int64_t match = static_cast<int64_t>(v >= q.low) &
                            static_cast<int64_t>(v <= q.high);
      suffix_sum -= v * match;
      suffix_count -= match;
    }
    EXPECT_EQ(chain.RangeSumFrom(cursor, q),
              (QueryResult{suffix_sum, suffix_count}));
  }
}

TEST(BucketChainKernelTest, ContiguousRunAndAdvanceCoverChain) {
  BucketChain chain(16);
  std::vector<value_t> expected;
  for (value_t v = 0; v < 1000; v++) {
    chain.Append(v * 3);
    expected.push_back(v * 3);
  }
  Rng rng(61);
  BucketChain::Cursor cursor;
  std::vector<value_t> got;
  while (!chain.AtEnd(cursor)) {
    const value_t* run = nullptr;
    size_t len = chain.ContiguousRun(cursor, &run);
    ASSERT_GT(len, 0u);
    len = std::min<size_t>(len, 1 + rng.NextBounded(9));
    got.insert(got.end(), run, run + len);
    chain.Advance(&cursor, len);
  }
  EXPECT_EQ(got, expected);
}

}  // namespace
}  // namespace progidx
