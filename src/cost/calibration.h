#ifndef PROGIDX_COST_CALIBRATION_H_
#define PROGIDX_COST_CALIBRATION_H_

#include <cstddef>

namespace progidx {

/// Hardware constants of Table 1 of the paper, expressed *per element*
/// rather than per page (the formulas are equivalent: the per-page cost
/// ω of the paper equals `seq_read_secs * γ` here).
///
/// §4.3: "Since these constants depend on the hardware, we perform
/// these operations when the program starts up and measure how long it
/// takes" — Measure() below does exactly that.
struct MachineConstants {
  double seq_read_secs = 0;     ///< ω/γ: predicated sequential scan, s/element
  double seq_write_secs = 0;    ///< κ/γ: sequential write, s/element
  double random_access_secs = 0;///< φ: random access, s/access
  double swap_secs = 0;         ///< σ: predicated swap, s/element
  double alloc_secs = 0;        ///< τ: one block allocation, s
  /// Per-element cost of scanning a linked-block bucket chain (the ω
  /// analog for BucketChain storage; block hops are the φ·N/sb term).
  double bucket_scan_secs = 0;
  /// Per-element cost of radix-bucketing (read + digit + append); the
  /// (κ+ω) part of t_bucket.
  double bucket_append_secs = 0;
  /// Per-element, per-log2(interval bound) surcharge of the shared
  /// multi-predicate batch scan (exec::PredicateSet) over the plain
  /// predicated scan: a batch of B queries decomposes into at most 2B
  /// interval bounds, and each scanned element pays one branchless
  /// binary search over them. Prices the batched scan as
  /// t_sharedscan(B) = t_scan + N · this · log2(2B).
  double batch_lookup_secs = 0;
  /// Cost of one leaf-sort work unit (an element visited by the
  /// sort-outright path of IncrementalQuicksort, charged size·log2 per
  /// leaf) expressed in σ (swap) units, measured on kernels::SortLeaf.
  /// Was implicitly 1 while the crack kernel was scalar. With the
  /// vectorized crack, std::sort leaves cost ~3.5-5.5 σ units per
  /// unit; the radix leaf sort costs ~0.7-0.9 on the avx512 tier.
  /// Leaves charged at the wrong ratio push every per-query time off
  /// budget once refinement reaches them.
  double sort_unit_scale = 1.0;
  /// Highest thread count the parallel-efficiency curve is measured at.
  static constexpr size_t kMaxThreadScale = 8;
  /// Measured parallel-efficiency curve: scan_scale[T] is the speedup
  /// of the tiled parallel range-sum at T lanes over the serial kernel
  /// (scan_scale[1] == 1; T past the measured range saturates at the
  /// last measured value). The cost model divides the indexing term of
  /// a *prediction* by this to price threaded work units. It never
  /// feeds the budget→work-unit conversion: work amounts must stay
  /// identical across thread counts (the determinism contract of
  /// src/parallel/), so threads buy wall-clock speed, not extra units.
  double scan_scale[kMaxThreadScale + 1] = {1, 1, 1, 1, 1, 1, 1, 1, 1};
  size_t elements_per_page = 512;        ///< γ (4 KiB page / 8 B)
  size_t l1_cache_elements = 4096;       ///< elements fitting in L1 (32 KiB)
  size_t l2_cache_elements = 32768;      ///< elements fitting in L2 (256 KiB)
  /// Kernel tier the constants were measured against ("scalar",
  /// "avx2", "avx512") — informational, for reports and benchmark
  /// metadata.
  const char* kernel_name = "scalar";
};

/// Measures the machine constants with short micro-benchmarks on the
/// dispatched kernels. Deterministic inputs; timing is the only
/// nondeterminism. On the 4-vCPU avx512 VM one call takes 60-95 ms
/// with the host's load (medians of 24 calls: ~72 ms at one lane, ~83
/// ms at four, where the scan_scale probe adds twelve scans);
/// perfbench traces it as `cost.calibrate_ms`. Each probe's size
/// follows what it measures:
///  - the bandwidth-bound probes (scan, partition, crack, bucket
///    append and scan, the scan_scale curve) stream one 16 MiB buffer
///    of 2^21 values, past L2, as the indexes' columns do;
///  - the pointer chase times 2^16 dependent hops through one cycle of
///    slots spread over a second 16 MiB array, so its TLB and cache
///    misses are those of a 16 MiB footprint;
///  - the compute-bound probes (the 64-predicate shared-scan walk at
///    ~10 ns/element, the L1-sized leaf sorts) take a 2^18-element
///    slice of the buffer: their cost per element does not depend on
///    the footprint;
///  - the allocation probe times 4096 32 KiB blocks.
/// Most of the call is page faults of its three 16 MiB arrays and the
/// bucket append. A probe added here reports its cost through
/// `cost.calibrate_ms`, which every process pays before its first
/// query.
MachineConstants MeasureMachineConstants();

/// Process-wide constants, measured once on first use. All indexes use
/// this unless a specific MachineConstants is injected (tests inject
/// synthetic constants to make cost-model assertions deterministic).
const MachineConstants& GlobalMachineConstants();

}  // namespace progidx

#endif  // PROGIDX_COST_CALIBRATION_H_
