#ifndef PROGIDX_COST_COST_MODEL_H_
#define PROGIDX_COST_COST_MODEL_H_

#include <algorithm>
#include <bit>
#include <cstddef>

#include "cost/calibration.h"
#include "storage/bucket_chain.h"

namespace progidx {

/// The design constants §3 fixes by argument, read by the cost model
/// and the indexes alike: the radix/bucket fan-out b (64 = min(L1
/// cache lines, TLB entries), §3.2), the elements sb of one
/// bucket-chain block (32 KiB), and the consolidation B+-tree's fanout
/// β.
inline constexpr size_t kBucketCount = 64;
inline constexpr size_t kBlockCapacity = BucketChain::kDefaultBlockCapacity;
inline constexpr size_t kBTreeFanout = 64;

/// Implements the per-phase cost formulas of §3.1–§3.4 (Table 1
/// parameters). All "t*" quantities are seconds for the *whole column*
/// (N elements); multiply by a fraction (ρ, α, δ) to get the share a
/// single query pays, exactly as the paper's formulas do.
///
/// Per-page constants of the paper are folded into per-element
/// constants here: e.g. the paper's ω·N/γ is `seq_read_secs · N`.
class CostModel {
 public:
  CostModel(const MachineConstants& constants, size_t n)
      : constants_(constants), n_(n) {}

  size_t n() const { return n_; }
  const MachineConstants& constants() const { return constants_; }

  // --- Primitive whole-column costs -------------------------------------

  /// t_scan = ω · N/γ.
  double ScanSecs() const;
  /// t_pivot = (κ + ω) · N/γ (Progressive Quicksort creation).
  double PivotSecs() const;
  /// t_swap: in-place predicated swapping of the whole column
  /// (Progressive Quicksort refinement). The paper models it as κ·N/γ;
  /// we use the measured swap constant σ which subsumes it.
  double SwapSecs() const;
  /// t_bucket = (κ + ω) · N/γ + τ · N/sb (radix/bucket append).
  double BucketAppendSecs() const;
  /// t_bscan = t_scan + φ · N/sb (scanning linked-block buckets).
  double BucketScanSecs() const;
  /// Binary-search lookup into a sorted array: log2(N) · φ.
  double BinarySearchSecs() const;
  /// Lookup via a pivot/radix tree of height h: h · φ.
  double TreeLookupSecs(size_t height) const;
  /// t_copy for consolidation: total elements copied into B+-tree
  /// internal levels, Ncopy = Σ n/β^i, each a random read + sequential
  /// write.
  double ConsolidateSecs() const;

  // --- Per-query totals, one per algorithm phase (§3) --------------------
  // rho:   fraction of the column already indexed,
  // alpha: fraction of the data scanned through the (partial) index,
  // delta: fraction of the column indexed by this query.

  /// Quicksort creation: (1 − ρ + α − δ)·t_scan + δ·t_pivot.
  double QuicksortCreate(double rho, double alpha, double delta) const;
  /// Quicksort refinement: h·φ + α·t_scan + δ·t_swap.
  double QuicksortRefine(size_t height, double alpha, double delta) const;
  /// Quicksort refinement with the atomic-leaf floor: the δ·t_swap
  /// indexing term becomes max(δ·t_swap, leaf_secs), because a
  /// sort-outright leaf cannot be split across queries — once
  /// refinement reaches the leaves, a query pays at least one whole
  /// leaf sort no matter how small δ is. `leaf_secs` is the cost of the
  /// next such leaf (IncrementalQuicksort::NextLeafSortUnits priced at
  /// swap_secs), 0 when the next work is resumable partitioning. Also
  /// the Bucketsort refinement prediction (§3.3 reuses this formula).
  double QuicksortRefineWithLeafFloor(size_t height, double alpha,
                                      double delta, double leaf_secs) const;
  /// Consolidation: log2(N)·φ + α·t_scan + δ·t_copy (same for all four
  /// algorithms).
  double Consolidate(double alpha, double delta) const;
  /// Radixsort MSD/LSD creation: (1 − ρ − δ)·t_scan + α·t_bscan +
  /// δ·t_bucket.
  double RadixCreate(double rho, double alpha, double delta) const;
  /// Radixsort MSD/LSD refinement: α·t_bscan + δ·t_bucket.
  double RadixRefine(double alpha, double delta) const;
  /// Bucketsort creation: like radix creation with a log2(b) factor on
  /// the bucketing term (binary search over the bucket bounds).
  double BucketsortCreate(double rho, double alpha, double delta) const;

  // --- Batched shared-scan pricing (src/exec/) ---------------------------

  /// Whole-batch cost of one shared scan worth `scan_secs` of plain
  /// predicated scanning when it serves `batch` concurrent predicates:
  /// the bytes are loaded once, plus the per-element interval lookup
  /// that grows with log2 of the ≤ 2·batch interval bounds
  /// (batch_lookup_secs). batch <= 1 returns scan_secs unchanged.
  double SharedScanSecs(double scan_secs, size_t batch) const;

  /// Refinement-shared form: `elem_secs` is the per-element price the
  /// `scan_secs` term was built from — seq_read_secs for flat column
  /// scans (the two-arg overload), BucketScanSecs()/n for the
  /// bucket-chain walks the refinement phases share — so the interval
  /// surcharge scales off the element count actually scanned.
  double SharedScanSecs(double scan_secs, size_t batch,
                        double elem_secs) const;

  /// Per-query share of a batched shared scan — the "shared-scan bytes
  /// ÷ batch size" price the batch executor and bench tables report.
  double SharedScanPerQuerySecs(double scan_secs, size_t batch) const;

  /// Per-query predicted cost of a batch of `batch` queries whose
  /// prediction decomposes into `index_secs` (indexing work, charged
  /// once per batch), `shared_scan_secs` (unrefined-data scanning,
  /// shared across the batch), and `private_secs` (per-query lookups,
  /// paid by every query). batch <= 1 returns the plain sum — the
  /// single-query prediction. `shared_elem_secs` prices the shared
  /// term's per-element cost (see SharedScanSecs); the three-decomp
  /// overload assumes flat-column seq_read_secs.
  double BatchPerQuerySecs(double index_secs, double shared_scan_secs,
                           double private_secs, size_t batch) const;
  double BatchPerQuerySecs(double index_secs, double shared_scan_secs,
                           double private_secs, size_t batch,
                           double shared_elem_secs) const;

  // --- Delta-store update pricing (core/updatable_index.h) ---------------

  /// One predicated pass over `delta_elems` unmerged delta elements
  /// (pending appends + tombstones): the per-query visibility tax of
  /// the delta store. Feed through SharedScanPerQuerySecs for batches —
  /// the delta pass is one shared scan.
  double DeltaScanSecs(size_t delta_elems) const;

  /// One budgeted-merge slice copying `elems` source elements into the
  /// shadow column (sequential read + sequential write per element).
  /// Prediction only: the slice size itself is a fixed fraction of the
  /// merge, never derived from these constants (docs/updates.md).
  double MergeSliceSecs(size_t elems) const;

  // --- Budget→delta conversions (the "Indexing Budget" paragraphs) ------

  /// δ = t_budget / t_op, clamped to [0, 1]. `op_secs` is one of the
  /// whole-column costs above.
  double DeltaForBudget(double budget_secs, double op_secs) const;

  // --- Threaded work pricing (src/parallel/) -----------------------------

  /// Measured speedup of a `threads`-lane parallel primitive over the
  /// serial kernel (the calibration's scan_scale curve; >= some floor,
  /// saturating past the measured range). 1.0 at threads <= 1.
  double ParallelScanScale(size_t threads) const;

  /// Prices `secs` of serial-kernel work when executed across
  /// `threads` lanes. Used only on the *prediction* side: the
  /// budget→work-unit conversion stays serial so index state never
  /// depends on the thread count.
  double ThreadedSecs(double secs, size_t threads) const {
    return secs / ParallelScanScale(threads);
  }

 private:
  MachineConstants constants_;
  size_t n_;
};

// --- Work-unit helpers for the DoWorkSecs loops ------------------------

/// Floor for per-element work units; far below any real hardware cost.
constexpr double kMinWorkUnitSecs = 1e-12;

/// Clamps a per-unit cost to a positive epsilon. A degenerate
/// calibration (or tiny n) can make a phase's model seconds 0; an
/// unclamped 0 unit would keep `secs` from ever decreasing and stall
/// the phase loop.
inline double ClampWorkUnit(double unit_secs) {
  return unit_secs > kMinWorkUnitSecs ? unit_secs : kMinWorkUnitSecs;
}

/// Clamps a whole-column phase cost (t_pivot, t_swap, ...). Query()
/// grants each query `delta * op_secs` seconds of indexing work; a
/// modeled cost of 0 would grant 0 seconds forever and the phase would
/// never advance, so a degenerate model still buys ~n work units per
/// query at delta = 1.
inline double ClampOpSecs(double op_secs, size_t n) {
  const double floor =
      static_cast<double>(n == 0 ? 1 : n) * kMinWorkUnitSecs;
  return op_secs > floor ? op_secs : floor;
}

/// Work units of one sort-outright leaf of `size` elements, before
/// sort_unit_scale: size · max(1, ⌊log2 size⌋). IncrementalQuicksort's
/// leaves, Radixsort MSD's merged buckets and the calibration's
/// sort_unit_scale probe all count a leaf through this one function.
constexpr size_t SortUnits(size_t size) {
  const int floor_log2 = static_cast<int>(std::bit_width(size)) - 1;
  return size * static_cast<size_t>(std::max(floor_log2, 1));
}

/// Whole work units a budget of `secs` buys at `unit_secs` per unit;
/// at least 1 (forward progress) and saturated well below SIZE_MAX (a
/// double→size_t cast of an out-of-range quotient is undefined).
inline size_t UnitsForSecs(double secs, double unit_secs) {
  const double units = secs / ClampWorkUnit(unit_secs);
  if (!(units > 1)) return 1;
  if (units >= 4.6e18) return size_t{1} << 62;
  return static_cast<size_t>(units);
}

}  // namespace progidx

#endif  // PROGIDX_COST_COST_MODEL_H_
