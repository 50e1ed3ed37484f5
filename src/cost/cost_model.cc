#include "cost/cost_model.h"

#include <algorithm>
#include <cmath>

namespace progidx {

double CostModel::ScanSecs() const {
  return constants_.seq_read_secs * static_cast<double>(n_);
}

double CostModel::PivotSecs() const {
  return (constants_.seq_read_secs + constants_.seq_write_secs) *
         static_cast<double>(n_);
}

double CostModel::SwapSecs() const {
  return constants_.swap_secs * static_cast<double>(n_);
}

double CostModel::BucketAppendSecs() const {
  // (κ+ω)·N/γ measured directly on the bucketing kernel, plus the τ·N/sb
  // allocation term of §3.2.
  const double rw =
      constants_.bucket_append_secs * static_cast<double>(n_);
  const double allocs = constants_.alloc_secs *
                        (static_cast<double>(n_) /
                         static_cast<double>(kBlockCapacity));
  return rw + allocs;
}

double CostModel::BucketScanSecs() const {
  // t_bscan = t_scan + φ·N/sb, with the scan constant measured on the
  // linked-block walk itself.
  const double block_hops = constants_.random_access_secs *
                            (static_cast<double>(n_) /
                             static_cast<double>(kBlockCapacity));
  return constants_.bucket_scan_secs * static_cast<double>(n_) + block_hops;
}

double CostModel::BinarySearchSecs() const {
  if (n_ < 2) return constants_.random_access_secs;
  return std::log2(static_cast<double>(n_)) * constants_.random_access_secs;
}

double CostModel::TreeLookupSecs(size_t height) const {
  return static_cast<double>(height) * constants_.random_access_secs;
}

double CostModel::ConsolidateSecs() const {
  // Ncopy = sum_{i>=1} n / β^i.
  double total = 0;
  double level = static_cast<double>(n_);
  while (level >= 1.0) {
    level /= static_cast<double>(kBTreeFanout);
    total += level;
  }
  return total * (constants_.random_access_secs + constants_.seq_write_secs);
}

double CostModel::QuicksortCreate(double rho, double alpha,
                                  double delta) const {
  return (1.0 - rho + alpha - delta) * ScanSecs() + delta * PivotSecs();
}

double CostModel::QuicksortRefine(size_t height, double alpha,
                                  double delta) const {
  return TreeLookupSecs(height) + alpha * ScanSecs() + delta * SwapSecs();
}

double CostModel::QuicksortRefineWithLeafFloor(size_t height, double alpha,
                                               double delta,
                                               double leaf_secs) const {
  const double indexing = delta * SwapSecs();
  return TreeLookupSecs(height) + alpha * ScanSecs() +
         (delta > 0 ? std::max(indexing, leaf_secs) : 0.0);
}

double CostModel::ParallelScanScale(size_t threads) const {
  if (threads <= 1) return 1.0;
  const size_t t =
      std::min(threads, MachineConstants::kMaxThreadScale);
  const double scale = constants_.scan_scale[t];
  return scale > 0 ? scale : 1.0;
}

double CostModel::Consolidate(double alpha, double delta) const {
  return BinarySearchSecs() + alpha * ScanSecs() +
         delta * ConsolidateSecs();
}

double CostModel::RadixCreate(double rho, double alpha, double delta) const {
  return (1.0 - rho - delta) * ScanSecs() + alpha * BucketScanSecs() +
         delta * BucketAppendSecs();
}

double CostModel::RadixRefine(double alpha, double delta) const {
  return alpha * BucketScanSecs() + delta * BucketAppendSecs();
}

double CostModel::BucketsortCreate(double rho, double alpha,
                                   double delta) const {
  const double log_b = std::log2(static_cast<double>(kBucketCount));
  return (1.0 - rho - delta) * ScanSecs() + alpha * BucketScanSecs() +
         delta * log_b * BucketAppendSecs();
}

double CostModel::SharedScanSecs(double scan_secs, size_t batch) const {
  return SharedScanSecs(scan_secs, batch, constants_.seq_read_secs);
}

double CostModel::SharedScanSecs(double scan_secs, size_t batch,
                                 double elem_secs) const {
  if (batch <= 1 || scan_secs <= 0) return scan_secs;
  // scan_secs is `fraction-of-column · t_scan` (or the chain analog);
  // recover the element count it covers to price the per-element
  // interval lookup.
  const double elems = scan_secs / std::max(elem_secs, kMinWorkUnitSecs);
  const double log2_bounds =
      std::log2(static_cast<double>(2 * batch));
  return scan_secs + elems * constants_.batch_lookup_secs * log2_bounds;
}

double CostModel::DeltaScanSecs(size_t delta_elems) const {
  return constants_.seq_read_secs * static_cast<double>(delta_elems);
}

double CostModel::MergeSliceSecs(size_t elems) const {
  return (constants_.seq_read_secs + constants_.seq_write_secs) *
         static_cast<double>(elems);
}

double CostModel::SharedScanPerQuerySecs(double scan_secs,
                                         size_t batch) const {
  if (batch <= 1) return scan_secs;
  return SharedScanSecs(scan_secs, batch) / static_cast<double>(batch);
}

double CostModel::BatchPerQuerySecs(double index_secs,
                                    double shared_scan_secs,
                                    double private_secs,
                                    size_t batch) const {
  return BatchPerQuerySecs(index_secs, shared_scan_secs, private_secs, batch,
                           constants_.seq_read_secs);
}

double CostModel::BatchPerQuerySecs(double index_secs,
                                    double shared_scan_secs,
                                    double private_secs, size_t batch,
                                    double shared_elem_secs) const {
  if (batch <= 1) return index_secs + shared_scan_secs + private_secs;
  return (index_secs +
          SharedScanSecs(shared_scan_secs, batch, shared_elem_secs)) /
             static_cast<double>(batch) +
         private_secs;
}

double CostModel::DeltaForBudget(double budget_secs, double op_secs) const {
  if (op_secs <= 0) return 1.0;
  const double delta = budget_secs / op_secs;
  if (delta < 0) return 0;
  if (delta > 1) return 1.0;
  return delta;
}

}  // namespace progidx
