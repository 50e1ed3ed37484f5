#include <gtest/gtest.h>

#include <cmath>

#include "cost/calibration.h"
#include "cost/cost_model.h"
#include "kernels/kernels.h"
#include "parallel/thread_pool.h"

namespace progidx {
namespace {

MachineConstants SyntheticConstants() {
  MachineConstants mc;
  mc.seq_read_secs = 1e-9;
  mc.seq_write_secs = 2e-9;
  mc.random_access_secs = 5e-8;
  mc.swap_secs = 3e-9;
  mc.alloc_secs = 1e-7;
  mc.bucket_scan_secs = 2e-9;
  mc.bucket_append_secs = 3e-9;
  return mc;
}

TEST(CalibrationTest, MeasuresPositiveConstants) {
  const size_t lanes_before = parallel::LanesOverrideForTesting();
  const MachineConstants mc = MeasureMachineConstants();
  // The batch-lookup probe pins one lane while it runs; a missed
  // restore would leave every later query on one lane.
  EXPECT_EQ(parallel::LanesOverrideForTesting(), lanes_before);
  const auto finite_positive = [](double v) {
    return std::isfinite(v) && v > 0;
  };
  EXPECT_TRUE(finite_positive(mc.seq_read_secs));
  EXPECT_TRUE(finite_positive(mc.seq_write_secs));
  EXPECT_TRUE(finite_positive(mc.random_access_secs));
  EXPECT_TRUE(finite_positive(mc.swap_secs));
  EXPECT_TRUE(finite_positive(mc.alloc_secs));
  EXPECT_TRUE(finite_positive(mc.bucket_scan_secs));
  EXPECT_TRUE(finite_positive(mc.bucket_append_secs));
  EXPECT_TRUE(finite_positive(mc.batch_lookup_secs));
  // Sanity: a random access costs more than a sequential element read.
  EXPECT_GT(mc.random_access_secs, mc.seq_read_secs);
  // Both floors of the measurement: a sort unit costs at least a
  // quarter crack step, and a lane count at least a quarter of one
  // lane's speed.
  EXPECT_GE(mc.sort_unit_scale, 0.25);
  EXPECT_EQ(mc.scan_scale[0], 1.0);
  EXPECT_EQ(mc.scan_scale[1], 1.0);
  for (size_t t = 0; t <= MachineConstants::kMaxThreadScale; t++) {
    EXPECT_TRUE(std::isfinite(mc.scan_scale[t])) << "T = " << t;
    EXPECT_GE(mc.scan_scale[t], 0.25) << "T = " << t;
  }
  EXPECT_STREQ(mc.kernel_name, kernels::ActiveKernelName());
}

TEST(CalibrationTest, GlobalConstantsAreStable) {
  const MachineConstants& a = GlobalMachineConstants();
  const MachineConstants& b = GlobalMachineConstants();
  EXPECT_EQ(&a, &b);  // measured once
}

TEST(CostModelTest, ScanScalesLinearly) {
  const MachineConstants mc = SyntheticConstants();
  const CostModel small(mc, 1000);
  const CostModel large(mc, 10000);
  EXPECT_DOUBLE_EQ(large.ScanSecs(), 10 * small.ScanSecs());
}

TEST(CostModelTest, PaperFormulas) {
  const MachineConstants mc = SyntheticConstants();
  const CostModel model(mc, 1000000);
  const double n = 1e6;
  // t_scan = ω·N/γ (per-element form).
  EXPECT_DOUBLE_EQ(model.ScanSecs(), 1e-9 * n);
  // t_pivot = (κ+ω)·N/γ.
  EXPECT_DOUBLE_EQ(model.PivotSecs(), 3e-9 * n);
  // t_bucket = (κ+ω)·N/γ + τ·N/sb, with the bucketing constant measured
  // on the bucketing kernel itself.
  EXPECT_DOUBLE_EQ(model.BucketAppendSecs(), 3e-9 * n + 1e-7 * n / 4096);
  // t_bscan = t_scan + φ·N/sb, with the chain-walk scan constant.
  EXPECT_DOUBLE_EQ(model.BucketScanSecs(), 2e-9 * n + 5e-8 * n / 4096);
  // Binary search: log2(N)·φ.
  EXPECT_NEAR(model.BinarySearchSecs(), std::log2(n) * 5e-8, 1e-12);
  // Tree lookup: h·φ.
  EXPECT_DOUBLE_EQ(model.TreeLookupSecs(10), 10 * 5e-8);
}

TEST(CostModelTest, QuicksortCreatePhaseFormula) {
  const MachineConstants mc = SyntheticConstants();
  const CostModel model(mc, 1000000);
  const double rho = 0.3;
  const double alpha = 0.1;
  const double delta = 0.05;
  const double expected = (1 - rho + alpha - delta) * model.ScanSecs() +
                          delta * model.PivotSecs();
  EXPECT_DOUBLE_EQ(model.QuicksortCreate(rho, alpha, delta), expected);
}

TEST(CostModelTest, RadixRefineFormula) {
  const MachineConstants mc = SyntheticConstants();
  const CostModel model(mc, 1000000);
  const double expected =
      0.2 * model.BucketScanSecs() + 0.1 * model.BucketAppendSecs();
  EXPECT_DOUBLE_EQ(model.RadixRefine(0.2, 0.1), expected);
}

TEST(CostModelTest, BucketsortCreateHasLogFactor) {
  const MachineConstants mc = SyntheticConstants();
  const CostModel model(mc, 1000000);
  // With rho = alpha = 0: (1-δ)·t_scan + δ·log2(64)·t_bucket.
  const double delta = 0.5;
  const double expected = (1 - delta) * model.ScanSecs() +
                          delta * 6.0 * model.BucketAppendSecs();
  EXPECT_DOUBLE_EQ(model.BucketsortCreate(0, 0, delta), expected);
}

TEST(CostModelTest, ConsolidateSumsGeometricSeries) {
  const MachineConstants mc = SyntheticConstants();
  const CostModel model(mc, 1 << 20);
  // Ncopy = Σ n/β^i ≈ n/(β−1) for large n.
  const double ncopy_approx = static_cast<double>(1 << 20) / 63.0;
  const double per_key = mc.random_access_secs + mc.seq_write_secs;
  EXPECT_NEAR(model.ConsolidateSecs(), ncopy_approx * per_key,
              0.05 * ncopy_approx * per_key);
}

/// The loop SortUnits replaced: size · max(1, ⌊log2 size⌋).
size_t SortUnitsByLoop(size_t size) {
  size_t log2_size = 1;
  while ((size >> log2_size) > 1) log2_size++;
  return size * log2_size;
}

TEST(CostModelTest, SortUnitsMatchesLog2Loop) {
  for (size_t size = 0; size <= (size_t{1} << 16); size++) {
    ASSERT_EQ(SortUnits(size), SortUnitsByLoop(size)) << size;
  }
  for (int k = 1; k <= 40; k++) {
    const size_t p = size_t{1} << k;
    for (const size_t size : {p - 1, p, p + 1}) {
      ASSERT_EQ(SortUnits(size), SortUnitsByLoop(size)) << size;
    }
  }
  static_assert(SortUnits(0) == 0 && SortUnits(1) == 1);
  static_assert(SortUnits(4096) == 4096 * 12);
}

TEST(CostModelTest, DeltaForBudgetClamped) {
  const MachineConstants mc = SyntheticConstants();
  const CostModel model(mc, 1000);
  EXPECT_DOUBLE_EQ(model.DeltaForBudget(1.0, 0.5), 1.0);   // clamp hi
  EXPECT_DOUBLE_EQ(model.DeltaForBudget(-1.0, 0.5), 0.0);  // clamp lo
  EXPECT_DOUBLE_EQ(model.DeltaForBudget(0.25, 0.5), 0.5);
  EXPECT_DOUBLE_EQ(model.DeltaForBudget(1.0, 0.0), 1.0);   // free op
}

}  // namespace
}  // namespace progidx
