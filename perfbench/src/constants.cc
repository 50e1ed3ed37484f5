#include "bench.h"

namespace perfbench {

// Every benchmarked index runs on these constants instead of a
// per-process §4.3 calibration, whose read/swap ratio moves by ~1.8x
// between processes and with it each index's refinement trajectory.
// With one literal, the indexing work per query is a pure function of
// workload and seed. Median of `perfbench --calibrate 15`: 4-core Intel
// Xeon VM, avx512 kernel tier, 2026-10-17.
const progidx::MachineConstants& FixedConstants() {
  static const progidx::MachineConstants constants = [] {
    progidx::MachineConstants c;
    c.seq_read_secs = 1.05725e-09;
    c.seq_write_secs = 1.04581e-09;
    c.random_access_secs = 9.43367e-08;
    c.swap_secs = 1.17381e-09;
    c.alloc_secs = 3.20914e-07;
    c.bucket_scan_secs = 9.87215e-10;
    c.bucket_append_secs = 7.65307e-09;
    c.batch_lookup_secs = 1.81881e-09;
    c.sort_unit_scale = 4.75845;
    const double scan_scale[] = {1, 1, 2.424, 3.48946, 4.83686,
                                 4.83686, 4.83686, 4.83686, 4.83686};
    for (size_t t = 0; t <= progidx::MachineConstants::kMaxThreadScale; t++) {
      c.scan_scale[t] = scan_scale[t];
    }
    c.kernel_name = "avx512";
    return c;
  }();
  return constants;
}

}  // namespace perfbench
