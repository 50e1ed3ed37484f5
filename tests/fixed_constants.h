#ifndef PROGIDX_TESTS_FIXED_CONSTANTS_H_
#define PROGIDX_TESTS_FIXED_CONSTANTS_H_

#include "cost/calibration.h"

namespace progidx {

/// Fixed machine constants: the phase trajectory, and so the payloads a
/// workload passes through, is the same on every host. Tests that need
/// a phase to span several queries build on these rather than on the
/// process's own calibration, which a slow or loaded host (a sanitizer
/// build, the scalar tier) can skew far enough to finish that phase
/// within one query. Under them pq's consolidation spans several
/// queries at δ = 0.25.
inline const MachineConstants& FixedConstants() {
  static const MachineConstants machine = [] {
    MachineConstants m;
    m.seq_read_secs = 1e-9;
    m.seq_write_secs = 2e-9;
    m.random_access_secs = 5e-8;
    m.swap_secs = 3e-9;
    m.alloc_secs = 1e-7;
    m.bucket_scan_secs = 2e-9;
    m.bucket_append_secs = 3e-9;
    m.batch_lookup_secs = 4e-10;
    return m;
  }();
  return machine;
}

}  // namespace progidx

#endif  // PROGIDX_TESTS_FIXED_CONSTANTS_H_
