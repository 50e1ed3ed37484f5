#ifndef PROGIDX_PERSIST_CALIBRATION_STORE_H_
#define PROGIDX_PERSIST_CALIBRATION_STORE_H_

#include <functional>
#include <string>

#include "cost/calibration.h"

// Durable calibration pinning (docs/recovery.md).
//
// The §4.3 machine constants are *measured* at process startup, so two
// processes on the same machine end up with slightly different values.
// Most of them only price predictions, but a few feed the budget →
// work-unit conversion itself (the phase-crossing remainder of a
// DoWorkSecs call converts leftover seconds at the measured
// PivotSecs/SwapSecs ratio, and IncrementalQuicksort charges leaf sorts
// at the measured sort_unit_scale). Index *answers* never depend on
// them — but the partitioned-but-unsorted layout of the index array
// does, because the budget runs out at a different element. That is
// fatal for crash recovery: replaying the durable log in a fresh
// process with freshly measured constants may pause partitions at
// different cursors than the crashed server did, and the recovered
// state stops being bit-identical to the snapshot lineage.
//
// The fix is the SiloR-style one: the first process to open a
// persistence directory pins its measured constants into
// `<dir>/calibration` (a CRC-framed container, published
// crash-atomically), and every later open — recovery, replay, a
// restarted server — constructs its indexes from the *pinned*
// constants instead of its own measurement. Index state is then a pure
// function of the durable log again, across process boundaries.

namespace progidx {
namespace persist {

/// Loads the pinned machine constants of `dir` into `*constants`, or —
/// when the directory has none yet (or only a corrupt/torn file) —
/// sets `*constants` to `measure()` and publishes that as the pin.
/// `measure` runs only on that write path, so reopening a pinned
/// directory never pays a calibration. Creates `dir` if needed.
/// Returns false only when the pin could neither be read nor written
/// (`*constants` then holds the measurement and recovery proceeds
/// without cross-process determinism).
///
/// `pinned_now` (optional) reports whether this call created the pin
/// (true) or loaded an existing one (false).
bool PinOrLoadCalibration(const std::string& dir,
                          const std::function<MachineConstants()>& measure,
                          MachineConstants* constants,
                          bool* pinned_now = nullptr);

/// Order-sensitive CRC over every numeric field of `constants` (the
/// informational kernel_name is excluded). Snapshots record the
/// fingerprint of the constants their index ran on; recovery only
/// accepts a snapshot whose fingerprint matches the directory's pin,
/// because replaying its suffix under different constants would extend
/// the trajectory differently than the crashed server did. The value 0
/// is reserved for "trajectory does not depend on measured constants"
/// (indexes without a cost model) and never returned here.
uint64_t CalibrationFingerprint(const MachineConstants& constants);

}  // namespace persist
}  // namespace progidx

#endif  // PROGIDX_PERSIST_CALIBRATION_STORE_H_
