#include "persist/calibration_store.h"

#include <sys/stat.h>

#include <cmath>
#include <type_traits>

#include "persist/io.h"

namespace progidx {
namespace persist {
namespace {

constexpr uint64_t kCalibrationVersion = 1;

/// kernel_name points at a static literal in the running process; a
/// string loaded from disk must be mapped back onto one. An unknown
/// name (a tier this build no longer has, a future tier, or a
/// hand-edited file) stays readable but is reported as "pinned" — the
/// name is informational only, the doubles are what the budget math
/// consumes.
const char* InternKernelName(const std::string& name) {
  static const char* const kKnown[] = {"scalar", "avx2", "avx512"};
  for (const char* k : kKnown) {
    if (name == k) return k;
  }
  return "pinned";
}

/// Calls `field` on every numeric field of `c` (a MachineConstants,
/// const or not) in pin-file order: the one list of them, which the
/// pin's writer, its reader and the fingerprint share. A new field is
/// added here and nowhere else.
template <typename Constants, typename Field>
void ForEachNumericField(Constants& c, Field&& field) {
  field(c.seq_read_secs);
  field(c.seq_write_secs);
  field(c.random_access_secs);
  field(c.swap_secs);
  field(c.alloc_secs);
  field(c.bucket_scan_secs);
  field(c.bucket_append_secs);
  field(c.batch_lookup_secs);
  field(c.sort_unit_scale);
  for (auto& s : c.scan_scale) field(s);
  field(c.elements_per_page);
  field(c.l1_cache_elements);
  field(c.l2_cache_elements);
}

/// Appends every numeric field as 8 little-endian bytes: a double's bit
/// pattern, a count as u64.
void WriteNumericFields(const MachineConstants& c, Writer* w) {
  ForEachNumericField(c, [w](const auto& v) {
    if constexpr (std::is_same_v<std::decay_t<decltype(v)>, double>) {
      w->WriteDouble(v);
    } else {
      w->WriteU64(v);
    }
  });
}

/// Reads what WriteNumericFields wrote into `*c`; false unless every
/// double is finite and positive and every count nonzero.
bool ReadNumericFields(Reader* r, MachineConstants* c) {
  bool valid = true;
  ForEachNumericField(*c, [r, &valid](auto& v) {
    if constexpr (std::is_same_v<std::decay_t<decltype(v)>, double>) {
      v = r->ReadDouble();
      valid = valid && std::isfinite(v) && v > 0;
    } else {
      v = r->ReadU64();
      valid = valid && v > 0;
    }
  });
  return valid;
}

}  // namespace

bool PinOrLoadCalibration(const std::string& dir,
                          const std::function<MachineConstants()>& measure,
                          MachineConstants* constants, bool* pinned_now) {
  if (pinned_now != nullptr) *pinned_now = false;
  ::mkdir(dir.c_str(), 0777);  // EEXIST is the common case
  const std::string path = dir + "/calibration";

  Reader r = Reader::FromFile(path);
  if (r.ok()) {
    MachineConstants loaded;
    const uint64_t version = r.ReadU64();
    const bool numbers_valid = ReadNumericFields(&r, &loaded);
    loaded.kernel_name = InternKernelName(r.ReadString());
    const bool valid =
        numbers_valid && r.AtEnd() && version == kCalibrationVersion;
    if (valid) {
      *constants = loaded;
      return true;
    }
    // A corrupt pin cannot reproduce the old trajectory anyway; fall
    // through and re-pin a fresh measurement so future processes at
    // least agree with each other from here on.
  }

  *constants = measure();
  Writer w;
  w.WriteU64(kCalibrationVersion);
  WriteNumericFields(*constants, &w);
  w.WriteString(constants->kernel_name);
  if (!w.Publish(path)) return false;
  if (pinned_now != nullptr) *pinned_now = true;
  return true;
}

uint64_t CalibrationFingerprint(const MachineConstants& constants) {
  // Canonical little-endian image of every numeric field, exactly as
  // the pin file serializes them. kernel_name is informational and
  // excluded on purpose: interning an unknown name as "pinned" must not
  // change the fingerprint of otherwise-identical constants.
  Writer w;
  WriteNumericFields(constants, &w);
  const uint32_t crc = Crc32(w.payload().data(), w.payload().size());
  // 0 is the sentinel for "constants-independent"; remap the (1 in
  // 2^32) colliding fingerprint so it can never be mistaken for it.
  return crc != 0 ? crc : 1;
}

}  // namespace persist
}  // namespace progidx
