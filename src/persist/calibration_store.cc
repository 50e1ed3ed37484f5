#include "persist/calibration_store.h"

#include <sys/stat.h>

#include <cmath>
#include <cstring>

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

bool FiniteAndPositive(double v) { return std::isfinite(v) && v > 0; }

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
    loaded.seq_read_secs = r.ReadDouble();
    loaded.seq_write_secs = r.ReadDouble();
    loaded.random_access_secs = r.ReadDouble();
    loaded.swap_secs = r.ReadDouble();
    loaded.alloc_secs = r.ReadDouble();
    loaded.bucket_scan_secs = r.ReadDouble();
    loaded.bucket_append_secs = r.ReadDouble();
    loaded.batch_lookup_secs = r.ReadDouble();
    loaded.sort_unit_scale = r.ReadDouble();
    for (double& s : loaded.scan_scale) s = r.ReadDouble();
    loaded.elements_per_page = r.ReadU64();
    loaded.l1_cache_elements = r.ReadU64();
    loaded.l2_cache_elements = r.ReadU64();
    loaded.kernel_name = InternKernelName(r.ReadString());
    bool valid = r.AtEnd() && version == kCalibrationVersion &&
                 FiniteAndPositive(loaded.seq_read_secs) &&
                 FiniteAndPositive(loaded.seq_write_secs) &&
                 FiniteAndPositive(loaded.random_access_secs) &&
                 FiniteAndPositive(loaded.swap_secs) &&
                 FiniteAndPositive(loaded.alloc_secs) &&
                 FiniteAndPositive(loaded.bucket_scan_secs) &&
                 FiniteAndPositive(loaded.bucket_append_secs) &&
                 FiniteAndPositive(loaded.batch_lookup_secs) &&
                 FiniteAndPositive(loaded.sort_unit_scale) &&
                 loaded.elements_per_page > 0 &&
                 loaded.l1_cache_elements > 0 &&
                 loaded.l2_cache_elements > 0;
    for (double s : loaded.scan_scale) valid = valid && FiniteAndPositive(s);
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
  w.WriteDouble(constants->seq_read_secs);
  w.WriteDouble(constants->seq_write_secs);
  w.WriteDouble(constants->random_access_secs);
  w.WriteDouble(constants->swap_secs);
  w.WriteDouble(constants->alloc_secs);
  w.WriteDouble(constants->bucket_scan_secs);
  w.WriteDouble(constants->bucket_append_secs);
  w.WriteDouble(constants->batch_lookup_secs);
  w.WriteDouble(constants->sort_unit_scale);
  for (double s : constants->scan_scale) w.WriteDouble(s);
  w.WriteU64(constants->elements_per_page);
  w.WriteU64(constants->l1_cache_elements);
  w.WriteU64(constants->l2_cache_elements);
  w.WriteString(constants->kernel_name);
  if (!w.Publish(path)) return false;
  if (pinned_now != nullptr) *pinned_now = true;
  return true;
}

uint64_t CalibrationFingerprint(const MachineConstants& constants) {
  // Canonical little-endian image of every numeric field, in the same
  // order the pin file serializes them. kernel_name is informational
  // and excluded on purpose: interning an unknown name as "pinned"
  // must not change the fingerprint of otherwise-identical constants.
  std::string buf;
  auto put_double = [&buf](double v) {
    uint64_t bits;
    std::memcpy(&bits, &v, sizeof(bits));
    buf.append(reinterpret_cast<const char*>(&bits), sizeof(bits));
  };
  auto put_u64 = [&buf](uint64_t v) {
    buf.append(reinterpret_cast<const char*>(&v), sizeof(v));
  };
  put_double(constants.seq_read_secs);
  put_double(constants.seq_write_secs);
  put_double(constants.random_access_secs);
  put_double(constants.swap_secs);
  put_double(constants.alloc_secs);
  put_double(constants.bucket_scan_secs);
  put_double(constants.bucket_append_secs);
  put_double(constants.batch_lookup_secs);
  put_double(constants.sort_unit_scale);
  for (double s : constants.scan_scale) put_double(s);
  put_u64(constants.elements_per_page);
  put_u64(constants.l1_cache_elements);
  put_u64(constants.l2_cache_elements);
  const uint32_t crc = Crc32(buf.data(), buf.size());
  // 0 is the sentinel for "constants-independent"; remap the (1 in
  // 2^32) colliding fingerprint so it can never be mistaken for it.
  return crc != 0 ? crc : 1;
}

}  // namespace persist
}  // namespace progidx
