// perfbench: the progressive-index benchmark (perfbench/README.md).
//
//   perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//             --work-dir <dir> [--smoke]
//   perfbench --calibrate <runs>
//
// Prints `meta`, `counts` and any `problem` lines, then one JSON object
// as the last stdout line: end-to-end metrics untraced, per-layer
// metrics traced.
#include <sys/utsname.h>

#ifdef __GLIBC__
#include <malloc.h>
#endif

#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <string>
#include <thread>

#include "bench.h"
#include "explore.h"
#include "kernels/kernels.h"
#include "parallel/thread_pool.h"
#include "persist/calibration_store.h"
#include "serve_mix.h"

namespace {

using perfbench::Median;

int Usage() {
  std::fprintf(stderr,
               "usage: perfbench --workload <explore_uniform|explore_skyserver|"
               "serve_mixed_durable> --seed <n> --seconds <s> --trace <0|1> "
               "--work-dir <dir> [--smoke]\n"
               "       perfbench --calibrate <runs>\n");
  return 2;
}

/// Prints the per-field median of `runs` MeasureMachineConstants()
/// calls as the literal perfbench/src/constants.cc checks in.
int Calibrate(int runs) {
  std::vector<progidx::MachineConstants> all;
  for (int i = 0; i < runs; i++) {
    all.push_back(progidx::MeasureMachineConstants());
  }
  auto med = [&](auto field) {
    std::vector<double> v;
    for (const auto& c : all) v.push_back(field(c));
    return Median(v);
  };
#define PERFBENCH_FIELD(f)                                              \
  std::printf("  c.%s = %.6g;\n", #f,                                   \
              med([](const progidx::MachineConstants& c) { return c.f; }))
  PERFBENCH_FIELD(seq_read_secs);
  PERFBENCH_FIELD(seq_write_secs);
  PERFBENCH_FIELD(random_access_secs);
  PERFBENCH_FIELD(swap_secs);
  PERFBENCH_FIELD(alloc_secs);
  PERFBENCH_FIELD(bucket_scan_secs);
  PERFBENCH_FIELD(bucket_append_secs);
  PERFBENCH_FIELD(batch_lookup_secs);
  PERFBENCH_FIELD(sort_unit_scale);
#undef PERFBENCH_FIELD
  std::printf("  const double scan_scale[] = {");
  for (size_t t = 0; t <= progidx::MachineConstants::kMaxThreadScale; t++) {
    std::printf("%s%.6g", t ? ", " : "",
                med([t](const progidx::MachineConstants& c) {
                  return c.scan_scale[t];
                }));
  }
  std::printf("};\n  c.kernel_name = \"%s\";\n", all.front().kernel_name);
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
#ifdef __GLIBC__
  // Fixed allocator thresholds. By default glibc raises its mmap and
  // trim thresholds after the first large free, and freed buffers then
  // stay resident or not depending on allocation order: peak_rss_mb
  // read 20% higher for one seed of a workload than for the others.
  // Fixed, every buffer over 128 KiB is mapped when allocated and
  // returned when freed, so resident memory follows live memory.
  mallopt(M_MMAP_THRESHOLD, 128 * 1024);
  mallopt(M_TRIM_THRESHOLD, 128 * 1024);
#endif
  perfbench::Options opt;
  bool trace_given = false;
  for (int i = 1; i < argc; i++) {
    const std::string arg = argv[i];
    if (arg == "--smoke") {
      opt.smoke = true;
      continue;
    }
    if (i + 1 >= argc) return Usage();
    const std::string val = argv[++i];
    if (arg == "--calibrate") return Calibrate(std::atoi(val.c_str()));
    if (arg == "--workload") {
      opt.workload = val;
    } else if (arg == "--seed") {
      opt.seed = std::strtoull(val.c_str(), nullptr, 10);
    } else if (arg == "--seconds") {
      opt.seconds = std::atof(val.c_str());
    } else if (arg == "--trace") {
      opt.trace = val == "1";
      trace_given = val == "0" || val == "1";
    } else if (arg == "--work-dir") {
      opt.work_dir = val;
    } else {
      return Usage();
    }
  }
  const bool known = opt.workload == "explore_uniform" ||
                     opt.workload == "explore_skyserver" ||
                     opt.workload == "serve_mixed_durable";
  if (!known || !trace_given || opt.seconds <= 0 || opt.work_dir.empty()) {
    return Usage();
  }
  std::filesystem::remove_all(opt.work_dir);
  std::filesystem::create_directories(opt.work_dir);

  perfbench::Report rep;
  struct utsname host;
  uname(&host);
  rep.Meta("workload", opt.workload);
  rep.Meta("seed", std::to_string(opt.seed));
  // Pinned by the caller (run.py sets PROGIDX_THREADS).
  rep.Meta("lanes", std::to_string(progidx::parallel::EffectiveLanes()));
  rep.Meta("nproc", std::to_string(std::thread::hardware_concurrency()));
  rep.Meta("kernel_tier", progidx::kernels::ActiveKernelName());
  rep.Meta("os_kernel", host.release);
  rep.Meta("constants_fingerprint",
           std::to_string(progidx::persist::CalibrationFingerprint(
               perfbench::FixedConstants())));

  if (opt.workload == "serve_mixed_durable") {
    perfbench::RunServeMixed(opt, &rep);
  } else {
    perfbench::RunExplore(opt, opt.workload == "explore_skyserver", &rep);
  }
  // After the workload, so that its 64 MiB buffer stays out of
  // peak_rss_mb.
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.2f", perfbench::HostProbeGbps());
  rep.Meta("host_probe_gbps", buf);
  rep.Print(opt.trace);
  std::filesystem::remove_all(opt.work_dir);
  return 0;
}
