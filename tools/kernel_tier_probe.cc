// Resolves a kernel tier by name and reports whether this machine and
// build can actually run it. Exit codes: 0 = tier resolves, 77 = it
// does not (the ctest convention for "skip this lane"), 2 = usage.
// Also prints the machine's parallel geometry (hardware cores and the
// lane count the thread pool will field after PROGIDX_THREADS).
//
//   $ kernel_tier_probe avx512 && PROGIDX_FORCE_KERNEL=avx512 ./progidx_tests

#include <cstdio>
#include <cstring>
#include <thread>

#include "kernels/kernels.h"
#include "parallel/thread_pool.h"

int main(int argc, char** argv) {
  if (argc != 2) {
    std::fprintf(stderr, "usage: kernel_tier_probe <scalar|avx2|avx512>\n");
    return 2;
  }
  std::printf("cores: %u detected, %zu pool lanes\n",
              std::thread::hardware_concurrency(),
              progidx::parallel::DefaultLanes());
  const progidx::kernels::KernelOps& ops =
      progidx::kernels::ResolveKernels(argv[1]);
  if (std::strcmp(ops.name, argv[1]) == 0) {
    std::printf("%s: supported\n", argv[1]);
    return 0;
  }
  std::printf("%s: unsupported on this CPU/build (resolves to %s)\n", argv[1],
              ops.name);
  return 77;
}
