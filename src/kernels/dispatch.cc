#include "kernels/kernels.h"

#include <cstdio>
#include <cstring>

#include "common/env.h"

#if defined(PROGIDX_HAVE_SIMD_TIERS) && defined(__GNUC__)
#include <cpuid.h>
#endif

namespace progidx {
namespace kernels {
namespace {

#ifdef PROGIDX_HAVE_SIMD_TIERS
// The avx2 tier's CRC-32 folds with PCLMULQDQ, so the tier needs that
// bit too (every AVX2 part ships it; the check keeps the gate honest).
bool CpuHasAvx2() {
#ifdef __GNUC__
  return __builtin_cpu_supports("avx2") && __builtin_cpu_supports("pclmul");
#else
  return false;
#endif
}

// AVX-512 needs more than a CPUID feature bit: the OS must have enabled
// saving the ZMM and opmask register state via XSETBV, which only
// XGETBV can confirm (a kernel booted with ZMM state disabled still
// shows avx512f in CPUID leaf 7 but faults on the first EVEX
// instruction). __builtin_cpu_supports("avx512f") performs the same
// chain in libgcc, but spelling it out keeps the requirement explicit
// and portable to compilers without that builtin string. The tier
// shares the avx2 tier's PCLMULQDQ CRC-32, so leaf 1 must report that
// (ECX bit 1) as well.
bool CpuHasAvx512f() {
#ifdef __GNUC__
  unsigned eax = 0, ebx = 0, ecx = 0, edx = 0;
  if (__get_cpuid(1, &eax, &ebx, &ecx, &edx) == 0) return false;
  const bool pclmul = (ecx & (1u << 1)) != 0;
  const bool osxsave = (ecx & (1u << 27)) != 0;
  const bool avx = (ecx & (1u << 28)) != 0;
  if (!pclmul || !osxsave || !avx) return false;
  // XGETBV(0): XCR0 must have SSE (bit 1), AVX (bit 2), and the three
  // AVX-512 state bits — opmask (5), ZMM0-15 upper halves (6),
  // ZMM16-31 (7). Raw opcode so no -mxsave build flag is needed.
  uint32_t xcr0_lo = 0, xcr0_hi = 0;
  __asm__ volatile(".byte 0x0f, 0x01, 0xd0"
                   : "=a"(xcr0_lo), "=d"(xcr0_hi)
                   : "c"(0));
  if ((xcr0_lo & 0xE6u) != 0xE6u) return false;
  // CPUID leaf 7 subleaf 0, EBX bit 16: AVX512F.
  if (__get_cpuid_count(7, 0, &eax, &ebx, &ecx, &edx) == 0) return false;
  return (ebx & (1u << 16)) != 0;
#else
  return false;
#endif
}
#endif  // PROGIDX_HAVE_SIMD_TIERS

/// A typo'd or unsupported PROGIDX_FORCE_KERNEL must be loud: parity
/// suites forced onto a tier cannot otherwise tell a misspelled tier
/// from a genuine scalar run. Warned once per process (through the
/// shared thread-safe gate in common/env.h).
void WarnForcedTierFallback(const char* force, const char* reason) {
  if (!env::WarnOnce("PROGIDX_FORCE_KERNEL")) return;
  std::fprintf(stderr,
               "progidx: PROGIDX_FORCE_KERNEL=%s %s; falling back to the "
               "scalar tier (known tiers: scalar, avx2, avx512)\n",
               force, reason);
}

}  // namespace

const KernelOps& ResolveKernels(const char* force, bool warn_on_fallback) {
#ifdef PROGIDX_HAVE_SIMD_TIERS
  if (force != nullptr && force[0] != '\0') {
    if (std::strcmp(force, "scalar") == 0) return ScalarKernels();
    if (std::strcmp(force, "avx512") == 0) {
      if (CpuHasAvx512f()) {
        const KernelOps& ops = Avx512Kernels();
        // The TU compiles a scalar-forwarding stub when the compiler
        // lacks -mavx512f; don't pass the stub off as the real tier.
        if (std::strcmp(ops.name, "avx512") == 0) return ops;
        if (warn_on_fallback) {
          WarnForcedTierFallback(force, "is not compiled into this build");
        }
      } else if (warn_on_fallback) {
        WarnForcedTierFallback(force, "is not supported by this CPU/OS");
      }
      return ScalarKernels();
    }
    if (std::strcmp(force, "avx2") == 0) {
      if (CpuHasAvx2()) {
        const KernelOps& ops = Avx2Kernels();
        if (std::strcmp(ops.name, "avx2") == 0) return ops;
        if (warn_on_fallback) {
          WarnForcedTierFallback(force, "is not compiled into this build");
        }
      } else if (warn_on_fallback) {
        WarnForcedTierFallback(force, "is not supported by this CPU");
      }
      return ScalarKernels();
    }
    if (warn_on_fallback) {
      WarnForcedTierFallback(force, "names an unknown kernel tier");
    }
    return ScalarKernels();
  }
  // Auto chain: the widest tier the CPU can run.
  if (CpuHasAvx512f()) {
    const KernelOps& ops = Avx512Kernels();
    // Skip the scalar-forwarding stub (compiler without -mavx512f) so
    // the chain still reaches the compiled AVX2 tier below.
    if (std::strcmp(ops.name, "avx512") == 0) return ops;
  }
  if (CpuHasAvx2()) return Avx2Kernels();
#else
  if (warn_on_fallback && force != nullptr && force[0] != '\0' &&
      std::strcmp(force, "scalar") != 0) {
    WarnForcedTierFallback(force, "is not compiled in (PROGIDX_NO_SIMD)");
  }
#endif
  return ScalarKernels();
}

const KernelOps& Dispatch() {
  static const KernelOps* const selected =
      &ResolveKernels(env::Get("PROGIDX_FORCE_KERNEL"),
                      /*warn_on_fallback=*/true);
  return *selected;
}

const char* ActiveKernelName() { return Dispatch().name; }

void RadixSortFlat(value_t* data, value_t* scratch, size_t n, value_t min_v,
                   value_t max_v) {
  const KernelOps& k = Dispatch();
  RadixSortFlatWith(data, scratch, n, min_v, max_v, k.radix_histogram,
                    k.radix_scatter);
}

}  // namespace kernels
}  // namespace progidx
