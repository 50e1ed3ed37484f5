// Seeded input generators. The benchmark owns its inputs — the program
// only ever receives the generated values and queries — so a change to
// the library's own workload generators cannot change what is measured.
#ifndef PERFBENCH_INPUTS_H_
#define PERFBENCH_INPUTS_H_

#include <cstdint>
#include <vector>

#include "common/types.h"

namespace perfbench {

using progidx::RangeQuery;
using progidx::value_t;

/// SplitMix64: tiny, seedable, identical on every platform.
class BenchRng {
 public:
  explicit BenchRng(uint64_t seed) : state_(seed * 0x2545f4914f6cdd1dull + 1) {}
  uint64_t Next() {
    uint64_t z = (state_ += 0x9e3779b97f4a7c15ull);
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
    return z ^ (z >> 31);
  }
  uint64_t Below(uint64_t bound) { return Next() % bound; }
  double Uniform() {
    return static_cast<double>(Next() >> 11) * (1.0 / 9007199254740992.0);
  }
  double Gaussian();

 private:
  uint64_t state_;
};

/// Independent stream seeds derived from the run seed.
uint64_t StreamSeed(uint64_t seed, uint64_t stream);

/// The integers 0..n-1 in a seeded random order.
std::vector<value_t> UniformValues(size_t n, uint64_t seed);

/// SkyServer-like clustered values over [0, kSkyDomain): narrow
/// Gaussian "survey stripes" plus a 15% uniform background. The stripe
/// layout is one fixed data set, as SkyServer is; `seed` draws the rows.
constexpr value_t kSkyDomain = 360000000;
std::vector<value_t> SkyServerValues(size_t n, uint64_t seed);

/// `count` ranges each selecting `selectivity` of [0, domain).
std::vector<RangeQuery> RandomRanges(size_t count, value_t domain,
                                     double selectivity, uint64_t seed);

/// A drifting log over [0, kSkyDomain): the analyst dwells on a region
/// for 16 queries while drifting slowly, then jumps; widths are
/// log-uniform between 0.01% and ~3% of the domain. Jumps visit the
/// 1024 equal strata of the domain in a seeded order, each once per
/// 16384 queries, so every seed's log weighs dense stripes and sparse
/// background alike and the work per query does not depend on the seed.
std::vector<RangeQuery> DriftingLog(size_t count, uint64_t seed);

}  // namespace perfbench

#endif  // PERFBENCH_INPUTS_H_
