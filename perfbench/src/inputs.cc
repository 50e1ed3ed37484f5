#include "inputs.h"

#include <algorithm>
#include <cmath>

namespace perfbench {

double BenchRng::Gaussian() {
  double u1 = Uniform();
  const double u2 = Uniform();
  if (u1 < 1e-300) u1 = 1e-300;
  return std::sqrt(-2.0 * std::log(u1)) * std::cos(6.283185307179586 * u2);
}

uint64_t StreamSeed(uint64_t seed, uint64_t stream) {
  BenchRng rng(seed ^ (stream * 0x632be59bd9b4e019ull));
  return rng.Next();
}

std::vector<value_t> UniformValues(size_t n, uint64_t seed) {
  std::vector<value_t> v(n);
  for (size_t i = 0; i < n; i++) v[i] = static_cast<value_t>(i);
  BenchRng rng(seed);
  for (size_t i = n; i > 1; i--) {
    std::swap(v[i - 1], v[rng.Below(i)]);
  }
  return v;
}

std::vector<value_t> SkyServerValues(size_t n, uint64_t seed) {
  BenchRng layout(0x5c1e5e);
  constexpr size_t kStripes = 12;
  const double d = static_cast<double>(kSkyDomain);
  double center[kStripes];
  double sigma[kStripes];
  double weight[kStripes];
  double total = 0;
  for (size_t s = 0; s < kStripes; s++) {
    center[s] = layout.Uniform() * d;
    sigma[s] = (0.002 + 0.01 * layout.Uniform()) * d;
    weight[s] = 0.2 + layout.Uniform();
    total += weight[s];
  }
  BenchRng rng(seed);
  std::vector<value_t> v(n);
  for (size_t i = 0; i < n; i++) {
    double x;
    if (rng.Uniform() < 0.15) {
      x = rng.Uniform() * d;
    } else {
      double pick = rng.Uniform() * total;
      size_t s = 0;
      while (s + 1 < kStripes && pick > weight[s]) pick -= weight[s++];
      x = center[s] + sigma[s] * rng.Gaussian();
    }
    v[i] = static_cast<value_t>(std::clamp(x, 0.0, d - 1.0));
  }
  return v;
}

std::vector<RangeQuery> RandomRanges(size_t count, value_t domain,
                                     double selectivity, uint64_t seed) {
  BenchRng rng(seed);
  const value_t width = std::max<value_t>(
      1, static_cast<value_t>(static_cast<double>(domain) * selectivity));
  std::vector<RangeQuery> qs(count);
  for (RangeQuery& q : qs) {
    q.low = static_cast<value_t>(
        rng.Below(static_cast<uint64_t>(domain - width + 1)));
    q.high = q.low + width - 1;
  }
  return qs;
}

std::vector<RangeQuery> DriftingLog(size_t count, uint64_t seed) {
  BenchRng rng(seed);
  const double d = static_cast<double>(kSkyDomain);
  constexpr size_t kStrata = 1024;
  constexpr size_t kDwell = 16;
  std::vector<size_t> strata(kStrata);
  for (size_t i = 0; i < kStrata; i++) strata[i] = i;
  for (size_t i = kStrata; i > 1; i--) {
    std::swap(strata[i - 1], strata[rng.Below(i)]);
  }
  double center = 0;
  std::vector<RangeQuery> qs(count);
  for (size_t i = 0; i < count; i++) {
    RangeQuery& q = qs[i];
    if (i % kDwell == 0) {
      center = (static_cast<double>(strata[(i / kDwell) % kStrata]) +
                rng.Uniform()) * d / kStrata;
    } else {
      center += 0.0005 * d * (rng.Uniform() - 0.3);
    }
    center = std::clamp(center, 0.0, d - 1.0);
    const double width = d * std::pow(10.0, -4.0 + 2.5 * rng.Uniform());
    const double lo = std::clamp(center - width / 2, 0.0, d - 1.0);
    const double hi = std::clamp(center + width / 2, lo, d - 1.0);
    q.low = static_cast<value_t>(lo);
    q.high = static_cast<value_t>(hi);
  }
  return qs;
}

}  // namespace perfbench
