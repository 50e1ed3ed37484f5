#include "common/env.h"

#include <cstdio>
#include <cstdlib>
#include <mutex>
#include <string>
#include <vector>

namespace progidx {
namespace env {

bool WarnOnce(const char* key) {
  static std::mutex m;
  static std::vector<std::string>* warned = new std::vector<std::string>();
  std::lock_guard<std::mutex> lk(m);
  for (const std::string& w : *warned) {
    if (w == key) return false;
  }
  warned->emplace_back(key);
  return true;
}

const char* Get(const char* name) { return std::getenv(name); }

size_t BoundedSizeFromEnv(const char* name, size_t lo, size_t hi,
                          size_t fallback, const char* what,
                          const char* fallback_note) {
  const char* v = Get(name);
  if (v == nullptr || v[0] == '\0') return fallback;
  char* end = nullptr;
  const unsigned long long parsed = std::strtoull(v, &end, 10);
  if (end != v && *end == '\0' && v[0] != '-' &&
      parsed >= static_cast<unsigned long long>(lo) &&
      parsed <= static_cast<unsigned long long>(hi)) {
    return static_cast<size_t>(parsed);
  }
  if (WarnOnce(name)) {
    std::fprintf(stderr,
                 "progidx: %s='%s' is not a valid %s (expected %zu..%zu); "
                 "using %zu%s%s%s\n",
                 name, v, what, lo, hi, fallback,
                 fallback_note != nullptr ? " (" : "",
                 fallback_note != nullptr ? fallback_note : "",
                 fallback_note != nullptr ? ")" : "");
  }
  return fallback;
}

}  // namespace env
}  // namespace progidx
