#ifndef PROGIDX_COMMON_ENV_H_
#define PROGIDX_COMMON_ENV_H_

#include <cstddef>

namespace progidx {
namespace env {

/// The one parser behind every PROGIDX_* integer seam (PROGIDX_BATCH,
/// PROGIDX_THREADS): reads `name` as a base-10 integer and returns it
/// when it lies in [lo, hi]. Unset or empty returns `fallback`
/// silently; anything else that fails to parse or lands outside the
/// range warns once per variable (thread-safe) and returns `fallback`.
/// `what` names the quantity in the warning ("batch size", "thread
/// count"); `fallback_note` describes the fallback ("running
/// unbatched", "hardware concurrency"), or nullptr for none.
size_t BoundedSizeFromEnv(const char* name, size_t lo, size_t hi,
                          size_t fallback, const char* what,
                          const char* fallback_note);

/// Thread-safe warn-once gate, keyed by `key`: true exactly once per
/// process for each distinct key. Shared by the env parsers above and
/// by other warn-once diagnostics (PROGIDX_FORCE_KERNEL fallback), so
/// no seam carries its own racy `static bool warned`.
bool WarnOnce(const char* key);

/// The one std::getenv call in the tree: every PROGIDX_* read routes
/// through here (or the typed parsers above) so the determinism linter
/// (tools/lint, rule `getenv`) can audit environment seams in one
/// file. Returns nullptr when unset, exactly like std::getenv.
const char* Get(const char* name);

}  // namespace env
}  // namespace progidx

#endif  // PROGIDX_COMMON_ENV_H_
