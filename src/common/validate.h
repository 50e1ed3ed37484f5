#ifndef PROGIDX_COMMON_VALIDATE_H_
#define PROGIDX_COMMON_VALIDATE_H_

#include <string>

namespace progidx {

// Input validation for user-supplied configuration (CLI flags, workload
// parameters, server configs). Unlike PROGIDX_CHECK — which guards
// internal invariants and aborts with a stack-trace-friendly SIGABRT —
// these reject *user* mistakes: one clear line on stderr and a nonzero
// exit, no core dump. Tests cover them with death tests
// (tests/validation_test.cc).

/// Prints "progidx: invalid argument: <what>" to stderr and exits with
/// status 1.
[[noreturn]] void FailInvalidArgument(const std::string& what);

/// FailInvalidArgument(what) unless `ok`. A literal message costs
/// nothing when the check passes; a caller that formats its message
/// calls FailInvalidArgument under its own `if` instead, so a passing
/// check never builds a string.
inline void CheckArg(bool ok, const char* what) {
  if (!ok) FailInvalidArgument(what);
}

}  // namespace progidx

#endif  // PROGIDX_COMMON_VALIDATE_H_
