#ifndef PROGIDX_EXEC_QUERY_BATCH_H_
#define PROGIDX_EXEC_QUERY_BATCH_H_

#include <cstddef>

namespace progidx {
namespace exec {

/// Upper bound on PROGIDX_BATCH and served epoch batch sizes. Far above
/// the point where the interval index stops paying for itself; a bound
/// so the env-var parse can reject garbage.
constexpr size_t kMaxBatchSize = 4096;

/// PROGIDX_BATCH=N (1 <= N <= kMaxBatchSize): how many in-flight
/// queries the evaluation harness groups into one QueryBatch call.
/// Unset/1 means the classic one-query-at-a-time paths. Invalid values
/// warn once on stderr and fall back to 1 (the same warn-once contract
/// as PROGIDX_FORCE_KERNEL / PROGIDX_THREADS).
size_t BatchSizeFromEnv();

}  // namespace exec
}  // namespace progidx

#endif  // PROGIDX_EXEC_QUERY_BATCH_H_
