#include "exec/query_batch.h"

#include "common/env.h"

namespace progidx {
namespace exec {

size_t BatchSizeFromEnv() {
  return env::BoundedSizeFromEnv("PROGIDX_BATCH", 1, kMaxBatchSize, 1,
                                 "batch size", "running unbatched");
}

}  // namespace exec
}  // namespace progidx
