// Durable serving: a serve::Server with persistence over an
// UpdatableIndex wrapping Progressive Quicksort, driven by one thread
// that keeps exactly one 16-op epoch in flight.
#ifndef PERFBENCH_SERVE_MIX_H_
#define PERFBENCH_SERVE_MIX_H_

#include <string>
#include <vector>

#include "bench.h"

namespace perfbench {

/// serve_mixed_durable.
void RunServeMixed(const Options& opt, Report* rep);

/// Per-layer serve/persist metrics for a query-only workload: its
/// queries served durably over the first rows of its column.
void DurableProbe(const std::vector<value_t>& values,
                  const std::vector<RangeQuery>& queries,
                  const std::string& dir, bool smoke, Report* rep);

}  // namespace perfbench

#endif  // PERFBENCH_SERVE_MIX_H_
