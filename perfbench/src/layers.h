// Direct calls into single layers on a workload's own column and
// queries: kernels, parallel composites, bucket-chain storage, the
// B+-tree, and the shared-scan executor.
#ifndef PERFBENCH_LAYERS_H_
#define PERFBENCH_LAYERS_H_

#include <vector>

#include "bench.h"
#include "storage/column.h"

namespace perfbench {

/// Reports kernels.*, parallel.*_speedup, storage.*, btree.* and
/// exec.* per-layer metrics; every probe's output is checked against
/// `oracle`.
void DirectLayerProbes(const progidx::Column& column,
                       const StaticOracle& oracle,
                       const std::vector<RangeQuery>& queries, bool smoke,
                       Report* rep);

}  // namespace perfbench

#endif  // PERFBENCH_LAYERS_H_
