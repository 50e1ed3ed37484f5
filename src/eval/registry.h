#ifndef PROGIDX_EVAL_REGISTRY_H_
#define PROGIDX_EVAL_REGISTRY_H_

#include <memory>
#include <string>
#include <vector>

#include "core/budget.h"
#include "core/index_base.h"
#include "core/progressive_quicksort.h"

namespace progidx {

/// Short identifiers used by the benchmark drivers and Table 2:
/// "fs", "fi", "std", "stc", "pstc", "cgi", "aa",
/// "pq", "pmsd", "plsd", "pb".
std::unique_ptr<IndexBase> MakeIndex(const std::string& id,
                                     const Column& column,
                                     const BudgetSpec& budget,
                                     const ProgressiveOptions& options = {});

/// All identifiers in Table 2 row order.
const std::vector<std::string>& AllIndexIds();

/// The four progressive-index identifiers.
const std::vector<std::string>& ProgressiveIndexIds();

}  // namespace progidx

#endif  // PROGIDX_EVAL_REGISTRY_H_
