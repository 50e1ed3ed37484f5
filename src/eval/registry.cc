#include "eval/registry.h"

#include "baselines/adaptive_adaptive.h"
#include "baselines/coarse_granular_index.h"
#include "baselines/full_index.h"
#include "baselines/full_scan.h"
#include "baselines/progressive_stochastic_cracking.h"
#include "baselines/standard_cracking.h"
#include "baselines/stochastic_cracking.h"
#include "core/progressive_bucketsort.h"
#include "core/progressive_radixsort_lsd.h"
#include "core/progressive_radixsort_msd.h"

namespace progidx {

std::unique_ptr<IndexBase> MakeIndex(const std::string& id,
                                     const Column& column,
                                     const BudgetSpec& budget,
                                     const ProgressiveOptions& options) {
  if (id == "fs") return std::make_unique<FullScan>(column);
  if (id == "fi") return std::make_unique<FullIndex>(column);
  if (id == "std") return std::make_unique<StandardCracking>(column);
  if (id == "stc") return std::make_unique<StochasticCracking>(column);
  if (id == "pstc") {
    return std::make_unique<ProgressiveStochasticCracking>(
        column, /*swap_fraction=*/0.1,
        options.Machine().l2_cache_elements);
  }
  if (id == "cgi") return std::make_unique<CoarseGranularIndex>(column);
  if (id == "aa") return std::make_unique<AdaptiveAdaptiveIndexing>(column);
  if (id == "pq") {
    return std::make_unique<ProgressiveQuicksort>(column, budget, options);
  }
  if (id == "pmsd") {
    return std::make_unique<ProgressiveRadixsortMSD>(column, budget,
                                                     options);
  }
  if (id == "plsd") {
    return std::make_unique<ProgressiveRadixsortLSD>(column, budget,
                                                     options);
  }
  if (id == "pb") {
    return std::make_unique<ProgressiveBucketsort>(column, budget, options);
  }
  std::fprintf(stderr, "unknown index id: %s\n", id.c_str());
  std::abort();
}

const std::vector<std::string>& AllIndexIds() {
  static const std::vector<std::string>* ids = new std::vector<std::string>{
      "fs", "fi", "std", "stc", "pstc", "cgi", "aa",
      "pq", "pmsd", "plsd", "pb"};
  return *ids;
}

const std::vector<std::string>& ProgressiveIndexIds() {
  static const std::vector<std::string>* ids =
      new std::vector<std::string>{"pq", "pmsd", "plsd", "pb"};
  return *ids;
}

}  // namespace progidx
