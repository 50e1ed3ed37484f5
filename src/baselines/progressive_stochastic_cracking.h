#ifndef PROGIDX_BASELINES_PROGRESSIVE_STOCHASTIC_CRACKING_H_
#define PROGIDX_BASELINES_PROGRESSIVE_STOCHASTIC_CRACKING_H_

#include <map>
#include <string>

#include "baselines/cracker_column.h"
#include "common/rng.h"
#include "core/index_base.h"

namespace progidx {

/// Resumable crack state for budget-limited cracking (Progressive
/// Stochastic Cracking) of a piece [start, end): [start, lo) holds
/// values < pivot, (hi, end-1] holds values >= pivot, [lo, hi] is
/// unpartitioned.
struct PartialCrack {
  value_t pivot = 0;
  size_t lo = 0;
  size_t hi = 0;  // inclusive
  bool done = false;
  size_t boundary = 0;  // valid when done
};

/// Starts a crack of data[start, end); call AdvancePartialCrack to make
/// progress.
PartialCrack BeginPartialCrack(size_t start, size_t end, value_t pivot);

/// Advances the crack by at most `max_swaps` steps of the dispatched
/// kernels::CrackInPlace; returns steps consumed. Sets `crack->done`
/// and `crack->boundary` on completion.
size_t AdvancePartialCrack(value_t* data, PartialCrack* crack,
                           size_t max_swaps);

/// Progressive Stochastic Cracking (Halim et al. [12]): stochastic
/// cracking with a cap on the number of swaps per query (a percentage
/// of the column size). Cracks of pieces larger than the L2 cache are
/// performed partially and resumed by later queries; pieces that fit in
/// L2 are always cracked completely (§2.2).
class ProgressiveStochasticCracking : public IndexBase {
 public:
  ProgressiveStochasticCracking(const Column& column,
                                double swap_fraction = 0.1,
                                size_t l2_elements = 32768,
                                uint64_t seed = 7,
                                size_t min_piece_size = 128)
      : cracker_(column),
        rng_(seed),
        swap_fraction_(swap_fraction),
        l2_elements_(l2_elements),
        min_piece_size_(min_piece_size) {}

  QueryResult Query(const RangeQuery& q) override;
  bool converged() const override { return false; }
  std::string name() const override { return "P. Stochastic Cracking"; }

  const CrackerColumn& cracker() const { return cracker_; }
  size_t active_partial_cracks() const { return partial_.size(); }

 private:
  /// Spends up to `*swap_budget` swaps cracking around value v.
  void BudgetedCrackAt(value_t v, size_t* swap_budget);

  CrackerColumn cracker_;
  Rng rng_;
  double swap_fraction_;
  size_t l2_elements_;
  size_t min_piece_size_;
  /// In-flight partial cracks, keyed by piece start position.
  std::map<size_t, PartialCrack> partial_;
};

}  // namespace progidx

#endif  // PROGIDX_BASELINES_PROGRESSIVE_STOCHASTIC_CRACKING_H_
