#include "baselines/stochastic_cracking.h"

namespace progidx {

void StochasticCracking::RandomCrackAt(value_t v) {
  const CrackerColumn::Piece piece = cracker_.PieceFor(v);
  if (piece.end - piece.start <= min_piece_size_) return;
  // Pivot = a random element of the piece, never the query predicate.
  // It lies in v's piece, so CrackAt cracks that same piece.
  const size_t pick =
      piece.start + rng_.NextBounded(piece.end - piece.start);
  cracker_.CrackAt(cracker_.data()[pick]);
}

QueryResult StochasticCracking::Query(const RangeQuery& q) {
  cracker_.EnsureMaterialized();
  RandomCrackAt(q.low);
  RandomCrackAt(q.high);
  return cracker_.Answer(q);
}

}  // namespace progidx
