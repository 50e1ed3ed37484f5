#ifndef PROGIDX_BASELINES_FULL_INDEX_H_
#define PROGIDX_BASELINES_FULL_INDEX_H_

#include <string>
#include <vector>

#include "btree/btree.h"
#include "core/index_base.h"

namespace progidx {

/// Baseline FI: the first query pays for a complete copy + sort +
/// B+-tree bulk load; every later query is an index lookup. The other
/// extreme of Table 2: worst first query, best cumulative time.
class FullIndex : public IndexBase {
 public:
  /// `fanout` is the B+-tree fanout β, at least 2.
  explicit FullIndex(const Column& column, size_t fanout = 64);

  QueryResult Query(const RangeQuery& q) override;
  bool converged() const override { return built_; }
  std::string name() const override { return "Full Index"; }

  /// Checkpointing seam (docs/recovery.md): whether the first query has
  /// paid for the build, plus the sorted array and finished tree — so a
  /// recovered baseline never pays the build cost twice.
  bool SupportsPersistence() const override { return true; }
  void SaveState(persist::Writer* w) const override;
  bool LoadState(persist::Reader* r) override;

  /// Read-epoch path (docs/serving.md): after the first query built the
  /// tree, answers are pure lookups, race-free for concurrent readers.
  bool TryReadOnlyQuery(const RangeQuery& q, QueryResult* out) const override {
    if (!built_) return false;
    *out = btree_.RangeSum(q);
    return true;
  }

 private:
  const Column& column_;
  size_t fanout_;
  bool built_ = false;
  std::vector<value_t> sorted_;
  BPlusTree btree_;
};

}  // namespace progidx

#endif  // PROGIDX_BASELINES_FULL_INDEX_H_
