// Exploration sessions: one analyst querying a fresh progressive index
// until it converges, then through a converged tail.
#ifndef PERFBENCH_EXPLORE_H_
#define PERFBENCH_EXPLORE_H_

#include <string>
#include <vector>

#include "bench.h"
#include "storage/column.h"

namespace perfbench {

/// Everything one session replays. Every session and every pass of a
/// run replays the same queries, so each index's trajectory — and its
/// exact counts — repeat within a run and across runs of one seed.
struct SessionInputs {
  const progidx::Column* column = nullptr;
  std::vector<RangeQuery> build;  ///< replayed until converged()
  std::vector<QueryResult> build_expect;
  std::vector<RangeQuery> tail;  ///< asked once converged
  std::vector<QueryResult> tail_expect;
  size_t tail_block = 1;  ///< tail queries per timed block
};

struct SessionResult {
  std::string id;
  bool converged = false;
  size_t build_queries = 0;
  std::vector<double> build_lat;  ///< seconds, every query before converged()
  double converge_secs = 0;
  std::vector<double> block_secs;  ///< converged-tail time per block
  std::vector<size_t> phase_queries;  ///< by the phase a query started in
  std::vector<double> phase_secs;
  uint64_t attempted = 0;
  uint64_t wrong = 0;
  /// Self time (us) of the program's refine / shared_scan spans during
  /// the build; filled only when traced.
  double refine_self_us = 0;
  double shared_scan_self_us = 0;
};

/// The four progressive indexes, in the order sessions run.
const std::vector<std::string>& SessionIndexIds();
/// Phase names of an index id, indexed by its Phase enum value.
const std::vector<std::string>& PhaseNames(const std::string& id);

/// One fresh session of `id` under the adaptive budget 0.2·t_scan and
/// the fixed machine constants. With `spans`, flushes the trace after
/// the build and after the tail.
SessionResult RunSession(const std::string& id, const SessionInputs& in,
                         SpanCollector* spans);

/// Reports each index's exact counts: queries to convergence and
/// queries started in each phase.
void ReportSessionCounts(const std::vector<SessionResult>& pass, Report* rep);

/// Converged-tail queries per second over `passes`.
double ConvergedQps(const std::vector<std::vector<SessionResult>>& passes,
                    size_t tail_queries);

/// Reports each index's query time per phase (median over `passes`) as
/// per-layer metrics.
void ReportPhaseTimes(const std::vector<std::vector<SessionResult>>& passes,
                      Report* rep);

/// explore_uniform / explore_skyserver.
void RunExplore(const Options& opt, bool skyserver, Report* rep);

}  // namespace perfbench

#endif  // PERFBENCH_EXPLORE_H_
