#include "eval/experiment.h"

#include <algorithm>

#include "common/timer.h"
#include "exec/query_batch.h"

namespace progidx {

Metrics RunWorkload(IndexBase* index, const std::vector<RangeQuery>& queries,
                    IndexBase* oracle) {
  // PROGIDX_BATCH=N groups the stream into batches of N concurrent
  // queries through IndexBase::QueryBatch; the default N=1 runs each
  // query as a batch of one. Per-query records are still emitted: a
  // batch's wall time is split evenly across its queries, and
  // prediction/convergence are the post-batch values.
  const size_t batch_size = exec::BatchSizeFromEnv();
  std::vector<QueryRecord> records;
  records.reserve(queries.size());
  std::vector<QueryResult> results(batch_size);
  for (size_t start = 0; start < queries.size(); start += batch_size) {
    const size_t count = std::min(batch_size, queries.size() - start);
    Timer timer;
    index->QueryBatch(queries.data() + start, count, results.data());
    const double batch_secs = timer.ElapsedSeconds();
    const double predicted = index->last_predicted_cost();
    const bool converged = index->converged();
    for (size_t i = 0; i < count; i++) {
      QueryRecord record;
      record.result = results[i];
      record.secs = batch_secs / static_cast<double>(count);
      record.predicted = predicted;
      record.converged = converged;
      if (oracle != nullptr) {
        const QueryResult expected = oracle->Query(queries[start + i]);
        PROGIDX_CHECK(record.result.sum == expected.sum);
        PROGIDX_CHECK(record.result.count == expected.count);
      }
      records.push_back(record);
    }
  }
  return Metrics(std::move(records));
}

}  // namespace progidx
