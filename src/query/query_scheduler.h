#ifndef IPQS_QUERY_QUERY_SCHEDULER_H_
#define IPQS_QUERY_QUERY_SCHEDULER_H_

#include <cstdint>
#include <vector>

#include "common/check.h"
#include "query/query_engine.h"

namespace ipqs {

// Forwarding shim over QueryEngine::EvaluateBatch, which is where batched
// serving lives. It remains only because the end-to-end benchmark
// (e2ebench/src/replay.cc) constructs a QueryScheduler and that package is
// versioned with the benchmark definition; new code calls the engine.
class QueryScheduler {
 public:
  explicit QueryScheduler(QueryEngine* engine) : engine_(engine) {
    IPQS_CHECK(engine != nullptr);
  }

  std::vector<BatchAnswer> EvaluateBatch(const std::vector<BatchQuery>& batch,
                                         int64_t now,
                                         const QueryOptions& options = {}) {
    return engine_->EvaluateBatch(batch, now, options);
  }

 private:
  QueryEngine* engine_;
};

}  // namespace ipqs

#endif  // IPQS_QUERY_QUERY_SCHEDULER_H_
