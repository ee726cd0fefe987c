#ifndef IPQS_QUERY_HISTORICAL_H_
#define IPQS_QUERY_HISTORICAL_H_

#include <cstdint>

#include "query/knn_query.h"
#include "query/query_engine.h"
#include "query/range_query.h"
#include "rfid/history_store.h"

namespace ipqs {

// Historical snapshot queries ("who was inside this zone at 10:15?") over
// a HistoryStore. For any past instant t the engine reconstructs, per
// object, the two-device reading window that the live system held at t,
// replays Algorithm 2 (or the symbolic inference) against it, and
// evaluates the query on the resulting APtoObjHT — so historical answers
// have exactly the semantics live answers had at t.
//
// The particle cache does not apply (each query time is its own replay);
// uncertain-region pruning does, computed from the readings as of t.
class HistoricalEngine {
 public:
  HistoricalEngine(const WalkingGraph* graph, const FloorPlan* plan,
                   const AnchorPointIndex* anchors,
                   const AnchorGraph* anchor_graph,
                   const Deployment* deployment,
                   const DeploymentGraph* deployment_graph,
                   const HistoryStore* store, const EngineConfig& config);

  QueryResult EvaluateRangeAt(const Rect& window, int64_t time);
  KnnResult EvaluateKnnAt(const Point& query, int k, int64_t time);

  // Location distribution of `object` as of `time`; nullptr when the
  // object had not been detected by then.
  const AnchorDistribution* InferObjectAt(ObjectId object, int64_t time);

  const EngineStats& stats() const { return stats_; }

  // The APtoObjHT for the last queried time (for event predicates).
  const AnchorObjectTable& table() const { return table_; }

 private:
  void SyncTableTo(int64_t time);

  const WalkingGraph* graph_;
  const AnchorPointIndex* anchors_;
  const Deployment* deployment_;
  const HistoryStore* store_;
  EngineConfig config_;

  ParticleFilter filter_;
  SymbolicInference symbolic_;
  RangeQueryEvaluator range_eval_;
  KnnQueryEvaluator knn_eval_;

  AnchorObjectTable table_;
  int64_t table_time_ = -1;
  EngineStats stats_;
};

}  // namespace ipqs

#endif  // IPQS_QUERY_HISTORICAL_H_
