#include "query/historical.h"

#include <utility>
#include <vector>

#include "common/check.h"
#include "query/uncertain_region.h"

namespace ipqs {

HistoricalEngine::HistoricalEngine(const WalkingGraph* graph,
                                   const FloorPlan* plan,
                                   const AnchorPointIndex* anchors,
                                   const AnchorGraph* anchor_graph,
                                   const Deployment* deployment,
                                   const DeploymentGraph* deployment_graph,
                                   const HistoryStore* store,
                                   const EngineConfig& config)
    : graph_(graph),
      anchors_(anchors),
      deployment_(deployment),
      store_(store),
      config_(config),
      filter_(graph, deployment, config.filter),
      symbolic_(anchors, anchor_graph, deployment, deployment_graph,
                config.symbolic),
      range_eval_(plan, anchors),
      knn_eval_(graph, anchors, anchor_graph) {
  IPQS_CHECK(store != nullptr);
}

void HistoricalEngine::SyncTableTo(int64_t time) {
  if (table_time_ != time) {
    table_.Clear();
    table_time_ = time;
  }
}

const AnchorDistribution* HistoricalEngine::InferObjectAt(ObjectId object,
                                                          int64_t time) {
  SyncTableTo(time);
  if (const AnchorDistribution* memo = table_.Distribution(object)) {
    return memo;
  }
  const auto history = store_->SnapshotAt(object, time);
  if (!history.has_value() || history->entries.empty()) {
    return nullptr;
  }
  ++stats_.candidates_inferred;

  AnchorDistribution dist;
  if (config_.method == InferenceMethod::kSymbolicModel) {
    dist = symbolic_.Infer(*history, time);
  } else {
    // Each (object, time) replay draws from its own stream, so an answer
    // does not depend on which objects were inferred before it.
    Rng rng = Rng::ForStream(config_.seed, static_cast<uint64_t>(object),
                             static_cast<uint64_t>(time));
    const FilterResult state = filter_.Run(*history, time, rng);
    ++stats_.filter_runs;
    stats_.filter_seconds += state.seconds_processed;
    dist = AnchorDistribution::FromParticles(*anchors_, state.particles);
  }
  table_.Set(object, std::move(dist));
  return table_.Distribution(object);
}

QueryResult HistoricalEngine::EvaluateRangeAt(const Rect& window,
                                              int64_t time) {
  SyncTableTo(time);
  ++stats_.queries;
  for (ObjectId object : store_->KnownObjects()) {
    const auto snapshot = store_->SnapshotAt(object, time);
    if (!snapshot.has_value() || snapshot->entries.empty()) {
      continue;
    }
    ++stats_.objects_considered;
    if (config_.use_pruning) {
      const UncertainRegion ur =
          ComputeUncertainRegion(*deployment_, object,
                                 snapshot->entries.back(), time,
                                 config_.max_speed);
      if (!ur.Overlaps(window)) {
        continue;
      }
    }
    InferObjectAt(object, time);
  }
  return range_eval_.Evaluate(table_, window);
}

KnnResult HistoricalEngine::EvaluateKnnAt(const Point& query, int k,
                                          int64_t time) {
  SyncTableTo(time);
  ++stats_.queries;
  // kNN pruning needs all objects' distance intervals; for simplicity the
  // historical path infers everyone seen by `time` (historical workloads
  // are offline).
  for (ObjectId object : store_->KnownObjects()) {
    InferObjectAt(object, time);
  }
  const GraphLocation q =
      graph_->NearestLocation(query, /*prefer_hallways=*/true);
  return knn_eval_.Evaluate(table_, q, k);
}

}  // namespace ipqs
