#ifndef IPQS_SIM_EXPERIMENT_H_
#define IPQS_SIM_EXPERIMENT_H_

#include <cstdint>

#include "common/statusor.h"
#include "sim/metrics.h"
#include "sim/simulation.h"

namespace ipqs {

// The evaluation protocol of Section 5: warm the world up, then at each of
// `num_timestamps` sampled timestamps issue randomized range windows and a
// fixed panel of kNN query points against both engines, scoring them
// against ground truth.
struct ExperimentConfig {
  SimulationConfig sim;
  int warmup_seconds = 240;
  int num_timestamps = 50;
  int seconds_between_timestamps = 10;
  // Range protocol: "100 query windows are randomly generated as rectangles
  // at each time stamp".
  int range_queries_per_timestamp = 100;
  double window_area_fraction = 0.02;  // Table 2 default: 2%.
  // kNN protocol: "30 random indoor locations ... at 50 time stamps".
  int knn_query_points = 30;
  int k = 3;  // Table 2 default.
  // Top-k success: an object's location counts as matched when a top-k
  // anchor lies within this Euclidean distance of its true position.
  double topk_tolerance = 2.0;

  bool eval_range = true;
  bool eval_knn = true;
  bool eval_topk = true;

  // Serve each timestamp's queries as ONE QueryEngine::EvaluateBatch per
  // engine (shared pruning tables, one inference pass over the union of
  // candidates) instead of one engine call per query. Query
  // windows/points are drawn in the identical rng order, and batched
  // answers are byte-identical to serial ones, so scores never move —
  // only the work counters do.
  bool batch_queries = false;

  // Collect QueryExplain provenance records for the LAST timestamp's PF
  // queries (serial path: one record per engine call; batched path: one
  // per batch slot, via the batch explain) into
  // ExperimentResult::explains. Strictly observational — answers and
  // scores are byte-identical with this on or off.
  bool collect_explain = false;
};

// Averaged metrics of one experiment run (one sweep point of a figure).
struct ExperimentResult {
  // Range accuracy (Figures 9, 11a, 12a, 13a).
  double kl_pf = 0.0;
  double kl_sm = 0.0;
  int64_t range_windows_scored = 0;

  // kNN accuracy (Figures 10, 11b, 12b, 13b).
  double hit_pf = 0.0;
  double hit_sm = 0.0;

  // Location accuracy (Figures 11c, 12c, 13c).
  double top1 = 0.0;
  double top2 = 0.0;

  // Work counters for the performance/ablation benches.
  EngineStats pf_stats;
  EngineStats sm_stats;
  ParticleCache::Stats cache_stats;
  // Deadline-degradation tallies (all at kFull when no deadline is set).
  DegradeStats pf_degrade;

  // Fault-injection tallies (all zero when the FaultPlan is off).
  FaultInjector::Stats fault_stats;
  DataCollector::IngestStats ingest_stats;

  // Standing-query subscription tallies (all zero when
  // SimulationConfig::num_subscriptions == 0).
  SubscriptionStats sub_stats;

  // Reader-health transition tallies (all zero when
  // SimulationConfig::health.enabled is false).
  ReaderHealthStats health_stats;

  // PF-engine provenance for the last timestamp's queries (empty unless
  // ExperimentConfig::collect_explain).
  std::vector<obs::QueryExplain> explains;
};

class Experiment {
 public:
  explicit Experiment(const ExperimentConfig& config) : config_(config) {}

  StatusOr<ExperimentResult> Run();

  // A random rectangular query window covering `area_fraction` of the
  // plan's total area, with aspect ratio in [0.5, 2], placed uniformly in
  // the bounding box.
  static Rect RandomWindow(const FloorPlan& plan, double area_fraction,
                           Rng& rng);

  // A random indoor location (a uniformly chosen anchor point's position).
  static Point RandomIndoorPoint(const AnchorPointIndex& anchors, Rng& rng);

 private:
  ExperimentConfig config_;
};

}  // namespace ipqs

#endif  // IPQS_SIM_EXPERIMENT_H_
