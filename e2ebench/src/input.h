#ifndef E2EBENCH_INPUT_H_
#define E2EBENCH_INPUT_H_

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "common/rng.h"
#include "floorplan/floor_plan.h"
#include "graph/anchor_points.h"
#include "graph/walking_graph.h"
#include "query/query_scheduler.h"
#include "rfid/deployment.h"
#include "sim/ground_truth.h"
#include "sim/reading_generator.h"
#include "sim/trace_generator.h"

namespace e2e {

// Size of the replayed world and of the query protocol. The defaults are
// the paper's default world (30 rooms, 4 hallways, 19 readers of 2 m range,
// 64 particles) at 1000 objects and its Section 5 query protocol; the
// self-tests shrink them.
struct Scale {
  int num_objects = 1000;
  int warmup_seconds = 240;
  int panel_interval_seconds = 10;
  int range_windows = 100;
  double window_area_fraction = 0.02;
  int knn_points = 30;
  int k = 3;
  int subscriptions = 100;  // First half range windows, second half kNN.
};

inline constexpr int kNumReaders = 19;
inline constexpr double kActivationRange = 2.0;
inline constexpr double kAnchorSpacing = 1.0;

// One second of the RFID stream. Every reader also heartbeats each second
// (no reader ever fails in these workloads).
struct Second {
  int64_t time = 0;
  std::vector<ipqs::RawReading> readings;
};

// The ad-hoc queries due at one timestamp, in issue order, with the ground
// truth each is scored against: the objects truly inside a range window, or
// the true k nearest objects of a kNN point.
struct Panel {
  int64_t now = 0;
  std::vector<ipqs::BatchQuery> queries;
  std::vector<std::vector<ipqs::ObjectId>> truths;
};

// Generates the benchmark's input from a seed: the RFID reading stream of
// the simulated world, the query panels, the standing subscriptions and the
// ground truth of each. Only the world simulator lives here; the serving
// system under test never sees it, only the records it emits.
class InputGenerator {
 public:
  InputGenerator(const Scale& scale, uint64_t seed);
  InputGenerator(const InputGenerator&) = delete;
  InputGenerator& operator=(const InputGenerator&) = delete;

  // The floor plan is the one piece of the world the server is given.
  const ipqs::FloorPlan& plan() const { return plan_; }

  // Advances the world one second and returns that second's readings.
  Second NextSecond();
  // The first `warmup_seconds` seconds, ingested during set-up.
  std::vector<Second> Warmup();

  // The panel due now: `range_windows` random windows and the fixed kNN
  // panel, in a seeded shuffled order (so kNN queries do not always find
  // their candidates memoized by the range windows before them).
  Panel MakePanel();

  // Standing subscriptions, fixed for the whole run.
  const std::vector<ipqs::BatchQuery>& subscriptions() const {
    return subscriptions_;
  }
  // Ground truth of every subscription at the current second.
  std::vector<std::vector<ipqs::ObjectId>> SubscriptionTruths() const;

 private:
  std::vector<ipqs::ObjectId> Truth(const ipqs::BatchQuery& q) const;

  Scale scale_;
  uint64_t seed_;
  ipqs::FloorPlan plan_;
  ipqs::WalkingGraph graph_;
  std::unique_ptr<ipqs::AnchorPointIndex> anchors_;
  ipqs::Deployment deployment_;
  ipqs::Rng world_rng_;
  std::unique_ptr<ipqs::TraceGenerator> trace_;
  std::unique_ptr<ipqs::ReadingGenerator> readings_;
  std::unique_ptr<ipqs::GroundTruth> ground_truth_;
  std::vector<ipqs::Point> knn_points_;
  std::vector<ipqs::BatchQuery> subscriptions_;
  int64_t now_ = 0;
  int64_t panels_made_ = 0;
};

// Canonical bytes of generated input, for the byte-identity self-test.
void AppendBytes(const Second& second, std::string* out);
void AppendBytes(const Panel& panel, std::string* out);
void AppendBytes(const std::vector<ipqs::BatchQuery>& queries,
                 std::string* out);

}  // namespace e2e

#endif  // E2EBENCH_INPUT_H_
