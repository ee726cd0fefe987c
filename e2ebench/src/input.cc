#include "input.h"

#include <cstring>
#include <utility>

#include "floorplan/office_generator.h"
#include "graph/graph_builder.h"
#include "sim/experiment.h"

namespace e2e {

using ipqs::BatchQuery;
using ipqs::ObjectId;
using ipqs::Rng;

namespace {

// Dedicated random streams, so the query schedule never moves a world draw
// and each panel is a pure function of (seed, panel index).
constexpr uint64_t kKnnPointStream = 0x4b4e4e50;
constexpr uint64_t kWindowStream = 0x57494e44;
constexpr uint64_t kShuffleStream = 0x53485546;
constexpr uint64_t kSubscriptionStream = 0x53554253;

template <typename T>
void AppendPod(const T& v, std::string* out) {
  char buf[sizeof(T)];
  std::memcpy(buf, &v, sizeof(T));
  out->append(buf, sizeof(T));
}

}  // namespace

InputGenerator::InputGenerator(const Scale& scale, uint64_t seed)
    : scale_(scale), seed_(seed), world_rng_(seed) {
  plan_ = ipqs::GenerateOffice(ipqs::OfficeConfig{}).value();
  graph_ = ipqs::BuildWalkingGraph(plan_).value();
  anchors_ = std::make_unique<ipqs::AnchorPointIndex>(
      ipqs::AnchorPointIndex::Build(graph_, plan_, kAnchorSpacing));
  deployment_ = ipqs::Deployment::UniformOnHallways(plan_, graph_, kNumReaders,
                                                    kActivationRange)
                    .value();
  ipqs::TraceConfig trace;
  trace.num_objects = scale.num_objects;
  trace_ = std::make_unique<ipqs::TraceGenerator>(&graph_, &plan_, trace,
                                                  &world_rng_);
  readings_ = std::make_unique<ipqs::ReadingGenerator>(
      &deployment_, ipqs::SensingModel(ipqs::SensingConfig{}), &world_rng_);
  ground_truth_ = std::make_unique<ipqs::GroundTruth>(&graph_);

  Rng knn_rng = Rng::ForStream(seed, kKnnPointStream, 0);
  for (int i = 0; i < scale.knn_points; ++i) {
    knn_points_.push_back(
        ipqs::Experiment::RandomIndoorPoint(*anchors_, knn_rng));
  }
  Rng sub_rng = Rng::ForStream(seed, kSubscriptionStream, 0);
  const int num_range = (scale.subscriptions + 1) / 2;
  for (int i = 0; i < scale.subscriptions; ++i) {
    subscriptions_.push_back(
        i < num_range
            ? BatchQuery::Range(ipqs::Experiment::RandomWindow(
                  plan_, scale.window_area_fraction, sub_rng))
            : BatchQuery::Knn(
                  ipqs::Experiment::RandomIndoorPoint(*anchors_, sub_rng),
                  scale.k));
  }
}

Second InputGenerator::NextSecond() {
  ++now_;
  trace_->Tick();
  return Second{now_, readings_->Generate(trace_->states(), now_)};
}

std::vector<Second> InputGenerator::Warmup() {
  std::vector<Second> warmup;
  for (int i = 0; i < scale_.warmup_seconds; ++i) {
    warmup.push_back(NextSecond());
  }
  return warmup;
}

std::vector<ObjectId> InputGenerator::Truth(const BatchQuery& q) const {
  if (q.kind == BatchQuery::Kind::kRange) {
    return ipqs::GroundTruth::RangeResult(trace_->states(), q.window);
  }
  return ground_truth_->KnnResult(
      trace_->states(), graph_.NearestLocation(q.point, /*prefer_hallways=*/true),
      q.k);
}

Panel InputGenerator::MakePanel() {
  const uint64_t index = static_cast<uint64_t>(panels_made_++);
  Panel panel;
  panel.now = now_;
  Rng window_rng = Rng::ForStream(seed_, kWindowStream, index);
  for (int i = 0; i < scale_.range_windows; ++i) {
    panel.queries.push_back(BatchQuery::Range(ipqs::Experiment::RandomWindow(
        plan_, scale_.window_area_fraction, window_rng)));
  }
  for (const ipqs::Point& p : knn_points_) {
    panel.queries.push_back(BatchQuery::Knn(p, scale_.k));
  }
  Rng shuffle_rng = Rng::ForStream(seed_, kShuffleStream, index);
  for (size_t i = panel.queries.size(); i > 1; --i) {
    std::swap(panel.queries[i - 1],
              panel.queries[shuffle_rng.UniformIndex(i)]);
  }
  for (const BatchQuery& q : panel.queries) {
    panel.truths.push_back(Truth(q));
  }
  return panel;
}

std::vector<std::vector<ObjectId>> InputGenerator::SubscriptionTruths() const {
  std::vector<std::vector<ObjectId>> truths;
  for (const BatchQuery& q : subscriptions_) {
    truths.push_back(Truth(q));
  }
  return truths;
}

void AppendBytes(const Second& second, std::string* out) {
  AppendPod(second.time, out);
  AppendPod(second.readings.size(), out);
  for (const ipqs::RawReading& r : second.readings) {
    AppendPod(r.object, out);
    AppendPod(r.reader, out);
    AppendPod(r.time, out);
  }
}

void AppendBytes(const std::vector<BatchQuery>& queries, std::string* out) {
  AppendPod(queries.size(), out);
  for (const BatchQuery& q : queries) {
    AppendPod(static_cast<int>(q.kind), out);
    AppendPod(q.window.min_x, out);
    AppendPod(q.window.min_y, out);
    AppendPod(q.window.max_x, out);
    AppendPod(q.window.max_y, out);
    AppendPod(q.point.x, out);
    AppendPod(q.point.y, out);
    AppendPod(q.k, out);
  }
}

void AppendBytes(const Panel& panel, std::string* out) {
  AppendPod(panel.now, out);
  AppendBytes(panel.queries, out);
  for (const std::vector<ObjectId>& truth : panel.truths) {
    AppendPod(truth.size(), out);
    for (ObjectId id : truth) {
      AppendPod(id, out);
    }
  }
}

}  // namespace e2e
