// DistanceIndex: the anchors x readers table of exact network distances
// behind kNN pruning. Correctness = every row is bit-identical to a freshly
// computed one-to-all table sourced at its anchor; the rest is the lazy
// fill (first lookup of a row misses, later ones hit) and +inf for
// unreachable readers.

#include <bit>
#include <cmath>
#include <cstdint>
#include <limits>
#include <memory>
#include <span>
#include <vector>

#include <gtest/gtest.h>

#include "floorplan/office_generator.h"
#include "graph/anchor_points.h"
#include "graph/distance_index.h"
#include "graph/graph_builder.h"
#include "graph/shortest_path.h"
#include "query/uncertain_region.h"
#include "rfid/deployment.h"

namespace ipqs {
namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();

std::vector<GraphLocation> ReaderLocations(const Deployment& deployment) {
  std::vector<GraphLocation> locs;
  for (const Reader& r : deployment.readers()) {
    locs.push_back(r.loc);
  }
  return locs;
}

// The reference a row must reproduce bit for bit.
double Reference(const WalkingGraph& graph, const AnchorPoint& a,
                 const GraphLocation& target) {
  return OneToAllDistances(graph, GraphLocation{a.edge, a.offset})
      .ToLocation(target);
}

// The default office world: 19 readers, 1 m anchor spacing.
class DistanceIndexTest : public ::testing::Test {
 protected:
  void SetUp() override {
    plan_ = GenerateOffice(OfficeConfig{}).value();
    graph_ = BuildWalkingGraph(plan_).value();
    anchors_ = std::make_unique<AnchorPointIndex>(
        AnchorPointIndex::Build(graph_, plan_, 1.0));
    deployment_ = Deployment::UniformOnHallways(plan_, graph_, 19, 2.0).value();
  }

  FloorPlan plan_;
  WalkingGraph graph_;
  std::unique_ptr<AnchorPointIndex> anchors_;
  Deployment deployment_;
};

TEST_F(DistanceIndexTest, LookupComputesOnceThenHits) {
  DistanceIndex index(&graph_, anchors_.get(), ReaderLocations(deployment_));
  EXPECT_EQ(index.stats().hits + index.stats().misses, 0);  // Lazy rows.

  const std::span<const double> first = index.Lookup(5);
  const std::span<const double> second = index.Lookup(5);
  EXPECT_EQ(first.data(), second.data());  // One resident row.
  EXPECT_EQ(first.size(), static_cast<size_t>(deployment_.num_readers()));
  EXPECT_EQ(index.stats().misses, 1);
  EXPECT_EQ(index.stats().hits, 1);

  index.Lookup(6);
  index.Lookup(5);
  EXPECT_EQ(index.stats().misses, 2);
  EXPECT_EQ(index.stats().hits, 2);
}

TEST_F(DistanceIndexTest, TablesMatchDirectComputation) {
  DistanceIndex index(&graph_, anchors_.get(), ReaderLocations(deployment_));
  for (const AnchorPoint& a : anchors_->anchors()) {
    const std::span<const double> row = index.Lookup(a.id);
    ASSERT_EQ(row.size(), static_cast<size_t>(deployment_.num_readers()));
    const SourceDistances reference = SourceDistances::FromTable(
        OneToAllDistances(graph_, GraphLocation{a.edge, a.offset}), 0.0,
        deployment_);
    for (ReaderId r = 0; r < deployment_.num_readers(); ++r) {
      EXPECT_EQ(std::bit_cast<uint64_t>(row[r]),
                std::bit_cast<uint64_t>(reference.to_reader[r]))
          << "anchor " << a.id << " reader " << r;
    }
  }
  EXPECT_EQ(index.stats().misses, anchors_->num_anchors());
  EXPECT_EQ(index.stats().hits, 0);
}

// The targets need not be readers: any locations the table is built with
// (here a quarter of the way along every fifth edge) read bit-identical to
// OneToAllDistances::ToLocation from the row's anchor.
TEST_F(DistanceIndexTest, ArbitraryTargetsMatchOneToAllBitwise) {
  std::vector<GraphLocation> targets;
  for (EdgeId e = 0; e < graph_.num_edges() && targets.size() < 7; e += 5) {
    targets.push_back({e, graph_.edge(e).length * 0.25});
  }
  ASSERT_EQ(targets.size(), 7u);
  DistanceIndex index(&graph_, anchors_.get(), targets);
  for (AnchorId aid = 0; aid < anchors_->num_anchors(); aid += 17) {
    const AnchorPoint& a = anchors_->anchor(aid);
    const std::span<const double> row = index.Lookup(aid);
    ASSERT_EQ(row.size(), targets.size());
    for (size_t j = 0; j < targets.size(); ++j) {
      EXPECT_EQ(std::bit_cast<uint64_t>(row[j]),
                std::bit_cast<uint64_t>(Reference(graph_, a, targets[j])))
          << "anchor " << aid << " target " << j;
    }
  }
}

// Anchors sit at (i + 0.5) * length / n, strictly inside their edge, so a
// row's source is never a graph node: there is exactly one way to spell
// it, and the table needs no canonical source key.
TEST_F(DistanceIndexTest, AnchorOffsetsLieStrictlyInsideTheirEdge) {
  ASSERT_GT(anchors_->num_anchors(), 0);
  for (const AnchorPoint& a : anchors_->anchors()) {
    EXPECT_GT(a.offset, 0.0) << "anchor " << a.id;
    EXPECT_LT(a.offset, graph_.edge(a.edge).length) << "anchor " << a.id;
  }
}

// Two hallways with no connection: readers on the other component read
// +inf, readers on the anchor's own component their exact distance.
TEST_F(DistanceIndexTest, DisconnectedComponentsReadInfinity) {
  FloorPlan plan;
  const HallwayId h0 =
      plan.AddHallway(Segment({0, 0}, {10, 0}), 2.0, "south").value();
  const HallwayId h1 =
      plan.AddHallway(Segment({0, 20}, {10, 20}), 2.0, "north").value();
  WalkingGraph graph;
  const NodeId a0 =
      graph.AddNode({0, 0}, NodeKind::kHallwayEnd, kInvalidId, h0);
  const NodeId b0 =
      graph.AddNode({10, 0}, NodeKind::kHallwayEnd, kInvalidId, h0);
  const NodeId a1 =
      graph.AddNode({0, 20}, NodeKind::kHallwayEnd, kInvalidId, h1);
  const NodeId b1 =
      graph.AddNode({10, 20}, NodeKind::kHallwayEnd, kInvalidId, h1);
  const EdgeId e0 = graph.AddEdge(a0, b0, EdgeKind::kHallway, h0);
  const EdgeId e1 = graph.AddEdge(a1, b1, EdgeKind::kHallway, h1);
  ASSERT_FALSE(graph.IsConnected());
  const AnchorPointIndex anchors = AnchorPointIndex::Build(graph, plan, 1.0);

  const std::vector<GraphLocation> readers = {{e0, 3.0}, {e1, 4.0}};
  DistanceIndex index(&graph, &anchors, readers);
  for (const AnchorPoint& a : anchors.anchors()) {
    const std::span<const double> row = index.Lookup(a.id);
    const size_t own = a.edge == e0 ? 0 : 1;
    const size_t other = 1 - own;
    EXPECT_TRUE(std::isinf(row[other])) << "anchor " << a.id;
    EXPECT_TRUE(std::isfinite(row[own])) << "anchor " << a.id;
    EXPECT_EQ(row[own], Reference(graph, a, readers[own]))
        << "anchor " << a.id;
  }
}

TEST(UnreachableTargetTest, IntervalFromUnreachableReaderIsInfNotNan) {
  // An unreachable reader's distance is inf; the padded interval must stay
  // {inf, inf} (inf - finite pad must never become NaN), so kNN pruning
  // can recognize and skip it instead of ordering by garbage.
  SourceDistances dists;
  dists.slack = 0.5;
  dists.to_reader.push_back(3.0);
  dists.to_reader.push_back(kInf);
  UncertainRegion region;
  region.reader = 1;
  region.radius = 2.0;
  const DistanceInterval iv = NetworkDistanceInterval(dists, region);
  EXPECT_TRUE(std::isinf(iv.min_dist));
  EXPECT_TRUE(std::isinf(iv.max_dist));
  EXPECT_FALSE(std::isnan(iv.min_dist));
  region.reader = 0;
  const DistanceInterval finite = NetworkDistanceInterval(dists, region);
  EXPECT_DOUBLE_EQ(finite.min_dist, 0.5);
  EXPECT_DOUBLE_EQ(finite.max_dist, 5.5);
}

}  // namespace
}  // namespace ipqs
