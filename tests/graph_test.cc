#include <algorithm>
#include <cmath>

#include <gtest/gtest.h>

#include "floorplan/office_generator.h"
#include "graph/graph_builder.h"
#include "graph/shortest_path.h"
#include "graph/walking_graph.h"

namespace ipqs {
namespace {

// A hand-built H-shaped graph:
//   n0 --(10)-- n1 --(10)-- n2     horizontal hallway
//                |
//               (5)
//                |
//               n3 (room center)
WalkingGraph SmallGraph() {
  WalkingGraph g;
  const NodeId n0 = g.AddNode({0, 0}, NodeKind::kHallwayEnd, kInvalidId, 0);
  const NodeId n1 = g.AddNode({10, 0}, NodeKind::kDoor, 0, 0);
  const NodeId n2 = g.AddNode({20, 0}, NodeKind::kHallwayEnd, kInvalidId, 0);
  const NodeId n3 = g.AddNode({10, 5}, NodeKind::kRoomCenter, 0, kInvalidId);
  g.AddEdge(n0, n1, EdgeKind::kHallway, 0);
  g.AddEdge(n1, n2, EdgeKind::kHallway, 0);
  g.AddEdge(n1, n3, EdgeKind::kRoomStub, kInvalidId, 0);
  return g;
}

TEST(WalkingGraphTest, BasicAccessors) {
  WalkingGraph g = SmallGraph();
  EXPECT_EQ(g.num_nodes(), 4);
  EXPECT_EQ(g.num_edges(), 3);
  EXPECT_DOUBLE_EQ(g.edge(0).length, 10.0);
  EXPECT_DOUBLE_EQ(g.edge(2).length, 5.0);
  EXPECT_EQ(g.node(1).kind, NodeKind::kDoor);
  EXPECT_EQ(g.node(1).edges.size(), 3u);
}

TEST(WalkingGraphTest, PositionOf) {
  WalkingGraph g = SmallGraph();
  EXPECT_TRUE(AlmostEqual(g.PositionOf({0, 4.0}), Point(4.0, 0.0)));
  EXPECT_TRUE(AlmostEqual(g.PositionOf({2, 2.5}), Point(10.0, 2.5)));
}

TEST(WalkingGraphTest, OtherEndAndOffsetOfNode) {
  WalkingGraph g = SmallGraph();
  EXPECT_EQ(g.OtherEnd(0, 0), 1);
  EXPECT_EQ(g.OtherEnd(0, 1), 0);
  EXPECT_DOUBLE_EQ(g.OffsetOfNode(0, 0), 0.0);
  EXPECT_DOUBLE_EQ(g.OffsetOfNode(0, 1), 10.0);
}

TEST(WalkingGraphTest, NearestLocation) {
  WalkingGraph g = SmallGraph();
  const GraphLocation loc = g.NearestLocation({4.0, 1.0});
  EXPECT_EQ(loc.edge, 0);
  EXPECT_NEAR(loc.offset, 4.0, 1e-9);

  // Near the stub; without preference it snaps to the stub.
  const GraphLocation stub = g.NearestLocation({10.2, 3.0});
  EXPECT_EQ(stub.edge, 2);
  // With hallway preference it stays on the hallway.
  const GraphLocation hall = g.NearestLocation({10.2, 3.0}, true);
  EXPECT_EQ(g.edge(hall.edge).kind, EdgeKind::kHallway);
}

TEST(WalkingGraphTest, ValidateAcceptsGoodGraph) {
  EXPECT_TRUE(SmallGraph().Validate().ok());
}

TEST(WalkingGraphTest, ValidateRejectsDisconnected) {
  WalkingGraph g = SmallGraph();
  const NodeId a = g.AddNode({100, 100}, NodeKind::kHallwayEnd, kInvalidId, 1);
  const NodeId b = g.AddNode({110, 100}, NodeKind::kHallwayEnd, kInvalidId, 1);
  g.AddEdge(a, b, EdgeKind::kHallway, 1);
  EXPECT_FALSE(g.Validate().ok());
  EXPECT_FALSE(g.IsConnected());
}

TEST(GraphBuilderTest, BuildsFromOfficePlan) {
  auto plan = GenerateOffice(OfficeConfig{});
  ASSERT_TRUE(plan.ok());
  auto graph = BuildWalkingGraph(*plan);
  ASSERT_TRUE(graph.ok()) << graph.status();
  EXPECT_TRUE(graph->Validate().ok());

  // 30 rooms -> 30 door nodes, 30 room centers, 30 stubs.
  int doors = 0;
  int rooms = 0;
  int stubs = 0;
  for (const Node& n : graph->nodes()) {
    doors += n.kind == NodeKind::kDoor;
    rooms += n.kind == NodeKind::kRoomCenter;
  }
  for (const Edge& e : graph->edges()) {
    stubs += e.kind == EdgeKind::kRoomStub;
  }
  EXPECT_EQ(doors, 30);
  EXPECT_EQ(rooms, 30);
  EXPECT_EQ(stubs, 30);
}

TEST(GraphBuilderTest, SpineWingCrossingsAreSharedNodes) {
  auto plan = GenerateOffice(OfficeConfig{});
  ASSERT_TRUE(plan.ok());
  auto graph = BuildWalkingGraph(*plan);
  ASSERT_TRUE(graph.ok());
  // The spine meets the outer wings at corner nodes (degree 2) and crosses
  // the middle wing in a T (degree 3).
  int intersections = 0;
  int t_crossings = 0;
  for (const Node& n : graph->nodes()) {
    if (n.kind == NodeKind::kIntersection) {
      ++intersections;
      EXPECT_GE(n.edges.size(), 2u);
      t_crossings += n.edges.size() >= 3u;
    }
  }
  EXPECT_EQ(intersections, 3);
  EXPECT_GE(t_crossings, 1);
}

TEST(GraphBuilderTest, RejectsOverlappingHallways) {
  FloorPlan plan;
  plan.AddHallway(Segment({0, 0}, {20, 0}), 2.0).value();
  plan.AddHallway(Segment({10, 0}, {30, 0}), 2.0).value();
  // Need a room so Validate passes the "has hallways" baseline checks.
  const RoomId r = plan.AddRoom(Rect::FromCorners({0, 1}, {10, 9})).value();
  EXPECT_TRUE(plan.AddDoor(r, 0, Point{5, 0}).ok());
  EXPECT_FALSE(BuildWalkingGraph(plan).ok());
}

TEST(ShortestPathTest, SameEdgeDistance) {
  WalkingGraph g = SmallGraph();
  EXPECT_DOUBLE_EQ(NetworkDistance(g, {0, 2.0}, {0, 7.5}), 5.5);
}

TEST(ShortestPathTest, AcrossNodes) {
  WalkingGraph g = SmallGraph();
  // From edge0@3 to edge1@4 via n1: (10-3) + 4 = 11.
  EXPECT_DOUBLE_EQ(NetworkDistance(g, {0, 3.0}, {1, 4.0}), 11.0);
  // From edge0@3 into the room stub: (10-3) + 2 = 9.
  EXPECT_DOUBLE_EQ(NetworkDistance(g, {0, 3.0}, {2, 2.0}), 9.0);
}

TEST(ShortestPathTest, DistanceIsSymmetric) {
  WalkingGraph g = SmallGraph();
  const GraphLocation a{0, 1.0};
  const GraphLocation b{2, 4.0};
  EXPECT_DOUBLE_EQ(NetworkDistance(g, a, b), NetworkDistance(g, b, a));
}

TEST(ShortestPathTest, OneToAllMatchesOneShot) {
  auto plan = GenerateOffice(OfficeConfig{});
  ASSERT_TRUE(plan.ok());
  auto graph = BuildWalkingGraph(*plan);
  ASSERT_TRUE(graph.ok());
  const GraphLocation src{0, 0.5};
  const OneToAllDistances dist(*graph, src);
  for (EdgeId e = 0; e < graph->num_edges(); e += 7) {
    const GraphLocation to{e, graph->edge(e).length / 2};
    EXPECT_NEAR(dist.ToLocation(to), NetworkDistance(*graph, src, to), 1e-9);
  }
}

TEST(ShortestPathTest, EarlyExitMatchesFullTableOnOfficePlan) {
  // Pin that the one-shot NetworkDistance() returns the exact same doubles
  // as the full one-to-all table.
  auto plan = GenerateOffice(OfficeConfig{});
  ASSERT_TRUE(plan.ok());
  auto graph = BuildWalkingGraph(*plan);
  ASSERT_TRUE(graph.ok());
  for (EdgeId fe = 0; fe < graph->num_edges(); fe += 11) {
    const GraphLocation from{fe, graph->edge(fe).length / 3};
    const OneToAllDistances table(*graph, from);
    for (EdgeId te = 0; te < graph->num_edges(); te += 7) {
      const GraphLocation to{te, graph->edge(te).length / 2};
      EXPECT_EQ(NetworkDistance(*graph, from, to), table.ToLocation(to))
          << "from edge " << fe << " to edge " << te;
    }
  }
}

TEST(ShortestPathTest, TriangleInequalityHolds) {
  auto plan = GenerateOffice(OfficeConfig{});
  ASSERT_TRUE(plan.ok());
  auto graph = BuildWalkingGraph(*plan);
  ASSERT_TRUE(graph.ok());
  const GraphLocation a{0, 1.0};
  const GraphLocation b{5, 2.0};
  const GraphLocation c{11, 0.5};
  const double ab = NetworkDistance(*graph, a, b);
  const double bc = NetworkDistance(*graph, b, c);
  const double ac = NetworkDistance(*graph, a, c);
  EXPECT_LE(ac, ab + bc + 1e-9);
}

TEST(ShortestPathTest, PathLocateConsistentWithLength) {
  WalkingGraph g = SmallGraph();
  auto path = FindShortestPath(g, {0, 3.0}, {2, 4.0});
  ASSERT_TRUE(path.ok());
  EXPECT_DOUBLE_EQ(path->Length(), 7.0 + 4.0);
  // Start and end match the endpoints.
  EXPECT_EQ(path->Start().edge, 0);
  EXPECT_NEAR(path->Start().offset, 3.0, 1e-9);
  EXPECT_EQ(path->End().edge, 2);
  EXPECT_NEAR(path->End().offset, 4.0, 1e-9);
  // Midpoint: 7 meters in is exactly node n1 -> start of the stub.
  const GraphLocation mid = path->Locate(7.0);
  const Point p = g.PositionOf(mid);
  EXPECT_TRUE(AlmostEqual(p, Point(10.0, 0.0), 1e-6));
}

TEST(ShortestPathTest, PathLocateMonotonicAlongArcLength) {
  auto plan = GenerateOffice(OfficeConfig{});
  ASSERT_TRUE(plan.ok());
  auto graph = BuildWalkingGraph(*plan);
  ASSERT_TRUE(graph.ok());
  auto path = FindShortestPath(*graph, {0, 0.2},
                               {graph->num_edges() - 1,
                                graph->edge(graph->num_edges() - 1).length / 2});
  ASSERT_TRUE(path.ok());
  ASSERT_GT(path->Length(), 1.0);
  double prev_walked = 0.0;
  Point prev = graph->PositionOf(path->Locate(0.0));
  for (double s = 0.5; s <= path->Length(); s += 0.5) {
    const Point cur = graph->PositionOf(path->Locate(s));
    // Each 0.5 m of arc length moves at most 0.5 m in space.
    EXPECT_LE(Distance(prev, cur), 0.5 + 1e-9);
    prev = cur;
    prev_walked = s;
  }
  EXPECT_GT(prev_walked, 0.0);
}

TEST(ShortestPathTest, PathLegsAreContiguous) {
  auto plan = GenerateOffice(OfficeConfig{}).value();
  auto graph = BuildWalkingGraph(plan).value();
  // Several random-ish endpoint pairs.
  for (EdgeId from_edge = 0; from_edge < graph.num_edges();
       from_edge += 11) {
    const EdgeId to_edge = (from_edge * 7 + 13) % graph.num_edges();
    const GraphLocation from{from_edge, graph.edge(from_edge).length / 3};
    const GraphLocation to{to_edge, graph.edge(to_edge).length / 2};
    auto path = FindShortestPath(graph, from, to);
    ASSERT_TRUE(path.ok());
    if (path->empty()) continue;
    // Consecutive legs meet at a shared point in space.
    for (size_t i = 0; i + 1 < path->legs().size(); ++i) {
      const PathLeg& a = path->legs()[i];
      const PathLeg& b = path->legs()[i + 1];
      const Point end_a =
          graph.edge(a.edge).geometry.AtOffset(a.to_offset);
      const Point start_b =
          graph.edge(b.edge).geometry.AtOffset(b.from_offset);
      EXPECT_TRUE(AlmostEqual(end_a, start_b, 1e-6))
          << "legs " << i << "/" << i + 1;
    }
    // Path length equals the network distance.
    EXPECT_NEAR(path->Length(), NetworkDistance(graph, from, to), 1e-9);
  }
}

TEST(ShortestPathTest, LocateAtExactBoundaries) {
  WalkingGraph g = SmallGraph();
  auto path = FindShortestPath(g, {0, 2.0}, {1, 8.0});
  ASSERT_TRUE(path.ok());
  EXPECT_EQ(path->Locate(0.0), path->Start());
  EXPECT_EQ(path->Locate(path->Length()), path->End());
  // Past-the-end clamps.
  EXPECT_EQ(path->Locate(path->Length() + 100.0), path->End());
  EXPECT_EQ(path->Locate(-5.0), path->Start());
}

TEST(ShortestPathTest, DegeneratePathSamePoint) {
  WalkingGraph g = SmallGraph();
  auto path = FindShortestPath(g, {1, 4.0}, {1, 4.0});
  ASSERT_TRUE(path.ok());
  EXPECT_TRUE(path->empty());
  EXPECT_DOUBLE_EQ(path->Length(), 0.0);
}

TEST(ShortestPathTest, DegeneratePathRoundTripsSourceLocation) {
  // A from == to path has no legs but still answers Start/End/Locate with
  // the source location instead of aborting.
  WalkingGraph g = SmallGraph();
  const GraphLocation src{1, 4.0};
  auto path = FindShortestPath(g, src, src);
  ASSERT_TRUE(path.ok());
  EXPECT_EQ(path->Start(), src);
  EXPECT_EQ(path->End(), src);
  EXPECT_EQ(path->Locate(0.0), src);
  EXPECT_EQ(path->Locate(3.0), src);  // Clamps past the (zero) length.
}

TEST(ShortestPathTest, SameEdgePath) {
  WalkingGraph g = SmallGraph();
  auto path = FindShortestPath(g, {1, 2.0}, {1, 9.0});
  ASSERT_TRUE(path.ok());
  EXPECT_DOUBLE_EQ(path->Length(), 7.0);
  EXPECT_EQ(path->legs().size(), 1u);
}

}  // namespace
}  // namespace ipqs
