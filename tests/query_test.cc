#include <algorithm>
#include <cmath>

#include <gtest/gtest.h>

#include "floorplan/office_generator.h"
#include "graph/anchor_graph.h"
#include "graph/graph_builder.h"
#include "query/knn_query.h"
#include "query/query_engine.h"
#include "query/range_query.h"
#include "query/uncertain_region.h"

namespace ipqs {
namespace {

class QueryFixture : public ::testing::Test {
 protected:
  void SetUp() override {
    plan_ = GenerateOffice(OfficeConfig{}).value();
    graph_ = BuildWalkingGraph(plan_).value();
    anchors_ = std::make_unique<AnchorPointIndex>(
        AnchorPointIndex::Build(graph_, plan_, 1.0));
    anchor_graph_ =
        std::make_unique<AnchorGraph>(AnchorGraph::Build(graph_, *anchors_));
    deployment_ = Deployment::UniformOnHallways(plan_, graph_, 19, 2.0).value();
    dg_ = std::make_unique<DeploymentGraph>(
        DeploymentGraph::Build(*anchors_, *anchor_graph_, deployment_));
  }

  // Exact per-reader distances from `q` (the pruning reference).
  SourceDistances ExactFrom(const GraphLocation& q) const {
    return SourceDistances::FromTable(OneToAllDistances(graph_, q), 0.0,
                                      deployment_);
  }

  // Puts the whole unit mass of `object` on the anchor nearest to `p`.
  void PlaceObjectAt(AnchorObjectTable* table, ObjectId object,
                     const Point& p) {
    const AnchorId a = anchors_->NearestToPoint(p);
    table->Set(object, AnchorDistribution::FromWeights({{a, 1.0}}));
  }

  FloorPlan plan_;
  WalkingGraph graph_;
  std::unique_ptr<AnchorPointIndex> anchors_;
  std::unique_ptr<AnchorGraph> anchor_graph_;
  Deployment deployment_;
  std::unique_ptr<DeploymentGraph> dg_;
};

TEST(QueryResultTest, AddAccumulates) {
  QueryResult r;
  r.Add(1, 0.2);
  r.Add(2, 0.15);
  r.Add(1, 0.05);
  EXPECT_NEAR(r.ProbabilityOf(1), 0.25, 1e-12);
  EXPECT_NEAR(r.ProbabilityOf(2), 0.15, 1e-12);
  EXPECT_DOUBLE_EQ(r.ProbabilityOf(3), 0.0);
  EXPECT_NEAR(r.TotalProbability(), 0.4, 1e-12);
}

TEST(QueryResultTest, TopObjectsOrdering) {
  QueryResult r;
  r.Add(1, 0.1);
  r.Add(2, 0.7);
  r.Add(3, 0.2);
  EXPECT_EQ(r.TopObjects(), (std::vector<ObjectId>{2, 3, 1}));
  EXPECT_EQ(r.TopObjects(2), (std::vector<ObjectId>{2, 3}));
  EXPECT_EQ(r.TopObjects(0), std::vector<ObjectId>{});
}

TEST_F(QueryFixture, UncertainRegionRadiusGrowsWithTime) {
  const AggregatedEntry last{100, 3};
  const auto ur0 = ComputeUncertainRegion(deployment_, 1, last, 100, 1.5);
  const auto ur10 = ComputeUncertainRegion(deployment_, 1, last, 110, 1.5);
  EXPECT_DOUBLE_EQ(ur0.radius, 2.0);          // Just the reader range.
  EXPECT_DOUBLE_EQ(ur10.radius, 2.0 + 15.0);  // + u_max * 10.
  EXPECT_EQ(ur0.center, deployment_.reader(3).pos);
}

TEST_F(QueryFixture, UncertainRegionOverlap) {
  const AggregatedEntry last{100, 3};
  const auto ur = ComputeUncertainRegion(deployment_, 1, last, 102, 1.5);
  const Point c = ur.center;
  EXPECT_TRUE(ur.Overlaps(Rect::FromCenter(c, 1, 1)));
  EXPECT_TRUE(
      ur.Overlaps(Rect::FromCenter(c + Point{ur.radius + 0.4, 0}, 1, 1)));
  EXPECT_FALSE(
      ur.Overlaps(Rect::FromCenter(c + Point{ur.radius + 2.0, 0}, 1, 1)));
}

TEST_F(QueryFixture, NetworkDistanceIntervalBracketsTruth) {
  const GraphLocation q{0, 0.5};
  const OneToAllDistances from_q(graph_, q);
  const AggregatedEntry last{100, 7};
  const auto ur = ComputeUncertainRegion(deployment_, 1, last, 105, 1.5);
  const auto interval = NetworkDistanceInterval(
      SourceDistances::FromTable(from_q, 0.0, deployment_), ur);
  EXPECT_GE(interval.min_dist, 0.0);
  EXPECT_GE(interval.max_dist, interval.min_dist);
  const double center_dist = from_q.ToLocation(deployment_.reader(7).loc);
  EXPECT_LE(interval.min_dist, center_dist);
  EXPECT_GE(interval.max_dist, center_dist);
}

TEST_F(QueryFixture, RangeCandidatesPruneFarObjects) {
  DataCollector collector;
  collector.Observe({1, 0, 100});   // Near reader 0.
  collector.Observe({2, 18, 100});  // Near reader 18 (far away).

  const Rect window = Rect::FromCenter(deployment_.reader(0).pos, 6, 6);
  const auto candidates =
      FilterRangeCandidates(collector, deployment_, {window}, 102, 1.5);
  EXPECT_EQ(candidates, (std::vector<ObjectId>{1}));
}

TEST_F(QueryFixture, RangeCandidatesKeepEveryoneWhenStale) {
  DataCollector collector;
  collector.Observe({1, 0, 100});
  collector.Observe({2, 18, 100});
  // 10 minutes later everyone's uncertain region is huge.
  const Rect window = Rect::FromCenter(deployment_.reader(0).pos, 6, 6);
  const auto candidates =
      FilterRangeCandidates(collector, deployment_, {window}, 700, 1.5);
  EXPECT_EQ(candidates.size(), 2u);
}

TEST_F(QueryFixture, KnnCandidatesRespectPruningRule) {
  DataCollector collector;
  // Objects at increasing distance from reader 0 along the deployment.
  collector.Observe({1, 0, 100});
  collector.Observe({2, 1, 100});
  collector.Observe({3, 9, 100});
  collector.Observe({4, 18, 100});

  const GraphLocation q = deployment_.reader(0).loc;
  const auto candidates =
      FilterKnnCandidates(collector, deployment_, ExactFrom(q), 1, 101, 1.5);
  // Object 1 must survive; the farthest object must be pruned.
  EXPECT_TRUE(std::find(candidates.begin(), candidates.end(), 1) !=
              candidates.end());
  EXPECT_TRUE(std::find(candidates.begin(), candidates.end(), 4) ==
              candidates.end());
}

TEST_F(QueryFixture, KnnCandidatesNeverPruneBelowK) {
  DataCollector collector;
  collector.Observe({1, 0, 100});
  collector.Observe({2, 5, 100});
  const auto candidates =
      FilterKnnCandidates(collector, deployment_,
                          ExactFrom(deployment_.reader(0).loc), 5, 101, 1.5);
  EXPECT_EQ(candidates.size(), 2u);  // Fewer objects than k: keep all.
}

TEST_F(QueryFixture, RangeQueryFindsHallwayObject) {
  AnchorObjectTable table;
  const Point spot = deployment_.reader(5).pos;  // On a hallway centerline.
  PlaceObjectAt(&table, 1, spot);

  const RangeQueryEvaluator eval(&plan_, anchors_.get());
  // Window covering the full hallway width around the spot.
  const QueryResult full = eval.Evaluate(table, Rect::FromCenter(spot, 4, 4));
  EXPECT_NEAR(full.ProbabilityOf(1), 1.0, 1e-9);

  // Window covering only half of the hallway width: probability halves.
  const Hallway& h = plan_.hallway(
      graph_.edge(anchors_->anchor(anchors_->NearestToPoint(spot)).edge)
          .hallway);
  Rect half = Rect::FromCenter(spot, 4, 4);
  if (h.IsHorizontal()) {
    half.max_y = spot.y;  // Keep the lower half.
  } else {
    half.max_x = spot.x;
  }
  const QueryResult halved = eval.Evaluate(table, half);
  EXPECT_NEAR(halved.ProbabilityOf(1), 0.5, 1e-9);
}

TEST_F(QueryFixture, RangeQueryVerticalHallwayWidthRatio) {
  // Reader 1 sits on the spine (a vertical hallway); the width axis is x.
  const Reader& r = deployment_.reader(1);
  const Edge& e = graph_.edge(r.loc.edge);
  ASSERT_EQ(e.kind, EdgeKind::kHallway);
  const Hallway& h = plan_.hallway(e.hallway);
  ASSERT_FALSE(h.IsHorizontal());

  AnchorObjectTable table;
  PlaceObjectAt(&table, 1, r.pos);
  const RangeQueryEvaluator eval(&plan_, anchors_.get());

  const QueryResult full = eval.Evaluate(table, Rect::FromCenter(r.pos, 4, 4));
  EXPECT_NEAR(full.ProbabilityOf(1), 1.0, 1e-9);

  Rect half = Rect::FromCenter(r.pos, 4, 4);
  half.max_x = r.pos.x;  // Cover only the left half of the width.
  const QueryResult halved = eval.Evaluate(table, half);
  EXPECT_NEAR(halved.ProbabilityOf(1), 0.5, 1e-9);
}

TEST_F(QueryFixture, KnnPruningKeepsTrueNeighbors) {
  // Place detections for several objects; the true nearest object's id
  // must always survive kNN pruning regardless of k.
  DataCollector collector;
  for (ReaderId r = 0; r < deployment_.num_readers(); r += 2) {
    collector.Observe({r, r, 100});
  }
  const GraphLocation q = deployment_.reader(4).loc;
  for (int k = 1; k <= 3; ++k) {
    const auto candidates = FilterKnnCandidates(collector, deployment_,
                                                ExactFrom(q), k, 103, 1.5);
    // Object 4 was last seen AT the query point: it is the closest
    // possible object and must be a candidate.
    EXPECT_TRUE(std::find(candidates.begin(), candidates.end(), 4) !=
                candidates.end())
        << "k=" << k;
  }
}

TEST_F(QueryFixture, RangeQueryMissesDistantObject) {
  AnchorObjectTable table;
  PlaceObjectAt(&table, 1, deployment_.reader(0).pos);
  const RangeQueryEvaluator eval(&plan_, anchors_.get());
  const QueryResult res =
      eval.Evaluate(table, Rect::FromCenter(deployment_.reader(18).pos, 5, 5));
  EXPECT_DOUBLE_EQ(res.ProbabilityOf(1), 0.0);
}

TEST_F(QueryFixture, RangeQueryRoomAreaRatio) {
  const Room& room = plan_.rooms()[0];
  AnchorObjectTable table;
  // All mass on the room's anchors (uniform).
  table.Set(7, AnchorDistribution::Uniform(anchors_->InRoom(room.id)));

  const RangeQueryEvaluator eval(&plan_, anchors_.get());
  // Window covering the whole room: probability 1.
  const QueryResult full = eval.Evaluate(table, room.bounds);
  EXPECT_NEAR(full.ProbabilityOf(7), 1.0, 1e-9);

  // Window covering exactly one quarter of the room's area.
  const Rect quarter(room.bounds.min_x, room.bounds.min_y,
                     room.bounds.Center().x, room.bounds.Center().y);
  const QueryResult quartered = eval.Evaluate(table, quarter);
  EXPECT_NEAR(quartered.ProbabilityOf(7), 0.25, 1e-9);
}

TEST_F(QueryFixture, RangeQuerySplitsMassAcrossContainers) {
  // Object mass split between a room and a hallway: window over the room
  // only sees the room share.
  const Room& room = plan_.rooms()[0];
  const AnchorId room_anchor = anchors_->InRoom(room.id).front();
  const AnchorId hall_anchor =
      anchors_->NearestToPoint(deployment_.reader(9).pos);
  AnchorObjectTable table;
  table.Set(1, AnchorDistribution::FromWeights(
                   {{room_anchor, 0.4}, {hall_anchor, 0.6}}));

  const RangeQueryEvaluator eval(&plan_, anchors_.get());
  const QueryResult res = eval.Evaluate(table, room.bounds);
  EXPECT_NEAR(res.ProbabilityOf(1), 0.4, 1e-9);
}

TEST_F(QueryFixture, KnnReturnsNearestMassFirst) {
  AnchorObjectTable table;
  const Point q = deployment_.reader(5).pos;
  PlaceObjectAt(&table, 1, q);                            // At the query.
  PlaceObjectAt(&table, 2, deployment_.reader(6).pos);    // ~10 m away.
  PlaceObjectAt(&table, 3, deployment_.reader(18).pos);   // Far away.

  const KnnQueryEvaluator eval(&graph_, anchors_.get(), anchor_graph_.get());
  const KnnResult res = eval.Evaluate(table, q, 2);
  EXPECT_GE(res.total_probability, 2.0);
  const auto top = res.result.TopObjects(2);
  EXPECT_EQ(top, (std::vector<ObjectId>{1, 2}));
  EXPECT_DOUBLE_EQ(res.result.ProbabilityOf(3), 0.0);
}

TEST_F(QueryFixture, KnnStopsAsSoonAsMassReached) {
  AnchorObjectTable table;
  const Point q = deployment_.reader(5).pos;
  PlaceObjectAt(&table, 1, q);
  PlaceObjectAt(&table, 2, deployment_.reader(6).pos);

  const KnnQueryEvaluator eval(&graph_, anchors_.get(), anchor_graph_.get());
  const KnnResult one = eval.Evaluate(table, q, 1);
  const KnnResult two = eval.Evaluate(table, q, 2);
  EXPECT_LT(one.anchors_searched, two.anchors_searched);
  EXPECT_EQ(one.result.objects.size(), 1u);
}

TEST_F(QueryFixture, KnnExhaustsGracefullyWhenMassShort) {
  AnchorObjectTable table;
  PlaceObjectAt(&table, 1, deployment_.reader(5).pos);
  const KnnQueryEvaluator eval(&graph_, anchors_.get(), anchor_graph_.get());
  // Asking for 5 neighbors with only 1 unit of mass: search everything,
  // return what exists.
  const KnnResult res =
      eval.Evaluate(table, deployment_.reader(5).pos, 5);
  EXPECT_EQ(res.result.objects.size(), 1u);
  EXPECT_NEAR(res.total_probability, 1.0, 1e-9);
  EXPECT_EQ(res.anchors_searched, anchors_->num_anchors());
}

TEST_F(QueryFixture, EngineMemoizesWithinTimestamp) {
  DataCollector collector;
  collector.Observe({1, 5, 100});
  collector.Observe({1, 5, 101});

  EngineConfig config;
  config.use_pruning = false;
  QueryEngine engine(&graph_, &plan_, anchors_.get(), anchor_graph_.get(),
                     &deployment_, dg_.get(), &collector, config);

  engine.EvaluateRange(Rect::FromCenter(deployment_.reader(5).pos, 6, 6), 105);
  EXPECT_EQ(engine.stats().candidates_inferred, 1);
  // Second query at the same timestamp: no new inference.
  engine.EvaluateRange(Rect::FromCenter(deployment_.reader(5).pos, 8, 8), 105);
  EXPECT_EQ(engine.stats().candidates_inferred, 1);
  // New timestamp: inference reruns.
  engine.EvaluateRange(Rect::FromCenter(deployment_.reader(5).pos, 8, 8), 110);
  EXPECT_EQ(engine.stats().candidates_inferred, 2);
}

TEST_F(QueryFixture, EngineCacheResumesAcrossTimestamps) {
  DataCollector collector;
  collector.Observe({1, 5, 100});
  collector.Observe({1, 5, 101});

  EngineConfig config;
  config.use_pruning = false;
  config.use_cache = true;
  QueryEngine engine(&graph_, &plan_, anchors_.get(), anchor_graph_.get(),
                     &deployment_, dg_.get(), &collector, config);
  engine.InferObject(1, 105);
  EXPECT_EQ(engine.stats().filter_runs, 1);
  engine.InferObject(1, 110);
  EXPECT_EQ(engine.stats().filter_runs, 1);  // Resumed, not re-run.
  EXPECT_EQ(engine.stats().filter_resumes, 1);
}

TEST_F(QueryFixture, EngineCacheFallsBackOnReadingInsideCoastHorizon) {
  // Regression (PR 1): a cached state coasted to last_reading + 60; a new
  // reading from the SAME device then arrives inside that horizon. The
  // engine must detect that resuming would drop the reading and fall back
  // to a full run — and the answer must equal a cache-less engine's.
  DataCollector collector;
  collector.Observe({1, 5, 100});
  collector.Observe({1, 5, 101});

  EngineConfig config;
  config.use_pruning = false;
  config.use_cache = true;
  QueryEngine engine(&graph_, &plan_, anchors_.get(), anchor_graph_.get(),
                     &deployment_, dg_.get(), &collector, config);
  engine.InferObject(1, 200);  // Caches a state coasted to 101 + 60 = 161.
  EXPECT_EQ(engine.stats().filter_runs, 1);

  collector.Observe({1, 5, 130});  // Same device, inside the horizon.
  const AnchorDistribution* dist = engine.InferObject(1, 250);
  ASSERT_NE(dist, nullptr);
  EXPECT_EQ(engine.stats().filter_runs, 2);  // Full run, not a resume.
  EXPECT_EQ(engine.stats().filter_resumes, 0);
  EXPECT_EQ(engine.cache_stats().stale_invalidations, 1);

  // Byte-identical to an engine that never cached anything.
  EngineConfig no_cache = config;
  no_cache.use_cache = false;
  QueryEngine fresh(&graph_, &plan_, anchors_.get(), anchor_graph_.get(),
                    &deployment_, dg_.get(), &collector, no_cache);
  const AnchorDistribution* expected = fresh.InferObject(1, 250);
  ASSERT_NE(expected, nullptr);
  EXPECT_EQ(dist->entries(), expected->entries());
}

TEST_F(QueryFixture, InferBatchMatchesSerialInferObject) {
  DataCollector collector;
  collector.Observe({1, 5, 100});
  collector.Observe({2, 7, 100});
  collector.Observe({3, 9, 101});

  EngineConfig config;
  config.use_pruning = false;
  QueryEngine batch_engine(&graph_, &plan_, anchors_.get(),
                           anchor_graph_.get(), &deployment_, dg_.get(),
                           &collector, config);
  QueryEngine serial_engine(&graph_, &plan_, anchors_.get(),
                            anchor_graph_.get(), &deployment_, dg_.get(),
                            &collector, config);

  // Batch in one (shuffled, duplicated) call vs. one-by-one in reverse
  // order: per-object streams make the results identical.
  batch_engine.InferBatch({3, 1, 2, 1, 42}, 120);  // 42 = unknown, skipped.
  for (ObjectId object : {3, 2, 1}) {
    serial_engine.InferObject(object, 120);
  }
  for (ObjectId object : {1, 2, 3}) {
    const AnchorDistribution* a = batch_engine.table().Distribution(object);
    const AnchorDistribution* b = serial_engine.table().Distribution(object);
    ASSERT_NE(a, nullptr) << "object " << object;
    ASSERT_NE(b, nullptr) << "object " << object;
    EXPECT_EQ(a->entries(), b->entries()) << "object " << object;
  }
  EXPECT_EQ(batch_engine.table().Distribution(42), nullptr);
  EXPECT_EQ(batch_engine.stats().candidates_inferred, 3);
}

TEST_F(QueryFixture, EngineWithoutCacheRerunsFilter) {
  DataCollector collector;
  collector.Observe({1, 5, 100});

  EngineConfig config;
  config.use_pruning = false;
  config.use_cache = false;
  QueryEngine engine(&graph_, &plan_, anchors_.get(), anchor_graph_.get(),
                     &deployment_, dg_.get(), &collector, config);
  engine.InferObject(1, 105);
  engine.InferObject(1, 110);
  EXPECT_EQ(engine.stats().filter_runs, 2);
  EXPECT_EQ(engine.stats().filter_resumes, 0);
}

TEST_F(QueryFixture, EngineUnknownObject) {
  DataCollector collector;
  EngineConfig config;
  QueryEngine engine(&graph_, &plan_, anchors_.get(), anchor_graph_.get(),
                     &deployment_, dg_.get(), &collector, config);
  EXPECT_EQ(engine.InferObject(42, 100), nullptr);
}

TEST_F(QueryFixture, LastReadingEngineParksAtReader) {
  DataCollector collector;
  collector.Observe({1, 5, 100});

  EngineConfig config;
  config.method = InferenceMethod::kLastReading;
  QueryEngine engine(&graph_, &plan_, anchors_.get(), anchor_graph_.get(),
                     &deployment_, dg_.get(), &collector, config);
  // Long after the reading, the naive engine still places the object at
  // reader 5's zone.
  const AnchorDistribution* dist = engine.InferObject(1, 500);
  ASSERT_NE(dist, nullptr);
  EXPECT_NEAR(dist->TotalProbability(), 1.0, 1e-9);
  const Reader& r = deployment_.reader(5);
  for (const auto& [anchor, _] : dist->entries()) {
    EXPECT_LE(Distance(anchors_->anchor(anchor).pos, r.pos), r.range + 1e-9);
  }
}

TEST_F(QueryFixture, SymbolicEngineAnswersQueriesToo) {
  DataCollector collector;
  collector.Observe({1, 5, 100});

  EngineConfig config;
  config.method = InferenceMethod::kSymbolicModel;
  QueryEngine engine(&graph_, &plan_, anchors_.get(), anchor_graph_.get(),
                     &deployment_, dg_.get(), &collector, config);
  const QueryResult res = engine.EvaluateRange(
      Rect::FromCenter(deployment_.reader(5).pos, 10, 10), 103);
  EXPECT_GT(res.ProbabilityOf(1), 0.0);
  const KnnResult knn =
      engine.EvaluateKnn(deployment_.reader(5).pos, 1, 103);
  EXPECT_EQ(knn.result.TopObjects(1), (std::vector<ObjectId>{1}));
}

}  // namespace
}  // namespace ipqs
