#include <algorithm>
#include <map>
#include <set>
#include <vector>

#include <gtest/gtest.h>

#include "query/continuous.h"
#include "query/subscription.h"
#include "sim/experiment.h"
#include "sim/simulation.h"

namespace ipqs {
namespace {

std::unique_ptr<Simulation> World() {
  SimulationConfig config;
  config.trace.num_objects = 30;
  config.seed = 777;
  std::unique_ptr<Simulation> sim = Simulation::Create(config).value();
  sim->Run(200);
  return sim;
}

class ContinuousFixture : public ::testing::Test {
 protected:
  void SetUp() override {
    sim_ = World();
    manager_ = std::make_unique<SubscriptionManager>(&sim_->pf_engine());
  }

  std::unique_ptr<Simulation> sim_;
  // Backs the monitors: every Poll serves the manager's cached answer.
  std::unique_ptr<SubscriptionManager> manager_;
};

TEST_F(ContinuousFixture, RangeMonitorReportsDeltasNotSnapshots) {
  const Rect zone = Rect::FromCenter(sim_->deployment().reader(5).pos, 12, 12);
  ContinuousRangeMonitor monitor(manager_.get(), zone, 0.5);

  const RangeUpdate first = monitor.Poll(sim_->now());
  // The very first poll reports every current member as "entered".
  EXPECT_EQ(first.entered.size(), monitor.members().size());
  EXPECT_TRUE(first.left.empty());

  // Polling again without advancing time changes nothing.
  const RangeUpdate again = monitor.Poll(sim_->now());
  EXPECT_TRUE(again.Empty());
}

TEST_F(ContinuousFixture, RangeMonitorMembershipConsistent) {
  const Rect zone = Rect::FromCenter(sim_->deployment().reader(9).pos, 14, 14);
  ContinuousRangeMonitor monitor(manager_.get(), zone, 0.4);
  for (int i = 0; i < 5; ++i) {
    sim_->Run(10);
    const RangeUpdate update = monitor.Poll(sim_->now());
    // Every reported entry is a current member above the threshold.
    for (const auto& [id, p] : update.entered) {
      EXPECT_GE(p, 0.4);
      EXPECT_TRUE(monitor.members().count(id));
    }
    // Nobody is simultaneously entered and left.
    for (ObjectId id : update.left) {
      EXPECT_FALSE(monitor.members().count(id));
      const bool also_entered =
          std::any_of(update.entered.begin(), update.entered.end(),
                      [id](const auto& e) { return e.first == id; });
      EXPECT_FALSE(also_entered);
    }
  }
}

TEST_F(ContinuousFixture, KnnMonitorTracksTopK) {
  const Point q = sim_->deployment().reader(9).pos;
  ContinuousKnnMonitor monitor(manager_.get(), q, 3);

  const KnnUpdate first = monitor.Poll(sim_->now());
  EXPECT_LE(first.current.size(), 3u);
  EXPECT_EQ(first.entered.size(), first.current.size());

  sim_->Run(20);
  const KnnUpdate second = monitor.Poll(sim_->now());
  EXPECT_LE(second.current.size(), 3u);
  // entered/left are consistent with the reported current set.
  for (ObjectId id : second.entered) {
    EXPECT_TRUE(std::find(second.current.begin(), second.current.end(), id) !=
                second.current.end());
  }
  for (ObjectId id : second.left) {
    EXPECT_TRUE(std::find(second.current.begin(), second.current.end(), id) ==
                second.current.end());
  }
}

TEST_F(ContinuousFixture, RangeDeltaReplayReconstructsMembership) {
  // The delta stream is complete: replaying every entered/left from an
  // empty set must reconstruct members()' key set after every poll. (The
  // probabilities of CONTINUING members refresh in place without an event
  // — membership is what the delta stream promises, so the replay tracks
  // the set and the entered probabilities are checked at entry time.)
  const Rect zone = Rect::FromCenter(sim_->deployment().reader(7).pos, 14, 14);
  ContinuousRangeMonitor monitor(manager_.get(), zone, 0.4);
  std::set<ObjectId> replay;
  for (int i = 0; i < 6; ++i) {
    const RangeUpdate update = monitor.Poll(sim_->now());
    for (const auto& [id, p] : update.entered) {
      EXPECT_TRUE(replay.insert(id).second) << "entered twice, poll " << i;
      // The reported entry probability is the member's current one.
      EXPECT_EQ(monitor.members().at(id), p) << "poll " << i;
    }
    for (ObjectId id : update.left) {
      EXPECT_EQ(replay.erase(id), 1u) << "left an object never entered";
    }
    std::set<ObjectId> member_keys;
    for (const auto& [id, p] : monitor.members()) {
      member_keys.insert(id);
    }
    EXPECT_TRUE(replay == member_keys) << "poll " << i;
    sim_->Run(10);
  }
}

TEST_F(ContinuousFixture, KnnDeltaReplayAndNoEnterLeaveSamePoll) {
  const Point q = sim_->deployment().reader(3).pos;
  ContinuousKnnMonitor monitor(manager_.get(), q, 3);
  std::set<ObjectId> replay;
  for (int i = 0; i < 6; ++i) {
    const KnnUpdate update = monitor.Poll(sim_->now());
    for (ObjectId id : update.entered) {
      // Nobody enters and leaves within one poll.
      EXPECT_TRUE(std::find(update.left.begin(), update.left.end(), id) ==
                  update.left.end())
          << "poll " << i;
      EXPECT_TRUE(replay.insert(id).second) << "entered twice, poll " << i;
    }
    for (ObjectId id : update.left) {
      EXPECT_EQ(replay.erase(id), 1u) << "left without entering, poll " << i;
    }
    // Replaying the deltas reconstructs the current top-k as a set.
    const std::set<ObjectId> current(update.current.begin(),
                                     update.current.end());
    EXPECT_TRUE(replay == current) << "poll " << i;
    sim_->Run(10);
  }
}

TEST_F(ContinuousFixture, SubscriptionBackedMonitorsMatchEngineBacked) {
  // A monitor served from a SubscriptionManager's cached answers must emit
  // the same deltas as diffing a direct evaluation of the same query, run
  // on a twin world (same configuration, same reading stream).
  std::unique_ptr<Simulation> twin = World();
  const Rect zone = Rect::FromCenter(sim_->deployment().reader(5).pos, 12, 12);
  const Point q = sim_->deployment().reader(9).pos;
  ContinuousRangeMonitor sub_range(manager_.get(), zone, 0.5);
  ContinuousKnnMonitor sub_knn(manager_.get(), q, 3);
  std::map<ObjectId, double> members;
  std::vector<ObjectId> current;

  for (int i = 0; i < 4; ++i) {
    const int64_t now = sim_->now();
    ASSERT_EQ(twin->now(), now);
    const RangeUpdate ru = sub_range.Poll(now);
    const KnnUpdate ku = sub_knn.Poll(now);
    const RangeUpdate want_ru = DiffRangeResult(
        twin->pf_engine().EvaluateRange(zone, now), 0.5, now, &members);
    const KnnUpdate want_ku = DiffKnnResult(
        twin->pf_engine().EvaluateKnn(q, 3, now), 3, now, &current);
    EXPECT_EQ(ru.entered, want_ru.entered) << "poll " << i;
    EXPECT_EQ(ru.left, want_ru.left) << "poll " << i;
    EXPECT_EQ(sub_range.members(), members) << "poll " << i;
    EXPECT_EQ(ku.entered, want_ku.entered) << "poll " << i;
    EXPECT_EQ(ku.left, want_ku.left) << "poll " << i;
    EXPECT_EQ(ku.current, want_ku.current) << "poll " << i;
    // Polling again within the same second is delta-free.
    EXPECT_TRUE(sub_range.Poll(now).Empty());
    EXPECT_TRUE(sub_knn.Poll(now).Empty());
    sim_->Run(10);
    twin->Run(10);
  }
  EXPECT_GT(manager_->stats().ticks, 0);
}

TEST(DiffRangeResultTest, DeltasSortedByObjectIdRegardlessOfInsertion) {
  // Regression: entered/left order must come from an explicit ObjectId
  // sort, not from the result's (probability-tied) iteration order.
  QueryResult forward;
  forward.Add(2, 0.8);
  forward.Add(5, 0.8);
  forward.Add(9, 0.8);
  QueryResult backward;
  backward.Add(9, 0.8);
  backward.Add(5, 0.8);
  backward.Add(2, 0.8);

  std::map<ObjectId, double> members_a;
  std::map<ObjectId, double> members_b;
  const RangeUpdate a = DiffRangeResult(forward, 0.5, 100, &members_a);
  const RangeUpdate b = DiffRangeResult(backward, 0.5, 100, &members_b);
  ASSERT_EQ(a.entered.size(), 3u);
  EXPECT_EQ(a.entered[0].first, 2);
  EXPECT_EQ(a.entered[1].first, 5);
  EXPECT_EQ(a.entered[2].first, 9);
  for (size_t i = 0; i < a.entered.size(); ++i) {
    EXPECT_EQ(a.entered[i].first, b.entered[i].first);
  }

  // Everyone drops below threshold: `left` is ascending too.
  QueryResult empty;
  const RangeUpdate gone = DiffRangeResult(empty, 0.5, 101, &members_a);
  EXPECT_EQ(gone.left, (std::vector<ObjectId>{2, 5, 9}));
  EXPECT_TRUE(members_a.empty());
}

TEST(DiffKnnResultTest, DeltasSortedByObjectIdOnProbabilityTies) {
  // Regression for the kNN monitor tie-break: with every probability
  // equal, the emitted entered/left sets must still be ascending by
  // ObjectId whatever order the result ranked the tie.
  KnnResult forward;
  forward.result.Add(4, 0.5);
  forward.result.Add(1, 0.5);
  forward.result.Add(8, 0.5);
  KnnResult backward;
  backward.result.Add(8, 0.5);
  backward.result.Add(4, 0.5);
  backward.result.Add(1, 0.5);

  std::vector<ObjectId> current_a;
  std::vector<ObjectId> current_b;
  const KnnUpdate a = DiffKnnResult(forward, 3, 100, &current_a);
  const KnnUpdate b = DiffKnnResult(backward, 3, 100, &current_b);
  EXPECT_EQ(a.entered, (std::vector<ObjectId>{1, 4, 8}));
  EXPECT_EQ(a.entered, b.entered);

  // The tie flips who is in the top-2: left/entered stay id-sorted.
  KnnResult next;
  next.result.Add(9, 0.7);
  next.result.Add(3, 0.7);
  std::vector<ObjectId> current = current_a;
  const KnnUpdate update = DiffKnnResult(next, 2, 101, &current);
  EXPECT_EQ(update.entered, (std::vector<ObjectId>{3, 9}));
  EXPECT_EQ(update.left, (std::vector<ObjectId>{1, 4, 8}));
}

TEST(ThresholdKnnTest, FiltersAndSorts) {
  KnnResult result;
  result.result.Add(1, 0.9);
  result.result.Add(2, 0.3);
  result.result.Add(3, 0.6);
  const auto out = ThresholdKnn(result, 0.5);
  ASSERT_EQ(out.size(), 2u);
  EXPECT_EQ(out[0].first, 1);
  EXPECT_EQ(out[1].first, 3);
  EXPECT_TRUE(ThresholdKnn(result, 0.95).empty());
}

TEST_F(ContinuousFixture, ClosestPairMatchesBruteForce) {
  // Infer everyone, then compare the evaluator against a brute-force MAP
  // pairwise scan.
  const int64_t now = sim_->now();
  for (ObjectId id : sim_->collector().KnownObjects()) {
    sim_->pf_engine().InferObject(id, now);
  }
  const AnchorObjectTable& table = sim_->pf_engine().table();
  ASSERT_GE(table.num_objects(), 2u);

  const ClosestPairEvaluator eval(&sim_->anchors(), &sim_->anchor_graph());
  const auto result = eval.Evaluate(table);
  ASSERT_TRUE(result.ok()) << result.status();

  // Brute force over MAP anchors with exact network distances.
  const auto objects = table.Objects();
  double best = 1e18;
  for (size_t i = 0; i < objects.size(); ++i) {
    const auto ti = table.Distribution(objects[i])->TopK(1);
    if (ti.empty()) continue;
    const AnchorPoint& ai = sim_->anchors().anchor(ti[0]);
    const OneToAllDistances from_i(sim_->graph(),
                                   GraphLocation{ai.edge, ai.offset});
    for (size_t j = i + 1; j < objects.size(); ++j) {
      const auto tj = table.Distribution(objects[j])->TopK(1);
      if (tj.empty()) continue;
      const AnchorPoint& aj = sim_->anchors().anchor(tj[0]);
      best = std::min(best, from_i.ToLocation({aj.edge, aj.offset}));
    }
  }
  // Anchor-graph distances route anchor-to-anchor, matching the brute
  // force within the anchor-spacing slack.
  EXPECT_NEAR(result->distance, best, 2.0 * sim_->anchors().spacing());
  EXPECT_NE(result->first, result->second);
}

TEST_F(ContinuousFixture, ClosestPairNeedsTwoObjects) {
  AnchorObjectTable table;
  const ClosestPairEvaluator eval(&sim_->anchors(), &sim_->anchor_graph());
  EXPECT_FALSE(eval.Evaluate(table).ok());
  table.Set(1, AnchorDistribution::FromWeights({{0, 1.0}}));
  EXPECT_FALSE(eval.Evaluate(table).ok());
  table.Set(2, AnchorDistribution::FromWeights({{5, 1.0}}));
  EXPECT_TRUE(eval.Evaluate(table).ok());
}

}  // namespace
}  // namespace ipqs
