#include <algorithm>

#include <gtest/gtest.h>

#include "query/historical.h"
#include "sim/experiment.h"
#include "sim/simulation.h"

namespace ipqs {
namespace {

TEST(HistoryStoreTest, AggregatesLikeCollector) {
  HistoryStore store;
  for (int i = 0; i < 5; ++i) {
    store.Observe({1, 0, 100});  // Same second, same reader.
  }
  store.Observe({1, 0, 101});
  ASSERT_NE(store.FullHistory(1), nullptr);
  EXPECT_EQ(store.FullHistory(1)->size(), 2u);
  EXPECT_EQ(store.TotalEntries(), 2u);
}

TEST(HistoryStoreTest, KeepsFullHistoryAcrossManyDevices) {
  HistoryStore store;
  for (int d = 0; d < 6; ++d) {
    store.Observe({1, d, 100 + 10 * d});
  }
  EXPECT_EQ(store.FullHistory(1)->size(), 6u);  // Nothing dropped.
  EXPECT_EQ(store.KnownObjects(), (std::vector<ObjectId>{1}));
}

TEST(HistoryStoreTest, SnapshotBeforeFirstReadingIsEmpty) {
  HistoryStore store;
  store.Observe({1, 0, 100});
  EXPECT_FALSE(store.SnapshotAt(1, 99).has_value());
  EXPECT_FALSE(store.SnapshotAt(2, 1000).has_value());
  EXPECT_TRUE(store.SnapshotAt(1, 100).has_value());
}

TEST(HistoryStoreTest, SnapshotKeepsTwoMostRecentEpisodes) {
  HistoryStore store;
  store.Observe({1, 0, 100});
  store.Observe({1, 0, 101});
  store.Observe({1, 1, 110});
  store.Observe({1, 2, 120});
  store.Observe({1, 2, 121});

  // As of 105: only device 0.
  auto at105 = store.SnapshotAt(1, 105);
  ASSERT_TRUE(at105.has_value());
  EXPECT_EQ(at105->current_device, 0);
  EXPECT_EQ(at105->previous_device, kInvalidId);
  EXPECT_EQ(at105->entries.size(), 2u);

  // As of 115: devices 0 and 1.
  auto at115 = store.SnapshotAt(1, 115);
  ASSERT_TRUE(at115.has_value());
  EXPECT_EQ(at115->current_device, 1);
  EXPECT_EQ(at115->previous_device, 0);
  EXPECT_EQ(at115->entries.size(), 3u);

  // As of 125: devices 1 and 2; device 0's entries dropped.
  auto at125 = store.SnapshotAt(1, 125);
  ASSERT_TRUE(at125.has_value());
  EXPECT_EQ(at125->current_device, 2);
  EXPECT_EQ(at125->previous_device, 1);
  EXPECT_EQ(at125->entries.size(), 3u);
  EXPECT_EQ(at125->FirstTime(), 110);
}

TEST(HistoryStoreTest, SnapshotMatchesLiveCollector) {
  // Feeding the same stream to both, the snapshot at the end must equal
  // the collector's live window.
  SimulationConfig config;
  config.trace.num_objects = 20;
  config.seed = 55;
  auto sim = Simulation::Create(config).value();
  sim->Run(300);

  for (ObjectId id : sim->collector().KnownObjects()) {
    const auto* live = sim->collector().History(id);
    const auto snap = sim->history().SnapshotAt(id, sim->now());
    ASSERT_TRUE(snap.has_value()) << "object " << id;
    EXPECT_EQ(snap->current_device, live->current_device);
    EXPECT_EQ(snap->previous_device, live->previous_device);
    ASSERT_EQ(snap->entries.size(), live->entries.size()) << "object " << id;
    for (size_t i = 0; i < live->entries.size(); ++i) {
      EXPECT_EQ(snap->entries[i].time, live->entries[i].time);
      EXPECT_EQ(snap->entries[i].reader, live->entries[i].reader);
    }
  }
}

class HistoricalFixture : public ::testing::Test {
 protected:
  void SetUp() override {
    SimulationConfig config;
    config.trace.num_objects = 25;
    config.seed = 66;
    sim_ = Simulation::Create(config).value();

    // Record ground truth at a past instant, then keep simulating.
    sim_->Run(250);
    past_time_ = sim_->now();
    past_states_ = sim_->true_states();
    sim_->Run(100);

    EngineConfig engine_config;
    engine_config.seed = 5;
    engine_ = std::make_unique<HistoricalEngine>(
        &sim_->graph(), &sim_->plan(), &sim_->anchors(), &sim_->anchor_graph(),
        &sim_->deployment(), &sim_->deployment_graph(), &sim_->history(),
        engine_config);
  }

  std::unique_ptr<Simulation> sim_;
  std::unique_ptr<HistoricalEngine> engine_;
  int64_t past_time_ = 0;
  std::vector<TrueObjectState> past_states_;
};

TEST_F(HistoricalFixture, RangeQueryAtPastTimeFindsPastOccupants) {
  // Query windows around where objects actually WERE at past_time_: the
  // historical engine should assign them substantial probability.
  int scored = 0;
  double prob_sum = 0.0;
  for (const TrueObjectState& s : past_states_) {
    const auto snap = sim_->history().SnapshotAt(s.id, past_time_);
    if (!snap.has_value()) continue;
    if (past_time_ - snap->LastTime() > 20) continue;  // Stale: skip.
    const Rect window = Rect::FromCenter(s.pos, 12, 12);
    const QueryResult res = engine_->EvaluateRangeAt(window, past_time_);
    prob_sum += res.ProbabilityOf(s.id);
    ++scored;
  }
  ASSERT_GT(scored, 3);
  EXPECT_GT(prob_sum / scored, 0.5);
}

TEST_F(HistoricalFixture, HistoricalDistributionsNormalized) {
  for (ObjectId id : sim_->history().KnownObjects()) {
    const AnchorDistribution* dist = engine_->InferObjectAt(id, past_time_);
    if (dist == nullptr) continue;
    EXPECT_NEAR(dist->TotalProbability(), 1.0, 1e-9);
  }
}

TEST_F(HistoricalFixture, KnnAtPastTimeUsesPastPositions) {
  // Pick an object fresh at past_time_ and ask for its own 1NN around its
  // past position: it should be in the answer.
  for (const TrueObjectState& s : past_states_) {
    const auto snap = sim_->history().SnapshotAt(s.id, past_time_);
    if (!snap.has_value() || past_time_ - snap->LastTime() > 5) continue;
    const KnnResult res = engine_->EvaluateKnnAt(s.pos, 1, past_time_);
    const auto top = res.result.TopObjects(3);
    EXPECT_TRUE(std::find(top.begin(), top.end(), s.id) != top.end())
        << "object " << s.id << " missing from its own historical 1NN";
    return;  // One fresh object suffices.
  }
  GTEST_SKIP() << "no fresh object at the recorded timestamp";
}

TEST_F(HistoricalFixture, AnswersDoNotDependOnInferenceOrder) {
  // Two engines with the same config infer every known object at the same
  // past instant, in opposite orders: each object's distribution must be
  // byte-identical, since it is a function of (seed, history, time) alone.
  EngineConfig engine_config;
  engine_config.seed = 5;
  HistoricalEngine reversed(&sim_->graph(), &sim_->plan(), &sim_->anchors(),
                            &sim_->anchor_graph(), &sim_->deployment(),
                            &sim_->deployment_graph(), &sim_->history(),
                            engine_config);
  std::vector<ObjectId> objects = sim_->history().KnownObjects();
  ASSERT_GT(objects.size(), 1u);
  for (ObjectId id : objects) {
    engine_->InferObjectAt(id, past_time_);
  }
  std::reverse(objects.begin(), objects.end());
  for (ObjectId id : objects) {
    reversed.InferObjectAt(id, past_time_);
  }
  int compared = 0;
  for (ObjectId id : objects) {
    const AnchorDistribution* a = engine_->InferObjectAt(id, past_time_);
    const AnchorDistribution* b = reversed.InferObjectAt(id, past_time_);
    ASSERT_EQ(a == nullptr, b == nullptr) << "object " << id;
    if (a == nullptr) continue;
    EXPECT_EQ(a->entries(), b->entries()) << "object " << id;
    ++compared;
  }
  EXPECT_GT(compared, 1);
}

TEST_F(HistoricalFixture, DifferentTimesGiveDifferentAnswers) {
  const Rect window =
      Rect::FromCenter(sim_->deployment().reader(9).pos, 14, 14);
  const QueryResult then = engine_->EvaluateRangeAt(window, past_time_);
  const QueryResult now = engine_->EvaluateRangeAt(window, sim_->now());
  // The building's occupancy moved in 100 s; results should differ.
  bool differs = then.objects.size() != now.objects.size();
  for (const auto& [id, p] : then.objects) {
    differs |= std::fabs(now.ProbabilityOf(id) - p) > 1e-6;
  }
  EXPECT_TRUE(differs);
}

}  // namespace
}  // namespace ipqs
