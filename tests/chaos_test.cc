// Chaos suite (fault-injection framework): the FaultInjector must be a
// pure, deterministic transform of the clean reading stream, the hardened
// ingestion path must survive every fault channel without crashing or
// corrupting state, and accuracy under a degraded stream must stay inside
// a pinned envelope. Labeled `chaos` (and `statistical`) in ctest; CI runs
// it under ASan/UBSan.

#include <algorithm>
#include <cmath>
#include <memory>
#include <vector>

#include <gtest/gtest.h>

#include "faults/fault_injector.h"
#include "health/reader_health.h"
#include "query/query_engine.h"
#include "query/subscription.h"
#include "sim/experiment.h"
#include "sim/simulation.h"

namespace ipqs {
namespace {

// ---------------------------------------------------------------------------
// FaultInjector as a pure function of (plan, clean stream).

// A synthetic clean stream: `readers` readers each see one of `objects`
// tags per second (round-robin), for `seconds` seconds.
std::vector<std::vector<RawReading>> SyntheticStream(int seconds, int readers,
                                                     int objects) {
  std::vector<std::vector<RawReading>> batches;
  for (int t = 1; t <= seconds; ++t) {
    std::vector<RawReading> batch;
    for (int r = 0; r < readers; ++r) {
      RawReading reading;
      reading.object = static_cast<ObjectId>((t + r) % objects);
      reading.reader = static_cast<ReaderId>(r);
      reading.time = t;
      batch.push_back(reading);
    }
    batches.push_back(std::move(batch));
  }
  return batches;
}

FaultPlan NoisyPlan(uint64_t seed) {
  FaultPlan plan;
  plan.seed = seed;
  plan.dropout_rate = 0.15;
  plan.duplicate_rate = 0.1;
  plan.reorder_rate = 0.1;
  plan.batch_delay_rate = 0.05;
  plan.noise_burst_rate = 0.05;
  plan.max_clock_skew_seconds = 1;
  return plan;
}

bool SameReading(const RawReading& a, const RawReading& b) {
  return a.object == b.object && a.reader == b.reader && a.time == b.time;
}

TEST(FaultInjectorPurity, IdenticalPlanGivesByteIdenticalDelivery) {
  const auto batches = SyntheticStream(50, 4, 6);
  FaultInjector a(NoisyPlan(7), 4);
  FaultInjector b(NoisyPlan(7), 4);
  for (size_t i = 0; i < batches.size(); ++i) {
    const int64_t t = batches[i].front().time;
    const auto da = a.Deliver(batches[i], t);
    const auto db = b.Deliver(batches[i], t);
    ASSERT_EQ(da.size(), db.size()) << "second " << t;
    for (size_t j = 0; j < da.size(); ++j) {
      EXPECT_TRUE(SameReading(da[j], db[j])) << "second " << t;
    }
  }
  EXPECT_EQ(a.stats().injected, b.stats().injected);
  EXPECT_EQ(a.pending_size(), b.pending_size());
}

TEST(FaultInjectorPurity, DifferentSeedsProduceDifferentFaults) {
  const auto batches = SyntheticStream(50, 4, 6);
  FaultInjector a(NoisyPlan(7), 4);
  FaultInjector b(NoisyPlan(8), 4);
  bool diverged = false;
  for (const auto& batch : batches) {
    const int64_t t = batch.front().time;
    const auto da = a.Deliver(batch, t);
    const auto db = b.Deliver(batch, t);
    if (da.size() != db.size()) {
      diverged = true;
      continue;
    }
    for (size_t j = 0; j < da.size(); ++j) {
      if (!SameReading(da[j], db[j])) {
        diverged = true;
      }
    }
  }
  EXPECT_TRUE(diverged);
}

TEST(FaultInjectorChannels, DropoutOnlyConservesOrDropsEveryReading) {
  FaultPlan plan;
  plan.seed = 3;
  plan.dropout_rate = 0.3;
  FaultInjector injector(plan, 4);
  const auto batches = SyntheticStream(100, 4, 6);
  int64_t in = 0;
  int64_t out = 0;
  for (const auto& batch : batches) {
    in += static_cast<int64_t>(batch.size());
    out += static_cast<int64_t>(injector.Deliver(batch, batch[0].time).size());
  }
  EXPECT_EQ(injector.pending_size(), 0u);  // Dropout never delays.
  EXPECT_EQ(out + injector.stats().dropped, in);
  // Rate 0.3 over 400 readings: some but not all epochs down.
  EXPECT_GT(injector.stats().dropped, 0);
  EXPECT_LT(injector.stats().dropped, in);
  // The per-(reader, epoch) dropout decision is a pure function of the
  // plan: a fresh injector agrees with the one that processed the stream.
  FaultInjector probe(plan, 4);
  for (int64_t t = 1; t <= 100; t += 7) {
    for (ReaderId r = 0; r < 4; ++r) {
      EXPECT_EQ(probe.ReaderDown(r, t), injector.ReaderDown(r, t));
    }
  }
}

TEST(FaultInjectorChannels, DuplicatesAddExactlyTheCountedCopies) {
  FaultPlan plan;
  plan.seed = 5;
  plan.duplicate_rate = 0.25;
  plan.duplicate_max_delay_seconds = 2;
  FaultInjector injector(plan, 4);
  const auto batches = SyntheticStream(100, 4, 6);
  int64_t in = 0;
  int64_t out = 0;
  for (const auto& batch : batches) {
    in += static_cast<int64_t>(batch.size());
    out += static_cast<int64_t>(injector.Deliver(batch, batch[0].time).size());
  }
  out += static_cast<int64_t>(injector.Pending().size());
  EXPECT_EQ(out, in + injector.stats().duplicated);
  EXPECT_GT(injector.stats().duplicated, 0);
}

TEST(FaultInjectorChannels, ReorderDelaysButNeverLosesReadings) {
  FaultPlan plan;
  plan.seed = 11;
  plan.reorder_rate = 0.3;
  plan.reorder_max_delay_seconds = 3;
  FaultInjector injector(plan, 4);
  const auto batches = SyntheticStream(100, 4, 6);
  int64_t in = 0;
  int64_t out = 0;
  for (const auto& batch : batches) {
    in += static_cast<int64_t>(batch.size());
    out += static_cast<int64_t>(injector.Deliver(batch, batch[0].time).size());
  }
  out += static_cast<int64_t>(injector.Pending().size());
  EXPECT_EQ(out, in);
  EXPECT_GT(injector.stats().delayed, 0);
}

TEST(FaultInjectorChannels, GhostsNameOnlyTagsTheStreamHasSeen) {
  FaultPlan plan;
  plan.seed = 13;
  plan.noise_burst_rate = 0.5;
  FaultInjector injector(plan, 4);
  const auto batches = SyntheticStream(60, 4, 6);
  for (const auto& batch : batches) {
    for (const RawReading& r : injector.Deliver(batch, batch[0].time)) {
      EXPECT_GE(r.object, 0);
      EXPECT_LT(r.object, 6);
    }
  }
  EXPECT_GT(injector.stats().ghosts, 0);
}

// The ground-truth accessors on the plan are pure re-derivations of the
// injector's epoch draws: they must agree with a live injector everywhere,
// and across plan copies (detection tests measure latency against them).
TEST(FaultInjectorChannels, GroundTruthAccessorsMatchInjectorDraws) {
  FaultPlan plan;
  plan.seed = 29;
  plan.dropout_rate = 0.25;
  plan.noise_burst_rate = 0.2;
  FaultInjector injector(plan, 6);
  const FaultPlan copy = plan;
  bool any_down = false;
  bool any_up = false;
  bool any_burst = false;
  for (ReaderId r = 0; r < 6; ++r) {
    for (int64_t t = 0; t <= 400; t += 3) {
      const bool down = plan.ReaderDownAt(r, t);
      EXPECT_EQ(down, injector.ReaderDown(r, t)) << r << "@" << t;
      EXPECT_EQ(down, copy.ReaderDownAt(r, t)) << r << "@" << t;
      EXPECT_EQ(plan.GhostBurstAt(r, t), copy.GhostBurstAt(r, t))
          << r << "@" << t;
      any_down = any_down || down;
      any_up = any_up || !down;
      any_burst = any_burst || plan.GhostBurstAt(r, t);
    }
  }
  EXPECT_TRUE(any_down);
  EXPECT_TRUE(any_up);
  EXPECT_TRUE(any_burst);
  // The epoch grid: the decision is constant within one epoch.
  const int epoch = plan.dropout_epoch_seconds;
  EXPECT_EQ(plan.ReaderDownAt(2, 5 * epoch),
            plan.ReaderDownAt(2, 5 * epoch + epoch - 1));
}

TEST(FaultInjectorChannels, ClockSkewIsConstantPerReaderAndBounded) {
  FaultPlan plan;
  plan.seed = 17;
  plan.max_clock_skew_seconds = 3;
  FaultInjector injector(plan, 8);
  bool any_nonzero = false;
  for (ReaderId r = 0; r < 8; ++r) {
    const int64_t skew = injector.SkewFor(r);
    EXPECT_GE(skew, -3);
    EXPECT_LE(skew, 3);
    EXPECT_EQ(skew, injector.SkewFor(r));  // Constant, not re-drawn.
    any_nonzero = any_nonzero || skew != 0;
  }
  EXPECT_TRUE(any_nonzero);
}

TEST(FaultInjectorChannels, DeliveryIsCanonicallySorted) {
  FaultInjector injector(NoisyPlan(19), 4);
  const auto batches = SyntheticStream(60, 4, 6);
  for (const auto& batch : batches) {
    const auto delivered = injector.Deliver(batch, batch[0].time);
    for (size_t i = 1; i < delivered.size(); ++i) {
      const RawReading& a = delivered[i - 1];
      const RawReading& b = delivered[i];
      const bool ordered =
          a.time < b.time ||
          (a.time == b.time &&
           (a.reader < b.reader ||
            (a.reader == b.reader && a.object <= b.object)));
      EXPECT_TRUE(ordered) << "unsorted delivery at second "
                           << batch[0].time;
    }
  }
}

// ---------------------------------------------------------------------------
// Full-system chaos: one faulted world shared by the determinism tests.

FaultPlan WorldPlan() {
  FaultPlan plan;
  plan.seed = 77;
  plan.dropout_rate = 0.1;
  plan.duplicate_rate = 0.1;
  plan.reorder_rate = 0.1;
  plan.noise_burst_rate = 0.02;
  plan.max_clock_skew_seconds = 1;
  return plan;
}

class ChaosWorld : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    SimulationConfig config;
    config.trace.num_objects = 60;
    config.seed = 11;
    config.faults = WorldPlan();
    config.collector.reorder_window_seconds = 3;
    sim_ = Simulation::Create(config).value().release();
    sim_->Run(300);
  }
  static void TearDownTestSuite() {
    delete sim_;
    sim_ = nullptr;
  }

  static QueryEngine MakeEngine(int num_threads) {
    EngineConfig config;
    config.num_threads = num_threads;
    config.use_cache = true;
    config.use_pruning = true;
    config.seed = 99;
    return QueryEngine(&sim_->graph(), &sim_->plan(), &sim_->anchors(),
                       &sim_->anchor_graph(), &sim_->deployment(),
                       &sim_->deployment_graph(), &sim_->collector(), config);
  }

  static Simulation* sim_;
};

Simulation* ChaosWorld::sim_ = nullptr;

TEST_F(ChaosWorld, FaultsActuallyFired) {
  const FaultInjector::Stats stats = sim_->fault_stats();
  EXPECT_GT(stats.injected, 0);
  EXPECT_GT(stats.dropped, 0);
  EXPECT_GT(stats.duplicated, 0);
  EXPECT_GT(stats.delayed, 0);
  EXPECT_GT(stats.skewed, 0);
  // And the collector noticed: the reorder buffer did real work.
  EXPECT_GT(sim_->collector().ingest_stats().reordered, 0);
  EXPECT_GT(sim_->collector().ingest_stats().duplicates_dropped, 0);
}

// The acceptance criterion of the framework: the same (seed, FaultPlan)
// produces byte-identical query answers at 1, 4, and 8 threads.
TEST_F(ChaosWorld, AnswersByteIdenticalAcrossThreadCountsUnderFaults) {
  const int64_t now = sim_->now();
  const Rect window = Rect::FromCenter(sim_->deployment().reader(9).pos,
                                       14, 14);
  const Point q = sim_->deployment().reader(5).pos;

  QueryEngine baseline = MakeEngine(1);
  const QueryResult expected_range = baseline.EvaluateRange(window, now);
  const KnnResult expected_knn = baseline.EvaluateKnn(q, 3, now);
  EXPECT_FALSE(expected_range.objects.empty());

  for (const int threads : {4, 8}) {
    QueryEngine engine = MakeEngine(threads);
    const QueryResult range = engine.EvaluateRange(window, now);
    ASSERT_EQ(expected_range.objects.size(), range.objects.size());
    for (size_t i = 0; i < range.objects.size(); ++i) {
      EXPECT_EQ(expected_range.objects[i].first, range.objects[i].first);
      EXPECT_EQ(expected_range.objects[i].second, range.objects[i].second);
    }
    const KnnResult knn = engine.EvaluateKnn(q, 3, now);
    ASSERT_EQ(expected_knn.result.objects.size(), knn.result.objects.size());
    for (size_t i = 0; i < knn.result.objects.size(); ++i) {
      EXPECT_EQ(expected_knn.result.objects[i].first,
                knn.result.objects[i].first);
      EXPECT_EQ(expected_knn.result.objects[i].second,
                knn.result.objects[i].second);
    }
  }
}

TEST_F(ChaosWorld, IdenticalPlanRebuildsIdenticalCollectorState) {
  SimulationConfig config;
  config.trace.num_objects = 60;
  config.seed = 11;
  config.faults = WorldPlan();
  config.collector.reorder_window_seconds = 3;
  auto replay = Simulation::Create(config).value();
  replay->Run(300);

  const FaultInjector::Stats a = sim_->fault_stats();
  const FaultInjector::Stats b = replay->fault_stats();
  EXPECT_EQ(a.injected, b.injected);
  EXPECT_EQ(a.dropped, b.dropped);
  EXPECT_EQ(a.duplicated, b.duplicated);
  EXPECT_EQ(a.delayed, b.delayed);
  EXPECT_EQ(a.ghosts, b.ghosts);
  EXPECT_EQ(a.skewed, b.skewed);

  std::vector<ObjectId> objects = sim_->collector().KnownObjects();
  std::vector<ObjectId> replay_objects = replay->collector().KnownObjects();
  std::sort(objects.begin(), objects.end());
  std::sort(replay_objects.begin(), replay_objects.end());
  ASSERT_EQ(objects, replay_objects);
  for (ObjectId id : objects) {
    const DataCollector::ObjectHistory* ha = sim_->collector().History(id);
    const DataCollector::ObjectHistory* hb = replay->collector().History(id);
    ASSERT_NE(ha, nullptr);
    ASSERT_NE(hb, nullptr);
    EXPECT_EQ(ha->current_device, hb->current_device) << "object " << id;
    ASSERT_EQ(ha->entries.size(), hb->entries.size()) << "object " << id;
    for (size_t i = 0; i < ha->entries.size(); ++i) {
      EXPECT_EQ(ha->entries[i].time, hb->entries[i].time) << "object " << id;
      EXPECT_EQ(ha->entries[i].reader, hb->entries[i].reader)
          << "object " << id;
    }
  }
}

TEST_F(ChaosWorld, AllDistributionsNormalizedUnderFaults) {
  for (ObjectId id : sim_->collector().KnownObjects()) {
    const AnchorDistribution* pf =
        sim_->pf_engine().InferObject(id, sim_->now());
    ASSERT_NE(pf, nullptr);
    EXPECT_NEAR(pf->TotalProbability(), 1.0, 1e-9) << "object " << id;
    const AnchorDistribution* sm =
        sim_->sm_engine().InferObject(id, sim_->now());
    ASSERT_NE(sm, nullptr);
    EXPECT_NEAR(sm->TotalProbability(), 1.0, 1e-9) << "object " << id;
  }
}

// Histories must stay monotone no matter what the fault layer delivered —
// the filter's replay loop indexes readings by second and assumes it.
// Non-decreasing, not strict: two readers may legitimately see the same
// object in the same second (a handoff), with or without faults.
TEST_F(ChaosWorld, AggregatedHistoriesMonotoneUnderFaults) {
  for (ObjectId id : sim_->collector().KnownObjects()) {
    const DataCollector::ObjectHistory* h = sim_->collector().History(id);
    ASSERT_NE(h, nullptr);
    for (size_t i = 1; i < h->entries.size(); ++i) {
      EXPECT_LE(h->entries[i - 1].time, h->entries[i].time)
          << "object " << id;
    }
  }
}

// ---------------------------------------------------------------------------
// Per-channel survival: each channel alone, at high intensity, must leave
// the system queryable with normalized distributions.

struct ChannelCase {
  const char* name;
  FaultPlan plan;
};

std::vector<ChannelCase> Channels() {
  std::vector<ChannelCase> cases;
  FaultPlan p;
  p.seed = 101;
  p.dropout_rate = 0.5;
  cases.push_back({"dropout", p});
  p = FaultPlan{};
  p.seed = 102;
  p.duplicate_rate = 0.5;
  cases.push_back({"duplicates", p});
  p = FaultPlan{};
  p.seed = 103;
  p.reorder_rate = 0.5;
  p.reorder_max_delay_seconds = 3;
  cases.push_back({"reorder", p});
  p = FaultPlan{};
  p.seed = 104;
  p.batch_delay_rate = 0.3;
  p.batch_delay_seconds = 3;
  cases.push_back({"batch_delay", p});
  p = FaultPlan{};
  p.seed = 105;
  p.noise_burst_rate = 0.3;
  cases.push_back({"noise", p});
  p = FaultPlan{};
  p.seed = 106;
  p.max_clock_skew_seconds = 2;
  cases.push_back({"skew", p});
  return cases;
}

class ChannelSweep : public ::testing::TestWithParam<size_t> {};

TEST_P(ChannelSweep, SystemSurvivesChannelAtHighIntensity) {
  const ChannelCase c = Channels()[GetParam()];
  SimulationConfig config;
  config.trace.num_objects = 20;
  config.seed = 55;
  config.faults = c.plan;
  config.collector.reorder_window_seconds = 4;
  auto sim = Simulation::Create(config).value();
  sim->Run(240);
  EXPECT_GT(sim->fault_stats().injected, 0) << c.name;
  ASSERT_GT(sim->collector().num_known_objects(), 0u) << c.name;
  for (ObjectId id : sim->collector().KnownObjects()) {
    const AnchorDistribution* dist =
        sim->pf_engine().InferObject(id, sim->now());
    ASSERT_NE(dist, nullptr) << c.name;
    EXPECT_NEAR(dist->TotalProbability(), 1.0, 1e-9)
        << c.name << " object " << id;
  }
}

INSTANTIATE_TEST_SUITE_P(AllChannels, ChannelSweep,
                         ::testing::Range<size_t>(0, 6));

// With every delay bounded by the collector's reorder window, the buffer
// repairs the stream completely: nothing arrives behind the watermark.
TEST(ReorderRepair, WindowCoveringAllDelaysDropsNothing) {
  SimulationConfig config;
  config.trace.num_objects = 20;
  config.seed = 57;
  config.faults.seed = 9;
  config.faults.reorder_rate = 0.3;
  config.faults.reorder_max_delay_seconds = 2;
  config.faults.batch_delay_rate = 0.2;
  config.faults.batch_delay_seconds = 2;
  config.collector.reorder_window_seconds = 3;
  auto sim = Simulation::Create(config).value();
  sim->Run(240);
  EXPECT_GT(sim->collector().ingest_stats().reordered, 0);
  EXPECT_EQ(sim->collector().ingest_stats().late_dropped, 0);
}

// ---------------------------------------------------------------------------
// Graceful degradation: the stale cutoff and the accuracy envelope.

// Line 6 of Algorithm 2 survives faults: however long the dropout, the
// filter never advances (and never reports) past last reading +
// max_coast_seconds — no stale distribution beyond the cutoff.
TEST(StaleCutoff, FilterNeverCoastsPastMaxCoastSeconds) {
  SimulationConfig config;
  config.trace.num_objects = 20;
  config.seed = 61;
  auto sim = Simulation::Create(config).value();
  sim->Run(200);

  ObjectId victim = kInvalidId;
  for (ObjectId id : sim->collector().KnownObjects()) {
    if (!sim->collector().History(id)->entries.empty()) {
      victim = id;
      break;
    }
  }
  ASSERT_NE(victim, kInvalidId);
  const DataCollector::ObjectHistory& history =
      *sim->collector().History(victim);
  const int64_t last = history.LastTime();

  ParticleFilter filter(&sim->graph(), &sim->deployment(),
                        sim->config().filter);
  Rng rng(5);
  // An hour of silence: the filter must stop at last + 60, not at `now`.
  const FilterResult result = filter.Run(history, last + 3600, rng);
  EXPECT_EQ(result.time, last + sim->config().filter.max_coast_seconds);
  EXPECT_LE(result.seconds_processed,
            static_cast<int>(last - history.FirstTime()) +
                sim->config().filter.max_coast_seconds);
}

// Gap widening (FilterConfig::gap_position_jitter): WidenPositionAll
// diffuses hallway particles along their edge (clamped), leaves parked
// particles alone, and stays off by default.
TEST(GapWidening, WidenPositionDiffusesHallwayParticlesOnly) {
  SimulationConfig config;
  config.trace.num_objects = 5;
  config.seed = 63;
  auto sim = Simulation::Create(config).value();
  ASSERT_EQ(sim->config().filter.gap_position_jitter, 0.0);  // Off default.

  // A hallway edge long enough that the clamp rarely binds.
  EdgeId hallway = kInvalidId;
  for (EdgeId e = 0; e < static_cast<EdgeId>(sim->graph().num_edges()); ++e) {
    if (sim->graph().edge(e).kind != EdgeKind::kRoomStub &&
        sim->graph().edge(e).length > 4.0) {
      hallway = e;
      break;
    }
  }
  ASSERT_NE(hallway, kInvalidId);
  const double length = sim->graph().edge(hallway).length;

  const MotionModel motion(sim->config().filter.motion);
  const EdgeSoA edges = EdgeSoA::FromGraph(sim->graph());
  FilterArena arena;
  Rng rng(5);
  // 64 hallway particles mid-edge, then one parked in a room.
  constexpr size_t kHallway = 64;
  ParticleSoA cloud;
  cloud.Resize(kHallway + 1);
  for (size_t i = 0; i < kHallway; ++i) {
    cloud.Set(i, Particle{.loc = {hallway, length / 2}});
  }
  cloud.Set(kHallway, Particle{.loc = {hallway, 1.0}, .in_room = true});
  motion.WidenPositionAll(edges, &cloud, &arena, 0.8, rng);
  double var = 0.0;
  for (size_t i = 0; i < kHallway; ++i) {
    EXPECT_GE(cloud.offset[i], 0.0);
    EXPECT_LE(cloud.offset[i], length);
    const double d = cloud.offset[i] - length / 2;
    var += d * d;
  }
  EXPECT_GT(var / kHallway, 0.0);  // The cloud actually spread.
  // Parked particles are left alone.
  EXPECT_EQ(cloud.offset[kHallway], 1.0);

  // sigma=0 is a no-op.
  const ParticleSoA before = cloud;
  motion.WidenPositionAll(edges, &cloud, &arena, 0.0, rng);
  EXPECT_EQ(cloud, before);
}

// With the jitter armed, a long-gap filter run still completes and yields
// a normalized distribution (the end-to-end smoke for the widening path).
TEST(GapWidening, WidenedFilterRunStaysNormalizedAcrossAGap) {
  SimulationConfig config;
  config.trace.num_objects = 20;
  config.seed = 63;
  auto sim = Simulation::Create(config).value();
  sim->Run(200);

  ObjectId victim = kInvalidId;
  for (ObjectId id : sim->collector().KnownObjects()) {
    if (sim->collector().History(id)->entries.size() >= 2) {
      victim = id;
      break;
    }
  }
  ASSERT_NE(victim, kInvalidId);
  const DataCollector::ObjectHistory& history =
      *sim->collector().History(victim);

  FilterConfig widened = sim->config().filter;
  widened.gap_position_jitter = 0.8;
  ParticleFilter filter(&sim->graph(), &sim->deployment(), widened);
  Rng rng(5);
  const AnchorDistribution dist = filter.Infer(
      sim->anchors(), history, history.LastTime() + 60, rng);
  ASSERT_FALSE(dist.empty());
  EXPECT_NEAR(dist.TotalProbability(), 1.0, 1e-9);
}

// The degradation envelope of the acceptance criterion: under 20% reader
// dropout the PF's kNN hit rate stays within a pinned distance of the
// clean run, and the whole protocol completes without incident.
TEST(DegradationEnvelope, TwentyPercentDropoutStaysInsideEnvelope) {
  ExperimentConfig clean;
  clean.sim.trace.num_objects = 50;
  clean.sim.seed = 19;
  clean.warmup_seconds = 240;
  clean.num_timestamps = 6;
  clean.seconds_between_timestamps = 15;
  clean.range_queries_per_timestamp = 30;
  clean.knn_query_points = 12;

  ExperimentConfig faulted = clean;
  faulted.sim.faults.seed = 23;
  faulted.sim.faults.dropout_rate = 0.2;

  const auto clean_result = Experiment(clean).Run();
  const auto faulted_result = Experiment(faulted).Run();
  ASSERT_TRUE(clean_result.ok());
  ASSERT_TRUE(faulted_result.ok());
  EXPECT_GT(faulted_result->fault_stats.dropped, 0);

  // Pinned envelope: a fifth of all readings lost may cost some kNN hit
  // rate but must not collapse it, and the range KL may not blow up.
  EXPECT_GE(faulted_result->hit_pf, clean_result->hit_pf - 0.15);
  EXPECT_GE(faulted_result->hit_pf, 0.60);
  EXPECT_LE(faulted_result->kl_pf, clean_result->kl_pf + 1.0);
}

// ---------------------------------------------------------------------------
// Reader health under chaos: permanent death, subscription dirtying, and
// the health-gated negative-information envelope.

// A reader that dies permanently mid-run: ingestion never aborts, the
// monitor converges to dead through suspect, and the verdict then stays
// put — a reader that STAYS dead produces no further transitions.
TEST(PermanentReaderDeath, MonitorConvergesToDeadAndStaysThere) {
  ReaderHealthConfig config;
  config.enabled = true;
  config.warmup_seconds = 30;
  DataCollector collector;
  ReaderHealthMonitor monitor(config, &collector, 4);

  const auto batches = SyntheticStream(400, 4, 6);
  int64_t dead_at = -1;
  for (const auto& batch : batches) {
    const int64_t t = batch.front().time;
    for (const RawReading& reading : batch) {
      if (reading.reader == 2 && t > 120) {
        continue;  // Reader 2's power supply gives out at t=120.
      }
      collector.Observe(reading);
    }
    monitor.Tick(t);
    if (dead_at < 0 && monitor.StateOf(2) == ReaderHealth::kDead) {
      dead_at = t;
    }
  }

  EXPECT_EQ(monitor.StateOf(2), ReaderHealth::kDead);
  ASSERT_GT(dead_at, 120);
  EXPECT_LE(dead_at, 120 + 2 * monitor.SuspectWindow(2) +
                         config.dead_after_seconds);
  // Exactly one suspect -> dead descent for reader 2, nothing for the
  // survivors, and no flapping afterwards.
  EXPECT_EQ(monitor.stats().suspect, 1);
  EXPECT_EQ(monitor.stats().dead, 1);
  EXPECT_EQ(monitor.stats().probation, 0);
  std::vector<ReaderHealthTransition> log;
  bool lost = false;
  monitor.ReadTransitions(0, &log, &lost);
  ASSERT_EQ(log.size(), 2u);
  EXPECT_EQ(log[0].reader, 2);
  EXPECT_EQ(log[1].reader, 2);
  EXPECT_EQ(log.back().time, dead_at);
}

// Subscriptions over a dying reader's zone go dirty exactly on the ticks
// health transitions fire — steady death never re-dirties them. The world
// is frozen after warmup so health transitions are the ONLY dirt source,
// then the monitor watches the (now silent) collector die.
TEST(PermanentReaderDeath, SubscriptionsDirtyExactlyOnTransitionTicks) {
  SimulationConfig sim_config;
  sim_config.trace.num_objects = 60;
  sim_config.seed = 11;
  sim_config.collector.change_log_capacity = 1 << 14;
  auto sim = Simulation::Create(sim_config).value();

  ReaderHealthConfig health;
  health.enabled = true;
  health.warmup_seconds = 30;
  ReaderHealthMonitor monitor(health, &sim->collector(),
                              sim->deployment().num_readers());
  for (int s = 0; s < 300; ++s) {
    sim->Run(1);
    monitor.Tick(sim->now());
  }
  ASSERT_EQ(monitor.stats().Total(), 0);  // Healthy while the world ran.

  EngineConfig engine_config;
  engine_config.num_threads = 1;
  engine_config.use_cache = true;
  engine_config.use_pruning = true;
  engine_config.seed = 99;
  engine_config.health = &monitor;
  QueryEngine engine(&sim->graph(), &sim->plan(), &sim->anchors(),
                     &sim->anchor_graph(), &sim->deployment(),
                     &sim->deployment_graph(), &sim->collector(),
                     engine_config);
  SubscriptionManager subs(&engine);
  const Rect over_zone =
      Rect::FromCenter(sim->deployment().reader(9).pos, 10, 10);
  const SubscriptionId range_id = subs.AddRange(over_zone);
  const SubscriptionId knn_id =
      subs.AddKnn(sim->deployment().reader(5).pos, 3);

  // Freeze the world and let everything settle: histories age past
  // max_coast, uncertain regions stop growing, ticks become all-skip.
  int64_t now = sim->now();
  for (int s = 0; s < 100; ++s) {
    subs.Tick(++now);
  }
  ASSERT_EQ(subs.Tick(++now).evaluated, 0);

  // Now the monitor notices the silence. Each tick, dirty iff transitions
  // fired: the kNN subscription on any transition, the range subscription
  // when a transitioned reader's zone touches its window.
  uint64_t cursor = monitor.transition_end();
  const double zone = 2.0 * sim->config().activation_range;
  int range_dirty_ticks = 0;
  int transition_ticks = 0;
  for (int s = 0; s < 60; ++s) {
    monitor.Tick(++now);
    std::vector<ReaderHealthTransition> fired;
    bool lost = false;
    cursor = monitor.ReadTransitions(cursor, &fired, &lost);
    ASSERT_FALSE(lost);
    const SubscriptionTickResult tick = subs.Tick(now);
    bool range_dirty = false;
    bool knn_dirty = false;
    for (const SubscriptionUpdate& update : tick.updates) {
      if (update.id == range_id) {
        range_dirty = update.evaluated;
      }
      if (update.id == knn_id) {
        knn_dirty = update.evaluated;
      }
    }
    if (fired.empty()) {
      // Steady state (including steadily dead): nothing re-evaluates.
      EXPECT_FALSE(range_dirty) << "tick " << now;
      EXPECT_FALSE(knn_dirty) << "tick " << now;
      continue;
    }
    ++transition_ticks;
    EXPECT_TRUE(knn_dirty) << "tick " << now;
    bool zone_hit = false;
    for (const ReaderHealthTransition& tr : fired) {
      const Rect r = Rect::FromCenter(sim->deployment().reader(tr.reader).pos,
                                      zone, zone);
      zone_hit = zone_hit || r.Intersects(over_zone);
    }
    if (zone_hit) {
      EXPECT_TRUE(range_dirty) << "tick " << now;
    }
    range_dirty_ticks += range_dirty ? 1 : 0;
  }
  // The descent actually happened (suspect, then dead), and the range
  // subscription was dirtied at most once per transition tick.
  EXPECT_GT(monitor.stats().suspect, 0);
  EXPECT_GT(monitor.stats().dead, 0);
  EXPECT_GE(transition_ticks, 2);
  EXPECT_LE(range_dirty_ticks, transition_ticks);
  EXPECT_GE(range_dirty_ticks, 1);
}

// Health-gated negative information must not cost accuracy under dropout:
// silence from readers the monitor distrusts (or that produced nothing in
// a second) stops being treated as evidence, so the gated run's kNN hit
// rate and range KL stay no worse than the ungated run's.
TEST(DegradationEnvelope, HealthGatedNegativeInfoNoWorseThanUngated) {
  ExperimentConfig ungated;
  ungated.sim.trace.num_objects = 50;
  ungated.sim.seed = 19;
  ungated.sim.filter.measurement.use_negative_information = true;
  ungated.sim.faults.seed = 23;
  ungated.sim.faults.dropout_rate = 0.2;
  ungated.warmup_seconds = 240;
  ungated.num_timestamps = 6;
  ungated.seconds_between_timestamps = 15;
  ungated.range_queries_per_timestamp = 30;
  ungated.knn_query_points = 12;

  ExperimentConfig gated = ungated;
  gated.sim.health.enabled = true;

  const auto ungated_result = Experiment(ungated).Run();
  const auto gated_result = Experiment(gated).Run();
  ASSERT_TRUE(ungated_result.ok());
  ASSERT_TRUE(gated_result.ok());
  EXPECT_GT(gated_result->health_stats.Total(), 0);

  // The monitor's verdict is a query-time snapshot, so a currently-suspect
  // reader also loses its silence discount on replayed seconds where it
  // was actually up — a small information loss that buys the hard
  // guarantee that a dead reader's silence never penalizes particles. The
  // envelope allows that noise-level cost but nothing structural.
  EXPECT_GE(gated_result->hit_pf, ungated_result->hit_pf - 0.02);
  EXPECT_LE(gated_result->kl_pf, ungated_result->kl_pf * 1.05);
}

}  // namespace
}  // namespace ipqs
