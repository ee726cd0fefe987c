#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <map>
#include <set>

#include <gtest/gtest.h>

#include "common/rng.h"
#include "filter/anchor_distribution.h"
#include "filter/measurement_model.h"
#include "filter/motion_model.h"
#include "filter/particle_cache.h"
#include "filter/particle_soa.h"
#include "filter/particle_filter.h"
#include "filter/resampler.h"
#include "floorplan/office_generator.h"
#include "graph/graph_builder.h"

namespace ipqs {
namespace {

class FilterFixture : public ::testing::Test {
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

// Particle i sits on edge i with weight weights[i].
ParticleSoA MakeParticles(const std::vector<double>& weights) {
  ParticleSoA out;
  out.Resize(weights.size());
  for (size_t i = 0; i < weights.size(); ++i) {
    Particle p;
    p.loc = GraphLocation{static_cast<EdgeId>(i), 0.0};
    p.weight = weights[i];
    out.Set(i, p);
  }
  return out;
}

// Resampling from arbitrary positive weights: normalize once, then run the
// kernel (which requires pre-normalized weights).
void NormalizeAndResample(ResamplingScheme scheme, ParticleSoA* particles,
                          Rng& rng) {
  FilterArena arena;
  NormalizeWeights(particles);
  Resample(scheme, particles, &arena, rng);
}

void NormalizeAndResample(ParticleSoA* particles, Rng& rng) {
  NormalizeAndResample(ResamplingScheme::kSystematic, particles, rng);
}

TEST(ParticleTest, TotalWeightAndNormalize) {
  auto particles = MakeParticles({1.0, 3.0});
  EXPECT_DOUBLE_EQ(TotalWeight(particles), 4.0);
  NormalizeWeights(&particles);
  EXPECT_DOUBLE_EQ(particles.weight[0], 0.25);
  EXPECT_DOUBLE_EQ(particles.weight[1], 0.75);
  EXPECT_DOUBLE_EQ(TotalWeight(particles), 1.0);
}

TEST(ParticleTest, EffectiveSampleSize) {
  auto uniform = MakeParticles({0.25, 0.25, 0.25, 0.25});
  EXPECT_NEAR(EffectiveSampleSize(uniform), 4.0, 1e-12);
  auto degenerate = MakeParticles({1.0, 0.0, 0.0, 0.0});
  EXPECT_NEAR(EffectiveSampleSize(degenerate), 1.0, 1e-12);
}

TEST(ResamplerTest, PreservesCountAndUniformWeights) {
  Rng rng(1);
  auto particles = MakeParticles({0.1, 0.9, 0.5, 0.01});
  NormalizeAndResample(&particles, rng);
  ASSERT_EQ(particles.size(), 4u);
  for (const double w : particles.weight) {
    EXPECT_DOUBLE_EQ(w, 0.25);
  }
}

TEST(ResamplerTest, DropsZeroWeightParticles) {
  Rng rng(2);
  // Particle on edge 3 has zero weight; it must never survive.
  auto particles = MakeParticles({1.0, 1.0, 1.0, 0.0});
  NormalizeAndResample(&particles, rng);
  for (const EdgeId e : particles.edge) {
    EXPECT_NE(e, 3);
  }
}

TEST(ResamplerTest, ReplicatesDominantParticle) {
  Rng rng(3);
  auto particles = MakeParticles({0.0001, 0.0001, 1000.0, 0.0001});
  NormalizeAndResample(&particles, rng);
  int dominant = 0;
  for (const EdgeId e : particles.edge) {
    dominant += e == 2;
  }
  EXPECT_GE(dominant, 3);
}

TEST(ResamplerTest, ProportionalSurvival) {
  Rng rng(4);
  // 10000 resampling draws over weights 1:3 -> edge 1 should win ~75%.
  int edge1 = 0;
  const int trials = 2000;
  for (int t = 0; t < trials; ++t) {
    auto particles = MakeParticles({1.0, 3.0});
    NormalizeAndResample(&particles, rng);
    for (const EdgeId e : particles.edge) {
      edge1 += e == 1;
    }
  }
  EXPECT_NEAR(edge1 / (2.0 * trials), 0.75, 0.02);
}

TEST(ResamplerTest, SelectIndicesClampToLastParticleOnAdversarialCdf) {
  // A denormalized CDF whose total mass (0.7) falls short of the largest
  // quantiles. The cursor must clamp to the last particle instead of
  // walking past the end of the array — the historical implementation only
  // guarded the overrun with a DCHECK, so a Release build would read (and
  // select from) out-of-bounds memory.
  const std::vector<double> cdf = {0.2, 0.5, 0.7};
  const std::vector<double> quantiles = {0.1, 0.2, 0.6, 0.9, 0.99};
  std::vector<uint32_t> sel(quantiles.size(), 1234567u);
  SelectIndicesAtQuantiles(cdf, quantiles, sel.data());
  EXPECT_EQ(sel[0], 0u);
  EXPECT_EQ(sel[1], 0u);  // u == cdf[i] selects i (inclusive boundary).
  EXPECT_EQ(sel[2], 2u);
  EXPECT_EQ(sel[3], 2u);  // Past the total mass: clamped, not overrun.
  EXPECT_EQ(sel[4], 2u);
}

TEST(ResamplerTest, SoAKernelConsumesPreNormalizedWeightsUnchanged) {
  // The kernels take pre-normalized weights and must not renormalize.
  // Feeding the kernel hand-normalized weights, and normalize-then-resample
  // the same weights scaled by 8 (all powers of two, so the division is
  // bit-exact), must pick identical survivors from identical draws under
  // every scheme.
  for (const ResamplingScheme scheme :
       {ResamplingScheme::kSystematic, ResamplingScheme::kStratified,
        ResamplingScheme::kMultinomial, ResamplingScheme::kResidual}) {
    ParticleSoA soa = MakeParticles({0.25, 0.5, 0.125, 0.125});
    FilterArena arena;
    Rng rng_soa(77);
    Resample(scheme, &soa, &arena, rng_soa);

    auto scaled = MakeParticles({2.0, 4.0, 1.0, 1.0});
    Rng rng_scaled(77);
    NormalizeAndResample(scheme, &scaled, rng_scaled);

    EXPECT_EQ(soa, scaled) << ToString(scheme);
    for (const double w : scaled.weight) {
      EXPECT_DOUBLE_EQ(w, 0.25) << ToString(scheme);
    }
  }
}

TEST(ParticleSoATest, RoundTripAndReductionsAreBitExact) {
  // Set -> Get must be a bit-exact round trip, and the reductions must
  // match a scalar reference over the particles exactly (ascending index
  // summation order), for an arbitrary particle population.
  Rng rng(99);
  std::vector<Particle> particles;
  for (int i = 0; i < 257; ++i) {
    Particle p;
    p.loc = GraphLocation{static_cast<EdgeId>(rng.UniformIndex(50)),
                          rng.Uniform(0.0, 30.0)};
    p.heading = static_cast<NodeId>(rng.UniformIndex(40));
    p.speed = rng.Gaussian(1.0, 0.4);
    p.weight = rng.Uniform(1e-9, 2.0);
    p.in_room = rng.Bernoulli(0.3);
    particles.push_back(p);
  }

  ParticleSoA soa;
  soa.Resize(particles.size());
  for (size_t i = 0; i < particles.size(); ++i) {
    soa.Set(i, particles[i]);
  }
  double total = 0.0;
  double sum_sq = 0.0;
  for (size_t i = 0; i < particles.size(); ++i) {
    EXPECT_EQ(soa.Get(i), particles[i]) << i;
    total += particles[i].weight;
    sum_sq += particles[i].weight * particles[i].weight;
  }
  EXPECT_EQ(TotalWeight(soa), total);
  EXPECT_EQ(EffectiveSampleSize(soa), 1.0 / sum_sq);

  NormalizeWeights(&soa);
  for (size_t i = 0; i < particles.size(); ++i) {
    EXPECT_EQ(soa.weight[i], particles[i].weight / total) << i;
  }
}

class ResamplingSchemeSweep
    : public ::testing::TestWithParam<ResamplingScheme> {};

TEST_P(ResamplingSchemeSweep, ContractHolds) {
  Rng rng(17);
  auto particles = MakeParticles({0.5, 0.01, 2.0, 0.0, 0.7});
  NormalizeAndResample(GetParam(), &particles, rng);
  ASSERT_EQ(particles.size(), 5u);
  for (size_t i = 0; i < particles.size(); ++i) {
    EXPECT_DOUBLE_EQ(particles.weight[i], 0.2);
    EXPECT_NE(particles.edge[i], 3);  // Zero-weight particle never survives.
  }
}

TEST_P(ResamplingSchemeSweep, ProportionalSurvival) {
  Rng rng(18);
  int edge1 = 0;
  const int trials = 3000;
  for (int t = 0; t < trials; ++t) {
    auto particles = MakeParticles({1.0, 3.0});
    NormalizeAndResample(GetParam(), &particles, rng);
    for (const EdgeId e : particles.edge) {
      edge1 += e == 1;
    }
  }
  EXPECT_NEAR(edge1 / (2.0 * trials), 0.75, 0.03)
      << ToString(GetParam());
}

TEST_P(ResamplingSchemeSweep, DominantParticleTakesOver) {
  Rng rng(19);
  auto particles = MakeParticles({1e-9, 1e-9, 1.0, 1e-9});
  NormalizeAndResample(GetParam(), &particles, rng);
  int dominant = 0;
  for (const EdgeId e : particles.edge) {
    dominant += e == 2;
  }
  EXPECT_EQ(dominant, 4) << ToString(GetParam());
}

INSTANTIATE_TEST_SUITE_P(Schemes, ResamplingSchemeSweep,
                         ::testing::Values(ResamplingScheme::kSystematic,
                                           ResamplingScheme::kStratified,
                                           ResamplingScheme::kMultinomial,
                                           ResamplingScheme::kResidual));

TEST_F(FilterFixture, AdaptiveResamplingSkipsHealthySets) {
  // With ess_fraction = 0, resampling never triggers: weights stay
  // non-uniform after an observation.
  FilterConfig config;
  config.resample_ess_fraction = 0.0;
  const ParticleFilter filter(&graph_, &deployment_, config);
  Rng rng(20);
  DataCollector::ObjectHistory history;
  history.entries = {{100, 0}, {102, 0}};
  history.current_device = 0;
  const FilterResult result = filter.Run(history, 103, rng);
  // Weights are normalized but not uniform (in-range vs out-of-range).
  double min_w = 1.0;
  double max_w = 0.0;
  for (const double w : result.particles.weight) {
    min_w = std::min(min_w, w);
    max_w = std::max(max_w, w);
  }
  EXPECT_LT(min_w, max_w);
  EXPECT_NEAR(TotalWeight(result.particles), 1.0, 1e-9);
}

TEST_F(FilterFixture, MotionSampleSpeedTruncated) {
  MotionConfig config;
  config.min_speed = 0.9;
  const MotionModel model(config);
  Rng rng(5);
  for (int i = 0; i < 1000; ++i) {
    EXPECT_GE(model.SampleSpeed(rng), 0.9);
  }
}

// Advances one particle by one second through the batch predict kernel.
void StepOne(const MotionModel& model, const WalkingGraph& graph,
             const EdgeSoA& edges, Particle* p, Rng& rng) {
  ParticleSoA soa;
  soa.Resize(1);
  soa.Set(0, *p);
  FilterArena arena;
  model.StepAll(graph, edges, &soa, &arena, 1.0, rng);
  *p = soa.Get(0);
}

TEST_F(FilterFixture, MotionStepCoversExactDistanceOnOpenEdge) {
  const MotionModel model;
  const EdgeSoA edges = EdgeSoA::FromGraph(graph_);
  Rng rng(6);
  // Find a long hallway edge.
  EdgeId long_edge = kInvalidId;
  for (const Edge& e : graph_.edges()) {
    if (e.kind == EdgeKind::kHallway && e.length >= 8.0) {
      long_edge = e.id;
      break;
    }
  }
  ASSERT_NE(long_edge, kInvalidId);
  Particle p;
  p.loc = GraphLocation{long_edge, 1.0};
  p.heading = graph_.edge(long_edge).b;
  p.speed = 1.2;
  const Point before = graph_.PositionOf(p.loc);
  StepOne(model, graph_, edges, &p, rng);
  const Point after = graph_.PositionOf(p.loc);
  EXPECT_NEAR(Distance(before, after), 1.2, 1e-9);
}

TEST_F(FilterFixture, MotionParksInRoom) {
  MotionConfig config;
  config.room_enter_probability = 1.0;  // Always turn into rooms.
  const MotionModel model(config);
  const EdgeSoA edges = EdgeSoA::FromGraph(graph_);
  Rng rng(7);
  // Start right before a door node heading toward it.
  const Edge* stub = nullptr;
  for (const Edge& e : graph_.edges()) {
    if (e.kind == EdgeKind::kRoomStub) {
      stub = &e;
      break;
    }
  }
  ASSERT_NE(stub, nullptr);
  const NodeId door = graph_.node(stub->a).kind == NodeKind::kDoor
                          ? stub->a
                          : stub->b;
  // Particle on the stub heading into the room.
  Particle p;
  p.loc = GraphLocation{stub->id, graph_.OffsetOfNode(stub->id, door)};
  p.heading = graph_.OtherEnd(stub->id, door);
  p.speed = 1.0;
  for (int i = 0; i < 20 && !p.in_room; ++i) {
    StepOne(model, graph_, edges, &p, rng);
  }
  EXPECT_TRUE(p.in_room);
  // Parked at the room-center end of the stub.
  EXPECT_EQ(p.loc.edge, stub->id);
}

TEST_F(FilterFixture, RoomExitIsGeometric) {
  MotionConfig config;
  config.room_exit_probability = 0.25;
  const MotionModel model(config);
  const EdgeSoA edges = EdgeSoA::FromGraph(graph_);
  Rng rng(8);
  const Edge* stub = nullptr;
  for (const Edge& e : graph_.edges()) {
    if (e.kind == EdgeKind::kRoomStub) {
      stub = &e;
      break;
    }
  }
  ASSERT_NE(stub, nullptr);
  const NodeId room_node = graph_.node(stub->a).kind == NodeKind::kRoomCenter
                               ? stub->a
                               : stub->b;
  int exits = 0;
  const int trials = 4000;
  for (int t = 0; t < trials; ++t) {
    Particle p;
    p.loc = GraphLocation{stub->id, graph_.OffsetOfNode(stub->id, room_node)};
    p.in_room = true;
    p.speed = 1.0;
    p.heading = room_node;
    StepOne(model, graph_, edges, &p, rng);
    exits += !p.in_room;
  }
  EXPECT_NEAR(exits / static_cast<double>(trials), 0.25, 0.03);
}

// Pearson chi-square statistic for observed counts against expected
// probabilities (any bin with tiny expectation would destabilize the
// statistic; callers keep expected mass per bin comfortably large).
double ChiSquare(const std::vector<int>& observed,
                 const std::vector<double>& expected_probability, int n) {
  double stat = 0.0;
  for (size_t i = 0; i < observed.size(); ++i) {
    const double expected = n * expected_probability[i];
    const double d = observed[i] - expected;
    stat += d * d / expected;
  }
  return stat;
}

// P(Z <= z) for standard normal.
double NormalCdf(double z) { return 0.5 * (1.0 + std::erf(z / std::sqrt(2.0))); }

TEST_F(FilterFixture, SampleSpeedMatchesConfiguredGaussian) {
  // The paper's objects walk at speeds drawn from N(1.0, 0.1) m/s. A
  // chi-square goodness-of-fit test at a fixed seed pins SampleSpeed to
  // that distribution (the min_speed truncation at 0.3 is 7 sigma out and
  // contributes nothing measurable).
  const MotionModel model{MotionConfig{}};
  Rng rng(42);
  const int n = 10000;
  // Bins bounded by mu + k*sigma for k = -1.5, -1, -0.5, 0, 0.5, 1, 1.5.
  const std::vector<double> ks = {-1.5, -1.0, -0.5, 0.0, 0.5, 1.0, 1.5};
  std::vector<double> expected;
  expected.push_back(NormalCdf(ks.front()));
  for (size_t i = 1; i < ks.size(); ++i) {
    expected.push_back(NormalCdf(ks[i]) - NormalCdf(ks[i - 1]));
  }
  expected.push_back(1.0 - NormalCdf(ks.back()));

  std::vector<int> observed(expected.size(), 0);
  for (int i = 0; i < n; ++i) {
    const double z = (model.SampleSpeed(rng) - 1.0) / 0.1;
    size_t bin = 0;
    while (bin < ks.size() && z > ks[bin]) {
      ++bin;
    }
    ++observed[bin];
  }
  // df = 7; the 99.9th percentile of chi-square(7) is 24.32. A fixed seed
  // makes this exact, the generous threshold makes it robust to stdlib
  // changes in std::normal_distribution's draw order.
  EXPECT_LT(ChiSquare(observed, expected, n), 24.32);
}

TEST_F(FilterFixture, RoomDwellTimesAreGeometric) {
  // Room dwell: each second a parked particle leaves with probability 0.1
  // (the paper's default), so complete dwell durations must follow
  // Geometric(0.1) — not just match the one-step exit rate.
  const MotionConfig config;  // room_exit_probability = 0.1.
  ASSERT_DOUBLE_EQ(config.room_exit_probability, 0.1);
  const MotionModel model(config);
  const EdgeSoA edges = EdgeSoA::FromGraph(graph_);
  Rng rng(43);
  const Edge* stub = nullptr;
  for (const Edge& e : graph_.edges()) {
    if (e.kind == EdgeKind::kRoomStub) {
      stub = &e;
      break;
    }
  }
  ASSERT_NE(stub, nullptr);
  const NodeId room_node = graph_.node(stub->a).kind == NodeKind::kRoomCenter
                               ? stub->a
                               : stub->b;

  // Dwell durations binned at 1..12 seconds plus a tail bin.
  const double p = 0.1;
  const int tail_after = 12;
  std::vector<double> expected;
  for (int t = 1; t <= tail_after; ++t) {
    expected.push_back(p * std::pow(1.0 - p, t - 1));
  }
  expected.push_back(std::pow(1.0 - p, tail_after));

  const int trials = 5000;
  std::vector<int> observed(expected.size(), 0);
  for (int trial = 0; trial < trials; ++trial) {
    Particle particle;
    particle.loc =
        GraphLocation{stub->id, graph_.OffsetOfNode(stub->id, room_node)};
    particle.in_room = true;
    particle.speed = 1.0;
    particle.heading = room_node;
    int dwell = 0;
    while (particle.in_room && dwell < 10000) {
      StepOne(model, graph_, edges, &particle, rng);
      ++dwell;
    }
    observed[std::min(dwell, tail_after + 1) - 1] += 1;
  }
  // df = 12; the 99.9th percentile of chi-square(12) is 32.91.
  EXPECT_LT(ChiSquare(observed, expected, trials), 32.91);
}

TEST_F(FilterFixture, ChooseNextEdgeNeverUturnsMidGraph) {
  const MotionModel model;
  Rng rng(9);
  for (const Node& n : graph_.nodes()) {
    if (n.edges.size() < 2) {
      continue;
    }
    const EdgeId incoming = n.edges.front();
    for (int i = 0; i < 20; ++i) {
      EXPECT_NE(model.ChooseNextEdge(graph_, n.id, incoming, rng), incoming);
    }
  }
}

TEST_F(FilterFixture, ChooseNextEdgeUturnsAtDeadEnd) {
  const MotionModel model;
  Rng rng(10);
  for (const Node& n : graph_.nodes()) {
    if (n.edges.size() == 1) {
      EXPECT_EQ(model.ChooseNextEdge(graph_, n.id, n.edges[0], rng),
                n.edges[0]);
    }
  }
}

TEST_F(FilterFixture, MeasurementWeights) {
  const MeasurementModel model;
  const Reader& r = deployment_.reader(0);
  EXPECT_DOUBLE_EQ(model.WeightOnDetection(deployment_, r.pos, 0), 1.0);
  EXPECT_DOUBLE_EQ(
      model.WeightOnDetection(deployment_, Point{1000, 1000}, 0), 1e-6);
  // Silence is uninformative by default.
  EXPECT_DOUBLE_EQ(model.WeightOnSilence(deployment_, r.pos), 1.0);
}

TEST_F(FilterFixture, MeasurementNegativeInformation) {
  MeasurementConfig config;
  config.use_negative_information = true;
  config.silent_zone_weight = 0.2;
  const MeasurementModel model(config);
  const Reader& r = deployment_.reader(0);
  EXPECT_DOUBLE_EQ(model.WeightOnSilence(deployment_, r.pos), 0.2);
  EXPECT_DOUBLE_EQ(model.WeightOnSilence(deployment_, Point{1000, 1000}),
                   1.0);
}

TEST_F(FilterFixture, InitializeAtReaderPlacesParticlesInRange) {
  FilterConfig config;
  config.num_particles = 128;
  const ParticleFilter filter(&graph_, &deployment_, config);
  Rng rng(11);
  ParticleSoA particles;
  filter.InitializeAtReader(3, rng, &particles);
  ASSERT_EQ(particles.size(), 128u);
  const Reader& r = deployment_.reader(3);
  for (size_t i = 0; i < particles.size(); ++i) {
    const Particle p = particles.Get(i);
    EXPECT_LE(Distance(graph_.PositionOf(p.loc), r.pos), r.range + 1e-6);
    EXPECT_DOUBLE_EQ(p.weight, 1.0 / 128);
    EXPECT_GT(p.speed, 0.0);
    const Edge& e = graph_.edge(p.loc.edge);
    EXPECT_TRUE(p.heading == e.a || p.heading == e.b);
  }
}

DataCollector::ObjectHistory MakeHistory(
    std::initializer_list<AggregatedEntry> entries) {
  DataCollector::ObjectHistory h;
  h.entries = entries;
  h.current_device = h.entries.back().reader;
  return h;
}

TEST_F(FilterFixture, RunStopsAtCoastLimit) {
  FilterConfig config;
  config.max_coast_seconds = 60;
  const ParticleFilter filter(&graph_, &deployment_, config);
  Rng rng(12);
  const auto history = MakeHistory({{100, 0}, {101, 0}});
  const FilterResult result = filter.Run(history, 1000, rng);
  EXPECT_EQ(result.time, 161);  // td + 60.
  EXPECT_EQ(result.seconds_processed, 61);
  EXPECT_EQ(result.particles.size(), 64u);
}

TEST_F(FilterFixture, RunStopsAtNow) {
  const ParticleFilter filter(&graph_, &deployment_, FilterConfig{});
  Rng rng(13);
  const auto history = MakeHistory({{100, 0}, {101, 0}});
  const FilterResult result = filter.Run(history, 110, rng);
  EXPECT_EQ(result.time, 110);
}

TEST_F(FilterFixture, FilterLearnsDirection) {
  // Find two consecutive readers on the same wing (a straight stretch).
  ReaderId a = kInvalidId;
  ReaderId b = kInvalidId;
  for (int i = 0; i + 1 < deployment_.num_readers(); ++i) {
    const Point pa = deployment_.reader(i).pos;
    const Point pb = deployment_.reader(i + 1).pos;
    if (std::fabs(pa.y - pb.y) < 1e-9 && pb.x > pa.x) {
      a = i;
      b = i + 1;
      break;
    }
  }
  ASSERT_NE(a, kInvalidId);
  const double step = Distance(deployment_.reader(a).pos,
                               deployment_.reader(b).pos);

  // The object walked from a to b at ~1 m/s, then kept going 5 more
  // seconds. Particles should be concentrated beyond b, not back toward a.
  const int64_t t_at_a = 100;
  const int64_t t_at_b = t_at_a + static_cast<int64_t>(step);
  const auto history = MakeHistory({{t_at_a, a},
                                    {t_at_a + 1, a},
                                    {t_at_b, b},
                                    {t_at_b + 1, b}});
  FilterConfig config;
  config.num_particles = 512;
  const ParticleFilter filter(&graph_, &deployment_, config);
  Rng rng(14);
  const FilterResult result = filter.Run(history, t_at_b + 6, rng);

  const double xb = deployment_.reader(b).pos.x;
  int forward = 0;
  int backward = 0;
  for (size_t i = 0; i < result.particles.size(); ++i) {
    const Point pos = graph_.PositionOf(result.particles.Get(i).loc);
    if (pos.x > xb + 1.0) ++forward;
    if (pos.x < xb - 1.0) ++backward;
  }
  EXPECT_GT(forward, backward * 2)
      << "forward=" << forward << " backward=" << backward;
}

TEST_F(FilterFixture, ContradictoryObservationReseedsCloud) {
  // History that teleports: detections at reader 0 (spine), then a second
  // later at a reader on the far wing. No particle can cover that distance,
  // so the filter must re-seed at the new reader instead of keeping a
  // stale cloud.
  ReaderId far_reader = kInvalidId;
  for (const Reader& r : deployment_.readers()) {
    if (Distance(r.pos, deployment_.reader(0).pos) > 40.0) {
      far_reader = r.id;
      break;
    }
  }
  ASSERT_NE(far_reader, kInvalidId);

  DataCollector::ObjectHistory history;
  history.entries = {{100, 0}, {101, 0}, {102, far_reader}};
  history.current_device = far_reader;
  history.previous_device = 0;

  const ParticleFilter filter(&graph_, &deployment_, FilterConfig{});
  Rng rng(23);
  const FilterResult result = filter.Run(history, 103, rng);
  // The cloud must be concentrated near the far reader now.
  const Point far_pos = deployment_.reader(far_reader).pos;
  int near = 0;
  for (size_t i = 0; i < result.particles.size(); ++i) {
    near += Distance(graph_.PositionOf(result.particles.Get(i).loc),
                     far_pos) < 8.0;
  }
  EXPECT_GT(near, static_cast<int>(result.particles.size()) / 2);
}

TEST_F(FilterFixture, ReseedIncrementsCounterAndRecordsWeightStage) {
  // Teleporting history with the contradiction landing on a timed second
  // (timestamp divisible by 4): the re-seed must bump pf.reseed_total AND
  // record the update-stage elapsed time. The old path `continue`d past
  // both, so weight_ns was silently biased low on exactly the seconds
  // where the filter struggled.
  ReaderId far_reader = kInvalidId;
  for (const Reader& r : deployment_.readers()) {
    if (Distance(r.pos, deployment_.reader(0).pos) > 40.0) {
      far_reader = r.id;
      break;
    }
  }
  ASSERT_NE(far_reader, kInvalidId);
  const auto history = MakeHistory({{100, 0}, {101, 0}, {104, far_reader}});

  obs::Counter reseeds;
  obs::Histogram predict_ns;
  obs::Histogram weight_ns;
  FilterMetrics metrics;
  metrics.predict_ns = &predict_ns;  // Enables stage timing.
  metrics.weight_ns = &weight_ns;
  metrics.reseeds = &reseeds;

  ParticleFilter filter(&graph_, &deployment_, FilterConfig{});
  filter.SetMetrics(metrics);
  Rng rng(23);
  filter.Run(history, 105, rng);

  EXPECT_EQ(reseeds.Value(), 1);
  // Second 101 reweights but is not timed (101 & 3 != 0); second 104 is
  // timed and re-seeds, so the single weight-stage sample is the re-seed.
  EXPECT_EQ(weight_ns.snapshot().count, 1);
}

TEST_F(FilterFixture, RoughenHasItsOwnStageTimerAndTimersAreObservational) {
  // Detections on timed seconds (multiples of 4) resample and roughen;
  // each such second records one resample_ns and one roughen_ns sample,
  // so resample_ns no longer includes roughening. The timers only observe:
  // the run's particles are identical with metrics on and off.
  const auto history = MakeHistory({{100, 3}, {101, 3}, {102, 3}, {103, 3},
                                    {104, 3}, {105, 3}, {106, 3}, {107, 3},
                                    {108, 3}});
  obs::Histogram predict_ns;
  obs::Histogram resample_ns;
  obs::Histogram roughen_ns;
  FilterMetrics metrics;
  metrics.predict_ns = &predict_ns;
  metrics.resample_ns = &resample_ns;
  metrics.roughen_ns = &roughen_ns;

  ParticleFilter timed(&graph_, &deployment_, FilterConfig{});
  timed.SetMetrics(metrics);
  const ParticleFilter plain(&graph_, &deployment_, FilterConfig{});
  Rng rng_timed(29);
  Rng rng_plain(29);
  const FilterResult with_timers = timed.Run(history, 112, rng_timed);
  const FilterResult without = plain.Run(history, 112, rng_plain);

  EXPECT_EQ(with_timers, without);
  // Timed seconds 104, 108, 112; detections (hence resampling) at 104 and
  // 108, coasting at 112.
  EXPECT_EQ(predict_ns.snapshot().count, 3);
  EXPECT_EQ(resample_ns.snapshot().count, 2);
  EXPECT_EQ(roughen_ns.snapshot().count, 2);
}

TEST_F(FilterFixture, EssExactlyAtThresholdStillResamples) {
  // With hit_weight == miss_weight every detection reweight is uniform, so
  // after normalization ESS == Ns exactly (all quantities powers of two).
  // resample_ess_fraction = 1.0 puts the threshold at exactly Ns, and the
  // <= comparison must still trigger the resample; any fraction below 1
  // must behave exactly like resampling disabled.
  FilterConfig config;
  config.measurement.hit_weight = 1.0;
  config.measurement.miss_weight = 1.0;
  const auto history = MakeHistory({{100, 3}, {104, 3}});

  config.resample_ess_fraction = 1.0;
  const ParticleFilter at(&graph_, &deployment_, config);
  Rng rng_at(41);
  const FilterResult at_threshold = at.Run(history, 110, rng_at);

  config.resample_ess_fraction = 0.999;
  const ParticleFilter below(&graph_, &deployment_, config);
  Rng rng_below(41);
  const FilterResult just_below = below.Run(history, 110, rng_below);

  config.resample_ess_fraction = 0.0;
  const ParticleFilter never(&graph_, &deployment_, config);
  Rng rng_never(41);
  const FilterResult disabled = never.Run(history, 110, rng_never);

  EXPECT_EQ(just_below, disabled);      // ESS == Ns > 0.999 * Ns: skip.
  EXPECT_NE(at_threshold, disabled);    // ESS == Ns <= Ns: resampled.
}

TEST_F(FilterFixture, ComputePositionsMatchesGraphPositionOf) {
  // The batch position kernel must be bit-identical to per-particle
  // WalkingGraph::PositionOf across every edge, including the endpoints.
  const EdgeSoA edges = EdgeSoA::FromGraph(graph_);
  ASSERT_EQ(edges.size(), graph_.edges().size());

  ParticleSoA soa;
  std::vector<Particle> reference;
  for (const Edge& e : graph_.edges()) {
    for (const double frac : {0.0, 0.37, 1.0}) {
      Particle p;
      p.loc = GraphLocation{e.id, e.length * frac};
      reference.push_back(p);
    }
  }
  soa.Resize(reference.size());
  for (size_t i = 0; i < reference.size(); ++i) {
    soa.Set(i, reference[i]);
  }
  std::vector<double> x(soa.size());
  std::vector<double> y(soa.size());
  ComputePositions(edges, soa, x.data(), y.data());
  for (size_t i = 0; i < reference.size(); ++i) {
    const Point expected = graph_.PositionOf(reference[i].loc);
    EXPECT_EQ(x[i], expected.x) << "particle " << i;
    EXPECT_EQ(y[i], expected.y) << "particle " << i;
  }
}

// Scalar reference for MotionModel::RoughenAll: per particle, a fresh
// Gaussian position jitter (hallway particles only, clamped to the edge),
// then a fresh Gaussian speed jitter (floored at min_speed).
void ReferenceRoughen(const MotionConfig& config, const WalkingGraph& graph,
                      Particle* p, Rng& rng) {
  if (config.position_jitter > 0.0 && !p->in_room) {
    p->loc.offset =
        std::clamp(p->loc.offset + rng.Gaussian(0.0, config.position_jitter),
                   0.0, graph.edge(p->loc.edge).length);
  }
  if (config.speed_jitter > 0.0) {
    p->speed = std::max(p->speed + rng.Gaussian(0.0, config.speed_jitter),
                        config.min_speed);
  }
}

TEST_F(FilterFixture, RoughenAllMatchesScalarReference) {
  // In-room and hallway particles under the default jitters, each jitter
  // alone, and jitters wide enough to hit the edge clamps and the speed
  // floor: the batched draws must reproduce the per-particle reference
  // bit for bit, and leave the engine in the same state.
  std::vector<MotionConfig> configs(4);
  configs[1].speed_jitter = 0.0;
  configs[2].position_jitter = 0.0;
  configs[3].position_jitter = 4.0;
  configs[3].speed_jitter = 1.5;
  const EdgeSoA edges = EdgeSoA::FromGraph(graph_);
  for (size_t c = 0; c < configs.size(); ++c) {
    const MotionModel model(configs[c]);
    Rng init(40 + c);
    std::vector<Particle> reference(150);
    ParticleSoA soa;
    soa.Resize(reference.size());
    for (size_t i = 0; i < reference.size(); ++i) {
      Particle& p = reference[i];
      const Edge& e = graph_.edge(
          static_cast<EdgeId>(init.UniformIndex(graph_.edges().size())));
      p.loc = GraphLocation{e.id, init.Uniform(0.0, e.length)};
      p.heading = e.b;
      p.speed = init.Gaussian(1.0, 0.3);
      p.weight = 1.0 / static_cast<double>(reference.size());
      p.in_room = init.Bernoulli(0.3);
      soa.Set(i, p);
    }
    Rng rng_batch(77);
    Rng rng_ref(77);
    FilterArena arena;
    model.RoughenAll(edges, &soa, &arena, rng_batch);
    for (Particle& p : reference) {
      ReferenceRoughen(configs[c], graph_, &p, rng_ref);
    }
    for (size_t i = 0; i < reference.size(); ++i) {
      EXPECT_EQ(soa.Get(i), reference[i]) << "config " << c << " particle "
                                          << i;
    }
    EXPECT_EQ(rng_batch(), rng_ref()) << "config " << c;
  }
}

TEST_F(FilterFixture, FromParticlesMatchesMapReference) {
  // The flat snap accumulator must reproduce the ordered-map formulation
  // bit for bit: each anchor's mass summed in particle order, the total in
  // particle order, entries ascending by anchor, and an anchor reached
  // only by zero-weight particles kept with probability 0. Two different
  // clouds in a row check that no accumulator state leaks between calls.
  Rng rng(21);
  for (int round = 0; round < 2; ++round) {
    ParticleSoA particles;
    particles.Resize(300);
    for (size_t i = 0; i < particles.size(); ++i) {
      const Edge& e = graph_.edge(static_cast<EdgeId>(rng.UniformIndex(8)));
      particles.Set(i, Particle{.loc = {e.id, rng.Uniform(0.0, e.length)},
                                .weight = i % 7 == 0 ? 0.0
                                                     : rng.Uniform(0.0, 1.0)});
    }
    std::map<AnchorId, double> mass;
    double total = 0.0;
    for (size_t i = 0; i < particles.size(); ++i) {
      mass[anchors_->NearestOnEdge(particles.Get(i).loc)] +=
          particles.weight[i];
      total += particles.weight[i];
    }
    const AnchorDistribution dist =
        AnchorDistribution::FromParticles(*anchors_, particles);
    ASSERT_EQ(dist.entries().size(), mass.size()) << "round " << round;
    size_t k = 0;
    for (const auto& [anchor, m] : mass) {
      EXPECT_EQ(dist.entries()[k].first, anchor) << "round " << round;
      EXPECT_EQ(dist.entries()[k].second, m / total) << "round " << round;
      ++k;
    }
  }
}

TEST_F(FilterFixture, NegativeInformationPullsMassOutOfSilentZones) {
  // Object detected once, then silent for a while. With negative
  // information, particles lingering inside (silent) reader ranges are
  // discounted, so less final mass sits inside any activation range.
  DataCollector::ObjectHistory history;
  history.entries = {{100, 5}, {101, 5}};
  history.current_device = 5;

  FilterConfig plain;
  plain.num_particles = 512;
  FilterConfig negative = plain;
  negative.measurement.use_negative_information = true;

  const ParticleFilter f_plain(&graph_, &deployment_, plain);
  const ParticleFilter f_neg(&graph_, &deployment_, negative);
  auto zone_mass = [&](const FilterResult& r) {
    double mass = 0.0;
    for (size_t i = 0; i < r.particles.size(); ++i) {
      const Particle p = r.particles.Get(i);
      if (deployment_.FirstCovering(graph_.PositionOf(p.loc)).has_value()) {
        mass += p.weight;
      }
    }
    return mass / TotalWeight(r.particles);
  };
  Rng rng_a(31);
  Rng rng_b(31);
  const double plain_mass = zone_mass(f_plain.Run(history, 121, rng_a));
  const double neg_mass = zone_mass(f_neg.Run(history, 121, rng_b));
  EXPECT_LT(neg_mass, plain_mass + 1e-9);
}

TEST_F(FilterFixture, ResumeMatchesContinuedRun) {
  const ParticleFilter filter(&graph_, &deployment_, FilterConfig{});
  const auto history = MakeHistory({{100, 0}, {101, 0}});
  Rng rng(15);
  FilterResult state = filter.Run(history, 120, rng);
  EXPECT_EQ(state.time, 120);
  // Nothing new: resume is a no-op.
  const FilterResult same = filter.Resume(state, history, 120, rng);
  EXPECT_EQ(same.time, 120);
  EXPECT_EQ(same.seconds_processed, state.seconds_processed);
  // Ten more seconds: resume processes exactly 10.
  const FilterResult more = filter.Resume(state, history, 130, rng);
  EXPECT_EQ(more.time, 130);
  EXPECT_EQ(more.seconds_processed, state.seconds_processed + 10);
}

TEST_F(FilterFixture, InferProducesNormalizedDistribution) {
  const ParticleFilter filter(&graph_, &deployment_, FilterConfig{});
  Rng rng(16);
  const auto history = MakeHistory({{100, 5}, {101, 5}});
  const AnchorDistribution dist = filter.Infer(*anchors_, history, 120, rng);
  EXPECT_FALSE(dist.empty());
  EXPECT_NEAR(dist.TotalProbability(), 1.0, 1e-9);
}

TEST(AnchorDistributionTest, UniformSplitsEvenly) {
  const AnchorDistribution dist = AnchorDistribution::Uniform({3, 1, 2, 1});
  EXPECT_EQ(dist.support_size(), 3u);
  EXPECT_NEAR(dist.ProbabilityAt(1), 1.0 / 3, 1e-12);
  EXPECT_NEAR(dist.ProbabilityAt(2), 1.0 / 3, 1e-12);
  EXPECT_NEAR(dist.ProbabilityAt(3), 1.0 / 3, 1e-12);
  EXPECT_DOUBLE_EQ(dist.ProbabilityAt(4), 0.0);
}

TEST(AnchorDistributionTest, FromWeightsNormalizesAndMerges) {
  const AnchorDistribution dist =
      AnchorDistribution::FromWeights({{5, 1.0}, {7, 2.0}, {5, 1.0}});
  EXPECT_EQ(dist.support_size(), 2u);
  EXPECT_NEAR(dist.ProbabilityAt(5), 0.5, 1e-12);
  EXPECT_NEAR(dist.ProbabilityAt(7), 0.5, 1e-12);
}

TEST(AnchorDistributionTest, TopKOrdersByProbability) {
  const AnchorDistribution dist =
      AnchorDistribution::FromWeights({{1, 0.1}, {2, 0.6}, {3, 0.3}});
  EXPECT_EQ(dist.TopK(2), (std::vector<AnchorId>{2, 3}));
  EXPECT_EQ(dist.TopK(10), (std::vector<AnchorId>{2, 3, 1}));
}

TEST(AnchorDistributionTest, EmptyDistribution) {
  const AnchorDistribution dist = AnchorDistribution::Uniform({});
  EXPECT_TRUE(dist.empty());
  EXPECT_DOUBLE_EQ(dist.TotalProbability(), 0.0);
  EXPECT_TRUE(dist.TopK(3).empty());
}

TEST_F(FilterFixture, FromParticlesSnapsWeightMass) {
  // Two particles on one edge, one on another, weights 1:1:2.
  const EdgeId e0 = 0;
  const EdgeId e1 = 1;
  ParticleSoA particles;
  particles.Resize(3);
  particles.Set(0, Particle{.loc = {e0, 0.1}, .weight = 1.0});
  particles.Set(1, Particle{.loc = {e0, 0.2}, .weight = 1.0});
  particles.Set(2, Particle{.loc = {e1, 0.1}, .weight = 2.0});
  const AnchorDistribution dist =
      AnchorDistribution::FromParticles(*anchors_, particles);
  EXPECT_NEAR(dist.TotalProbability(), 1.0, 1e-12);
  const AnchorId a0 = anchors_->NearestOnEdge({e0, 0.15});
  const AnchorId a1 = anchors_->NearestOnEdge({e1, 0.1});
  EXPECT_NEAR(dist.ProbabilityAt(a0), 0.5, 1e-12);
  EXPECT_NEAR(dist.ProbabilityAt(a1), 0.5, 1e-12);
}

TEST(AnchorObjectTableTest, SetAndLookup) {
  AnchorObjectTable table;
  table.Set(1, AnchorDistribution::FromWeights({{10, 0.6}, {11, 0.4}}));
  table.Set(2, AnchorDistribution::FromWeights({{10, 1.0}}));

  const auto& at10 = table.AtAnchor(10);
  EXPECT_EQ(at10.size(), 2u);
  EXPECT_EQ(table.AtAnchor(11).size(), 1u);
  EXPECT_TRUE(table.AtAnchor(99).empty());
  EXPECT_EQ(table.Objects(), (std::vector<ObjectId>{1, 2}));
}

TEST(AnchorObjectTableTest, SetReplacesPreviousEntries) {
  AnchorObjectTable table;
  table.Set(1, AnchorDistribution::FromWeights({{10, 1.0}}));
  table.Set(1, AnchorDistribution::FromWeights({{20, 1.0}}));
  EXPECT_TRUE(table.AtAnchor(10).empty());
  EXPECT_EQ(table.AtAnchor(20).size(), 1u);
  EXPECT_EQ(table.num_objects(), 1u);
}

TEST(AnchorObjectTableTest, EraseAndClear) {
  AnchorObjectTable table;
  table.Set(1, AnchorDistribution::FromWeights({{10, 1.0}}));
  table.Set(2, AnchorDistribution::FromWeights({{10, 1.0}}));
  table.Erase(1);
  EXPECT_EQ(table.AtAnchor(10).size(), 1u);
  EXPECT_EQ(table.Distribution(1), nullptr);
  ASSERT_NE(table.Distribution(2), nullptr);
  table.Clear();
  EXPECT_EQ(table.num_objects(), 0u);
  EXPECT_TRUE(table.AtAnchor(10).empty());
}

TEST(ParticleCacheTest, HitMissInvalidate) {
  ParticleCache cache;
  const auto history = MakeHistory({{90, 0}, {95, 0}});
  EXPECT_EQ(cache.Lookup(1, history), std::nullopt);
  EXPECT_EQ(cache.stats().misses, 1);

  FilterResult state;
  state.time = 100;
  cache.Insert(1, history, state);
  EXPECT_EQ(cache.size(), 1u);

  const auto hit = cache.Lookup(1, history);
  ASSERT_TRUE(hit.has_value());
  EXPECT_EQ(hit->time, 100);
  EXPECT_EQ(cache.stats().hits, 1);

  // New device -> stale.
  const auto moved = MakeHistory({{90, 0}, {95, 0}, {98, 5}});
  EXPECT_EQ(cache.Lookup(1, moved), std::nullopt);
  EXPECT_EQ(cache.stats().invalidations, 1);
  EXPECT_EQ(cache.size(), 0u);
}

TEST(ParticleCacheTest, EvictOlderThan) {
  ParticleCache cache;
  const auto history = MakeHistory({{40, 0}, {45, 0}});
  FilterResult old_state;
  old_state.time = 50;
  FilterResult new_state;
  new_state.time = 150;
  cache.Insert(1, history, old_state);
  cache.Insert(2, history, new_state);
  cache.EvictOlderThan(100);
  EXPECT_EQ(cache.size(), 1u);
  EXPECT_TRUE(cache.Lookup(2, history).has_value());
}

TEST(ParticleCacheTest, HitRateStat) {
  ParticleCache cache;
  const auto history = MakeHistory({{90, 0}});
  FilterResult state;
  state.time = 95;
  cache.Insert(1, history, state);
  cache.Lookup(1, history);
  cache.Lookup(1, history);
  cache.Lookup(9, history);
  EXPECT_NEAR(cache.stats().HitRate(), 2.0 / 3.0, 1e-12);
}

TEST(ParticleCacheTest, HitMovesStateOutAndInsertMovesItBack) {
  // A hit hands the cached particle buffers to the caller and Insert
  // takes them back, so a lookup + resume + insert round trip copies no
  // particle state.
  ParticleCache cache;
  const auto history = MakeHistory({{90, 0}});
  FilterResult state;
  state.time = 95;
  state.particles = MakeParticles({0.25, 0.75});
  const double* buffer = state.particles.weight.data();
  cache.Insert(1, history, std::move(state));

  auto hit = cache.Lookup(1, history);
  ASSERT_TRUE(hit.has_value());
  EXPECT_EQ(hit->particles, MakeParticles({0.25, 0.75}));
  EXPECT_EQ(hit->particles.weight.data(), buffer);
  EXPECT_EQ(cache.size(), 1u);

  cache.Insert(1, history, std::move(*hit));
  const auto again = cache.Lookup(1, history);
  ASSERT_TRUE(again.has_value());
  EXPECT_EQ(again->time, 95);
  EXPECT_EQ(again->particles.weight.data(), buffer);
}

// Regression (PR 1): a cached state that coasted to last_reading + 60
// used to silently ignore a newer same-device reading that landed INSIDE
// that coasted horizon — ParticleFilter::Resume only advances strictly
// past state.time, so the reading was dropped without any trace. The
// cache must detect this and miss (forcing a full Run).
TEST(ParticleCacheTest, StaleCoastedStateInvalidates) {
  ParticleCache cache;
  const auto cached_against = MakeHistory({{100, 0}, {101, 0}});
  FilterResult state;
  state.time = 161;  // Coasted to last reading (101) + 60.
  cache.Insert(1, cached_against, state);

  // A new same-device reading at t=130 <= 161: resuming would drop it.
  const auto with_late_reading =
      MakeHistory({{100, 0}, {101, 0}, {130, 0}});
  EXPECT_EQ(cache.Lookup(1, with_late_reading), std::nullopt);
  EXPECT_EQ(cache.stats().stale_invalidations, 1);
  EXPECT_EQ(cache.size(), 0u);  // Evicted, not just skipped.
}

TEST(ParticleCacheTest, ReadingBeyondCoastHorizonStillHits) {
  // A new reading STRICTLY past state.time is fine: Resume advances
  // through it. The cache must keep such entries (they are the whole
  // point of the cache).
  ParticleCache cache;
  const auto cached_against = MakeHistory({{100, 0}, {101, 0}});
  FilterResult state;
  state.time = 161;
  cache.Insert(1, cached_against, state);

  const auto with_future_reading =
      MakeHistory({{100, 0}, {101, 0}, {170, 0}});
  EXPECT_TRUE(cache.Lookup(1, with_future_reading).has_value());
  EXPECT_EQ(cache.stats().stale_invalidations, 0);
}

TEST_F(FilterFixture, ResumeAfterStaleLookupMatchesFullRun) {
  // End-to-end shape of the bug: run, cache, observe a same-device
  // reading inside the coast horizon, re-query. The stale-coast rule
  // must route the second query to a full Run whose result matches a
  // from-scratch filter run on the complete history.
  const ParticleFilter filter(&graph_, &deployment_, FilterConfig{});
  ParticleCache cache;

  const auto before = MakeHistory({{100, 0}, {101, 0}});
  Rng rng_initial = Rng::ForStream(7, 1, 200);
  cache.Insert(1, before, filter.Run(before, 200, rng_initial));

  const auto after = MakeHistory({{100, 0}, {101, 0}, {130, 0}});
  Rng rng_requery = Rng::ForStream(7, 1, 250);
  FilterResult requeried;
  if (auto cached = cache.Lookup(1, after)) {
    requeried = filter.Resume(std::move(*cached), after, 250, rng_requery);
  } else {
    requeried = filter.Run(after, 250, rng_requery);
  }

  Rng rng_fresh = Rng::ForStream(7, 1, 250);
  const FilterResult fresh = filter.Run(after, 250, rng_fresh);
  ASSERT_EQ(requeried.particles.size(), fresh.particles.size());
  EXPECT_EQ(requeried.time, fresh.time);
  EXPECT_EQ(requeried.seconds_processed, fresh.seconds_processed);
  for (size_t i = 0; i < fresh.particles.size(); ++i) {
    EXPECT_EQ(requeried.particles.edge[i], fresh.particles.edge[i]);
    EXPECT_DOUBLE_EQ(requeried.particles.offset[i],
                     fresh.particles.offset[i]);
    EXPECT_DOUBLE_EQ(requeried.particles.weight[i],
                     fresh.particles.weight[i]);
  }
}

// ---------------------------------------------------------------------------
// Golden filter states: bit-exact digests of full filter runs through every
// code path (all four resampling schemes, negative information, gap
// widening, adaptive ESS). These froze the answers of the original
// per-particle filter; the batch kernels must reproduce them
// byte-identically. The
// digests are a function of the pinned toolchain (libstdc++ distribution
// draw order); regenerate by running with IPQS_PRINT_GOLDEN=1 and pasting
// the output.

// FNV-1a over the bit patterns of every particle field, in particle order.
// Any single-bit difference in any field changes the digest.
uint64_t ParticleDigest(const ParticleSoA& particles) {
  uint64_t h = 1469598103934665603ULL;
  const auto mix = [&h](uint64_t v) {
    for (int byte = 0; byte < 8; ++byte) {
      h ^= (v >> (8 * byte)) & 0xff;
      h *= 1099511628211ULL;
    }
  };
  for (size_t i = 0; i < particles.size(); ++i) {
    const Particle p = particles.Get(i);
    uint64_t bits = 0;
    mix(static_cast<uint64_t>(static_cast<uint32_t>(p.loc.edge)));
    std::memcpy(&bits, &p.loc.offset, 8);
    mix(bits);
    mix(static_cast<uint64_t>(static_cast<uint32_t>(p.heading)));
    std::memcpy(&bits, &p.speed, 8);
    mix(bits);
    std::memcpy(&bits, &p.weight, 8);
    mix(bits);
    mix(p.in_room ? 1 : 0);
  }
  return h;
}

TEST_F(FilterFixture, GoldenRunDigestsAreFrozen) {
  const auto history =
      MakeHistory({{100, 3}, {101, 3}, {102, 3}, {112, 4}, {113, 4}});

  struct Case {
    const char* name;
    FilterConfig config;
    uint64_t digest;
  };
  std::vector<Case> cases;
  {
    Case c{"systematic", FilterConfig{}, 0x2dfb070b81858ac5ULL};
    cases.push_back(c);
  }
  {
    Case c{"stratified", FilterConfig{}, 0xaf477c5f41b985ffULL};
    c.config.resampling = ResamplingScheme::kStratified;
    cases.push_back(c);
  }
  {
    Case c{"multinomial", FilterConfig{}, 0x8c5320a3923b0455ULL};
    c.config.resampling = ResamplingScheme::kMultinomial;
    cases.push_back(c);
  }
  {
    Case c{"residual", FilterConfig{}, 0xdf41094a3dff6c25ULL};
    c.config.resampling = ResamplingScheme::kResidual;
    cases.push_back(c);
  }
  {
    Case c{"negative_info", FilterConfig{}, 0x729b6242ffe107a9ULL};
    c.config.measurement.use_negative_information = true;
    cases.push_back(c);
  }
  {
    Case c{"gap_widening", FilterConfig{}, 0x08c85bfd8c4d59dcULL};
    c.config.gap_position_jitter = 0.5;
    c.config.gap_widen_after_seconds = 5;
    cases.push_back(c);
  }
  {
    Case c{"adaptive_ess", FilterConfig{}, 0xf912c39213c7a4f9ULL};
    c.config.resample_ess_fraction = 0.5;
    cases.push_back(c);
  }

  const bool print = std::getenv("IPQS_PRINT_GOLDEN") != nullptr;
  for (Case& c : cases) {
    const ParticleFilter filter(&graph_, &deployment_, c.config);
    Rng rng(31);
    const FilterResult result = filter.Run(history, 140, rng);
    const uint64_t digest = ParticleDigest(result.particles);
    if (print) {
      std::printf("golden %-14s 0x%016llxULL\n", c.name,
                  static_cast<unsigned long long>(digest));
    }
    EXPECT_EQ(digest, c.digest) << c.name;
  }
}

}  // namespace
}  // namespace ipqs
