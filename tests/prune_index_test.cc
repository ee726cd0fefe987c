// Differential harness for indexed candidate pruning: the range/kNN
// candidate filters, the kNN bound f and every subscription's next_expand
// read the collector's per-reader last-read index, and each must equal,
// bit for bit, a brute-force scan over every known object (the scans the
// index replaced, kept here as the reference).

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <limits>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "graph/shortest_path.h"
#include "obs/metrics.h"
#include "query/query_engine.h"
#include "query/query_scheduler.h"
#include "query/subscription.h"
#include "query/uncertain_region.h"
#include "sim/experiment.h"
#include "sim/simulation.h"

namespace ipqs {
namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();
constexpr double kMaxSpeed = 1.5;

// --- The reference: one pass over every known object ---------------------

std::vector<ObjectId> ScanRange(const DataCollector& collector,
                                const Deployment& deployment,
                                const std::vector<Rect>& windows, int64_t now,
                                double u) {
  std::vector<ObjectId> out;
  for (ObjectId o : collector.KnownObjects()) {
    const UncertainRegion ur = ComputeUncertainRegion(
        deployment, o, *collector.LastReading(o), now, u);
    if (std::any_of(windows.begin(), windows.end(),
                    [&](const Rect& w) { return ur.Overlaps(w); })) {
      out.push_back(o);
    }
  }
  return out;
}

double ScanKnnBound(const DataCollector& collector,
                    const Deployment& deployment, const SourceDistances& dists,
                    int k, int64_t now, double u) {
  std::vector<double> l;
  for (ObjectId o : collector.KnownObjects()) {
    l.push_back(NetworkDistanceInterval(
                    dists, ComputeUncertainRegion(
                               deployment, o, *collector.LastReading(o), now,
                               u))
                    .max_dist);
  }
  if (static_cast<int>(l.size()) <= k) {
    return kInf;
  }
  std::sort(l.begin(), l.end());
  return l[k - 1];
}

std::vector<ObjectId> ScanKnn(const DataCollector& collector,
                              const Deployment& deployment,
                              const SourceDistances& dists, int k, int64_t now,
                              double u) {
  const double f = ScanKnnBound(collector, deployment, dists, k, now, u);
  std::vector<ObjectId> out;
  for (ObjectId o : collector.KnownObjects()) {
    if (NetworkDistanceInterval(
            dists, ComputeUncertainRegion(deployment, o,
                                          *collector.LastReading(o), now, u))
            .min_dist <= f) {
      out.push_back(o);
    }
  }
  return out;
}

// RefreshState's condition 3 over every non-candidate, margin applied.
double ScanNextExpand(const DataCollector& collector,
                      const Deployment& deployment, const BatchQuery& query,
                      const BatchSlotDetail& detail, int64_t now, double u,
                      double margin) {
  const std::vector<ObjectId>& c = detail.candidates;
  double next = kInf;
  const double f =
      query.kind == BatchQuery::Kind::kKnn
          ? ScanKnnBound(collector, deployment, detail.dists, query.k, now, u)
          : kInf;
  for (ObjectId o : collector.KnownObjects()) {
    if (std::binary_search(c.begin(), c.end(), o)) {
      continue;
    }
    const AggregatedEntry last = *collector.LastReading(o);
    const Reader& r = deployment.reader(last.reader);
    if (query.kind == BatchQuery::Kind::kRange) {
      next = std::min(next, static_cast<double>(last.time) +
                                (query.window.DistanceTo(r.pos) - r.range) / u);
      continue;
    }
    const double d = detail.dists.to_reader[last.reader];
    if (!std::isfinite(f) || !std::isfinite(d)) {
      continue;
    }
    next = std::min(next, (d - r.range - detail.dists.slack - f +
                           u * static_cast<double>(last.time + now)) /
                              (2.0 * u));
  }
  return std::isfinite(next) ? next - margin : next;
}

void ExpectBitEqual(double a, double b, const std::string& label) {
  EXPECT_EQ(std::bit_cast<uint64_t>(a), std::bit_cast<uint64_t>(b))
      << label << ": " << a << " vs " << b;
}

// Exact distances from the graph location nearest `p`, widened by `slack`.
SourceDistances DistancesFrom(const Simulation& sim, const Point& p,
                              double slack) {
  const GraphLocation q =
      sim.graph().NearestLocation(p, /*prefer_hallways=*/true);
  return SourceDistances::FromTable(OneToAllDistances(sim.graph(), q), slack,
                                    sim.deployment());
}

// Random windows (single and multiple) and kNN points, at the newest
// reading (a skewed reader clock can run ahead of the simulation) and
// later (older regions have grown), each compared against the scan.
void ExpectPruningMatchesScan(const Simulation& sim,
                              const DataCollector& collector, uint64_t seed,
                              const std::string& label) {
  const Deployment& deployment = sim.deployment();
  const int known = static_cast<int>(collector.num_known_objects());
  int64_t newest = sim.now();
  for (ObjectId o : collector.KnownObjects()) {
    newest = std::max(newest, collector.LastReading(o)->time);
  }
  Rng rng(seed);
  for (int64_t later : {0, 7, 40}) {
    const int64_t now = newest + later;
    const std::string at = label + " now+" + std::to_string(later);
    std::vector<Rect> windows;
    for (double area : {0.005, 0.02, 0.1, 0.3}) {
      const Rect w = Experiment::RandomWindow(sim.plan(), area, rng);
      windows.push_back(w);
      EXPECT_EQ(FilterRangeCandidates(collector, deployment, {w}, now,
                                      kMaxSpeed),
                ScanRange(collector, deployment, {w}, now, kMaxSpeed))
          << at << " area " << area;
    }
    EXPECT_EQ(
        FilterRangeCandidates(collector, deployment, windows, now, kMaxSpeed),
        ScanRange(collector, deployment, windows, now, kMaxSpeed))
        << at << " multi-window";
    EXPECT_TRUE(
        FilterRangeCandidates(collector, deployment, {}, now, kMaxSpeed)
            .empty())
        << at;
    for (int k : {1, 3, 7, known, known + 3}) {
      if (k <= 0) {
        continue;
      }
      const SourceDistances dists = DistancesFrom(
          sim, Experiment::RandomIndoorPoint(sim.anchors(), rng),
          k % 2 == 0 ? 0.0 : 0.75);
      const std::string q = at + " k " + std::to_string(k);
      ExpectBitEqual(
          KnnPruningBound(collector, deployment, dists, k, now, kMaxSpeed),
          ScanKnnBound(collector, deployment, dists, k, now, kMaxSpeed),
          q + " f");
      EXPECT_EQ(
          FilterKnnCandidates(collector, deployment, dists, k, now, kMaxSpeed),
          ScanKnn(collector, deployment, dists, k, now, kMaxSpeed))
          << q;
    }
  }
}

QueryEngine MakeEngine(const Simulation& sim, InferenceMethod method,
                       int num_threads, int max_coast_seconds) {
  EngineConfig config;
  config.method = method;
  config.filter.max_coast_seconds = max_coast_seconds;
  config.num_threads = num_threads;
  config.use_cache = true;
  config.use_pruning = true;
  config.max_speed = kMaxSpeed;
  config.seed = 99;
  return QueryEngine(&sim.graph(), &sim.plan(), &sim.anchors(),
                     &sim.anchor_graph(), &sim.deployment(),
                     &sim.deployment_graph(), &sim.collector(), config);
}

struct SubscriptionCounts {
  int range = 0;
  int knn = 0;
};

// Ticks `manager` at the simulation's now and checks every evaluated,
// settled subscription's next_expand (and the candidates and f it was
// derived from, recomputed by a twin engine's scheduler) against the scan.
void TickAndCheckSubscriptions(const Simulation& sim,
                               SubscriptionManager& manager,
                               QueryScheduler& twin,
                               const std::vector<BatchQuery>& queries,
                               SubscriptionCounts* counts,
                               const std::string& label) {
  const int64_t now = sim.now();
  const DataCollector& collector = sim.collector();
  const Deployment& deployment = sim.deployment();
  const SubscriptionTickResult tick = manager.Tick(now);
  std::vector<BatchSlotDetail> details;
  twin.EvaluateBatch(queries, now, /*deadline_ms=*/0, nullptr, &details);
  ASSERT_EQ(details.size(), queries.size());
  for (const SubscriptionUpdate& u : tick.updates) {
    const BatchQuery& q = queries[static_cast<size_t>(u.id)];
    const BatchSlotDetail& d = details[static_cast<size_t>(u.id)];
    const std::string slot = label + " sub " + std::to_string(u.id);
    if (q.kind == BatchQuery::Kind::kRange) {
      EXPECT_EQ(d.candidates,
                ScanRange(collector, deployment, {q.window}, now, kMaxSpeed))
          << slot;
    } else {
      EXPECT_EQ(d.candidates, ScanKnn(collector, deployment, d.dists, q.k, now,
                                      kMaxSpeed))
          << slot;
      ExpectBitEqual(
          KnnPruningBound(collector, deployment, d.dists, q.k, now, kMaxSpeed),
          ScanKnnBound(collector, deployment, d.dists, q.k, now, kMaxSpeed),
          slot + " f");
    }
    const double got = manager.NextExpand(u.id);
    if (!u.evaluated || got == -kInf) {
      continue;  // Clean (tightened by changes since) or not settled.
    }
    ExpectBitEqual(got,
                   ScanNextExpand(collector, deployment, q, d, now, kMaxSpeed,
                                  SubscriptionManagerConfig{}.margin_seconds),
                   slot + " next_expand");
    ++(q.kind == BatchQuery::Kind::kRange ? counts->range : counts->knn);
  }
}

// The fault/thread worlds of the subscription differential test: clean,
// dropout, duplicates, and dropout + duplicates through a 2 s reorder
// window; subscriptions ticked by particle-filter engines at 1, 4 and 8
// threads. A last-reading engine ticks the same subscriptions beside them:
// its answers are settled at every evaluation, so its next_expand is
// always derived (kNN particle-filter answers rarely settle here).
TEST(PruneIndexTest, MatchesScanAcrossFaultAndThreadWorlds) {
  const int kThreads[3] = {1, 4, 8};
  SubscriptionCounts counts;
  for (int w = 0; w < 8; ++w) {
    SimulationConfig config;
    config.trace.num_objects = 24;
    config.trace.room_stay_probability = 0.95;
    config.seed = 1000 + 31 * w;
    config.collector.change_log_capacity = 1 << 16;
    switch (w % 4) {
      case 0:
        break;
      case 1:
        config.faults.dropout_rate = 0.15;
        break;
      case 2:
        config.faults.duplicate_rate = 0.2;
        break;
      default:
        config.faults.dropout_rate = 0.1;
        config.faults.duplicate_rate = 0.1;
        config.collector.reorder_window_seconds = 2;
        break;
    }
    auto sim = Simulation::Create(config).value();
    sim->Run(60);
    ExpectPruningMatchesScan(*sim, sim->collector(), 17 + w,
                             "world " + std::to_string(w));

    const int v = w % 3;
    const std::string label =
        "world " + std::to_string(w) + " threads " +
        std::to_string(kThreads[v]);
    const int max_coast = 8 + w % 5;
    QueryEngine pf_engine = MakeEngine(*sim, InferenceMethod::kParticleFilter,
                                       kThreads[v], max_coast);
    QueryEngine lr_engine =
        MakeEngine(*sim, InferenceMethod::kLastReading, 1, max_coast);
    QueryEngine twin_engine =
        MakeEngine(*sim, InferenceMethod::kLastReading, 1, max_coast);
    QueryScheduler twin(&twin_engine);
    SubscriptionManager pf(&pf_engine, SubscriptionManagerConfig{});
    SubscriptionManager lr(&lr_engine, SubscriptionManagerConfig{});
    std::vector<BatchQuery> queries;
    Rng sub_rng(config.seed * 977 + v);
    for (int i = 0; i < 3; ++i) {
      queries.push_back(BatchQuery::Range(
          Experiment::RandomWindow(sim->plan(), 0.02, sub_rng)));
      pf.AddRange(queries.back().window);
      lr.AddRange(queries.back().window);
    }
    for (int k : {1, 3}) {
      queries.push_back(BatchQuery::Knn(
          Experiment::RandomIndoorPoint(sim->anchors(), sub_rng), k));
      pf.AddKnn(queries.back().point, k);
      lr.AddKnn(queries.back().point, k);
    }
    for (int tick = 0; tick < 8; ++tick) {
      sim->Run(3 + v);
      const std::string at = label + " tick " + std::to_string(tick);
      TickAndCheckSubscriptions(*sim, pf, twin, queries, &counts, at + " pf");
      TickAndCheckSubscriptions(*sim, lr, twin, queries, &counts, at + " lr");
    }
    ExpectPruningMatchesScan(*sim, sim->collector(), 71 + w, label + " end");
  }
  // Settled subscriptions of both kinds had their next_expand checked.
  EXPECT_GT(counts.range, 0);
  EXPECT_GT(counts.knn, 0);
}

// Delivery delays and reader clock skew with no reorder buffer: late
// readings are dropped by the monotonicity guard instead of repaired.
TEST(PruneIndexTest, OutOfOrderArrivalsWithoutReorderBuffer) {
  SimulationConfig config;
  config.trace.num_objects = 40;
  config.seed = 4242;
  config.faults.reorder_rate = 0.3;
  config.faults.max_clock_skew_seconds = 2;
  auto sim = Simulation::Create(config).value();
  for (int step = 0; step < 6; ++step) {
    sim->Run(15);
    ExpectPruningMatchesScan(*sim, sim->collector(), 300 + step,
                             "step " + std::to_string(step));
  }
  EXPECT_GT(sim->collector().ingest_stats().late_dropped, 0);
}

// The index is rebuilt after RestoreState replaces the histories, even
// when it was current for the state before.
TEST(PruneIndexTest, RestoreStateRebuildsTheIndex) {
  SimulationConfig config;
  config.trace.num_objects = 30;
  config.seed = 77;
  auto sim = Simulation::Create(config).value();
  sim->Run(40);
  const DataCollector::PersistedState early = sim->collector().ExportState();
  sim->Run(40);
  const DataCollector::PersistedState late = sim->collector().ExportState();

  obs::MetricsRegistry registry;
  CollectorMetrics metrics;
  metrics.prune_index_rebuilds = registry.GetCounter("rebuilds");
  metrics.prune_index_bytes = registry.GetGauge("bytes");
  DataCollector collector;
  collector.SetMetrics(metrics);
  collector.RestoreState(early);
  ExpectPruningMatchesScan(*sim, collector, 5, "early");
  EXPECT_EQ(metrics.prune_index_rebuilds->Value(), 1);
  EXPECT_GT(metrics.prune_index_bytes->Value(), 0);

  collector.RestoreState(late);
  ExpectPruningMatchesScan(*sim, collector, 6, "late");
  EXPECT_EQ(metrics.prune_index_rebuilds->Value(), 2);

  // Back to the earlier state: same object set, older last readings.
  collector.RestoreState(early);
  ExpectPruningMatchesScan(*sim, collector, 7, "early again");
  EXPECT_EQ(metrics.prune_index_rebuilds->Value(), 3);
}

// One rebuild per mutation, however many queries read the index; a
// reading swallowed by the duplicate guard is not a mutation.
TEST(PruneIndexTest, RebuildsOnlyAfterAMutation) {
  obs::MetricsRegistry registry;
  CollectorMetrics metrics;
  metrics.prune_index_rebuilds = registry.GetCounter("rebuilds");
  DataCollector collector;
  collector.SetMetrics(metrics);
  collector.Observe({1, 0, 100});
  collector.Observe({2, 3, 101});
  EXPECT_EQ(collector.last_read_index().entries.size(), 2u);
  EXPECT_EQ(collector.last_read_index().bucket(3).size(), 1u);
  EXPECT_EQ(metrics.prune_index_rebuilds->Value(), 1);
  collector.Observe({2, 3, 101});  // Duplicate: dropped.
  collector.last_read_index();
  EXPECT_EQ(metrics.prune_index_rebuilds->Value(), 1);
  collector.Observe({1, 3, 102});  // Object 1 moves to reader 3's bucket.
  const LastReadIndex& index = collector.last_read_index();
  EXPECT_EQ(metrics.prune_index_rebuilds->Value(), 2);
  EXPECT_TRUE(index.bucket(0).empty());
  ASSERT_EQ(index.bucket(3).size(), 2u);
  EXPECT_EQ(index.bucket(3)[0].object, 2);
  EXPECT_EQ(index.bucket(3)[1].object, 1);
}

// Readers unreachable from the query source read d = +inf: their objects'
// l and s are +inf, so they never set f and survive only when f is +inf.
TEST(PruneIndexTest, UnreachableReadersReadInfinity) {
  SimulationConfig config;
  config.trace.num_objects = 40;
  config.seed = 9;
  auto sim = Simulation::Create(config).value();
  sim->Run(50);
  const DataCollector& collector = sim->collector();
  const Deployment& deployment = sim->deployment();
  const int known = static_cast<int>(collector.num_known_objects());
  Rng rng(12);
  for (int stride : {1, 2, 3, 5}) {
    SourceDistances dists = DistancesFrom(
        *sim, Experiment::RandomIndoorPoint(sim->anchors(), rng), 0.5);
    for (size_t r = 0; r < dists.to_reader.size(); r += stride) {
      dists.to_reader[r] = kInf;  // stride 1: every reader unreachable.
    }
    for (int k : {1, 4, known - 1, known, known + 1}) {
      const std::string label =
          "stride " + std::to_string(stride) + " k " + std::to_string(k);
      const double f = KnnPruningBound(collector, deployment, dists, k,
                                       sim->now() + 3, kMaxSpeed);
      ExpectBitEqual(f,
                     ScanKnnBound(collector, deployment, dists, k,
                                  sim->now() + 3, kMaxSpeed),
                     label);
      EXPECT_EQ(FilterKnnCandidates(collector, deployment, dists, k,
                                    sim->now() + 3, kMaxSpeed),
                ScanKnn(collector, deployment, dists, k, sim->now() + 3,
                        kMaxSpeed))
          << label;
      if (stride == 1) {
        EXPECT_TRUE(std::isinf(f)) << label;
      }
    }
  }
}

// k at or above the number of known objects keeps every known object and
// leaves f at +inf.
TEST(PruneIndexTest, KAtLeastKnownObjectsKeepsEveryone) {
  SimulationConfig config;
  config.trace.num_objects = 12;
  config.seed = 31;
  auto sim = Simulation::Create(config).value();
  sim->Run(30);
  const DataCollector& collector = sim->collector();
  const int known = static_cast<int>(collector.num_known_objects());
  ASSERT_GT(known, 0);
  const SourceDistances dists = DistancesFrom(
      *sim, sim->deployment().reader(0).pos, 0.0);
  for (int k : {known, known + 1, 10 * known}) {
    EXPECT_TRUE(std::isinf(KnnPruningBound(collector, sim->deployment(), dists,
                                           k, sim->now(), kMaxSpeed)));
    EXPECT_EQ(FilterKnnCandidates(collector, sim->deployment(), dists, k,
                                  sim->now(), kMaxSpeed),
              collector.KnownObjects());
  }
}

// Like the scan, the filters refuse a query timestamp before a reading.
TEST(PruneIndexDeathTest, QueryBeforeLastReadingAborts) {
  DataCollector collector;
  collector.Observe({1, 0, 100});
  collector.Observe({2, 1, 105});
  SimulationConfig config;
  config.trace.num_objects = 4;
  auto sim = Simulation::Create(config).value();
  const Rect window = sim->plan().BoundingBox();
  EXPECT_DEATH(FilterRangeCandidates(collector, sim->deployment(), {window},
                                     104, kMaxSpeed),
               "");
  EXPECT_DEATH(FilterKnnCandidates(collector, sim->deployment(),
                                   DistancesFrom(*sim, {1.0, 1.0}, 0.0), 1,
                                   104, kMaxSpeed),
               "");
}

}  // namespace
}  // namespace ipqs
