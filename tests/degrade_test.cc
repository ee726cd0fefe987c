#include <algorithm>
#include <memory>
#include <vector>

#include <gtest/gtest.h>

#include "filter/particle_cache.h"
#include "sim/experiment.h"
#include "sim/simulation.h"

namespace ipqs {
namespace {

// Deadline-aware graceful degradation (query/query_engine.h). The deadline
// buys a WORK budget (filter-seconds), never a wall-clock one, so the level
// the engine picks — and the answer it serves — must be a deterministic
// function of (seed, load).

class DegradeTest : public ::testing::Test {
 protected:
  SimulationConfig BaseConfig() const {
    SimulationConfig config;
    config.trace.num_objects = 20;
    config.num_readers = 10;
    config.seed = 123;
    // A stable candidate set (every known object) keeps the work estimates
    // of this test independent of window placement.
    config.use_pruning = false;
    // 1 filter-second per deadline-ms: budgets in the tests read directly
    // as filter-seconds.
    config.degrade.filter_seconds_per_ms = 1.0;
    return config;
  }

  std::unique_ptr<Simulation> FreshSim(const SimulationConfig& config,
                                       int seconds) {
    std::unique_ptr<Simulation> sim = Simulation::Create(config).value();
    sim->Run(seconds);
    return sim;
  }

  Rect Window(const Simulation& sim, uint64_t salt) const {
    Rng rng(salt);
    return Experiment::RandomWindow(sim.plan(), 0.25, rng);
  }

  // The engine's full-level work estimate for a fresh (uncached) query:
  // every known object costs (min(last + max_coast, now) - first) + 1
  // filter-seconds.
  double FreshFullCost(const Simulation& sim) const {
    double total = 0.0;
    const int64_t now = sim.now();
    const int64_t coast = sim.config().filter.max_coast_seconds;
    for (ObjectId object : sim.collector().KnownObjects()) {
      const DataCollector::ObjectHistory* h = sim.collector().History(object);
      const int64_t horizon = std::min(h->LastTime() + coast, now);
      total += static_cast<double>(
                   std::max<int64_t>(horizon - h->FirstTime(), 0)) +
               1.0;
    }
    return total;
  }
};

TEST_F(DegradeTest, NoDeadlineAlwaysServesFull) {
  std::unique_ptr<Simulation> sim = FreshSim(BaseConfig(), 60);
  const QueryResult result =
      sim->pf_engine().EvaluateRange(Window(*sim, 1), sim->now());
  EXPECT_EQ(result.quality, QualityLevel::kFull);
  const DegradeStats stats = sim->pf_engine().degrade_stats();
  EXPECT_EQ(stats.full, 1);
  EXPECT_EQ(stats.cached_stale, 0);
  EXPECT_EQ(stats.reduced_particles, 0);
  EXPECT_EQ(stats.prune_only, 0);
}

TEST_F(DegradeTest, GenerousDeadlineMatchesUndeadlinedAnswer) {
  std::unique_ptr<Simulation> a = FreshSim(BaseConfig(), 60);
  std::unique_ptr<Simulation> b = FreshSim(BaseConfig(), 60);
  const Rect window = Window(*a, 2);
  const QueryResult undeadlined =
      a->pf_engine().EvaluateRange(window, a->now());
  const QueryResult generous =
      b->pf_engine().EvaluateRange(window, b->now(), {.deadline_ms = 1 << 30});
  EXPECT_EQ(generous.quality, QualityLevel::kFull);
  EXPECT_EQ(generous.objects, undeadlined.objects);
}

TEST_F(DegradeTest, TinyDeadlineFallsToPruneOnlyDeterministically) {
  std::unique_ptr<Simulation> a = FreshSim(BaseConfig(), 60);
  const Rect window = Window(*a, 3);
  // Budget of 1 filter-second against a cold cache and ~20 objects of
  // ~60s history each: nothing fits, not even the reduced-Ns rung.
  const QueryResult first =
      a->pf_engine().EvaluateRange(window, a->now(), {.deadline_ms = 1});
  EXPECT_EQ(first.quality, QualityLevel::kPruneOnly);
  EXPECT_EQ(a->pf_engine().degrade_stats().prune_only, 1);
  // Prune-only probabilities are only ever the certain 1.0 or the
  // uninformative 0.5.
  for (const auto& [object, p] : first.objects) {
    EXPECT_TRUE(p == 1.0 || p == 0.5) << "object " << object << " p=" << p;
  }

  // Degradation is deterministic: an identical run degrades identically.
  std::unique_ptr<Simulation> b = FreshSim(BaseConfig(), 60);
  const QueryResult second =
      b->pf_engine().EvaluateRange(window, b->now(), {.deadline_ms = 1});
  EXPECT_EQ(second.quality, QualityLevel::kPruneOnly);
  EXPECT_EQ(second.objects, first.objects);
}

TEST_F(DegradeTest, WarmCacheServesBoundedStaleness) {
  std::unique_ptr<Simulation> sim = FreshSim(BaseConfig(), 60);
  // A full-quality query caches every object's end state...
  const Rect window = Window(*sim, 4);
  const QueryResult full = sim->pf_engine().EvaluateRange(window, sim->now());
  ASSERT_EQ(full.quality, QualityLevel::kFull);
  ASSERT_EQ(sim->pf_engine().cache_stats().served_stale, 0);

  // ... so one second later, a deadline too tight for fresh inference but
  // loose enough for the zero-work stale rung serves the cached states
  // as-is (their age, 1s, is far inside max_stale_age_seconds).
  const QueryResult stale = sim->pf_engine().EvaluateRange(
      window, sim->now() + 1, {.deadline_ms = 5});
  EXPECT_EQ(stale.quality, QualityLevel::kCachedStale);
  const DegradeStats stats = sim->pf_engine().degrade_stats();
  EXPECT_EQ(stats.cached_stale, 1);
  EXPECT_GT(stats.stale_served_objects, 0);
  EXPECT_GT(sim->pf_engine().cache_stats().served_stale, 0);
  EXPECT_FALSE(stale.objects.empty());
}

TEST_F(DegradeTest, MidBudgetRunsReducedParticles) {
  SimulationConfig config = BaseConfig();
  config.use_cache = false;  // No stale rung: force the reduced-Ns choice.
  std::unique_ptr<Simulation> a = FreshSim(config, 60);

  // A budget of 60% of the full cost rejects kFull but admits the
  // reduced-Ns rung (16/64 of the full cost = 25%).
  const int64_t deadline_ms =
      static_cast<int64_t>(FreshFullCost(*a) * 0.6);
  ASSERT_GT(deadline_ms, 0);
  const Rect window = Window(*a, 5);
  const QueryResult reduced =
      a->pf_engine().EvaluateRange(window, a->now(), {.deadline_ms = deadline_ms});
  EXPECT_EQ(reduced.quality, QualityLevel::kReducedParticles);
  EXPECT_EQ(a->pf_engine().degrade_stats().reduced_particles, 1);
  EXPECT_FALSE(reduced.objects.empty());

  // Identical (seed, load, deadline) => identical degraded answer.
  std::unique_ptr<Simulation> b = FreshSim(config, 60);
  const QueryResult again =
      b->pf_engine().EvaluateRange(window, b->now(), {.deadline_ms = deadline_ms});
  EXPECT_EQ(again.quality, QualityLevel::kReducedParticles);
  EXPECT_EQ(again.objects, reduced.objects);
}

TEST_F(DegradeTest, DegradedStatesNeverPolluteTheCache) {
  std::unique_ptr<Simulation> sim = FreshSim(BaseConfig(), 60);
  const Rect window = Window(*sim, 6);
  // A prune-only and a (cold-cache) full query...
  sim->pf_engine().EvaluateRange(window, sim->now(), {.deadline_ms = 1});
  EXPECT_TRUE(sim->pf_engine().ExportCacheEntries().empty());
  const QueryResult full = sim->pf_engine().EvaluateRange(window, sim->now());

  // ... and a control engine that only ever ran the full query must agree:
  // the degraded query left no state behind that could bend the answer.
  std::unique_ptr<Simulation> control = FreshSim(BaseConfig(), 60);
  const QueryResult expected =
      control->pf_engine().EvaluateRange(window, control->now());
  EXPECT_EQ(full.objects, expected.objects);
  EXPECT_EQ(sim->pf_engine().ExportCacheEntries(),
            control->pf_engine().ExportCacheEntries());
}

TEST_F(DegradeTest, KnnDegradesWithTaggedQuality) {
  std::unique_ptr<Simulation> sim = FreshSim(BaseConfig(), 60);
  Rng rng(7);
  const Point q = Experiment::RandomIndoorPoint(sim->anchors(), rng);

  // Cold cache + 1ms: nothing fits, prune-only returns the k
  // nearest-by-distance-interval objects. An object is claimed outright
  // (probability 1.0) only when its whole distance interval beats the
  // best case of the (k+1)-th candidate; overlapping intervals get the
  // honest uninformative 0.5.
  const KnnResult degraded =
      sim->pf_engine().EvaluateKnn(q, 3, sim->now(), {.deadline_ms = 1});
  EXPECT_EQ(degraded.result.quality, QualityLevel::kPruneOnly);
  EXPECT_EQ(degraded.result.objects.size(), 3u);
  double sum = 0.0;
  for (const auto& [id, p] : degraded.result.objects) {
    EXPECT_TRUE(p == 1.0 || p == 0.5) << "object " << id << " p " << p;
    sum += p;
  }
  EXPECT_EQ(degraded.total_probability, sum);
  EXPECT_LE(degraded.total_probability, 3.0);

  // The same query without a deadline is full quality...
  const KnnResult full = sim->pf_engine().EvaluateKnn(q, 3, sim->now());
  EXPECT_EQ(full.result.quality, QualityLevel::kFull);

  // ... and with the cache it just warmed, a tight deadline one second
  // later lands on the bounded-staleness rung instead of prune-only.
  const KnnResult stale =
      sim->pf_engine().EvaluateKnn(q, 3, sim->now() + 1, {.deadline_ms = 1});
  EXPECT_EQ(stale.result.quality, QualityLevel::kCachedStale);
}

// ---------------------------------------------------------------------------
// ParticleCache degraded-read primitives (satellite: served_stale counter
// and entry-age exposure).

DataCollector::ObjectHistory HistoryAt(ReaderId device, int64_t last) {
  DataCollector::ObjectHistory history;
  history.current_device = device;
  history.entries = {{last - 5, device}, {last, device}};
  return history;
}

FilterResult StateAt(int64_t time) {
  FilterResult state;
  state.time = time;
  state.seconds_processed = 10;
  Particle p;
  p.loc.edge = 1;
  p.loc.offset = 0.5;
  p.weight = 1.0;
  state.particles.Resize(1);
  state.particles.Set(0, p);
  return state;
}

TEST(ParticleCacheDegradeTest, ProbeReportsAgeWithoutTouchingStats) {
  ParticleCache cache;
  const DataCollector::ObjectHistory history = HistoryAt(3, 100);
  cache.Insert(7, history, StateAt(100));

  const auto probe = cache.Probe(7, history, 130);
  ASSERT_TRUE(probe.has_value());
  EXPECT_EQ(probe->state_time, 100);
  EXPECT_EQ(probe->age_seconds, 30);
  EXPECT_TRUE(probe->resumable);

  // A probe is pure observation: no hit/miss/eviction bookkeeping moved.
  const ParticleCache::Stats stats = cache.stats();
  EXPECT_EQ(stats.hits, 0);
  EXPECT_EQ(stats.misses, 0);
  EXPECT_EQ(cache.size(), 1u);

  // Keyed to another device, the entry is useless at any staleness.
  EXPECT_FALSE(cache.Probe(7, HistoryAt(9, 100), 130).has_value());
  EXPECT_FALSE(cache.Probe(8, history, 130).has_value());
}

TEST(ParticleCacheDegradeTest, ProbeFlagsStaleCoastAsNotResumable) {
  ParticleCache cache;
  cache.Insert(7, HistoryAt(3, 100), StateAt(130));  // Coasted to t=130.

  // A newer same-device reading at t=120 is inside the coasted span:
  // resuming would skip it, so the probe says "present but not resumable".
  const auto probe = cache.Probe(7, HistoryAt(3, 120), 140);
  ASSERT_TRUE(probe.has_value());
  EXPECT_FALSE(probe->resumable);
}

TEST(ParticleCacheDegradeTest, LookupStaleCountsAndBoundsAge) {
  ParticleCache cache;
  const DataCollector::ObjectHistory history = HistoryAt(3, 100);
  const FilterResult state = StateAt(100);
  cache.Insert(7, history, state);

  // Within the bound: served as-is, age reported, served_stale counted.
  int64_t age = -1;
  const auto served = cache.LookupStale(7, history, 120, /*max_age=*/30, &age);
  ASSERT_TRUE(served.has_value());
  EXPECT_EQ(*served, state);
  EXPECT_EQ(age, 20);
  EXPECT_EQ(cache.stats().served_stale, 1);

  // Beyond the bound: refused, not counted.
  EXPECT_FALSE(cache.LookupStale(7, history, 200, /*max_age=*/30).has_value());
  EXPECT_EQ(cache.stats().served_stale, 1);

  // Serving stale never evicts: a later full-quality resume still hits.
  EXPECT_EQ(cache.size(), 1u);
  EXPECT_TRUE(cache.Lookup(7, history).has_value());
  EXPECT_EQ(cache.stats().hits, 1);
}

}  // namespace
}  // namespace ipqs
