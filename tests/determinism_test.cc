// Determinism of query evaluation (PR 1): every object's inference draws
// from its own (seed, object, timestamp) random stream, so query answers
// are byte-identical regardless of thread count, candidate order, pruning,
// or which other objects were inferred first. These tests pin that
// guarantee against a simulated world with real reading histories.

#include <algorithm>
#include <memory>
#include <random>
#include <vector>

#include <gtest/gtest.h>

#include "query/query_engine.h"
#include "sim/simulation.h"

namespace ipqs {
namespace {

// One warmed-up world shared by every test (building it is the expensive
// part; the engines under test are constructed fresh per scenario).
class DeterminismTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    SimulationConfig config;
    config.trace.num_objects = 60;
    config.seed = 11;
    sim_ = Simulation::Create(config).value().release();
    sim_->Run(300);
  }
  static void TearDownTestSuite() {
    delete sim_;
    sim_ = nullptr;
  }

  static QueryEngine MakeEngine(int num_threads, bool use_cache,
                                bool use_pruning) {
    EngineConfig config;
    config.num_threads = num_threads;
    config.use_cache = use_cache;
    config.use_pruning = use_pruning;
    config.seed = 99;
    return QueryEngine(&sim_->graph(), &sim_->plan(), &sim_->anchors(),
                       &sim_->anchor_graph(), &sim_->deployment(),
                       &sim_->deployment_graph(), &sim_->collector(), config);
  }

  static Rect Window() {
    // A mid-building window large enough to catch several objects.
    const Point center = sim_->deployment().reader(9).pos;
    return Rect::FromCenter(center, 14, 14);
  }

  static void ExpectSameResult(const QueryResult& a, const QueryResult& b,
                               const char* label) {
    ASSERT_EQ(a.objects.size(), b.objects.size()) << label;
    for (size_t i = 0; i < a.objects.size(); ++i) {
      EXPECT_EQ(a.objects[i].first, b.objects[i].first) << label;
      // Byte-identical, not approximately equal.
      EXPECT_EQ(a.objects[i].second, b.objects[i].second) << label;
    }
  }

  static Simulation* sim_;
};

Simulation* DeterminismTest::sim_ = nullptr;

TEST_F(DeterminismTest, RangeResultsIdenticalAcrossThreadCounts) {
  const int64_t now = sim_->now();
  const Rect window = Window();
  for (const bool use_cache : {false, true}) {
    QueryEngine baseline = MakeEngine(1, use_cache, /*use_pruning=*/true);
    const QueryResult expected = baseline.EvaluateRange(window, now);
    EXPECT_FALSE(expected.objects.empty());
    for (const int threads : {2, 8}) {
      QueryEngine engine = MakeEngine(threads, use_cache, true);
      const QueryResult got = engine.EvaluateRange(window, now);
      ExpectSameResult(expected, got,
                       use_cache ? "cache on" : "cache off");
    }
  }
}

TEST_F(DeterminismTest, KnnResultsIdenticalAcrossThreadCounts) {
  const int64_t now = sim_->now();
  const Point q = sim_->deployment().reader(5).pos;
  for (const bool use_cache : {false, true}) {
    QueryEngine baseline = MakeEngine(1, use_cache, true);
    const KnnResult expected = baseline.EvaluateKnn(q, 3, now);
    EXPECT_FALSE(expected.result.objects.empty());
    for (const int threads : {2, 8}) {
      QueryEngine engine = MakeEngine(threads, use_cache, true);
      const KnnResult got = engine.EvaluateKnn(q, 3, now);
      ExpectSameResult(expected.result, got.result,
                       use_cache ? "cache on" : "cache off");
      EXPECT_EQ(expected.total_probability, got.total_probability);
      EXPECT_EQ(expected.anchors_searched, got.anchors_searched);
    }
  }
}

TEST_F(DeterminismTest, ShuffledCandidateOrderDoesNotChangeAnswers) {
  const int64_t now = sim_->now();
  std::vector<ObjectId> candidates = sim_->collector().KnownObjects();
  ASSERT_GT(candidates.size(), 2u);

  QueryEngine sorted_engine = MakeEngine(1, /*use_cache=*/false, true);
  std::sort(candidates.begin(), candidates.end());
  sorted_engine.InferBatch(candidates, now);

  QueryEngine shuffled_engine = MakeEngine(8, /*use_cache=*/false, true);
  std::mt19937 shuffle_rng(123);
  std::shuffle(candidates.begin(), candidates.end(), shuffle_rng);
  shuffled_engine.InferBatch(candidates, now);

  const Rect window = Window();
  const RangeQueryEvaluator eval(&sim_->plan(), &sim_->anchors());
  ExpectSameResult(eval.Evaluate(sorted_engine.table(), window),
                   eval.Evaluate(shuffled_engine.table(), window),
                   "shuffled candidates");
  for (ObjectId object : candidates) {
    const AnchorDistribution* a = sorted_engine.table().Distribution(object);
    const AnchorDistribution* b =
        shuffled_engine.table().Distribution(object);
    ASSERT_NE(a, nullptr) << "object " << object;
    ASSERT_NE(b, nullptr) << "object " << object;
    EXPECT_EQ(a->entries(), b->entries()) << "object " << object;
  }
}

TEST_F(DeterminismTest, PruningDoesNotChangeInferredDistributions) {
  // Pruning decides WHICH objects get inferred, never WHAT is inferred:
  // the distribution of any object inferred under both settings must be
  // byte-identical (the shared RNG this test guards against would have
  // leaked consumption from the extra unpruned candidates).
  const int64_t now = sim_->now();
  const Rect window = Window();

  QueryEngine pruned = MakeEngine(1, /*use_cache=*/false, true);
  QueryEngine unpruned = MakeEngine(1, /*use_cache=*/false, false);
  const QueryResult pruned_result = pruned.EvaluateRange(window, now);
  const QueryResult unpruned_result = unpruned.EvaluateRange(window, now);

  EXPECT_LE(pruned.stats().candidates_inferred,
            unpruned.stats().candidates_inferred);
  for (ObjectId object : sim_->collector().KnownObjects()) {
    const AnchorDistribution* a = pruned.table().Distribution(object);
    const AnchorDistribution* b = unpruned.table().Distribution(object);
    if (a == nullptr || b == nullptr) {
      continue;  // Pruned away on one side: nothing to compare.
    }
    EXPECT_EQ(a->entries(), b->entries()) << "object " << object;
  }
  // Objects the window actually sees score identically (pruning is
  // conservative: anything it drops has no mass in the window).
  for (const auto& [object, p] : unpruned_result.objects) {
    EXPECT_EQ(pruned_result.ProbabilityOf(object), p) << "object " << object;
  }
}

TEST_F(DeterminismTest, CacheOffInferenceIndependentOfQueryHistory) {
  // With the cache off, the answer at a timestamp is a pure function of
  // (seed, history, now): an engine that answered three earlier
  // timestamps and a fresh engine agree byte-for-byte.
  const int64_t now = sim_->now();
  const Rect window = Window();

  QueryEngine veteran = MakeEngine(4, /*use_cache=*/false, true);
  veteran.EvaluateRange(window, now);
  veteran.EvaluateRange(window, now + 10);
  veteran.EvaluateRange(window, now + 20);
  const QueryResult from_veteran = veteran.EvaluateRange(window, now + 30);

  QueryEngine fresh = MakeEngine(1, /*use_cache=*/false, true);
  const QueryResult from_fresh = fresh.EvaluateRange(window, now + 30);
  ExpectSameResult(from_fresh, from_veteran, "query history independence");
}

TEST_F(DeterminismTest, MetricsAndTracingDoNotPerturbAnswers) {
  // Observability must be a pure observer: with a registry and a trace
  // recorder wired in, every answer stays byte-identical to the bare
  // engine's, at any thread count (metrics never feed the random streams).
  const int64_t now = sim_->now();
  const Rect window = Window();
  const Point q = sim_->deployment().reader(5).pos;

  QueryEngine bare = MakeEngine(1, /*use_cache=*/true, /*use_pruning=*/true);
  const QueryResult expected_range = bare.EvaluateRange(window, now);
  const KnnResult expected_knn = bare.EvaluateKnn(q, 3, now);
  EXPECT_FALSE(expected_range.objects.empty());

  for (const int threads : {1, 8}) {
    obs::MetricsRegistry registry;
    obs::TraceRecorder recorder;
    EngineConfig config;
    config.num_threads = threads;
    config.use_cache = true;
    config.use_pruning = true;
    config.seed = 99;
    config.metrics = &registry;
    config.metrics_prefix = "t";
    config.trace = &recorder;
    QueryEngine observed(&sim_->graph(), &sim_->plan(), &sim_->anchors(),
                         &sim_->anchor_graph(), &sim_->deployment(),
                         &sim_->deployment_graph(), &sim_->collector(),
                         config);

    const QueryResult got_range = observed.EvaluateRange(window, now);
    ExpectSameResult(expected_range, got_range, "metrics on, range");
    const KnnResult got_knn = observed.EvaluateKnn(q, 3, now);
    ExpectSameResult(expected_knn.result, got_knn.result, "metrics on, knn");
    EXPECT_EQ(expected_knn.total_probability, got_knn.total_probability);

    // The observer actually observed: stage histograms filled and spans
    // recorded.
    EXPECT_EQ(registry.GetHistogram("t.query.range_latency_ns")
                  ->snapshot()
                  .count,
              1);
    EXPECT_EQ(registry.GetHistogram("t.query.knn_latency_ns")
                  ->snapshot()
                  .count,
              1);
    EXPECT_GT(registry.GetHistogram("t.filter.run_ns")->snapshot().count, 0);
    EXPECT_GT(recorder.size(), 0u);
  }
}

TEST_F(DeterminismTest, ExplainCollectionDoesNotPerturbAnswers) {
  // EXPLAIN provenance is observation only: for every thread count, an
  // engine asked to fill a QueryExplain answers byte-identically to one
  // that was not, across the full ladder of deadline settings (explain
  // reads counters and probes the cache non-mutatingly; it must never
  // touch the random streams or the admission decision).
  const int64_t now = sim_->now();
  const Rect window = Window();
  const Point q = sim_->deployment().reader(5).pos;

  for (const int threads : {1, 4, 8}) {
    for (const int64_t deadline_ms : {int64_t{0}, int64_t{1}, int64_t{1 << 30}}) {
      QueryEngine plain = MakeEngine(threads, /*use_cache=*/true, true);
      QueryEngine observed = MakeEngine(threads, /*use_cache=*/true, true);

      // Same query sequence on both engines (cache state is part of the
      // answer); only one engine collects provenance.
      const QueryResult expected_range =
          plain.EvaluateRange(window, now, {.deadline_ms = deadline_ms});
      obs::QueryExplain range_explain;
      const QueryResult got_range =
          observed.EvaluateRange(
              window, now,
              {.deadline_ms = deadline_ms, .explain = &range_explain});
      ExpectSameResult(expected_range, got_range, "explain on, range");
      EXPECT_EQ(expected_range.quality, got_range.quality);

      const KnnResult expected_knn =
          plain.EvaluateKnn(q, 3, now + 1, {.deadline_ms = deadline_ms});
      obs::QueryExplain knn_explain;
      const KnnResult got_knn =
          observed.EvaluateKnn(
              q, 3, now + 1,
              {.deadline_ms = deadline_ms, .explain = &knn_explain});
      ExpectSameResult(expected_knn.result, got_knn.result, "explain on, knn");
      EXPECT_EQ(expected_knn.total_probability, got_knn.total_probability);

      // The records were actually filled, and agree with the answers.
      EXPECT_EQ(range_explain.kind, "range");
      EXPECT_EQ(range_explain.quality,
                std::string(ToString(got_range.quality)));
      EXPECT_EQ(range_explain.result_objects,
                static_cast<int64_t>(got_range.objects.size()));
      EXPECT_EQ(knn_explain.kind, "knn");
      EXPECT_EQ(knn_explain.k, 3);
    }
  }
}

TEST_F(DeterminismTest, SubscriptionsDoNotPerturbAnswers) {
  // Standing subscriptions run against a DEDICATED engine with a private
  // cache and a private RNG-stream draw for their windows/points, so the
  // ad-hoc pf/sm serving path must answer byte-identically whether the
  // subscription subsystem is off or ticking away every second.
  SimulationConfig config;
  config.trace.num_objects = 40;
  config.seed = 313;

  SimulationConfig with_subs = config;
  with_subs.num_subscriptions = 8;
  with_subs.sub_poll_interval_seconds = 2;

  auto plain = Simulation::Create(config).value();
  auto subscribed = Simulation::Create(with_subs).value();
  plain->Run(150);
  subscribed->Run(150);
  ASSERT_NE(subscribed->subscriptions(), nullptr);
  EXPECT_GT(subscribed->subscriptions()->stats().ticks, 0);

  const Rect window =
      Rect::FromCenter(plain->deployment().reader(9).pos, 14, 14);
  const Point q = plain->deployment().reader(5).pos;
  for (const int64_t offset : {int64_t{0}, int64_t{10}}) {
    if (offset > 0) {
      plain->Run(static_cast<int>(offset));
      subscribed->Run(static_cast<int>(offset));
    }
    const int64_t now = plain->now();
    ASSERT_EQ(now, subscribed->now());
    ExpectSameResult(plain->pf_engine().EvaluateRange(window, now),
                     subscribed->pf_engine().EvaluateRange(window, now),
                     "subscriptions on, pf range");
    ExpectSameResult(plain->sm_engine().EvaluateRange(window, now),
                     subscribed->sm_engine().EvaluateRange(window, now),
                     "subscriptions on, sm range");
    const KnnResult knn_plain = plain->pf_engine().EvaluateKnn(q, 3, now);
    const KnnResult knn_subs = subscribed->pf_engine().EvaluateKnn(q, 3, now);
    ExpectSameResult(knn_plain.result, knn_subs.result,
                     "subscriptions on, pf knn");
    EXPECT_EQ(knn_plain.total_probability, knn_subs.total_probability);
    EXPECT_EQ(knn_plain.anchors_searched, knn_subs.anchors_searched);
  }
}

TEST_F(DeterminismTest, HealthMonitorOnCleanRunDoesNotPerturbAnswers) {
  // On a clean run the monitor holds every reader healthy, so arming it
  // must not move a single byte of any answer — even with negative
  // information on (where the silence-trust mask actually reaches the
  // weighting kernels) and at any thread count.
  SimulationConfig config;
  config.trace.num_objects = 40;
  config.seed = 313;
  config.filter.measurement.use_negative_information = true;

  SimulationConfig with_health = config;
  with_health.health.enabled = true;

  auto plain = Simulation::Create(config).value();
  auto monitored = Simulation::Create(with_health).value();
  plain->Run(200);
  monitored->Run(200);
  ASSERT_NE(monitored->health_monitor(), nullptr);
  ASSERT_EQ(monitored->health_stats().Total(), 0);  // Clean: no verdicts.

  const Rect window =
      Rect::FromCenter(plain->deployment().reader(9).pos, 14, 14);
  const Point q = plain->deployment().reader(5).pos;
  const int64_t now = plain->now();
  ASSERT_EQ(now, monitored->now());
  for (const int threads : {1, 4, 8}) {
    EngineConfig engine_config;
    engine_config.num_threads = threads;
    engine_config.use_cache = true;
    engine_config.use_pruning = true;
    engine_config.seed = 99;
    QueryEngine off(&plain->graph(), &plain->plan(), &plain->anchors(),
                    &plain->anchor_graph(), &plain->deployment(),
                    &plain->deployment_graph(), &plain->collector(),
                    engine_config);
    engine_config.health = monitored->health_monitor();
    QueryEngine on(&monitored->graph(), &monitored->plan(),
                   &monitored->anchors(), &monitored->anchor_graph(),
                   &monitored->deployment(), &monitored->deployment_graph(),
                   &monitored->collector(), engine_config);
    const QueryResult range_off = off.EvaluateRange(window, now);
    const QueryResult range_on = on.EvaluateRange(window, now);
    ExpectSameResult(range_off, range_on, "health on, range");
    EXPECT_FALSE(range_on.coverage_degraded);
    const KnnResult knn_off = off.EvaluateKnn(q, 3, now);
    const KnnResult knn_on = on.EvaluateKnn(q, 3, now);
    ExpectSameResult(knn_off.result, knn_on.result, "health on, knn");
    EXPECT_EQ(knn_off.total_probability, knn_on.total_probability);
    EXPECT_FALSE(knn_on.result.coverage_degraded);
  }
}

TEST_F(DeterminismTest, CachedEngineDeterministicGivenSameQuerySequence) {
  // With the cache ON the answer legitimately depends on the sequence of
  // queried timestamps (resume vs. full run) — but two engines fed the
  // SAME sequence must agree at every step, at different thread counts.
  const int64_t now = sim_->now();
  const Rect window = Window();

  QueryEngine a = MakeEngine(1, /*use_cache=*/true, true);
  QueryEngine b = MakeEngine(8, /*use_cache=*/true, true);
  for (const int64_t t : {now, now + 15, now + 30}) {
    const QueryResult ra = a.EvaluateRange(window, t);
    const QueryResult rb = b.EvaluateRange(window, t);
    ExpectSameResult(ra, rb, "cached sequence");
  }
  EXPECT_GT(a.cache_stats().hits, 0);
}

}  // namespace
}  // namespace ipqs
