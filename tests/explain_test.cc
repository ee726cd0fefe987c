// QueryExplain provenance (obs/explain.h threaded through the query
// engine). The tests force every rung of the degradation ladder and
// assert the record names the rung AND the budget reasoning that chose it;
// one full record is golden-pinned as JSON so the export format cannot
// drift silently. Collection never perturbing answers is pinned separately
// in determinism_test.cc.

#include <cstdlib>
#include <fstream>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "obs/explain.h"
#include "obs/json.h"
#include "query/query_engine.h"
#include "sim/experiment.h"
#include "sim/simulation.h"

namespace ipqs {
namespace {

// Mirror of degrade_test.cc's recipes: pruning off for a stable candidate
// set, 1 filter-second per deadline-ms so deadlines read as budgets.
SimulationConfig BaseConfig() {
  SimulationConfig config;
  config.trace.num_objects = 20;
  config.num_readers = 10;
  config.seed = 123;
  config.use_pruning = false;
  config.degrade.filter_seconds_per_ms = 1.0;
  return config;
}

std::unique_ptr<Simulation> FreshSim(const SimulationConfig& config,
                                     int seconds = 60) {
  std::unique_ptr<Simulation> sim = Simulation::Create(config).value();
  sim->Run(seconds);
  return sim;
}

Rect Window(const Simulation& sim, uint64_t salt) {
  Rng rng(salt);
  return Experiment::RandomWindow(sim.plan(), 0.25, rng);
}

// The engine's full-level work estimate for a cold cache (see
// degrade_test.cc).
double FreshFullCost(const Simulation& sim) {
  double total = 0.0;
  const int64_t now = sim.now();
  const int64_t coast = sim.config().filter.max_coast_seconds;
  for (ObjectId object : sim.collector().KnownObjects()) {
    const DataCollector::ObjectHistory* h = sim.collector().History(object);
    const int64_t horizon = std::min(h->LastTime() + coast, now);
    total +=
        static_cast<double>(std::max<int64_t>(horizon - h->FirstTime(), 0)) +
        1.0;
  }
  return total;
}

// ---------------------------------------------------------------------------
// Rung coverage through the serial engine path.

TEST(ExplainTest, NoDeadlineExplainsFullService) {
  std::unique_ptr<Simulation> sim = FreshSim(BaseConfig());
  obs::QueryExplain e;
  const QueryResult r =
      sim->pf_engine().EvaluateRange(Window(*sim, 1), sim->now(),
                                     {.deadline_ms = 0, .explain = &e});
  EXPECT_EQ(r.quality, QualityLevel::kFull);
  EXPECT_EQ(e.kind, "range");
  EXPECT_EQ(e.quality, "full");
  EXPECT_EQ(e.budget_reason, "no_deadline");
  EXPECT_EQ(e.budget_filter_seconds, -1.0);
  EXPECT_FALSE(e.pruning_enabled);
  // Not every tag has necessarily been read by t=60; the record reports
  // the collector's real census, whatever it is.
  EXPECT_EQ(e.objects_known,
            static_cast<int64_t>(sim->collector().num_known_objects()));
  EXPECT_GT(e.objects_known, 0);
  // Pruning off: every known object is a candidate, every candidate's
  // cache state was probed, and the cold cache missed all of them.
  EXPECT_EQ(e.candidates, e.objects_known);
  EXPECT_EQ(e.cache_misses, e.candidates);
  EXPECT_EQ(e.cache_hits, 0);
  EXPECT_EQ(e.cache_stale, 0);
  // Full service charged real inference work.
  EXPECT_GT(e.filter_runs, 0);
  EXPECT_GT(e.filter_seconds, 0);
  EXPECT_EQ(e.stale_served_objects, 0);
  EXPECT_EQ(e.result_objects, static_cast<int64_t>(r.objects.size()));
  EXPECT_GT(e.total_ns, 0);
  EXPECT_FALSE(e.batched);
}

TEST(ExplainTest, GenerousDeadlineExplainsFullFits) {
  std::unique_ptr<Simulation> sim = FreshSim(BaseConfig());
  obs::QueryExplain e;
  const QueryResult r = sim->pf_engine().EvaluateRange(
      Window(*sim, 2), sim->now(), {.deadline_ms = 1 << 30, .explain = &e});
  EXPECT_EQ(r.quality, QualityLevel::kFull);
  EXPECT_EQ(e.quality, "full");
  EXPECT_EQ(e.budget_reason, "full_fits");
  EXPECT_GT(e.budget_filter_seconds, 0.0);
  // The decision recorded the cost it admitted; the cheaper rungs were
  // never evaluated.
  EXPECT_GT(e.est_full_cost, 0.0);
  EXPECT_LE(e.est_full_cost, e.budget_filter_seconds);
  EXPECT_EQ(e.est_stale_cost, -1.0);
  EXPECT_EQ(e.est_reduced_cost, -1.0);
}

TEST(ExplainTest, TinyDeadlineExplainsBudgetExhausted) {
  std::unique_ptr<Simulation> sim = FreshSim(BaseConfig());
  obs::QueryExplain e;
  const QueryResult r = sim->pf_engine().EvaluateRange(
      Window(*sim, 3), sim->now(), {.deadline_ms = 1, .explain = &e});
  EXPECT_EQ(r.quality, QualityLevel::kPruneOnly);
  EXPECT_EQ(e.quality, "prune_only");
  EXPECT_EQ(e.budget_reason, "budget_exhausted");
  EXPECT_EQ(e.budget_filter_seconds, 1.0);
  // Every rung was priced and every rung was too expensive.
  EXPECT_GT(e.est_full_cost, e.budget_filter_seconds);
  EXPECT_GT(e.est_reduced_cost, e.budget_filter_seconds);
  // No inference ran: the explain charges zero filter work.
  EXPECT_EQ(e.filter_runs, 0);
  EXPECT_EQ(e.filter_seconds, 0);
}

TEST(ExplainTest, WarmCacheExplainsStaleFits) {
  std::unique_ptr<Simulation> sim = FreshSim(BaseConfig());
  const Rect window = Window(*sim, 4);
  // Warm the cache at full quality, then choke the budget a second later.
  const QueryResult full = sim->pf_engine().EvaluateRange(window, sim->now());
  ASSERT_EQ(full.quality, QualityLevel::kFull);

  obs::QueryExplain e;
  const QueryResult stale = sim->pf_engine().EvaluateRange(
      window, sim->now() + 1, {.deadline_ms = 5, .explain = &e});
  EXPECT_EQ(stale.quality, QualityLevel::kCachedStale);
  EXPECT_EQ(e.quality, "cached_stale");
  EXPECT_EQ(e.budget_reason, "stale_fits");
  // The probe saw the warm entries. At +1s they are still resumable, so
  // they classify as hits -- serving them as-is (without the resume) was
  // purely the budget's call, and the serve path recorded how many
  // objects went out stale.
  EXPECT_GT(e.cache_hits, 0);
  EXPECT_EQ(e.cache_misses, 0);
  EXPECT_GT(e.stale_served_objects, 0);
  EXPECT_GT(e.est_full_cost, e.budget_filter_seconds);
  EXPECT_GE(e.est_stale_cost, 0.0);
}

TEST(ExplainTest, MidBudgetExplainsReducedFits) {
  SimulationConfig config = BaseConfig();
  config.use_cache = false;  // No stale rung: force the reduced-Ns choice.
  std::unique_ptr<Simulation> sim = FreshSim(config);
  const int64_t deadline_ms = static_cast<int64_t>(FreshFullCost(*sim) * 0.6);
  ASSERT_GT(deadline_ms, 0);

  obs::QueryExplain e;
  const QueryResult r = sim->pf_engine().EvaluateRange(
      Window(*sim, 5), sim->now(), {.deadline_ms = deadline_ms, .explain = &e});
  EXPECT_EQ(r.quality, QualityLevel::kReducedParticles);
  EXPECT_EQ(e.quality, "reduced_particles");
  EXPECT_EQ(e.budget_reason, "reduced_fits");
  EXPECT_GT(e.est_full_cost, e.budget_filter_seconds);
  EXPECT_GT(e.est_reduced_cost, 0.0);
  EXPECT_LE(e.est_reduced_cost, e.budget_filter_seconds);
  // Cache off: every candidate probe is a miss by definition.
  EXPECT_EQ(e.cache_misses, e.candidates);
}

TEST(ExplainTest, KnnExplainCarriesDistanceIndexProvenance) {
  SimulationConfig config = BaseConfig();
  config.use_pruning = true;  // kNN pruning consults the distance index.
  std::unique_ptr<Simulation> sim = FreshSim(config);
  Rng rng(7);
  const Point q = Experiment::RandomIndoorPoint(sim->anchors(), rng);

  obs::QueryExplain e;
  const KnnResult r =
      sim->pf_engine().EvaluateKnn(q, 3, sim->now(),
                                   {.deadline_ms = 0, .explain = &e});
  EXPECT_EQ(e.kind, "knn");
  EXPECT_EQ(e.k, 3);
  EXPECT_TRUE(e.pruning_enabled);
  // The index was consulted: slack is real and the lookup was charged.
  EXPECT_GE(e.dindex_slack, 0.0);
  EXPECT_EQ(e.dindex_hits + e.dindex_misses, 1);
  EXPECT_EQ(e.result_objects, static_cast<int64_t>(r.result.objects.size()));
  EXPECT_EQ(e.result_total_probability, r.total_probability);
}

// ---------------------------------------------------------------------------
// Batch explains.

TEST(ExplainTest, BatchExplainsShareDecisionAndMarkDuplicates) {
  std::unique_ptr<Simulation> sim = FreshSim(BaseConfig());
  const Rect window = Window(*sim, 8);
  Rng rng(9);
  const Point q = Experiment::RandomIndoorPoint(sim->anchors(), rng);
  const std::vector<BatchQuery> batch = {
      BatchQuery::Range(window),
      BatchQuery::Knn(q, 3),
      BatchQuery::Range(window),  // Duplicate of slot 0.
  };

  std::vector<obs::QueryExplain> explains;
  const std::vector<BatchAnswer> answers = sim->pf_engine().EvaluateBatch(
      batch, sim->now(), {.deadline_ms = 0, .explains = &explains});
  ASSERT_EQ(explains.size(), batch.size());

  EXPECT_EQ(explains[0].kind, "range");
  EXPECT_EQ(explains[1].kind, "knn");
  EXPECT_EQ(explains[2].kind, "range");
  EXPECT_FALSE(explains[0].deduped);
  EXPECT_FALSE(explains[1].deduped);
  EXPECT_TRUE(explains[2].deduped);
  for (const obs::QueryExplain& e : explains) {
    EXPECT_TRUE(e.batched);
    EXPECT_EQ(e.batch_size, 3);
    // One admission decision for the whole batch.
    EXPECT_EQ(e.budget_reason, "no_deadline");
    EXPECT_EQ(e.quality, "full");
  }
  // Duplicate slots carry their representative's record (same counts).
  EXPECT_EQ(explains[2].candidates, explains[0].candidates);
  EXPECT_EQ(explains[2].result_objects, explains[0].result_objects);
  EXPECT_EQ(answers[2].range.objects, answers[0].range.objects);
}

TEST(ExplainTest, BatchExplainsCoverEveryRung) {
  // The same deadline recipes as the serial rung tests, driven through
  // EvaluateBatch with an explicit deadline. Each case gets a fresh
  // world so the cache state matches the serial scenarios.
  struct Case {
    const char* want_quality;
    const char* want_reason;
  };

  // kFull via no deadline.
  {
    std::unique_ptr<Simulation> sim = FreshSim(BaseConfig());
    std::vector<obs::QueryExplain> explains;
    sim->pf_engine().EvaluateBatch({BatchQuery::Range(Window(*sim, 10))},
                                   sim->now(),
                                   {.deadline_ms = 0, .explains = &explains});
    ASSERT_EQ(explains.size(), 1u);
    EXPECT_EQ(explains[0].quality, "full");
    EXPECT_EQ(explains[0].budget_reason, "no_deadline");
  }
  // kPruneOnly via a 1ms budget on a cold cache.
  {
    std::unique_ptr<Simulation> sim = FreshSim(BaseConfig());
    std::vector<obs::QueryExplain> explains;
    sim->pf_engine().EvaluateBatch({BatchQuery::Range(Window(*sim, 11))},
                                   sim->now(),
                                   {.deadline_ms = 1, .explains = &explains});
    ASSERT_EQ(explains.size(), 1u);
    EXPECT_EQ(explains[0].quality, "prune_only");
    EXPECT_EQ(explains[0].budget_reason, "budget_exhausted");
  }
  // kCachedStale via a warm cache and a tight budget one second later.
  {
    std::unique_ptr<Simulation> sim = FreshSim(BaseConfig());
    const Rect window = Window(*sim, 12);
    ASSERT_EQ(sim->pf_engine().EvaluateRange(window, sim->now()).quality,
              QualityLevel::kFull);
    std::vector<obs::QueryExplain> explains;
    sim->pf_engine().EvaluateBatch({BatchQuery::Range(window)}, sim->now() + 1,
                                   {.deadline_ms = 5, .explains = &explains});
    ASSERT_EQ(explains.size(), 1u);
    EXPECT_EQ(explains[0].quality, "cached_stale");
    EXPECT_EQ(explains[0].budget_reason, "stale_fits");
    EXPECT_GT(explains[0].stale_served_objects, 0);
  }
  // kReducedParticles via cache-off and a 60% budget.
  {
    SimulationConfig config = BaseConfig();
    config.use_cache = false;
    std::unique_ptr<Simulation> sim = FreshSim(config);
    const int64_t deadline_ms =
        static_cast<int64_t>(FreshFullCost(*sim) * 0.6);
    ASSERT_GT(deadline_ms, 0);
    std::vector<obs::QueryExplain> explains;
    sim->pf_engine().EvaluateBatch(
        {BatchQuery::Range(Window(*sim, 13))}, sim->now(),
        {.deadline_ms = deadline_ms, .explains = &explains});
    ASSERT_EQ(explains.size(), 1u);
    EXPECT_EQ(explains[0].quality, "reduced_particles");
    EXPECT_EQ(explains[0].budget_reason, "reduced_fits");
  }
}

TEST(ExplainTest, BatchExplainOnOffAnswersIdentical) {
  // Twin worlds, twin engines, one collects explains: answers must be
  // byte-identical (the batched arm of the determinism guarantee).
  std::unique_ptr<Simulation> a = FreshSim(BaseConfig());
  std::unique_ptr<Simulation> b = FreshSim(BaseConfig());
  const Rect window = Window(*a, 14);
  Rng rng(15);
  const Point q = Experiment::RandomIndoorPoint(a->anchors(), rng);
  const std::vector<BatchQuery> batch = {BatchQuery::Range(window),
                                         BatchQuery::Knn(q, 3)};

  const std::vector<BatchAnswer> expected =
      a->pf_engine().EvaluateBatch(batch, a->now());
  std::vector<obs::QueryExplain> explains;
  const std::vector<BatchAnswer> got = b->pf_engine().EvaluateBatch(
      batch, b->now(), {.explains = &explains});

  ASSERT_EQ(expected.size(), got.size());
  EXPECT_EQ(expected[0].range.objects, got[0].range.objects);
  EXPECT_EQ(expected[1].knn.result.objects, got[1].knn.result.objects);
  EXPECT_EQ(expected[1].knn.total_probability, got[1].knn.total_probability);
}

TEST(ExplainTest, BatchPruneOnlyKnnReportsTheDistanceRowsItRead) {
  // Pruning off: kNN pruning reads no distance row, but the prune-only
  // fallback ranks candidates by network distance and reads one row per
  // distinct query. Each record reports the slack its row carried, and
  // the batch's two lookups.
  std::unique_ptr<Simulation> sim = FreshSim(BaseConfig());
  Rng rng(21);
  const Point a = Experiment::RandomIndoorPoint(sim->anchors(), rng);
  const Point b = Experiment::RandomIndoorPoint(sim->anchors(), rng);
  ASSERT_FALSE(a.x == b.x && a.y == b.y);

  std::vector<obs::QueryExplain> explains;
  const std::vector<BatchAnswer> answers = sim->pf_engine().EvaluateBatch(
      {BatchQuery::Knn(a, 3), BatchQuery::Knn(b, 3)}, sim->now(),
      {.deadline_ms = 1, .explains = &explains});
  ASSERT_EQ(explains.size(), 2u);
  for (size_t i = 0; i < explains.size(); ++i) {
    EXPECT_EQ(answers[i].knn.result.quality, QualityLevel::kPruneOnly);
    EXPECT_EQ(explains[i].quality, "prune_only");
    EXPECT_FALSE(explains[i].pruning_enabled);
    EXPECT_GE(explains[i].dindex_slack, 0.0) << "slot " << i;
    EXPECT_EQ(explains[i].dindex_hits + explains[i].dindex_misses, 2)
        << "slot " << i;
  }
}

// ---------------------------------------------------------------------------
// JSON export.

TEST(ExplainTest, JsonParsesAndCarriesTheDecisionPaths) {
  std::unique_ptr<Simulation> sim = FreshSim(BaseConfig());
  obs::QueryExplain e;
  sim->pf_engine().EvaluateRange(Window(*sim, 20), sim->now(),
                                 {.deadline_ms = 1, .explain = &e});

  const std::optional<obs::JsonValue> doc = obs::JsonValue::Parse(e.ToJson());
  ASSERT_TRUE(doc.has_value());
  EXPECT_EQ(doc->FindPath("kind")->AsString(), "range");
  EXPECT_EQ(doc->FindPath("quality")->AsString(), "prune_only");
  EXPECT_EQ(doc->FindPath("budget.reason")->AsString(), "budget_exhausted");
  EXPECT_EQ(doc->FindPath("cache.misses")->AsInt(), e.cache_misses);
  EXPECT_EQ(doc->FindPath("work.filter_seconds")->AsInt(), 0);
  EXPECT_NE(doc->FindPath("timing_ns.total"), nullptr);
  EXPECT_NE(doc->FindPath("ingest.watermark"), nullptr);
  EXPECT_NE(doc->FindPath("result.total_probability"), nullptr);

  // include_timings=false zeroes exactly the wall-clock fields.
  const std::optional<obs::JsonValue> stable =
      obs::JsonValue::Parse(e.ToJson(/*include_timings=*/false));
  ASSERT_TRUE(stable.has_value());
  EXPECT_EQ(stable->FindPath("timing_ns.total")->AsInt(), 0);
  EXPECT_EQ(stable->FindPath("cache.misses")->AsInt(), e.cache_misses);
}

TEST(ExplainTest, GoldenRecordPinsTheExportFormat) {
  // One full record, serialized without timings, against a checked-in
  // golden file. Any change to the record's fields, key order, or number
  // formatting shows up as a diff here. Regenerate deliberately with
  // IPQS_UPDATE_GOLDEN=1.
  std::unique_ptr<Simulation> sim = FreshSim(BaseConfig());
  obs::QueryExplain e;
  sim->pf_engine().EvaluateRange(Window(*sim, 30), sim->now(),
                                 {.deadline_ms = 1 << 20, .explain = &e});
  const std::string got = e.ToJson(/*include_timings=*/false) + "\n";

  const std::string path =
      std::string(IPQS_TEST_DATA_DIR) + "/golden_explain.json";
  if (std::getenv("IPQS_UPDATE_GOLDEN") != nullptr) {
    std::ofstream out(path, std::ios::trunc);
    out << got;
    ASSERT_TRUE(out.good());
    GTEST_SKIP() << "golden file regenerated at " << path;
  }
  std::ifstream in(path);
  ASSERT_TRUE(in.good()) << "missing " << path
                         << " (regenerate with IPQS_UPDATE_GOLDEN=1)";
  std::stringstream want;
  want << in.rdbuf();
  EXPECT_EQ(got, want.str());
}

TEST(ExplainTest, WriteExplainsJsonIsAnArrayOfRecords) {
  std::unique_ptr<Simulation> sim = FreshSim(BaseConfig());
  std::vector<obs::QueryExplain> explains(2);
  // Cold-cache tiny budget first (prune_only), then unlimited (full);
  // the other order would warm the cache and turn the second record into
  // a stale serve.
  sim->pf_engine().EvaluateRange(Window(*sim, 31), sim->now(),
                                 {.deadline_ms = 1, .explain = &explains[0]});
  sim->pf_engine().EvaluateRange(Window(*sim, 32), sim->now(),
                                 {.deadline_ms = 0, .explain = &explains[1]});
  std::ostringstream os;
  obs::WriteExplainsJson(os, explains);
  const std::optional<obs::JsonValue> doc = obs::JsonValue::Parse(os.str());
  ASSERT_TRUE(doc.has_value());
  ASSERT_TRUE(doc->is_array());
  ASSERT_EQ(doc->items().size(), 2u);
  EXPECT_EQ(doc->items()[0].FindPath("quality")->AsString(), "prune_only");
  EXPECT_EQ(doc->items()[1].FindPath("quality")->AsString(), "full");
}

}  // namespace
}  // namespace ipqs
