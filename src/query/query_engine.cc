#include "query/query_engine.h"

#include <algorithm>
#include <cmath>
#include <functional>
#include <limits>
#include <utility>

#include "common/check.h"

namespace ipqs {
namespace {

std::vector<GraphLocation> ReaderLocations(const Deployment& deployment) {
  std::vector<GraphLocation> locs;
  locs.reserve(deployment.num_readers());
  for (ReaderId r = 0; r < deployment.num_readers(); ++r) {
    locs.push_back(deployment.reader(r).loc);
  }
  return locs;
}

// Byte-identical queries (bit-equal coordinates) collapse to one
// evaluation; nearly-equal ones do not — dedup must never change answers.
bool SameQuery(const BatchQuery& a, const BatchQuery& b) {
  if (a.kind != b.kind) {
    return false;
  }
  if (a.kind == BatchQuery::Kind::kRange) {
    return a.window.min_x == b.window.min_x &&
           a.window.min_y == b.window.min_y &&
           a.window.max_x == b.window.max_x && a.window.max_y == b.window.max_y;
  }
  return a.point.x == b.point.x && a.point.y == b.point.y && a.k == b.k;
}

}  // namespace

QueryEngine::QueryEngine(const WalkingGraph* graph, const FloorPlan* plan,
                         const AnchorPointIndex* anchors,
                         const AnchorGraph* anchor_graph,
                         const Deployment* deployment,
                         const DeploymentGraph* deployment_graph,
                         const DataCollector* collector,
                         const EngineConfig& config)
    : graph_(graph),
      anchors_(anchors),
      deployment_(deployment),
      collector_(collector),
      config_(config),
      silence_trust_(collector, config.health),
      filter_(graph, deployment, config.filter),
      symbolic_(anchors, anchor_graph, deployment, deployment_graph,
                config.symbolic),
      range_eval_(plan, anchors),
      knn_eval_(graph, anchors, anchor_graph),
      dindex_(graph, anchors, ReaderLocations(*deployment)) {
  IPQS_CHECK(collector != nullptr);
  IPQS_CHECK_GE(config.num_threads, 0);
  if (config.degrade.reduced_particles >= 1) {
    FilterConfig reduced = config.filter;
    reduced.num_particles = config.degrade.reduced_particles;
    degraded_filter_ =
        std::make_unique<ParticleFilter>(graph, deployment, reduced);
  }
  // Both filters consult the same trust provider, so degraded runs weight
  // silence exactly like full-quality ones.
  filter_.SetSilenceTrust(&silence_trust_);
  if (degraded_filter_ != nullptr) {
    degraded_filter_->SetSilenceTrust(&silence_trust_);
  }
  InitObservability();
}

void QueryEngine::InitObservability() {
  if (config_.metrics == nullptr) {
    own_registry_ = std::make_unique<obs::MetricsRegistry>();
  }
  metrics_ = config_.metrics != nullptr ? config_.metrics : own_registry_.get();
  trace_ = config_.trace;

  const std::string& p = config_.metrics_prefix;
  counters_.queries = metrics_->GetCounter(p + ".engine.queries");
  counters_.objects_considered =
      metrics_->GetCounter(p + ".engine.objects_considered");
  counters_.candidates_inferred =
      metrics_->GetCounter(p + ".engine.candidates_inferred");
  counters_.filter_runs = metrics_->GetCounter(p + ".engine.filter_runs");
  counters_.filter_resumes = metrics_->GetCounter(p + ".engine.filter_resumes");
  counters_.filter_seconds = metrics_->GetCounter(p + ".engine.filter_seconds");
  batch_counters_.batches = metrics_->GetCounter(p + ".qps.batches");
  batch_counters_.queries = metrics_->GetCounter(p + ".qps.queries");
  batch_counters_.duplicate_queries =
      metrics_->GetCounter(p + ".qps.duplicate_queries");
  batch_counters_.candidate_slots =
      metrics_->GetCounter(p + ".qps.candidate_slots");
  batch_counters_.unique_candidates =
      metrics_->GetCounter(p + ".qps.unique_candidates");
  batch_counters_.batch_size = metrics_->GetHistogram(p + ".qps.batch_size");
  degrade_counters_.full = metrics_->GetCounter(p + ".degrade.full");
  degrade_counters_.cached_stale =
      metrics_->GetCounter(p + ".degrade.cached_stale");
  degrade_counters_.reduced_particles =
      metrics_->GetCounter(p + ".degrade.reduced_particles");
  degrade_counters_.prune_only = metrics_->GetCounter(p + ".degrade.prune_only");
  degrade_counters_.stale_served_objects =
      metrics_->GetCounter(p + ".degrade.stale_served_objects");

  if (config_.metrics == nullptr) {
    return;  // No external registry: counters only, no timers anywhere.
  }
  timers_.range_latency_ns =
      metrics_->GetHistogram(p + ".query.range_latency_ns");
  timers_.knn_latency_ns = metrics_->GetHistogram(p + ".query.knn_latency_ns");
  timers_.prune_ns = metrics_->GetHistogram(p + ".stage.prune_ns");
  timers_.infer_ns = metrics_->GetHistogram(p + ".stage.infer_ns");
  timers_.merge_ns = metrics_->GetHistogram(p + ".stage.merge_ns");
  timers_.evaluate_ns = metrics_->GetHistogram(p + ".stage.evaluate_ns");
  timers_.snap_ns = metrics_->GetHistogram(p + ".filter.snap_ns");

  FilterMetrics filter_metrics;
  filter_metrics.run_ns = metrics_->GetHistogram(p + ".filter.run_ns");
  filter_metrics.resume_ns = metrics_->GetHistogram(p + ".filter.resume_ns");
  filter_metrics.predict_ns = metrics_->GetHistogram(p + ".filter.predict_ns");
  filter_metrics.weight_ns = metrics_->GetHistogram(p + ".filter.weight_ns");
  filter_metrics.resample_ns =
      metrics_->GetHistogram(p + ".filter.resample_ns");
  filter_metrics.roughen_ns =
      metrics_->GetHistogram(p + ".filter.roughen_ns");
  filter_metrics.particles = metrics_->GetGauge(p + ".filter.particles");
  filter_metrics.reseeds = metrics_->GetCounter(p + ".filter.reseed_total");
  filter_.SetMetrics(filter_metrics);

  DistanceIndexMetrics dindex_metrics;
  dindex_metrics.hits = metrics_->GetCounter(p + ".dindex.hits");
  dindex_metrics.misses = metrics_->GetCounter(p + ".dindex.misses");
  dindex_.SetMetrics(dindex_metrics);

  CacheMetrics cache_metrics;
  cache_metrics.hits = metrics_->GetCounter(p + ".cache.hits");
  cache_metrics.misses = metrics_->GetCounter(p + ".cache.misses");
  cache_metrics.invalidations =
      metrics_->GetCounter(p + ".cache.invalidations");
  cache_metrics.stale_invalidations =
      metrics_->GetCounter(p + ".cache.stale_invalidations");
  cache_metrics.evictions = metrics_->GetCounter(p + ".cache.evictions");
  cache_metrics.served_stale = metrics_->GetCounter(p + ".cache.served_stale");
  cache_.SetMetrics(cache_metrics);
}

void QueryEngine::SyncTableTo(int64_t now) {
  if (table_time_ != now) {
    table_.Clear();
    table_time_ = now;
  }
}

std::optional<AnchorDistribution> QueryEngine::ComputeInference(
    ObjectId object, int64_t now) {
  return ComputeInferenceWith(object, now, filter_, config_.use_cache,
                              config_.use_cache);
}

std::optional<AnchorDistribution> QueryEngine::ComputeInferenceWith(
    ObjectId object, int64_t now, const ParticleFilter& filter,
    bool cache_read, bool cache_write) {
  const DataCollector::ObjectHistory* history = collector_->History(object);
  if (history == nullptr || history->entries.empty()) {
    return std::nullopt;
  }
  const obs::TraceSpan span(trace_, "infer", "object",
                            static_cast<int64_t>(object));
  counters_.candidates_inferred->Increment();

  if (config_.method == InferenceMethod::kSymbolicModel) {
    return symbolic_.Infer(*history, now);
  }
  if (config_.method == InferenceMethod::kLastReading) {
    // Uniform over the anchors covered by the last detecting reader.
    const Reader& last = deployment_->reader(history->current_device);
    std::vector<AnchorId> covered;
    for (AnchorId a :
         anchors_->InRect(Rect::FromCenter(last.pos, 2 * last.range,
                                           2 * last.range))) {
      if (last.InRange(anchors_->anchor(a).pos)) {
        covered.push_back(a);
      }
    }
    if (covered.empty()) {
      covered.push_back(anchors_->NearestToPoint(last.pos));
    }
    return AnchorDistribution::Uniform(std::move(covered));
  }

  // Particle filter: all randomness comes from this object's own
  // (seed, object, now) stream, so the result cannot depend on which
  // other objects were inferred before it or on what thread runs it.
  Rng rng = Rng::ForStream(config_.seed, static_cast<uint64_t>(object),
                           static_cast<uint64_t>(now));
  FilterResult state;
  bool resumed = false;
  int seconds_before = 0;
  if (cache_read) {
    if (auto cached = cache_.Lookup(object, *history)) {
      seconds_before = cached->seconds_processed;
      state = filter.Resume(std::move(*cached), *history, now, rng);
      resumed = true;
    }
  }
  if (!resumed) {
    state = filter.Run(*history, now, rng);
    counters_.filter_runs->Increment();
  } else {
    counters_.filter_resumes->Increment();
  }
  // Only the seconds filtered by THIS call count as work (a resumed
  // state carries its lifetime total in seconds_processed).
  counters_.filter_seconds->Increment(state.seconds_processed -
                                      seconds_before);
  std::optional<AnchorDistribution> snapped;
  {
    const obs::ScopedTimer snap_timer(timers_.snap_ns);
    snapped = AnchorDistribution::FromParticles(*anchors_, state.particles);
  }
  AnchorDistribution dist = std::move(*snapped);
  if (cache_write) {
    cache_.Insert(object, *history, std::move(state));
  }
  return dist;
}

const AnchorDistribution* QueryEngine::InferObject(ObjectId object,
                                                   int64_t now) {
  SyncTableTo(now);
  if (const AnchorDistribution* memo = table_.Distribution(object)) {
    return memo;  // Already inferred for this timestamp.
  }
  std::optional<AnchorDistribution> dist = ComputeInference(object, now);
  if (!dist.has_value()) {
    return nullptr;
  }
  table_.Set(object, std::move(*dist));
  return table_.Distribution(object);
}

void QueryEngine::InferBatch(const std::vector<ObjectId>& candidates,
                             int64_t now) {
  SyncTableTo(now);
  const obs::TraceSpan span(trace_, "infer_batch");

  // Canonicalize the batch: ascending, unique, not yet memoized, known.
  // Sorting fixes the table merge order (and thereby every downstream
  // floating-point accumulation), so shuffled candidate lists and any
  // thread interleaving produce byte-identical query answers.
  std::vector<ObjectId> todo;
  todo.reserve(candidates.size());
  for (ObjectId object : candidates) {
    const DataCollector::ObjectHistory* history = collector_->History(object);
    if (history == nullptr || history->entries.empty()) {
      continue;
    }
    if (table_.Distribution(object) != nullptr) {
      continue;
    }
    todo.push_back(object);
  }
  std::sort(todo.begin(), todo.end());
  todo.erase(std::unique(todo.begin(), todo.end()), todo.end());
  if (todo.empty()) {
    return;
  }

  std::vector<std::optional<AnchorDistribution>> results(todo.size());
  auto infer_one = [&](size_t i) {
    results[i] = ComputeInference(todo[i], now);
  };

  {
    const obs::ScopedTimer infer_timer(timers_.infer_ns);
    if (config_.num_threads > 1 && todo.size() > 1) {
      if (pool_ == nullptr) {
        // The calling thread steals while it waits, so it counts toward
        // the configured width.
        pool_ = std::make_unique<ThreadPool>(config_.num_threads - 1);
        if (config_.metrics != nullptr) {
          const std::string& p = config_.metrics_prefix;
          PoolMetrics pool_metrics;
          pool_metrics.tasks = metrics_->GetCounter(p + ".pool.tasks");
          pool_metrics.steals = metrics_->GetCounter(p + ".pool.steals");
          pool_metrics.queue_depth =
              metrics_->GetGauge(p + ".pool.queue_depth");
          pool_metrics.wait_ns = metrics_->GetHistogram(p + ".pool.wait_ns");
          pool_->SetMetrics(pool_metrics);
        }
      }
      pool_->ParallelFor(todo.size(), infer_one);
    } else {
      for (size_t i = 0; i < todo.size(); ++i) {
        infer_one(i);
      }
    }
  }

  // Single-threaded merge into the APtoObjHT, in ascending object order.
  const obs::TraceSpan merge_span(trace_, "merge");
  const obs::ScopedTimer merge_timer(timers_.merge_ns);
  for (size_t i = 0; i < todo.size(); ++i) {
    if (results[i].has_value()) {
      table_.Set(todo[i], std::move(*results[i]));
    }
  }
}

QueryResult QueryEngine::EvaluateRange(const Rect& window, int64_t now,
                                       const QueryOptions& options) {
  IPQS_CHECK(options.explains == nullptr && options.details == nullptr);
  const obs::TraceSpan span(trace_, "range_query");
  const obs::ScopedTimer latency(timers_.range_latency_ns);
  const BatchQuery query = BatchQuery::Range(window);
  BatchAnswer answer;
  Serve({&query, 1}, now, options, /*batched=*/false, {&answer, 1},
        options.explain);
  return std::move(answer.range);
}

KnnResult QueryEngine::EvaluateKnn(const Point& query, int k, int64_t now,
                                   const QueryOptions& options) {
  IPQS_CHECK(options.explains == nullptr && options.details == nullptr);
  const obs::TraceSpan span(trace_, "knn_query");
  const obs::ScopedTimer latency(timers_.knn_latency_ns);
  const BatchQuery knn = BatchQuery::Knn(query, k);
  BatchAnswer answer;
  Serve({&knn, 1}, now, options, /*batched=*/false, {&answer, 1},
        options.explain);
  return std::move(answer.knn);
}

std::vector<BatchAnswer> QueryEngine::EvaluateBatch(
    const std::vector<BatchQuery>& batch, int64_t now,
    const QueryOptions& options) {
  IPQS_CHECK(options.explain == nullptr);
  std::vector<BatchAnswer> answers(batch.size());
  obs::QueryExplain* explains = nullptr;
  if (options.explains != nullptr) {
    options.explains->assign(batch.size(), obs::QueryExplain{});
    explains = options.explains->data();
  }
  Serve(batch, now, options, /*batched=*/true, answers, explains);
  return answers;
}

void QueryEngine::Serve(std::span<const BatchQuery> batch, int64_t now,
                        const QueryOptions& options, bool batched,
                        std::span<BatchAnswer> answers,
                        obs::QueryExplain* explains) {
  if (options.details != nullptr) {
    options.details->assign(batch.size(), BatchSlotDetail{});
  }
  if (batch.empty()) {
    return;
  }
  const int64_t deadline_ms = options.deadline_ms.value_or(config_.deadline_ms);
  // Everything gathered for `explains` is observational — counter reads,
  // non-mutating cache probes, clock reads. None of it reaches the RNG or
  // the admission decision, so no answer can depend on it.
  const bool explained = explains != nullptr;
  const int64_t t_start = explained ? obs::MonotonicNanos() : 0;
  const ExplainBaseline baseline =
      explained ? CaptureBaseline() : ExplainBaseline{};
  const int64_t size = static_cast<int64_t>(batch.size());
  batch_counters_.batches->Increment();
  batch_counters_.queries->Increment(size);
  batch_counters_.batch_size->Observe(size);
  counters_.queries->Increment(size);
  SyncTableTo(now);

  // Stage 1: dedup. Each distinct query answers (and explains) into the
  // slot of its first occurrence; slot_of maps every slot to it.
  struct Distinct {
    size_t first = 0;
    GraphLocation q;                 // kKnn: snapped query location.
    SourceDistances qd;              // kKnn: distances its pruning read.
    std::vector<ObjectId> restrict;  // Candidate set, ascending and unique.
  };
  std::vector<Distinct> distinct;
  std::vector<size_t> slot_of(batch.size());
  for (size_t i = 0; i < batch.size(); ++i) {
    answers[i].kind = batch[i].kind;
    size_t slot = distinct.size();
    for (size_t s = 0; s < distinct.size(); ++s) {
      if (SameQuery(batch[distinct[s].first], batch[i])) {
        slot = s;
        break;
      }
    }
    slot_of[i] = slot;
    if (slot < distinct.size()) {
      batch_counters_.duplicate_queries->Increment();
      continue;
    }
    distinct.emplace_back().first = i;
  }

  // Stage 2: per-distinct-query pruning.
  const int64_t known = static_cast<int64_t>(collector_->num_known_objects());
  for (Distinct& d : distinct) {
    const BatchQuery& query = batch[d.first];
    const bool range = query.kind == BatchQuery::Kind::kRange;
    if (!range) {
      d.q = graph_->NearestLocation(query.point, /*prefer_hallways=*/true);
    }
    {
      const obs::TraceSpan prune_span(trace_, "prune");
      const obs::ScopedTimer prune_timer(timers_.prune_ns);
      if (!config_.use_pruning) {
        d.restrict = collector_->KnownObjects();
      } else if (range) {
        d.restrict = FilterRangeCandidates(*collector_, *deployment_,
                                           {query.window}, now,
                                           config_.max_speed);
      } else {
        // Distance rows are read only when pruning (or the prune-only
        // fallback) needs them, so the pruning-off path never fills one.
        d.qd = DistancesFor(d.q);
        d.restrict = FilterKnnCandidates(*collector_, *deployment_, d.qd,
                                         query.k, now, config_.max_speed);
      }
    }
    // Planning, the union and the table merge all rely on this order.
    IPQS_DCHECK(std::adjacent_find(d.restrict.begin(), d.restrict.end(),
                                   std::greater_equal<ObjectId>()) ==
                d.restrict.end());
    counters_.objects_considered->Increment(known);
    batch_counters_.candidate_slots->Increment(
        static_cast<int64_t>(d.restrict.size()));
    if (explained) {
      obs::QueryExplain& e = explains[d.first];
      e.kind = range ? "range" : "knn";
      e.now = now;
      e.deadline_ms = deadline_ms;
      e.k = range ? 0 : query.k;
      e.pruning_enabled = config_.use_pruning;
      e.objects_known = known;
      e.candidates = static_cast<int64_t>(d.restrict.size());
      e.batched = batched;
      e.batch_size = batched ? size : 0;
      ProbeCacheOutcomes(d.restrict, now, &e);
      FillIngestContext(&e);
    }
  }
  const int64_t t_pruned = explained ? obs::MonotonicNanos() : 0;

  // Stage 3: one admission decision for the union, so the deadline budget
  // is charged once per unique object no matter how many queries want it.
  std::vector<ObjectId> merged;
  const std::vector<ObjectId>* all = &distinct.front().restrict;
  if (distinct.size() > 1) {
    for (const Distinct& d : distinct) {
      merged.insert(merged.end(), d.restrict.begin(), d.restrict.end());
    }
    std::sort(merged.begin(), merged.end());
    merged.erase(std::unique(merged.begin(), merged.end()), merged.end());
    all = &merged;
  }
  batch_counters_.unique_candidates->Increment(
      static_cast<int64_t>(all->size()));
  PlanDecision decision;
  const InferPlan plan = PlanInference(*all, now, deadline_ms,
                                       explained ? &decision : nullptr);
  // Every query is served at the chosen level; count each one.
  for (size_t i = 0; i < batch.size(); ++i) {
    CountPlan(plan);
  }

  // Stages 4+5: infer once, then answer each distinct query against the
  // shared table restricted to its own candidates — so the answer never
  // depends on what other queries memoized at `now`. Degraded
  // distributions go to a scratch table, never memoized for later
  // full-quality queries.
  AnchorObjectTable scratch;
  const AnchorObjectTable* table = &table_;
  int64_t t_inferred = t_pruned;
  if (plan.level != QualityLevel::kPruneOnly) {
    if (plan.level == QualityLevel::kFull) {
      InferBatch(*all, now);
    } else {
      ExecuteDegradedPlan(plan, now, &scratch);
      table = &scratch;
    }
    t_inferred = explained ? obs::MonotonicNanos() : t_pruned;
  }
  for (Distinct& d : distinct) {
    const BatchQuery& query = batch[d.first];
    BatchAnswer& a = answers[d.first];
    const bool range = query.kind == BatchQuery::Kind::kRange;
    if (plan.level == QualityLevel::kPruneOnly) {
      if (range) {
        a.range = PruneOnlyRange(d.restrict, query.window, now);
      } else {
        if (d.qd.empty()) {
          d.qd = DistancesFor(d.q);  // Pruning was off.
        }
        a.knn = PruneOnlyKnn(d.restrict, d.qd, query.k, now);
      }
    } else {
      const obs::TraceSpan eval_span(trace_, "evaluate");
      const obs::ScopedTimer eval_timer(timers_.evaluate_ns);
      if (range) {
        a.range = range_eval_.Evaluate(*table, query.window, &d.restrict);
        a.range.quality = plan.level;
      } else {
        a.knn = knn_eval_.Evaluate(*table, d.q, query.k, &d.restrict);
        a.knn.result.quality = plan.level;
      }
    }
    if (range) {
      a.range.coverage_degraded = CoverageDegraded(d.restrict, &query.window);
    } else {
      a.knn.result.coverage_degraded = CoverageDegraded(d.restrict, nullptr);
    }
  }

  if (explained) {
    const int64_t t_end = obs::MonotonicNanos();
    for (const Distinct& d : distinct) {
      obs::QueryExplain& e = explains[d.first];
      const BatchAnswer& a = answers[d.first];
      const bool range = batch[d.first].kind == BatchQuery::Kind::kRange;
      const QueryResult& result = range ? a.range : a.knn.result;
      e.quality = std::string(ToString(result.quality));
      e.coverage_degraded = result.coverage_degraded;
      // The prune-only fallback may have read a distance row even with
      // pruning off; report the slack actually used.
      if (!d.qd.empty()) {
        e.dindex_slack = d.qd.slack;
      }
      e.budget_reason = decision.reason;
      e.budget_filter_seconds = decision.budget;
      e.est_full_cost = decision.est_full;
      e.est_stale_cost = decision.est_stale;
      e.est_reduced_cost = decision.est_reduced;
      // Stages run once for the whole batch: each record reports the
      // batch's stage walls and work deltas (a batched query's marginal
      // cost is exactly what batching makes shared).
      e.prune_ns = t_pruned - t_start;
      e.infer_ns = t_inferred - t_pruned;
      e.evaluate_ns = t_end - t_inferred;
      e.total_ns = t_end - t_start;
      ChargeDeltas(baseline, &e);
      e.result_objects = static_cast<int64_t>(result.objects.size());
      e.result_total_probability =
          range ? a.range.TotalProbability() : a.knn.total_probability;
    }
  }

  // Fan each distinct answer out to its duplicate slots.
  for (size_t i = 0; i < batch.size(); ++i) {
    const Distinct& d = distinct[slot_of[i]];
    if (d.first != i) {
      answers[i] = answers[d.first];
      if (explained) {
        explains[i] = explains[d.first];
        explains[i].deduped = true;
      }
    }
    if (options.details != nullptr) {
      BatchSlotDetail& slot = (*options.details)[i];
      slot.candidates = d.restrict;
      slot.snapped = d.q;
      slot.dists = d.qd;
    }
  }
}

SourceDistances QueryEngine::DistancesFor(const GraphLocation& query) {
  const AnchorId aid = anchors_->NearestOnEdge(query);
  const std::span<const double> row = dindex_.Lookup(aid);
  SourceDistances out;
  out.to_reader.assign(row.begin(), row.end());
  // The along-edge offset gap is a network path between the query and the
  // anchor, so it bounds their network distance — the slack pruning needs.
  out.slack = std::fabs(query.offset - anchors_->anchor(aid).offset);
  return out;
}

QueryEngine::InferPlan QueryEngine::PlanInference(
    const std::vector<ObjectId>& candidates, int64_t now, int64_t deadline_ms,
    PlanDecision* decision) {
  InferPlan plan;
  // Degradation only exists for the particle-filter backend: the other
  // methods do no per-second filtering work, so a deadline never binds.
  if (deadline_ms <= 0 || config_.degrade.filter_seconds_per_ms <= 0 ||
      config_.method != InferenceMethod::kParticleFilter) {
    return plan;  // decision keeps its "no_deadline" default.
  }
  const double budget =
      static_cast<double>(deadline_ms) * config_.degrade.filter_seconds_per_ms;
  if (decision != nullptr) {
    decision->budget = budget;
  }

  // Work estimates in filter-seconds, derived purely from histories and
  // cache state — never from a clock — so the level choice is reproducible.
  struct Estimate {
    ObjectId object;
    double fresh_cost;  // What inferring it now would cost (resume or run).
    double full_cost;   // A from-scratch run (the reduced path rescales it).
    bool stale_ok;      // A cached state within the staleness bound exists.
  };
  std::vector<Estimate> estimates;
  double full_level_cost = 0.0;
  for (ObjectId object : candidates) {
    const DataCollector::ObjectHistory* history = collector_->History(object);
    if (history == nullptr || history->entries.empty()) {
      continue;
    }
    const int64_t first = history->entries.front().time;
    const int64_t last = history->entries.back().time;
    const int64_t horizon =
        std::min(last + config_.filter.max_coast_seconds, now);
    Estimate e;
    e.object = object;
    e.full_cost = static_cast<double>(std::max<int64_t>(horizon - first, 0)) + 1;
    e.fresh_cost = e.full_cost;
    e.stale_ok = false;
    if (config_.use_cache) {
      if (auto probe = cache_.Probe(object, *history, now)) {
        if (probe->resumable) {
          e.fresh_cost = static_cast<double>(
                             std::max<int64_t>(horizon - probe->state_time, 0)) +
                         1;
        }
        e.stale_ok =
            probe->age_seconds <= config_.degrade.max_stale_age_seconds;
      }
    }
    full_level_cost += e.fresh_cost;
    estimates.push_back(e);
  }
  if (decision != nullptr) {
    decision->est_full = full_level_cost;
  }
  if (full_level_cost <= budget) {
    if (decision != nullptr) {
      decision->reason = "full_fits";
    }
    return plan;  // kFull fits; serve the normal path.
  }

  // One rung down: serve bounded-staleness cache entries as-is (zero
  // filter work) and infer only the rest.
  double infer_cost = 0.0;
  for (const Estimate& e : estimates) {
    if (!e.stale_ok) {
      infer_cost += e.fresh_cost;
    }
  }
  for (const Estimate& e : estimates) {
    (e.stale_ok ? plan.stale : plan.infer).push_back(e.object);
  }
  if (decision != nullptr) {
    decision->est_stale = infer_cost;
  }
  if (infer_cost <= budget) {
    if (decision != nullptr) {
      decision->reason = "stale_fits";
    }
    plan.level = QualityLevel::kCachedStale;
    return plan;
  }

  // Two rungs down: the remaining inferences run from scratch with the
  // reduced particle count, shrinking per-second cost proportionally.
  if (degraded_filter_ != nullptr) {
    const double scale =
        static_cast<double>(config_.degrade.reduced_particles) /
        static_cast<double>(std::max(config_.filter.num_particles, 1));
    double reduced_cost = 0.0;
    for (const Estimate& e : estimates) {
      if (!e.stale_ok) {
        reduced_cost += e.full_cost * scale;
      }
    }
    if (decision != nullptr) {
      decision->est_reduced = reduced_cost;
    }
    if (reduced_cost <= budget) {
      if (decision != nullptr) {
        decision->reason = "reduced_fits";
      }
      plan.level = QualityLevel::kReducedParticles;
      return plan;
    }
  }

  if (decision != nullptr) {
    decision->reason = "budget_exhausted";
  }
  plan.level = QualityLevel::kPruneOnly;
  plan.stale.clear();
  plan.infer.clear();
  return plan;
}

void QueryEngine::ProbeCacheOutcomes(const std::vector<ObjectId>& candidates,
                                     int64_t now,
                                     obs::QueryExplain* explain) const {
  for (ObjectId object : candidates) {
    const DataCollector::ObjectHistory* history = collector_->History(object);
    if (history == nullptr || history->entries.empty()) {
      continue;
    }
    if (!config_.use_cache ||
        config_.method != InferenceMethod::kParticleFilter) {
      ++explain->cache_misses;
      continue;
    }
    const auto probe = cache_.Probe(object, *history, now);
    if (!probe.has_value()) {
      ++explain->cache_misses;
    } else if (probe->resumable) {
      ++explain->cache_hits;
    } else if (probe->age_seconds <= config_.degrade.max_stale_age_seconds) {
      ++explain->cache_stale;  // Only the stale-serve rung could use it.
    } else {
      ++explain->cache_misses;
    }
  }
}

void QueryEngine::FillIngestContext(obs::QueryExplain* explain) const {
  explain->ingest_watermark = collector_->watermark();
  explain->ingest_staged = static_cast<int64_t>(collector_->staged_size());
  explain->ingest_late_dropped = collector_->ingest_stats().late_dropped;
}

QueryEngine::ExplainBaseline QueryEngine::CaptureBaseline() const {
  ExplainBaseline b;
  b.filter_runs = counters_.filter_runs->Value();
  b.filter_resumes = counters_.filter_resumes->Value();
  b.filter_seconds = counters_.filter_seconds->Value();
  b.stale_served = degrade_counters_.stale_served_objects->Value();
  const DistanceIndex::Stats dstats = distance_index_stats();
  b.dindex_hits = dstats.hits;
  b.dindex_misses = dstats.misses;
  return b;
}

void QueryEngine::ChargeDeltas(const ExplainBaseline& before,
                               obs::QueryExplain* explain) const {
  explain->filter_runs = counters_.filter_runs->Value() - before.filter_runs;
  explain->filter_resumes =
      counters_.filter_resumes->Value() - before.filter_resumes;
  explain->filter_seconds =
      counters_.filter_seconds->Value() - before.filter_seconds;
  explain->stale_served_objects =
      degrade_counters_.stale_served_objects->Value() - before.stale_served;
  const DistanceIndex::Stats dstats = distance_index_stats();
  explain->dindex_hits = dstats.hits - before.dindex_hits;
  explain->dindex_misses = dstats.misses - before.dindex_misses;
}

void QueryEngine::ExecuteDegradedPlan(const InferPlan& plan, int64_t now,
                                      AnchorObjectTable* out) {
  const obs::TraceSpan span(trace_, "infer_degraded");
  const obs::ScopedTimer infer_timer(timers_.infer_ns);
  for (ObjectId object : plan.stale) {
    const DataCollector::ObjectHistory* history = collector_->History(object);
    if (history == nullptr || history->entries.empty()) {
      continue;
    }
    if (auto state = cache_.LookupStale(object, *history, now,
                                        config_.degrade.max_stale_age_seconds)) {
      degrade_counters_.stale_served_objects->Increment();
      out->Set(object,
               AnchorDistribution::FromParticles(*anchors_, state->particles));
      continue;
    }
    // The plan probed the same admission rules, so this is unreachable in
    // practice; degrade gracefully to a fresh inference if it ever isn't.
    if (auto dist = ComputeInference(object, now)) {
      out->Set(object, std::move(*dist));
    }
  }
  const bool reduced = plan.level == QualityLevel::kReducedParticles &&
                       degraded_filter_ != nullptr;
  for (ObjectId object : plan.infer) {
    // Reduced-quality states are neither read from nor written to the
    // cache: a 16-particle state must never seed a later full-quality
    // resume.
    std::optional<AnchorDistribution> dist =
        reduced ? ComputeInferenceWith(object, now, *degraded_filter_,
                                       /*cache_read=*/false,
                                       /*cache_write=*/false)
                : ComputeInference(object, now);
    if (dist.has_value()) {
      out->Set(object, std::move(*dist));
    }
  }
}

void QueryEngine::CountPlan(const InferPlan& plan) {
  switch (plan.level) {
    case QualityLevel::kFull:
      degrade_counters_.full->Increment();
      break;
    case QualityLevel::kCachedStale:
      degrade_counters_.cached_stale->Increment();
      break;
    case QualityLevel::kReducedParticles:
      degrade_counters_.reduced_particles->Increment();
      break;
    case QualityLevel::kPruneOnly:
      degrade_counters_.prune_only->Increment();
      break;
  }
}

bool QueryEngine::CoverageDegraded(const std::vector<ObjectId>& candidates,
                                   const Rect* window) const {
  if (config_.health == nullptr || !config_.health->enabled()) {
    return false;
  }
  const ReaderHealthView& view = config_.health->view();
  if (!view.AnyDegraded()) {
    return false;
  }
  if (window != nullptr) {
    // A degraded reader whose activation zone touches the window means
    // objects inside it could be moving unseen right now.
    for (ReaderId r = 0; r < deployment_->num_readers(); ++r) {
      if (!view.Degraded(r)) {
        continue;
      }
      const Reader& reader = deployment_->reader(r);
      const Rect zone =
          Rect::FromCenter(reader.pos, 2 * reader.range, 2 * reader.range);
      if (zone.Intersects(*window)) {
        return true;
      }
    }
  }
  // A candidate whose current detecting device is degraded was last seen by
  // a reader we no longer trust: its inferred distribution may be stale.
  for (ObjectId object : candidates) {
    const DataCollector::ObjectHistory* history = collector_->History(object);
    if (history != nullptr && history->current_device != kInvalidId &&
        view.Degraded(history->current_device)) {
      return true;
    }
  }
  return false;
}

QueryResult QueryEngine::PruneOnlyRange(const std::vector<ObjectId>& candidates,
                                        const Rect& window,
                                        int64_t now) const {
  QueryResult result;
  result.quality = QualityLevel::kPruneOnly;
  for (ObjectId object : candidates) {
    const DataCollector::ObjectHistory* history = collector_->History(object);
    if (history == nullptr || history->entries.empty()) {
      continue;
    }
    const UncertainRegion region = ComputeUncertainRegion(
        *deployment_, object, history->entries.back(), now, config_.max_speed);
    if (!region.Overlaps(window)) {
      continue;
    }
    // The uncertain region provably contains the object, so a region fully
    // inside the window is a certain answer; a partial overlap gets the
    // uninformative 0.5 (present, probability unknown).
    const bool fully_inside = region.center.x - region.radius >= window.min_x &&
                              region.center.x + region.radius <= window.max_x &&
                              region.center.y - region.radius >= window.min_y &&
                              region.center.y + region.radius <= window.max_y;
    result.Add(object, fully_inside ? 1.0 : 0.5);
  }
  return result;
}

KnnResult QueryEngine::PruneOnlyKnn(const std::vector<ObjectId>& candidates,
                                    const SourceDistances& dists, int k,
                                    int64_t now) const {
  KnnResult out;
  out.result.quality = QualityLevel::kPruneOnly;
  if (k <= 0) {
    return out;
  }
  // Rank candidates by the optimistic end of their network-distance
  // interval (Eq. 6) and claim the k nearest.
  struct Ranked {
    double min_dist;
    double max_dist;
    ObjectId object;
  };
  std::vector<Ranked> order;
  for (ObjectId object : candidates) {
    const DataCollector::ObjectHistory* history = collector_->History(object);
    if (history == nullptr || history->entries.empty()) {
      continue;
    }
    const UncertainRegion region = ComputeUncertainRegion(
        *deployment_, object, history->entries.back(), now, config_.max_speed);
    const DistanceInterval interval = NetworkDistanceInterval(dists, region);
    if (!std::isfinite(interval.min_dist)) {
      // The object's reader is unreachable from the query point: it can
      // never be one of the k network-nearest neighbors, and letting +inf
      // into the ranking would claim it with 0.5 once finite candidates
      // run out.
      continue;
    }
    order.push_back({interval.min_dist, interval.max_dist, object});
  }
  std::sort(order.begin(), order.end(), [](const Ranked& x, const Ranked& y) {
    return x.min_dist != y.min_dist ? x.min_dist < y.min_dist
                                    : x.object < y.object;
  });
  const size_t take = std::min(order.size(), static_cast<size_t>(k));
  // A claimed neighbor is certain only when even its pessimistic distance
  // beats the optimistic distance of the best candidate left out; any
  // overlap means the ranking may be wrong, and the honest claim is the
  // uninformative 0.5.
  const double cutoff = order.size() > take
                            ? order[take].min_dist
                            : std::numeric_limits<double>::infinity();
  for (size_t i = 0; i < take; ++i) {
    const double p = order[i].max_dist < cutoff ? 1.0 : 0.5;
    out.result.Add(order[i].object, p);
    out.total_probability += p;
  }
  return out;
}

EngineStats QueryEngine::stats() const {
  EngineStats out;
  out.queries = counters_.queries->Value();
  out.objects_considered = counters_.objects_considered->Value();
  out.candidates_inferred = counters_.candidates_inferred->Value();
  out.filter_runs = counters_.filter_runs->Value();
  out.filter_resumes = counters_.filter_resumes->Value();
  out.filter_seconds = counters_.filter_seconds->Value();
  return out;
}

DegradeStats QueryEngine::degrade_stats() const {
  DegradeStats out;
  out.full = degrade_counters_.full->Value();
  out.cached_stale = degrade_counters_.cached_stale->Value();
  out.reduced_particles = degrade_counters_.reduced_particles->Value();
  out.prune_only = degrade_counters_.prune_only->Value();
  out.stale_served_objects = degrade_counters_.stale_served_objects->Value();
  return out;
}

void QueryEngine::ResetStats() {
  counters_.queries->Reset();
  counters_.objects_considered->Reset();
  counters_.candidates_inferred->Reset();
  counters_.filter_runs->Reset();
  counters_.filter_resumes->Reset();
  counters_.filter_seconds->Reset();
  degrade_counters_.full->Reset();
  degrade_counters_.cached_stale->Reset();
  degrade_counters_.reduced_particles->Reset();
  degrade_counters_.prune_only->Reset();
  degrade_counters_.stale_served_objects->Reset();
}

}  // namespace ipqs
