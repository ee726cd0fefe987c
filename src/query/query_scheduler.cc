#include "query/query_scheduler.h"

#include <algorithm>
#include <string>
#include <utility>

#include "common/check.h"
#include "query/uncertain_region.h"

namespace {

// Byte-identical queries (bit-equal coordinates) collapse to one
// evaluation; nearly-equal ones do not — dedup must never change answers.
bool SameQuery(const ipqs::BatchQuery& a, const ipqs::BatchQuery& b) {
  if (a.kind != b.kind) {
    return false;
  }
  if (a.kind == ipqs::BatchQuery::Kind::kRange) {
    return a.window.min_x == b.window.min_x &&
           a.window.min_y == b.window.min_y &&
           a.window.max_x == b.window.max_x && a.window.max_y == b.window.max_y;
  }
  return a.point.x == b.point.x && a.point.y == b.point.y && a.k == b.k;
}

}  // namespace

namespace ipqs {

QueryScheduler::QueryScheduler(QueryEngine* engine) : engine_(engine) {
  IPQS_CHECK(engine != nullptr);
  obs::MetricsRegistry* m = engine_->metrics_;
  const std::string& p = engine_->config_.metrics_prefix;
  batches_ = m->GetCounter(p + ".qps.batches");
  queries_ = m->GetCounter(p + ".qps.queries");
  duplicate_queries_ = m->GetCounter(p + ".qps.duplicate_queries");
  candidate_slots_ = m->GetCounter(p + ".qps.candidate_slots");
  unique_candidates_ = m->GetCounter(p + ".qps.unique_candidates");
  batch_size_ = m->GetHistogram(p + ".qps.batch_size");
}

std::vector<BatchAnswer> QueryScheduler::EvaluateBatch(
    const std::vector<BatchQuery>& batch, int64_t now) {
  return EvaluateBatch(batch, now, engine_->config_.deadline_ms);
}

std::vector<BatchAnswer> QueryScheduler::EvaluateBatch(
    const std::vector<BatchQuery>& batch, int64_t now, int64_t deadline_ms) {
  return EvaluateBatch(batch, now, deadline_ms, nullptr);
}

std::vector<BatchAnswer> QueryScheduler::EvaluateBatch(
    const std::vector<BatchQuery>& batch, int64_t now, int64_t deadline_ms,
    std::vector<obs::QueryExplain>* explains) {
  return EvaluateBatch(batch, now, deadline_ms, explains, nullptr);
}

std::vector<BatchAnswer> QueryScheduler::EvaluateBatch(
    const std::vector<BatchQuery>& batch, int64_t now, int64_t deadline_ms,
    std::vector<obs::QueryExplain>* explains,
    std::vector<BatchSlotDetail>* details) {
  std::vector<BatchAnswer> answers(batch.size());
  if (details != nullptr) {
    details->assign(batch.size(), BatchSlotDetail{});
  }
  const bool explained = explains != nullptr;
  if (explained) {
    explains->assign(batch.size(), obs::QueryExplain{});
  }
  if (batch.empty()) {
    return answers;
  }
  const int64_t t_start = explained ? obs::MonotonicNanos() : 0;
  const QueryEngine::ExplainBaseline baseline =
      explained ? engine_->CaptureBaseline() : QueryEngine::ExplainBaseline{};
  batches_->Increment();
  queries_->Increment(static_cast<int64_t>(batch.size()));
  batch_size_->Observe(static_cast<int64_t>(batch.size()));
  engine_->counters_.queries->Increment(static_cast<int64_t>(batch.size()));
  engine_->SyncTableTo(now);

  // Stage 1: dedup. slot_of maps every batch index to its distinct slot.
  struct Distinct {
    size_t first_index = 0;
    GraphLocation q;                  // kKnn: snapped query location.
    SourceDistances qd;               // kKnn: pruning distance bounds.
    std::vector<ObjectId> restrict;   // Canonical candidate set.
    BatchAnswer answer;
    obs::QueryExplain explain;        // Filled only when requested.
  };
  std::vector<Distinct> distinct;
  std::vector<size_t> slot_of(batch.size());
  for (size_t i = 0; i < batch.size(); ++i) {
    size_t slot = distinct.size();
    for (size_t s = 0; s < distinct.size(); ++s) {
      if (SameQuery(batch[distinct[s].first_index], batch[i])) {
        slot = s;
        break;
      }
    }
    slot_of[i] = slot;
    if (slot < distinct.size()) {
      duplicate_queries_->Increment();
      continue;
    }
    Distinct d;
    d.first_index = i;
    distinct.push_back(std::move(d));
  }

  // Stage 2: per-distinct-query pruning, exactly the serial path's.
  const EngineConfig& cfg = engine_->config_;
  const int64_t known =
      static_cast<int64_t>(engine_->collector_->num_known_objects());
  for (Distinct& d : distinct) {
    const BatchQuery& q = batch[d.first_index];
    engine_->counters_.objects_considered->Increment(known);
    std::vector<ObjectId> candidates;
    if (q.kind == BatchQuery::Kind::kRange) {
      if (cfg.use_pruning) {
        candidates =
            FilterRangeCandidates(*engine_->collector_, *engine_->deployment_,
                                  {q.window}, now, cfg.max_speed);
      } else {
        candidates = engine_->collector_->KnownObjects();
      }
    } else {
      d.q = engine_->graph_->NearestLocation(q.point,
                                             /*prefer_hallways=*/true);
      if (cfg.use_pruning) {
        d.qd = engine_->DistancesFor(d.q);
        candidates =
            FilterKnnCandidates(*engine_->collector_, *engine_->deployment_,
                                d.qd, q.k, now, cfg.max_speed);
      } else {
        candidates = engine_->collector_->KnownObjects();
      }
    }
    std::sort(candidates.begin(), candidates.end());
    candidates.erase(std::unique(candidates.begin(), candidates.end()),
                     candidates.end());
    d.restrict = std::move(candidates);
    candidate_slots_->Increment(static_cast<int64_t>(d.restrict.size()));
    if (explained) {
      obs::QueryExplain& e = d.explain;
      e.kind = q.kind == BatchQuery::Kind::kRange ? "range" : "knn";
      e.now = now;
      e.deadline_ms = deadline_ms;
      e.k = q.kind == BatchQuery::Kind::kKnn ? q.k : 0;
      e.pruning_enabled = cfg.use_pruning;
      e.objects_known = known;
      e.candidates = static_cast<int64_t>(d.restrict.size());
      if (!d.qd.empty()) {
        e.dindex_slack = d.qd.slack;
      }
      e.batched = true;
      e.batch_size = static_cast<int64_t>(batch.size());
      engine_->ProbeCacheOutcomes(d.restrict, now, &e);
      engine_->FillIngestContext(&e);
    }
  }
  const int64_t t_pruned = explained ? obs::MonotonicNanos() : 0;

  // Stage 3: one admission decision for the union, so the deadline budget
  // is charged once per unique object no matter how many queries want it.
  std::vector<ObjectId> all;
  for (const Distinct& d : distinct) {
    all.insert(all.end(), d.restrict.begin(), d.restrict.end());
  }
  std::sort(all.begin(), all.end());
  all.erase(std::unique(all.begin(), all.end()), all.end());
  unique_candidates_->Increment(static_cast<int64_t>(all.size()));
  QueryEngine::PlanDecision decision;
  const QueryEngine::InferPlan plan = engine_->PlanInference(
      all, now, deadline_ms, explained ? &decision : nullptr);
  // Every batch query is served at the chosen level; count them all, as
  // the serial path would.
  for (size_t i = 0; i < batch.size(); ++i) {
    engine_->CountPlan(plan);
  }

  // Stages 4+5: infer once, then answer each distinct query against the
  // shared table restricted to its own candidates.
  int64_t t_inferred = t_pruned;
  if (plan.level == QualityLevel::kPruneOnly) {
    for (Distinct& d : distinct) {
      const BatchQuery& q = batch[d.first_index];
      if (q.kind == BatchQuery::Kind::kRange) {
        d.answer.range = engine_->PruneOnlyRange(d.restrict, q.window, now);
      } else {
        if (d.qd.empty()) {
          d.qd = engine_->DistancesFor(d.q);  // Pruning was off.
        }
        d.answer.knn = engine_->PruneOnlyKnn(d.restrict, d.qd, q.k, now);
      }
    }
  } else if (plan.level != QualityLevel::kFull) {
    AnchorObjectTable scratch;
    engine_->ExecuteDegradedPlan(plan, now, &scratch);
    t_inferred = explained ? obs::MonotonicNanos() : t_pruned;
    for (Distinct& d : distinct) {
      const BatchQuery& q = batch[d.first_index];
      if (q.kind == BatchQuery::Kind::kRange) {
        d.answer.range =
            engine_->range_eval_.Evaluate(scratch, q.window, &d.restrict);
        d.answer.range.quality = plan.level;
      } else {
        d.answer.knn =
            engine_->knn_eval_.Evaluate(scratch, d.q, q.k, &d.restrict);
        d.answer.knn.result.quality = plan.level;
      }
    }
  } else {
    engine_->InferBatch(all, now);
    t_inferred = explained ? obs::MonotonicNanos() : t_pruned;
    for (Distinct& d : distinct) {
      const BatchQuery& q = batch[d.first_index];
      if (q.kind == BatchQuery::Kind::kRange) {
        d.answer.range = engine_->range_eval_.Evaluate(engine_->table_,
                                                       q.window, &d.restrict);
      } else {
        d.answer.knn = engine_->knn_eval_.Evaluate(engine_->table_, d.q, q.k,
                                                   &d.restrict);
      }
    }
  }

  // Coverage annotation runs the serial path's read of the health view, so
  // each distinct answer carries exactly what the unbatched query would.
  for (Distinct& d : distinct) {
    const BatchQuery& q = batch[d.first_index];
    if (q.kind == BatchQuery::Kind::kRange) {
      d.answer.range.coverage_degraded =
          engine_->CoverageDegraded(d.restrict, &q.window);
    } else {
      d.answer.knn.result.coverage_degraded =
          engine_->CoverageDegraded(d.restrict, nullptr);
    }
  }

  if (explained) {
    const int64_t t_end = obs::MonotonicNanos();
    for (Distinct& d : distinct) {
      obs::QueryExplain& e = d.explain;
      const BatchQuery& q = batch[d.first_index];
      const QualityLevel served = q.kind == BatchQuery::Kind::kRange
                                      ? d.answer.range.quality
                                      : d.answer.knn.result.quality;
      e.quality = std::string(ToString(served));
      e.coverage_degraded = q.kind == BatchQuery::Kind::kRange
                                ? d.answer.range.coverage_degraded
                                : d.answer.knn.result.coverage_degraded;
      e.budget_reason = decision.reason;
      e.budget_filter_seconds = decision.budget;
      e.est_full_cost = decision.est_full;
      e.est_stale_cost = decision.est_stale;
      e.est_reduced_cost = decision.est_reduced;
      // Batch stages run once for everyone; each record reports the
      // batch's stage walls and the batch's work deltas (the per-query
      // marginal cost is exactly what batching dissolves).
      e.prune_ns = t_pruned - t_start;
      e.infer_ns = t_inferred - t_pruned;
      e.evaluate_ns = t_end - t_inferred;
      e.total_ns = t_end - t_start;
      engine_->ChargeDeltas(baseline, &e);
      if (q.kind == BatchQuery::Kind::kRange) {
        e.result_objects = static_cast<int64_t>(d.answer.range.objects.size());
        e.result_total_probability = d.answer.range.TotalProbability();
      } else {
        e.result_objects =
            static_cast<int64_t>(d.answer.knn.result.objects.size());
        e.result_total_probability = d.answer.knn.total_probability;
      }
    }
  }

  // Fan each distinct answer back to every duplicate slot.
  for (size_t i = 0; i < batch.size(); ++i) {
    const Distinct& d = distinct[slot_of[i]];
    answers[i] = d.answer;
    answers[i].kind = batch[i].kind;
    if (explained) {
      (*explains)[i] = d.explain;
      (*explains)[i].deduped = d.first_index != i;
    }
    if (details != nullptr) {
      BatchSlotDetail& slot = (*details)[i];
      slot.candidates = d.restrict;
      slot.snapped = d.q;
      slot.dists = d.qd;
    }
  }
  return answers;
}

}  // namespace ipqs
