#include "replay.h"

#include <sched.h>
#include <sys/resource.h>

#include <utility>

#include "graph/graph_builder.h"
#include "query/uncertain_region.h"
#include "stats.h"

namespace e2e {

using ipqs::BatchAnswer;
using ipqs::BatchQuery;
using ipqs::obs::MonotonicNanos;

bool ParseWorkload(const std::string& name, Workload* out) {
  for (Workload w :
       {Workload::kSerial, Workload::kBatched, Workload::kStanding}) {
    if (name == WorkloadName(w)) {
      *out = w;
      return true;
    }
  }
  return false;
}

const char* WorkloadName(Workload w) {
  switch (w) {
    case Workload::kSerial:
      return "serial";
    case Workload::kBatched:
      return "batched";
    case Workload::kStanding:
      return "standing";
  }
  return "?";
}

// batched runs 3 pool workers plus the calling thread: one per core of the
// 4-core reference host.
int WorkloadThreads(Workload w) { return w == Workload::kBatched ? 4 : 1; }

void Tracer::OpenParent(const char* name) {
  open_ = name;
  open_start_ns_ = NowNs();
  ++next_parent_id_;
}

void Tracer::CloseParent() {
  const int64_t end_ns = NowNs();
  recorder_->AddSpan(open_, open_start_ns_, end_ns, "id", next_parent_id_);
  Parent& parent = parents_[open_];
  ++parent.count;
  parent.total_ns += end_ns - open_start_ns_;
  totals_ns_[open_] += end_ns - open_start_ns_;
  open_ = nullptr;
}

void Tracer::Record(const char* name, int64_t start_ns, int64_t end_ns) {
  totals_ns_[name] += end_ns - start_ns;
  if (open_ == nullptr) {
    recorder_->AddSpan(name, start_ns, end_ns);
    return;
  }
  recorder_->AddSpan(name, start_ns, end_ns, "parent", next_parent_id_);
  parents_[open_].children_ns[name] += end_ns - start_ns;
}

int64_t Tracer::TotalNs(const std::string& name) const {
  const auto it = totals_ns_.find(name);
  return it == totals_ns_.end() ? 0 : it->second;
}

namespace {

// Peak resident set size of this process so far.
double PeakRssBytes() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) * 1024.0;
}

// One second of input through the collector (heartbeats, readings, flush)
// and, when monitored, the health tick.
void Ingest(Server& s, const Second& second, Tracer* tracer) {
  {
    const Span span(tracer, "rfid.ingest");
    for (ipqs::ReaderId r = 0; r < s.deployment.num_readers(); ++r) {
      s.collector.NoteReaderHeartbeat(r, second.time);
    }
    for (const ipqs::RawReading& reading : second.readings) {
      s.collector.Observe(reading);
      s.history.Observe(reading);
    }
    s.collector.Flush(second.time);
  }
  if (s.health != nullptr) {
    const Span span(tracer, "health.tick");
    s.health->Tick(second.time);
  }
}

Counts Snapshot(const Server& s) {
  Counts c;
  const ipqs::EngineStats e = s.engine->stats();
  c["query.objects_scanned"] = static_cast<double>(e.objects_considered);
  c["query.candidates"] = static_cast<double>(e.candidates_inferred);
  c["filter.runs"] = static_cast<double>(e.filter_runs);
  c["filter.resumes"] = static_cast<double>(e.filter_resumes);
  c["filter.seconds"] = static_cast<double>(e.filter_seconds);
  const ipqs::ParticleCache::Stats cache = s.engine->cache_stats();
  c["filter.cache_hits"] = static_cast<double>(cache.hits);
  c["filter.cache_misses"] = static_cast<double>(cache.misses);
  const ipqs::DistanceIndex::Stats dindex = s.engine->distance_index_stats();
  c["graph.dindex_hits"] = static_cast<double>(dindex.hits);
  c["graph.dindex_misses"] = static_cast<double>(dindex.misses);
  if (s.subscriptions != nullptr) {
    const ipqs::SubscriptionStats subs = s.subscriptions->stats();
    c["query.sub_evaluated"] = static_cast<double>(subs.evaluated);
    c["query.sub_skipped"] = static_cast<double>(subs.skipped);
  }
  if (s.registry != nullptr) {
    ipqs::obs::MetricsRegistry& reg = *s.registry;
    c["query.batch_slots"] = static_cast<double>(
        reg.GetCounter("pf.qps.candidate_slots")->Value());
    c["query.batch_unique"] = static_cast<double>(
        reg.GetCounter("pf.qps.unique_candidates")->Value());
    c["common.pool_tasks"] =
        static_cast<double>(reg.GetCounter("pf.pool.tasks")->Value());
    c["common.pool_wait_ns"] = static_cast<double>(
        reg.GetHistogram("pf.pool.wait_ns")->snapshot().sum);
  }
  return c;
}

void AddDelta(const Counts& after, const Counts& before, Counts* sum) {
  for (const auto& [name, value] : after) {
    (*sum)[name] += value - before.at(name);
  }
}

uint64_t DigestOf(const BatchAnswer& a) {
  Digest d;
  if (a.kind == BatchQuery::Kind::kRange) {
    d.Add(a.range);
  } else {
    d.Add(a.knn);
  }
  return d.value();
}

// Checks and scores one delivered answer; `truth` may be null (not scored).
void Score(const BatchQuery& q, const BatchAnswer& a,
           const std::vector<ipqs::ObjectId>* truth, bool objects_known,
           Digest* digest, ReplayResult* r) {
  ++r->attempted;
  digest->AddInt(static_cast<int64_t>(DigestOf(a)));
  if (q.kind == BatchQuery::Kind::kRange) {
    r->failed += ValidRange(a.range) ? 0 : 1;
    if (truth != nullptr) {
      r->range_kl.AddOptional(ipqs::RangeKlDivergence(*truth, a.range));
    }
  } else {
    r->failed += ValidKnn(a.knn, objects_known) ? 0 : 1;
    if (truth != nullptr && !truth->empty()) {
      r->knn_hit.Add(ipqs::KnnHitRate(a.knn.result, *truth, q.k,
                                      /*top_k_only=*/false));
    }
  }
}

// Answers re-issued alone are sampled: all of every 11th batched panel (9
// of a nominal run's 99) and the evaluated subscriptions of every 30th
// standing second (16 of 480). That keeps each kind under 1000 samples, so
// the tail is p95 with ~40 samples beyond it. A p99 of these sub-ms calls
// would mostly time the host descheduling a CPU.
constexpr int64_t kBatchedProbeEvery = 11;
constexpr int64_t kStandingProbeEvery = 30;

// Re-issues a delivered answer's query alone, as a batch of one at the same
// timestamp, timing it and checking it answers byte-identically.
void Probe(ipqs::QueryScheduler& scheduler, const BatchQuery& q,
           const BatchAnswer& delivered, int64_t now, ReplayResult* r) {
  const int64_t t0 = MonotonicNanos();
  const std::vector<BatchAnswer> alone = scheduler.EvaluateBatch({q}, now);
  const double us = static_cast<double>(MonotonicNanos() - t0) / 1e3;
  (q.kind == BatchQuery::Kind::kRange ? r->range_us : r->knn_us).push_back(us);
  r->probe_mismatches += DigestOf(alone[0]) == DigestOf(delivered) ? 0 : 1;
}

// On a shared host one core can run a third slower than the next for
// seconds at a time (a busy neighbour on its sibling thread), so a
// single-threaded replay that stays on one core reads that core's luck.
// Moving the replay thread to the next allowed CPU every 200 ms makes each
// run sample every core. Only a single-threaded engine is moved: pool
// workers would inherit a one-CPU mask. The original mask is restored on
// destruction.
class CpuRotation {
 public:
  explicit CpuRotation(bool enabled) {
    CPU_ZERO(&allowed_);
    if (!enabled || sched_getaffinity(0, sizeof(allowed_), &allowed_) != 0) {
      return;
    }
    for (int c = 0; c < CPU_SETSIZE; ++c) {
      if (CPU_ISSET(c, &allowed_)) {
        cpus_.push_back(c);
      }
    }
  }
  ~CpuRotation() {
    if (cpus_.size() > 1) {
      sched_setaffinity(0, sizeof(allowed_), &allowed_);
    }
  }
  CpuRotation(const CpuRotation&) = delete;
  CpuRotation& operator=(const CpuRotation&) = delete;

  void MaybeMove() {
    if (cpus_.size() < 2 || MonotonicNanos() - last_move_ns_ < 200000000) {
      return;
    }
    cpu_set_t one;
    CPU_ZERO(&one);
    CPU_SET(cpus_[next_++ % cpus_.size()], &one);
    sched_setaffinity(0, sizeof(one), &one);
    last_move_ns_ = MonotonicNanos();
  }

 private:
  cpu_set_t allowed_;
  std::vector<int> cpus_;
  size_t next_ = 0;
  int64_t last_move_ns_ = 0;
};

class Replayer {
 public:
  Replayer(Server& s, InputGenerator& input, Workload workload,
           const Scale& scale, const ReplayOptions& options)
      : s_(s),
        input_(input),
        workload_(workload),
        scale_(scale),
        tracer_(options.tracer) {}

  void AdHocPanel() {
    for (int i = 0; i < scale_.panel_interval_seconds; ++i) {
      const Second second = input_.NextSecond();
      const int64_t t0 = MonotonicNanos();
      Ingest(s_, second, tracer_);
      r_.serve_ns += MonotonicNanos() - t0;
      Count(second);
    }
    const Panel panel = input_.MakePanel();
    std::vector<BatchAnswer> answers(panel.queries.size());
    const Counts before = Snapshot(s_);
    const int64_t t0 = MonotonicNanos();
    {
      const ParentSpan span(tracer_, "panel");
      if (workload_ == Workload::kSerial) {
        SerialPanel(panel, &answers);
      } else {
        BatchedPanel(panel, &answers);
      }
    }
    EndPanel(t0, before);
    const bool known = !s_.collector.KnownObjects().empty();
    for (size_t i = 0; i < answers.size(); ++i) {
      Score(panel.queries[i], answers[i], &panel.truths[i], known, &digest_,
            &r_);
    }
    if (workload_ == Workload::kBatched &&
        r_.panels % kBatchedProbeEvery == 1) {
      for (size_t i = 0; i < answers.size(); ++i) {
        Probe(*s_.scheduler, panel.queries[i], answers[i], panel.now, &r_);
      }
    }
  }

  void StandingSecond() {
    const Second second = input_.NextSecond();
    const Counts before = Snapshot(s_);
    const int64_t t0 = MonotonicNanos();
    ipqs::SubscriptionTickResult tick;
    {
      const ParentSpan span(tracer_, "panel");
      Ingest(s_, second, tracer_);
      const Span tick_span(tracer_, "query.sub_tick");
      tick = s_.subscriptions->Tick(second.time);
    }
    EndPanel(t0, before);
    Count(second);

    const std::vector<BatchQuery>& subs = input_.subscriptions();
    const bool scored = second.time % scale_.panel_interval_seconds == 0;
    const bool probed = second.time % kStandingProbeEvery == 0;
    const std::vector<std::vector<ipqs::ObjectId>> truths =
        scored ? input_.SubscriptionTruths()
               : std::vector<std::vector<ipqs::ObjectId>>();
    const bool known = !s_.collector.KnownObjects().empty();
    for (size_t id = 0; id < subs.size(); ++id) {
      Score(subs[id], s_.subscriptions->Answer(static_cast<int64_t>(id)),
            scored ? &truths[id] : nullptr, known, &digest_, &r_);
    }
    for (const ipqs::SubscriptionUpdate& u : tick.updates) {
      digest_.AddInt(u.id);
      digest_.AddInt(u.evaluated ? 1 : 0);
      if (probed && u.evaluated) {
        Probe(*s_.scheduler, subs[static_cast<size_t>(u.id)],
              s_.subscriptions->Answer(u.id), second.time, &r_);
      }
    }
  }

  ReplayResult Finish() {
    if (r_.sim_seconds < kMemoryHorizonSeconds) {
      r_.peak_rss_bytes = PeakRssBytes();
    }
    r_.digest = digest_.value();
    return std::move(r_);
  }

  int64_t panels() const { return r_.panels; }
  int64_t sim_seconds() const { return r_.sim_seconds; }

 private:
  void SerialPanel(const Panel& panel, std::vector<BatchAnswer>* answers) {
    ipqs::QueryEngine& engine = *s_.engine;
    for (size_t i = 0; i < panel.queries.size(); ++i) {
      const BatchQuery& q = panel.queries[i];
      BatchAnswer& a = (*answers)[i];
      a.kind = q.kind;
      const int64_t t0 = MonotonicNanos();
      if (q.kind == BatchQuery::Kind::kRange) {
        if (tracer_ != nullptr) {
          // The traced run splits the query at its public seams: pruning,
          // inference of the survivors, then the engine call (which finds
          // them memoized and evaluates).
          std::vector<ipqs::ObjectId> candidates;
          {
            const Span span(tracer_, "query.prune");
            candidates = ipqs::FilterRangeCandidates(
                s_.collector, s_.deployment, {q.window}, panel.now,
                engine.config().max_speed);
          }
          {
            const Span span(tracer_, "filter.infer");
            engine.InferBatch(candidates, panel.now);
          }
          const Span span(tracer_, "query.evaluate");
          a.range = engine.EvaluateRange(q.window, panel.now);
        } else {
          a.range = engine.EvaluateRange(q.window, panel.now);
        }
        r_.range_us.push_back(static_cast<double>(MonotonicNanos() - t0) /
                              1e3);
      } else {
        {
          const Span span(tracer_, "query.knn_call");
          a.knn = engine.EvaluateKnn(q.point, q.k, panel.now);
        }
        r_.knn_us.push_back(static_cast<double>(MonotonicNanos() - t0) / 1e3);
      }
    }
  }

  void BatchedPanel(const Panel& panel, std::vector<BatchAnswer>* answers) {
    if (tracer_ != nullptr) {
      std::vector<ipqs::ObjectId> range_union;
      {
        const Span span(tracer_, "query.prune");
        for (const BatchQuery& q : panel.queries) {
          if (q.kind == BatchQuery::Kind::kRange) {
            const std::vector<ipqs::ObjectId> c = ipqs::FilterRangeCandidates(
                s_.collector, s_.deployment, {q.window}, panel.now,
                s_.engine->config().max_speed);
            range_union.insert(range_union.end(), c.begin(), c.end());
          }
        }
      }
      {
        const Span span(tracer_, "filter.infer");
        s_.engine->InferBatch(range_union, panel.now);
      }
      const Span span(tracer_, "query.batch_call");
      *answers = s_.scheduler->EvaluateBatch(panel.queries, panel.now);
    } else {
      *answers = s_.scheduler->EvaluateBatch(panel.queries, panel.now);
    }
  }

  void EndPanel(int64_t t0, const Counts& before) {
    const int64_t ns = MonotonicNanos() - t0;
    AddDelta(Snapshot(s_), before, &r_.counts);
    r_.serve_ns += ns;
    r_.panel_ms.push_back(static_cast<double>(ns) / 1e6);
    ++r_.panels;
  }


  void Count(const Second& second) {
    if (++r_.sim_seconds == kMemoryHorizonSeconds) {
      r_.peak_rss_bytes = PeakRssBytes();
    }
    r_.readings += static_cast<int64_t>(second.readings.size());
  }

  Server& s_;
  InputGenerator& input_;
  Workload workload_;
  Scale scale_;
  Tracer* tracer_;
  ReplayResult r_;
  Digest digest_;
};

}  // namespace

std::unique_ptr<Server> Setup(Workload workload, int threads,
                              const ipqs::FloorPlan& plan,
                              const std::vector<Second>& warmup,
                              const std::vector<BatchQuery>& subs,
                              Tracer* tracer,
                              ipqs::obs::MetricsRegistry* registry) {
  auto s = std::make_unique<Server>();
  s->registry = registry;
  const bool standing = workload == Workload::kStanding;
  const ParentSpan setup(tracer, "setup");
  {
    const Span span(tracer, "graph.build");
    s->plan = plan;
    s->graph = ipqs::BuildWalkingGraph(s->plan).value();
    s->anchors = std::make_unique<ipqs::AnchorPointIndex>(
        ipqs::AnchorPointIndex::Build(s->graph, s->plan, kAnchorSpacing));
    s->anchor_graph = std::make_unique<ipqs::AnchorGraph>(
        ipqs::AnchorGraph::Build(s->graph, *s->anchors));
  }
  {
    const Span span(tracer, "rfid.deploy");
    s->deployment = ipqs::Deployment::UniformOnHallways(
                        s->plan, s->graph, kNumReaders, kActivationRange)
                        .value();
    s->deployment_graph = std::make_unique<ipqs::DeploymentGraph>(
        ipqs::DeploymentGraph::Build(*s->anchors, *s->anchor_graph,
                                     s->deployment));
  }
  {
    const Span span(tracer, "query.engine_build");
    if (standing) {
      // The subscriptions' dirty tracking drains the change log; sized as
      // the simulator sizes it for subscriptions.
      ipqs::CollectorConfig collector;
      collector.change_log_capacity = 65536;
      s->collector.SetConfig(collector);
      ipqs::ReaderHealthConfig health;
      health.enabled = true;
      s->health = std::make_unique<ipqs::ReaderHealthMonitor>(
          health, &s->collector, s->deployment.num_readers());
    }
    ipqs::EngineConfig config;
    config.num_threads = threads;
    config.metrics = registry;
    config.metrics_prefix = "pf";
    config.health = s->health.get();
    s->engine = std::make_unique<ipqs::QueryEngine>(
        &s->graph, &s->plan, s->anchors.get(), s->anchor_graph.get(),
        &s->deployment, s->deployment_graph.get(), &s->collector, config);
    if (workload != Workload::kSerial) {
      s->scheduler = std::make_unique<ipqs::QueryScheduler>(s->engine.get());
    }
  }
  {
    const Span span(tracer, "rfid.warmup");
    for (const Second& second : warmup) {
      Ingest(*s, second, nullptr);
    }
  }
  if (standing) {
    // Registration completes with each subscription's first answer.
    const Span span(tracer, "query.subscribe");
    ipqs::SubscriptionManagerConfig config;
    config.metrics = registry;
    s->subscriptions =
        std::make_unique<ipqs::SubscriptionManager>(s->engine.get(), config);
    for (const BatchQuery& q : subs) {
      if (q.kind == BatchQuery::Kind::kRange) {
        s->subscriptions->AddRange(q.window);
      } else {
        s->subscriptions->AddKnn(q.point, q.k);
      }
    }
    if (!warmup.empty()) {
      s->subscriptions->Tick(warmup.back().time);
    }
  }
  return s;
}

ReplayResult Replay(Server& server, InputGenerator& input, Workload workload,
                    const Scale& scale, const ReplayOptions& options) {
  Replayer replayer(server, input, workload, scale, options);
  const int64_t start = MonotonicNanos();
  int64_t last_idle_ns = start;
  CpuRotation rotation(server.engine->config().num_threads == 1);
  while (replayer.panels() < options.panels) {
    rotation.MaybeMove();
    if (options.wall_cap_s > 0 &&
        static_cast<double>(MonotonicNanos() - start) >=
            options.wall_cap_s * 1e9) {
      break;
    }
    if (workload == Workload::kStanding) {
      replayer.StandingSecond();
    } else {
      replayer.AdHocPanel();
    }
    if (options.idle_task &&
        replayer.sim_seconds() >= kMemoryHorizonSeconds &&
        MonotonicNanos() - last_idle_ns >= 1000000000) {
      options.idle_task();
      last_idle_ns = MonotonicNanos();
    }
  }
  return replayer.Finish();
}

}  // namespace e2e
