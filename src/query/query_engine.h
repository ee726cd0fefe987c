#ifndef IPQS_QUERY_QUERY_ENGINE_H_
#define IPQS_QUERY_QUERY_ENGINE_H_

#include <cstdint>
#include <memory>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "common/rng.h"
#include "common/thread_pool.h"
#include "filter/particle_cache.h"
#include "filter/particle_filter.h"
#include "geom/point.h"
#include "geom/rect.h"
#include "graph/distance_index.h"
#include "health/reader_health.h"
#include "obs/explain.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "query/knn_query.h"
#include "query/range_query.h"
#include "query/uncertain_region.h"
#include "symbolic/symbolic_inference.h"

namespace ipqs {

// Which location inference backend feeds query evaluation.
enum class InferenceMethod {
  kParticleFilter,  // The paper's contribution (PF).
  kSymbolicModel,   // The paper's baseline (SM).
  // Naive floor: the object is wherever its last detecting reader is
  // (uniform over that reader's activation zone, regardless of how stale
  // the reading is). Not in the paper; a sanity comparator that shows
  // what the probabilistic models buy.
  kLastReading,
};

// Admission/downgrade policy for deadline-bound queries. The budget is
// deliberately a WORK bound, not a wall-clock one: a deadline of D ms buys
// D * filter_seconds_per_ms filter-seconds of inference, and the engine
// picks the highest quality level whose estimated work fits. Estimates
// derive only from object histories and cache state, so the chosen level —
// and therefore the answer — is a pure function of (seed, load), never of
// machine speed or scheduling. kFull is used whenever the work fits.
struct DegradePolicy {
  // Calibration: filter-seconds of inference work one millisecond of
  // deadline is assumed to buy. Raise on faster machines for more
  // aggressive admission; answers change only through the level choice.
  double filter_seconds_per_ms = 50.0;
  // kCachedStale serves a cached state as-is only when its age
  // (now - state.time) is within this bound.
  int64_t max_stale_age_seconds = 30;
  // Particle count for kReducedParticles runs (must be < filter Ns to
  // actually shed work).
  int reduced_particles = 16;
};

struct EngineConfig {
  InferenceMethod method = InferenceMethod::kParticleFilter;
  FilterConfig filter;
  SymbolicConfig symbolic;
  // Default per-query deadline in milliseconds; 0 disables degradation.
  // QueryOptions::deadline_ms overrides it per call.
  int64_t deadline_ms = 0;
  DegradePolicy degrade;
  // u_max used by the query-aware optimization module's uncertain regions.
  double max_speed = 1.5;
  bool use_pruning = true;  // Query aware optimization module on/off.
  bool use_cache = true;    // Cache management module on/off (PF only).
  uint64_t seed = 7;
  // Fan-out width for batch inference (every query entry point and
  // InferBatch): per-object filter runs are spread over this many worker
  // threads. 1 = serial. Answers are identical at any setting — every
  // object's inference draws from its own (seed, object, timestamp)
  // stream (Rng::ForStream) and results merge in ascending object order.
  int num_threads = 1;
  // Observability. With `metrics` set, the engine registers per-stage
  // latency histograms, cache/pool counters, and the EngineStats counters
  // under `metrics_prefix` in that registry (engines sharing a registry
  // need distinct prefixes, or they share counters). With `metrics` null
  // the engine keeps a private registry for its EngineStats counters and
  // skips every timer — no clock is ever read, so the untouched cost is
  // zero. Neither knob perturbs query answers (metrics never feed RNG).
  obs::MetricsRegistry* metrics = nullptr;
  std::string metrics_prefix = "engine";
  // When set, every query emits Chrome-tracing spans (whole query, prune /
  // infer / merge / evaluate stages, and one span per inferred object)
  // into this recorder; load the JSON in chrome://tracing or Perfetto.
  obs::TraceRecorder* trace = nullptr;
  // Optional reader-health monitor (src/health/). When set and enabled,
  //  * silence from suspect/dead readers no longer discounts particles in
  //    the negative-information branch (their silence is uninformative);
  //  * answers whose window or candidates touch a degraded reader carry
  //    coverage_degraded so consumers know coverage was impaired.
  // Null (or a disabled monitor) reports every reader healthy; the
  // collector-side liveness gate (a reader with zero readings system-wide
  // for a replayed second never discounts) applies regardless.
  const ReaderHealthMonitor* health = nullptr;
};

// One query of a QueryEngine::EvaluateBatch call.
struct BatchQuery {
  enum class Kind { kRange, kKnn };

  static BatchQuery Range(const Rect& window) {
    BatchQuery q;
    q.kind = Kind::kRange;
    q.window = window;
    return q;
  }
  static BatchQuery Knn(const Point& point, int k) {
    BatchQuery q;
    q.kind = Kind::kKnn;
    q.point = point;
    q.k = k;
    return q;
  }

  Kind kind = Kind::kRange;
  Rect window;  // kRange only.
  Point point;  // kKnn only.
  int k = 0;    // kKnn only.
};

// Answer slot for one BatchQuery; read the member matching its kind.
struct BatchAnswer {
  BatchQuery::Kind kind = BatchQuery::Kind::kRange;
  QueryResult range;
  KnnResult knn;
};

// Per-slot serving internals surfaced to callers that maintain incremental
// state on top of a batch (the SubscriptionManager): the candidate set the
// slot's answer was restricted to (ascending, unique), and — for kNN with
// pruning on — the snapped query location plus the per-reader distances
// and slack its pruning read. `dists` is empty for range queries and
// whenever pruning was off.
struct BatchSlotDetail {
  std::vector<ObjectId> candidates;
  GraphLocation snapped;
  SourceDistances dists;
};

// Per-call options of every query entry point. The sinks are strictly
// observational: answers are byte-identical whether or not they are set
// (pinned by tests/determinism_test.cc) — nothing read for them feeds the
// RNG, the cache, or the admission decision. An entry point aborts when
// handed a sink that belongs to the other kind of entry.
struct QueryOptions {
  // Deadline for this call in milliseconds; unset uses
  // EngineConfig::deadline_ms (0 = never degrade).
  std::optional<int64_t> deadline_ms = std::nullopt;
  // EvaluateRange / EvaluateKnn: the query's provenance record (see
  // obs/explain.h).
  obs::QueryExplain* explain = nullptr;
  // EvaluateBatch: one provenance record per slot (resized to the batch).
  std::vector<obs::QueryExplain>* explains = nullptr;
  // EvaluateBatch: one BatchSlotDetail per slot (resized to the batch).
  std::vector<BatchSlotDetail>* details = nullptr;
};

struct EngineStats {
  int64_t queries = 0;
  int64_t objects_considered = 0;   // Known objects summed over queries.
  // Per-object inference calls (memoized objects are not re-inferred, so
  // this is not the pruning survivor count; <prefix>.qps.candidate_slots
  // is).
  int64_t candidates_inferred = 0;
  int64_t filter_runs = 0;          // Full Algorithm 2 executions.
  int64_t filter_resumes = 0;       // Cache-hit resumptions.
  int64_t filter_seconds = 0;       // Total filtered seconds (work proxy).
};

// How often deadline pressure pushed answers down the quality ladder.
struct DegradeStats {
  int64_t full = 0;               // Queries answered at kFull.
  int64_t cached_stale = 0;       // ... at kCachedStale.
  int64_t reduced_particles = 0;  // ... at kReducedParticles.
  int64_t prune_only = 0;         // ... at kPruneOnly.
  int64_t stale_served_objects = 0;  // Objects served a cached state as-is.
};

// The end-to-end indoor spatial query evaluation system (Figure 3): data
// collector -> query aware optimization -> inference (particle filter with
// cache, or symbolic baseline) -> APtoObjHT -> query evaluation.
//
// The engine owns no simulation state; it reads the shared DataCollector
// and lazily infers location distributions for candidate objects at query
// time, memoizing them in the APtoObjHT for the duration of one timestamp.
//
// Determinism guarantee: the distribution inferred for an object at a
// timestamp is a pure function of (engine seed, that object's history,
// timestamp) — independent of candidate order, of which other objects were
// inferred before it, of pruning, and of num_threads. With the cache
// enabled the filter resumes from the cached state instead of replaying
// the whole history, so the (identical-across-threads) answer additionally
// depends on which timestamps were previously queried.
class QueryEngine {
 public:
  QueryEngine(const WalkingGraph* graph, const FloorPlan* plan,
              const AnchorPointIndex* anchors, const AnchorGraph* anchor_graph,
              const Deployment* deployment,
              const DeploymentGraph* deployment_graph,
              const DataCollector* collector, const EngineConfig& config);

  // Probability each object lies in `window` at time `now`. The answer's
  // `quality` field reports the level the admission policy chose for the
  // deadline (options.deadline_ms, else config.deadline_ms).
  QueryResult EvaluateRange(const Rect& window, int64_t now,
                            const QueryOptions& options = {});

  // Probabilistic kNN at time `now` (Algorithm 4 result semantics), with
  // the same deadline handling as EvaluateRange.
  KnnResult EvaluateKnn(const Point& query, int k, int64_t now,
                        const QueryOptions& options = {});

  // Answers batch[i] in answer slot i, with the per-object inference work
  // done ONCE per unique candidate object instead of once per query that
  // wants it. EvaluateRange and EvaluateKnn are this pipeline run on a
  // batch of one:
  //   1. dedup  — byte-identical queries collapse to one evaluation whose
  //               answer is fanned back to every duplicate slot;
  //   2. prune  — each distinct query computes its own candidate set
  //               (kNN pruning reads the shared DistanceIndex rows);
  //   3. plan   — ONE admission decision for the union of all candidate
  //               sets, so a deadline's work budget is charged per unique
  //               object, not per query;
  //   4. infer  — one InferBatch over the union populates the shared
  //               APtoObjHT (or one degraded scratch table);
  //   5. answer — each distinct query evaluates against the shared table
  //               restricted to its own candidates.
  // Every answer is byte-identical to evaluating the same query alone at
  // the same `now` (given the same cache state): per-object inference is a
  // pure function of (seed, object history, now) and evaluation is
  // restricted to the query's own candidate set. The only intended
  // exception is the deadline path, where the batch admits one quality
  // level for the whole union. Batch explain records share the union's
  // decision and charge the batch's work; duplicate slots carry their
  // representative's record with `deduped` set.
  std::vector<BatchAnswer> EvaluateBatch(const std::vector<BatchQuery>& batch,
                                         int64_t now,
                                         const QueryOptions& options = {});

  // Location distribution of one object at `now`, inferring it if needed;
  // nullptr when the object has never been detected.
  const AnchorDistribution* InferObject(ObjectId object, int64_t now);

  // Infers every not-yet-memoized candidate at `now`, fanning per-object
  // filter runs across the thread pool (config.num_threads workers) and
  // merging the resulting distributions into the APtoObjHT in ascending
  // object order on the calling thread. Duplicate, unknown, and already
  // memoized candidates are skipped.
  void InferBatch(const std::vector<ObjectId>& candidates, int64_t now);

  const EngineConfig& config() const { return config_; }
  const DataCollector& collector() const { return *collector_; }
  const Deployment& deployment() const { return *deployment_; }
  // Read-only view for callers that probe cache state without mutating it
  // (the SubscriptionManager's settledness pins).
  const ParticleCache& cache() const { return cache_; }
  EngineStats stats() const;
  DegradeStats degrade_stats() const;
  ParticleCache::Stats cache_stats() const { return cache_.stats(); }
  DistanceIndex::Stats distance_index_stats() const {
    return dindex_.stats();
  }
  void ResetStats();

  // Particle-cache contents, for the persistence layer (src/persist/).
  // Restoring the cache of a crashed engine makes the recovered engine's
  // cache-dependent answers byte-identical to the uninterrupted run's.
  std::vector<ParticleCache::PersistedEntry> ExportCacheEntries() const {
    return cache_.ExportEntries();
  }
  void RestoreCacheEntries(std::vector<ParticleCache::PersistedEntry> entries) {
    cache_.RestoreEntries(std::move(entries));
  }

  // The current APtoObjHT (valid for the last queried timestamp).
  const AnchorObjectTable& table() const { return table_; }

 private:
  // The registry counters backing the EngineStats snapshot (always
  // non-null: they live in config.metrics or in own_registry_).
  struct StatCounters {
    obs::Counter* queries = nullptr;
    obs::Counter* objects_considered = nullptr;
    obs::Counter* candidates_inferred = nullptr;
    obs::Counter* filter_runs = nullptr;
    obs::Counter* filter_resumes = nullptr;
    obs::Counter* filter_seconds = nullptr;
  };
  // qps.* batch counters; a serial call counts as a batch of one.
  struct BatchCounters {
    obs::Counter* batches = nullptr;
    obs::Counter* queries = nullptr;
    obs::Counter* duplicate_queries = nullptr;  // Collapsed by dedup.
    obs::Counter* candidate_slots = nullptr;    // Sum of per-query set sizes.
    obs::Counter* unique_candidates = nullptr;  // Size of the union.
    obs::Histogram* batch_size = nullptr;
  };
  // Per-stage latency histograms; all null when config.metrics is null
  // (ScopedTimer on a null histogram never reads the clock).
  struct StageTimers {
    obs::Histogram* range_latency_ns = nullptr;
    obs::Histogram* knn_latency_ns = nullptr;
    obs::Histogram* prune_ns = nullptr;
    obs::Histogram* infer_ns = nullptr;
    obs::Histogram* merge_ns = nullptr;
    obs::Histogram* evaluate_ns = nullptr;
    obs::Histogram* snap_ns = nullptr;
  };

  struct DegradeCounters {
    obs::Counter* full = nullptr;
    obs::Counter* cached_stale = nullptr;
    obs::Counter* reduced_particles = nullptr;
    obs::Counter* prune_only = nullptr;
    obs::Counter* stale_served_objects = nullptr;
  };

  // The admission decision for one deadline-bound query: which rung of the
  // quality ladder to serve from, and which candidates go down which path.
  struct InferPlan {
    QualityLevel level = QualityLevel::kFull;
    std::vector<ObjectId> stale;  // Serve cached state as-is (L1/L2).
    std::vector<ObjectId> infer;  // Freshly infer (full or reduced Ns).
  };

  // The query pipeline behind every entry point (see EvaluateBatch).
  // `answers` has one slot per query; `explains` is null or points at one
  // record per query. `batched` is false for the single-query entries,
  // whose records report no batch context.
  void Serve(std::span<const BatchQuery> batch, int64_t now,
             const QueryOptions& options, bool batched,
             std::span<BatchAnswer> answers, obs::QueryExplain* explains);

  // Registers every metric under config.metrics_prefix and wires the
  // filter, cache, and (lazily) the thread pool.
  void InitObservability();

  // Drops memoized distributions when the query timestamp moves.
  void SyncTableTo(int64_t now);

  // The pure per-object inference: draws only from the (seed, object, now)
  // stream and touches no engine state besides the (sharded, locked)
  // particle cache and the atomic stats. Safe to call concurrently for
  // distinct objects. Returns nullopt for an empty history.
  std::optional<AnchorDistribution> ComputeInference(ObjectId object,
                                                     int64_t now);

  // ComputeInference with an explicit filter and cache policy; the
  // degraded path uses it to run reduced-particle inference that neither
  // reads nor pollutes the full-quality cache.
  std::optional<AnchorDistribution> ComputeInferenceWith(
      ObjectId object, int64_t now, const ParticleFilter& filter,
      bool cache_read, bool cache_write);

  // Why PlanInference chose the level it chose, for explain records. The
  // reason vocabulary is part of the stable explain output: no_deadline |
  // full_fits | stale_fits | reduced_fits | budget_exhausted.
  struct PlanDecision {
    const char* reason = "no_deadline";
    double budget = -1.0;       // Filter-seconds the deadline bought.
    double est_full = -1.0;     // Cost of the kFull plan (-1 = not costed).
    double est_stale = -1.0;    // ... of the kCachedStale plan.
    double est_reduced = -1.0;  // ... of the kReducedParticles plan.
  };

  // Picks the highest quality level whose estimated filter-seconds fit
  // deadline_ms * degrade.filter_seconds_per_ms. Pure function of the
  // candidates' histories and the cache state (work estimates, not clocks).
  // `candidates` must be ascending and unique.
  // A non-null `decision` receives the budget arithmetic for provenance;
  // passing it never changes the plan.
  InferPlan PlanInference(const std::vector<ObjectId>& candidates,
                          int64_t now, int64_t deadline_ms,
                          PlanDecision* decision = nullptr);

  // Runs a degraded (L1/L2) plan into `out` — a scratch table, so degraded
  // distributions are never memoized for later full-quality queries.
  void ExecuteDegradedPlan(const InferPlan& plan, int64_t now,
                           AnchorObjectTable* out);
  void CountPlan(const InferPlan& plan);

  // Explain-record helpers, all strictly observational (non-mutating cache
  // probes, counter reads): classifies each candidate's cache outcome and
  // captures the collector's reorder-buffer state at query time.
  void ProbeCacheOutcomes(const std::vector<ObjectId>& candidates, int64_t now,
                          obs::QueryExplain* explain) const;
  void FillIngestContext(obs::QueryExplain* explain) const;
  // Counter values before the query ran, for charging deltas to explain.
  struct ExplainBaseline {
    int64_t filter_runs = 0;
    int64_t filter_resumes = 0;
    int64_t filter_seconds = 0;
    int64_t stale_served = 0;
    int64_t dindex_hits = 0;
    int64_t dindex_misses = 0;
  };
  ExplainBaseline CaptureBaseline() const;
  void ChargeDeltas(const ExplainBaseline& before,
                    obs::QueryExplain* explain) const;

  // Whether this answer's coverage is impaired by degraded readers: any
  // non-healthy reader's activation zone intersects `window` (when given),
  // or any candidate's current detecting device is degraded. Pure read of
  // the monitor's view — never perturbs the answer probabilities.
  bool CoverageDegraded(const std::vector<ObjectId>& candidates,
                        const Rect* window) const;

  QueryResult PruneOnlyRange(const std::vector<ObjectId>& candidates,
                             const Rect& window, int64_t now) const;
  KnnResult PruneOnlyKnn(const std::vector<ObjectId>& candidates,
                         const SourceDistances& dists, int k,
                         int64_t now) const;

  // The per-reader distances a kNN query's pruning reads (see
  // SourceDistances in query/uncertain_region.h): the DistanceIndex row of
  // the anchor nearest the query on its edge, with the along-edge offset
  // gap between query and anchor as the slack. Calling thread only.
  SourceDistances DistancesFor(const GraphLocation& query);

  const WalkingGraph* graph_;
  const AnchorPointIndex* anchors_;
  const Deployment* deployment_;
  const DataCollector* collector_;
  EngineConfig config_;

  // Bridges the collector's liveness gate and (when configured) the health
  // monitor into the filters' negative-information branch.
  HealthSilenceTrust silence_trust_;
  ParticleFilter filter_;
  // Reduced-Ns twin of filter_ for kReducedParticles runs; null when the
  // policy's reduced_particles is not usable (< 1).
  std::unique_ptr<ParticleFilter> degraded_filter_;
  SymbolicInference symbolic_;
  ParticleCache cache_;
  RangeQueryEvaluator range_eval_;
  KnnQueryEvaluator knn_eval_;
  // Anchor-to-reader distances for kNN pruning; rows fill on first use.
  DistanceIndex dindex_;

  AnchorObjectTable table_;
  int64_t table_time_ = -1;

  // Observability (see EngineConfig::metrics). own_registry_ backs the
  // EngineStats counters when no external registry was configured.
  std::unique_ptr<obs::MetricsRegistry> own_registry_;
  obs::MetricsRegistry* metrics_ = nullptr;
  StatCounters counters_;
  BatchCounters batch_counters_;
  DegradeCounters degrade_counters_;
  StageTimers timers_;
  obs::TraceRecorder* trace_ = nullptr;

  // Lazily created on first batch when num_threads > 1.
  std::unique_ptr<ThreadPool> pool_;
};

}  // namespace ipqs

#endif  // IPQS_QUERY_QUERY_ENGINE_H_
