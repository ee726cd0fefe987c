#ifndef E2EBENCH_REPLAY_H_
#define E2EBENCH_REPLAY_H_

#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "graph/anchor_graph.h"
#include "health/reader_health.h"
#include "input.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "query/query_engine.h"
#include "query/query_scheduler.h"
#include "query/subscription.h"
#include "rfid/history_store.h"
#include "sim/metrics.h"
#include "symbolic/deployment_graph.h"

namespace e2e {

// serial: one EvaluateRange/EvaluateKnn per query at 1 thread.
// batched: one QueryScheduler::EvaluateBatch per panel at 4 threads.
// standing: ingest with change log and health monitor, subscriptions
//           ticked every second, no ad-hoc panels.
enum class Workload { kSerial, kBatched, kStanding };

bool ParseWorkload(const std::string& name, Workload* out);
const char* WorkloadName(Workload w);
int WorkloadThreads(Workload w);

// The benchmark's own spans, placed around the public calls it makes and
// recorded into an obs::TraceRecorder. A span recorded while a parent span
// (a panel, a setup) is open is that parent's child and carries its id, so
// each parent reconciles as the sum of its children plus a residue.
class Tracer {
 public:
  struct Parent {
    int64_t count = 0;
    int64_t total_ns = 0;
    std::map<std::string, int64_t> children_ns;
  };

  explicit Tracer(ipqs::obs::TraceRecorder* recorder) : recorder_(recorder) {}

  int64_t NowNs() const { return recorder_->NowNs(); }
  void OpenParent(const char* name);
  void CloseParent();
  void Record(const char* name, int64_t start_ns, int64_t end_ns);

  // Summed duration of every span named `name`.
  int64_t TotalNs(const std::string& name) const;
  const std::map<std::string, Parent>& parents() const { return parents_; }

 private:
  ipqs::obs::TraceRecorder* recorder_;
  std::map<std::string, int64_t> totals_ns_;
  std::map<std::string, Parent> parents_;
  const char* open_ = nullptr;
  int64_t open_start_ns_ = 0;
  int64_t next_parent_id_ = 0;
};

// RAII child span; with a null tracer no clock is read.
class Span {
 public:
  Span(Tracer* tracer, const char* name)
      : tracer_(tracer),
        name_(name),
        start_ns_(tracer == nullptr ? 0 : tracer->NowNs()) {}
  ~Span() {
    if (tracer_ != nullptr) {
      tracer_->Record(name_, start_ns_, tracer_->NowNs());
    }
  }
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

 private:
  Tracer* tracer_;
  const char* name_;
  int64_t start_ns_;
};

// RAII parent span.
class ParentSpan {
 public:
  ParentSpan(Tracer* tracer, const char* name) : tracer_(tracer) {
    if (tracer_ != nullptr) {
      tracer_->OpenParent(name);
    }
  }
  ~ParentSpan() {
    if (tracer_ != nullptr) {
      tracer_->CloseParent();
    }
  }
  ParentSpan(const ParentSpan&) = delete;
  ParentSpan& operator=(const ParentSpan&) = delete;

 private:
  Tracer* tracer_;
};

// The serving system under test (the Figure 3 pipeline), assembled only
// through public constructors. Never moved: the engine keeps pointers to
// the members built before it.
struct Server {
  ipqs::FloorPlan plan;
  ipqs::WalkingGraph graph;
  std::unique_ptr<ipqs::AnchorPointIndex> anchors;
  std::unique_ptr<ipqs::AnchorGraph> anchor_graph;
  ipqs::Deployment deployment;
  std::unique_ptr<ipqs::DeploymentGraph> deployment_graph;
  ipqs::DataCollector collector;
  ipqs::HistoryStore history;
  std::unique_ptr<ipqs::ReaderHealthMonitor> health;  // standing only
  std::unique_ptr<ipqs::QueryEngine> engine;
  // Serves batched panels and the batch-of-one latency probes.
  std::unique_ptr<ipqs::QueryScheduler> scheduler;
  std::unique_ptr<ipqs::SubscriptionManager> subscriptions;  // standing
  // Registry the engine fills (traced runs only; null otherwise, so the
  // engine reads no clock of its own).
  ipqs::obs::MetricsRegistry* registry = nullptr;
};

// Builds the server for `workload` with an engine of `threads` threads
// from the floor plan, ingests the warm-up seconds and registers the
// subscriptions (standing). Spans: one "setup" parent with graph.build,
// rfid.deploy, query.engine_build, rfid.warmup and query.subscribe
// children.
std::unique_ptr<Server> Setup(Workload workload, int threads,
                              const ipqs::FloorPlan& plan,
                              const std::vector<Second>& warmup,
                              const std::vector<ipqs::BatchQuery>& subs,
                              Tracer* tracer,
                              ipqs::obs::MetricsRegistry* registry);

struct ReplayOptions {
  // Panels to serve; a standing panel is one second.
  int64_t panels = 0;
  // Safety stop at the first panel boundary after this much wall time
  // (0: none), for a program too slow to finish its panels in time.
  double wall_cap_s = 0.0;
  Tracer* tracer = nullptr;
  // Run between panels, at most once per wall second and only past the
  // memory horizon; its time is outside every measurement.
  std::function<void()> idle_task;
};

// Simulated seconds of serving after which the process's peak RSS is read,
// so memory is compared over the same stream however fast the replay runs
// (histories grow with stream time).
inline constexpr int64_t kMemoryHorizonSeconds = 300;

// Named counters from the public stats (and, in traced runs, the registry
// counters the engine fills), summed over the panels' work only.
using Counts = std::map<std::string, double>;

struct ReplayResult {
  int64_t panels = 0;
  int64_t sim_seconds = 0;
  // Wall time inside the timed public calls (ingest and panels).
  int64_t serve_ns = 0;
  std::vector<double> panel_ms;
  // Per-query issue-to-answer latency: every serial query, and in the
  // other workloads sampled answers re-issued alone as batches of one.
  std::vector<double> range_us;
  std::vector<double> knn_us;
  ipqs::MeanAccumulator range_kl;
  ipqs::MeanAccumulator knn_hit;
  int64_t attempted = 0;
  int64_t failed = 0;
  // Batch-of-one answers that differ from the answer delivered.
  int64_t probe_mismatches = 0;
  int64_t readings = 0;
  // Peak RSS of the process once kMemoryHorizonSeconds simulated seconds
  // were served (or at the end of a shorter replay).
  double peak_rss_bytes = 0.0;
  uint64_t digest = 0;
  Counts counts;

  // Simulated seconds served per wall second of the timed calls.
  double RealtimeX() const {
    return serve_ns == 0 ? 0.0
                         : static_cast<double>(sim_seconds) * 1e9 /
                               static_cast<double>(serve_ns);
  }
};

ReplayResult Replay(Server& server, InputGenerator& input, Workload workload,
                    const Scale& scale, const ReplayOptions& options);

}  // namespace e2e

#endif  // E2EBENCH_REPLAY_H_
