// Thread-scaling microbenchmark: range-query throughput of the particle
// filter engine at 1/2/4/8 inference threads over the Table-2 workload
// (200 objects, 64 particles, 19 readers, 2 m range, 2 % windows).
//
// Also verifies the determinism guarantee end to end: at every thread
// count the query answers must be byte-identical to the single-threaded
// baseline (per-object (seed, object, timestamp) RNG streams + canonical
// merge order), so the sweep prints "identical" per row — any deviation is
// a bug, not noise.
//
// The closing line prints the measured speedups next to the host's
// hardware thread count; nothing is assumed about how they relate (each
// query fans out only its own few uncached candidates, which can leave the
// pool too little work per task to scale). IPQS_FAST=1 shrinks the
// protocol.

#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <memory>
#include <thread>
#include <utility>
#include <vector>

#include "common/check.h"
#include "sim/experiment.h"
#include "sim/simulation.h"

namespace ipqs {
namespace {

struct Workload {
  std::vector<Rect> windows;
  std::vector<int64_t> times;  // One timestamp per batch of windows.
};

constexpr uint64_t kSeed = 7;

int RunScaling() {
  const bool fast = [] {
    const char* v = std::getenv("IPQS_FAST");
    return v != nullptr && v[0] == '1';
  }();
  const int num_timestamps = fast ? 3 : 10;
  const int windows_per_timestamp = fast ? 5 : 20;
  const int warmup_seconds = fast ? 120 : 300;
  const int seconds_between = 10;

  std::printf("micro_scaling — range-query throughput vs. inference "
              "threads\n");
  std::printf("workload: 200 objects, %d timestamps x %d windows (2%% "
              "area), warmup %d s\n\n",
              num_timestamps, windows_per_timestamp, warmup_seconds);
  std::printf("%8s %12s %14s %10s %10s\n", "threads", "time (ms)",
              "queries/s", "speedup", "answers");

  double baseline_ms = 0.0;
  std::vector<QueryResult> baseline_results;
  std::vector<std::pair<int, double>> speedups;

  for (const int threads : {1, 2, 4, 8}) {
    // A fresh world per sweep point: the simulation evolves identically
    // (same seed drives the world), so every engine sees the same reading
    // stream and the same query workload.
    SimulationConfig config;
    config.trace.num_objects = 200;
    config.seed = kSeed;
    config.num_threads = threads;
    auto sim_or = Simulation::Create(config);
    IPQS_CHECK(sim_or.ok());
    std::unique_ptr<Simulation> sim = std::move(*sim_or);
    sim->Run(warmup_seconds);

    // Pre-generate the workload from the dedicated query stream so window
    // draws do not perturb the world.
    Workload workload;
    for (int ts = 0; ts < num_timestamps; ++ts) {
      for (int w = 0; w < windows_per_timestamp; ++w) {
        workload.windows.push_back(Experiment::RandomWindow(
            sim->plan(), 0.02, sim->query_rng()));
      }
    }

    std::vector<QueryResult> results;
    results.reserve(workload.windows.size());
    const auto start = std::chrono::steady_clock::now();
    size_t next_window = 0;
    for (int ts = 0; ts < num_timestamps; ++ts) {
      sim->Run(seconds_between);
      for (int w = 0; w < windows_per_timestamp; ++w) {
        results.push_back(sim->pf_engine().EvaluateRange(
            workload.windows[next_window++], sim->now()));
      }
    }
    const auto end = std::chrono::steady_clock::now();
    const double ms =
        std::chrono::duration<double, std::milli>(end - start).count();
    const double qps = results.size() / (ms / 1000.0);

    bool identical = true;
    if (threads == 1) {
      baseline_ms = ms;
      baseline_results = results;
    } else {
      IPQS_CHECK_EQ(results.size(), baseline_results.size());
      for (size_t i = 0; i < results.size(); ++i) {
        if (results[i].objects != baseline_results[i].objects) {
          identical = false;
          break;
        }
      }
    }
    speedups.emplace_back(threads, baseline_ms / ms);
    std::printf("%8d %12.1f %14.1f %9.2fx %10s\n", threads, ms, qps,
                baseline_ms / ms, identical ? "identical" : "DIVERGED");
    if (!identical) {
      std::fprintf(stderr,
                   "FATAL: answers diverged from the 1-thread baseline\n");
      return 1;
    }
  }
  std::printf("\nAnswers are byte-identical at every thread count. "
              "Measured speedup vs. 1 thread:");
  for (const auto& [threads, speedup] : speedups) {
    std::printf(" %dt %.2fx", threads, speedup);
  }
  std::printf(" (host reports %u hardware threads).\n",
              std::thread::hardware_concurrency());
  return 0;
}

}  // namespace
}  // namespace ipqs

int main() { return ipqs::RunScaling(); }
