// End-to-end benchmark of the ipqs serving pipeline; see NOTES.md.
//
//   e2ebench --workload serial|batched|standing --seed N --seconds S
//            --trace 0|1 [--trace_out FILE]
//
// Generates one RFID stream and query schedule from the seed, sets the
// server up, then replays the input closed loop from this thread: a fixed
// number of panels sized to take about S seconds. --trace 0 prints the
// end-to-end metrics. --trace 1 also replays the same input again with
// spans around every
// public call, checks both replays answered byte-identically, and prints
// the per-layer metrics with each parent span reconciled against its
// children. The last stdout line is one JSON object.
#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "input.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "replay.h"
#include "stats.h"

#ifndef E2EBENCH_BUILD_TYPE
#define E2EBENCH_BUILD_TYPE "unknown"
#endif

namespace e2e {
namespace {

// Set-ups before the replay (the last one serves it); more are sampled
// during the replay, and setup_s is the median of all of them.
constexpr int kInitialSetups = 3;

// The fixed work of one run at the nominal --seconds 15, scaled linearly
// for other lengths: panels for serial and batched, simulated seconds for
// standing. At 15 s each takes about that long on the 4-core reference
// host, and the sample counts sit just below a rung of the tail ladder
// (99 panels: p75 of panels, p99 of serial's 9900 range and 2970 kNN
// latencies; 480 seconds: p95), so each tail has as many samples beyond it
// as the rung allows. Every run of a given length serves the same stream, so
// counts, tail percentiles and quality figures compare like with like
// between versions of the program; a faster one just ends sooner.
int64_t Panels(Workload w, double seconds) {
  double at_15s = 0;
  switch (w) {
    case Workload::kSerial:
      at_15s = 99;
      break;
    case Workload::kBatched:
      at_15s = 99;
      break;
    case Workload::kStanding:
      at_15s = 480;
      break;
  }
  return std::max<int64_t>(1, std::llround(at_15s * seconds / 15.0));
}

struct Metric {
  std::string name;
  double value = 0.0;
  const char* unit = "";
  const char* better = nullptr;  // End-to-end metrics only.
  std::string note;
};

struct Args {
  Workload workload = Workload::kSerial;
  uint64_t seed = 0;
  double seconds = 0.0;
  bool trace = false;
  std::string trace_out;
};

bool ParseArgs(int argc, char** argv, Args* args) {
  std::map<std::string, std::string> kv;
  for (int i = 1; i < argc; ++i) {
    std::string key = argv[i];
    if (key.rfind("--", 0) != 0) {
      return false;
    }
    key = key.substr(2);
    const size_t eq = key.find('=');
    if (eq != std::string::npos) {
      kv[key.substr(0, eq)] = key.substr(eq + 1);
    } else if (i + 1 < argc) {
      kv[key] = argv[++i];
    } else {
      return false;
    }
  }
  if (!kv.count("workload") || !kv.count("seed") || !kv.count("seconds") ||
      !ParseWorkload(kv["workload"], &args->workload)) {
    return false;
  }
  char* end = nullptr;
  args->seed = std::strtoull(kv["seed"].c_str(), &end, 10);
  if (*end != '\0') {
    return false;
  }
  args->seconds = std::strtod(kv["seconds"].c_str(), &end);
  if (*end != '\0' || !(args->seconds > 0)) {
    return false;
  }
  args->trace = kv.count("trace") && kv["trace"] == "1";
  args->trace_out = kv.count("trace_out") ? kv["trace_out"] : "";
  return true;
}

double CurrentRssBytes() {
  long pages_total = 0;
  long pages_resident = 0;
  std::ifstream statm("/proc/self/statm");
  statm >> pages_total >> pages_resident;
  return static_cast<double>(pages_resident) * sysconf(_SC_PAGESIZE);
}

std::string Fmt(double v) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

std::string TailNote(const Tail& t) {
  char p[16];
  std::snprintf(p, sizeof(p), "p%g", t.percentile);
  return p + std::string(" of ") + std::to_string(t.samples) +
         " samples";
}

std::vector<Metric> EndToEnd(const ReplayResult& r,
                             const std::vector<double>& setup_s,
                             double mem_peak_mb) {
  const Tail panel = TailOf(r.panel_ms);
  const Tail range = TailOf(r.range_us);
  const Tail knn = TailOf(r.knn_us);
  const std::string panels = std::to_string(r.panel_ms.size()) + " panels";
  return {
      {"setup_s", Median(setup_s), "s", "lower",
       "median of " + std::to_string(setup_s.size()) + " set-ups"},
      {"realtime_x", r.RealtimeX(), "x", "higher",
       std::to_string(r.sim_seconds) + " simulated s"},
      {"panel_p50_ms", Median(r.panel_ms), "ms", "lower", panels},
      {"panel_tail_ms", panel.value, "ms", "lower", TailNote(panel)},
      {"range_p50_us", Median(r.range_us), "us", "lower",
       std::to_string(r.range_us.size()) + " queries"},
      {"range_tail_us", range.value, "us", "lower", TailNote(range)},
      {"knn_p50_us", Median(r.knn_us), "us", "lower",
       std::to_string(r.knn_us.size()) + " queries"},
      {"knn_tail_us", knn.value, "us", "lower", TailNote(knn)},
      {"mem_peak_mb", mem_peak_mb, "MB", "lower",
       "over pre-setup baseline, through " +
           std::to_string(kMemoryHorizonSeconds) +
           " simulated s"},
      {"range_kl", r.range_kl.Mean(), "nats", "lower",
       std::to_string(r.range_kl.count()) + " populated windows"},
      {"knn_hit", r.knn_hit.Mean(), "ratio", "higher",
       std::to_string(r.knn_hit.count()) + " kNN answers"},
  };
}

double Ratio(double num, double den) { return den == 0 ? 0.0 : num / den; }

Metric Layer(std::string name, double value, const char* unit) {
  return {std::move(name), value, unit, nullptr, ""};
}

std::vector<Metric> PerLayer(const Tracer& tracer, const ReplayResult& plain,
                             const ReplayResult& traced,
                             const Server& server) {
  const Counts& c = traced.counts;
  auto count = [&](const char* name) {
    const auto it = c.find(name);
    return it == c.end() ? 0.0 : it->second;
  };
  auto ms = [&](const char* name) { return tracer.TotalNs(name) / 1e6; };
  const auto& parents = tracer.parents();
  const Tracer::Parent& setup = parents.at("setup");
  auto setup_ms = [&](const char* name) {
    const auto it = setup.children_ns.find(name);
    return it == setup.children_ns.end()
               ? 0.0
               : it->second / 1e6 / static_cast<double>(setup.count);
  };
  auto residue_ms = [&](const char* parent_name) {
    const auto it = parents.find(parent_name);
    if (it == parents.end()) {
      return 0.0;
    }
    int64_t ns = it->second.total_ns;
    for (const auto& [child, child_ns] : it->second.children_ns) {
      ns -= child_ns;
    }
    return ns / 1e6 / (parent_name == std::string("setup")
                           ? static_cast<double>(it->second.count)
                           : 1.0);
  };
  const double panel_total_ms =
      parents.count("panel") ? parents.at("panel").total_ns / 1e6 : 0.0;
  const double runs = count("filter.runs");
  const double resumes = count("filter.resumes");
  const double evaluated = count("query.sub_evaluated");
  const double skipped = count("query.sub_skipped");
  return {
      Layer("graph.build_ms", setup_ms("graph.build"), "ms"),
      Layer("graph.dindex_hits", count("graph.dindex_hits"), "count"),
      Layer("graph.dindex_misses", count("graph.dindex_misses"), "count"),
      Layer("rfid.deploy_ms", setup_ms("rfid.deploy"), "ms"),
      Layer("query.engine_build_ms", setup_ms("query.engine_build"), "ms"),
      Layer("rfid.warmup_ms", setup_ms("rfid.warmup"), "ms"),
      Layer("query.subscribe_ms", setup_ms("query.subscribe"), "ms"),
      Layer("setup.unattributed_ms", residue_ms("setup"), "ms"),
      Layer("rfid.readings", static_cast<double>(traced.readings), "count"),
      Layer("rfid.ingest_ms", ms("rfid.ingest"), "ms"),
      Layer("rfid.ns_per_reading",
       Ratio(static_cast<double>(tracer.TotalNs("rfid.ingest")),
             static_cast<double>(traced.readings)),
       "ns"),
      Layer("rfid.entries_retained",
       static_cast<double>(server.collector.TotalEntriesRetained()), "count"),
      Layer("rfid.history_entries",
       static_cast<double>(server.history.TotalEntries()), "count"),
      Layer("health.tick_ms", ms("health.tick"), "ms"),
      Layer("query.prune_ms", ms("query.prune"), "ms"),
      Layer("query.objects_scanned", count("query.objects_scanned"), "count"),
      Layer("query.candidates", count("query.candidates"), "count"),
      Layer("query.survivor_ratio",
       Ratio(count("query.candidates"), count("query.objects_scanned")),
       "ratio"),
      Layer("filter.infer_ms", ms("filter.infer"), "ms"),
      Layer("filter.objects_inferred", runs + resumes, "count"),
      Layer("filter.runs", runs, "count"),
      Layer("filter.resumes", resumes, "count"),
      Layer("filter.seconds", count("filter.seconds"), "count"),
      Layer("filter.cache_hit_rate",
       Ratio(count("filter.cache_hits"),
             count("filter.cache_hits") + count("filter.cache_misses")),
       "ratio"),
      Layer("query.evaluate_ms", ms("query.evaluate"), "ms"),
      Layer("query.knn_call_ms", ms("query.knn_call"), "ms"),
      Layer("query.batch_call_ms", ms("query.batch_call"), "ms"),
      Layer("query.batch_unique_ratio",
       Ratio(count("query.batch_unique"), count("query.batch_slots")),
       "ratio"),
      Layer("common.pool_tasks", count("common.pool_tasks"), "count"),
      Layer("common.pool_wait_ms", count("common.pool_wait_ns") / 1e6, "ms"),
      Layer("query.sub_tick_ms", ms("query.sub_tick"), "ms"),
      Layer("query.sub_evaluated", evaluated, "count"),
      Layer("query.sub_skipped", skipped, "count"),
      Layer("query.sub_skip_ratio", Ratio(skipped, evaluated + skipped), "ratio"),
      Layer("panel.total_ms", panel_total_ms, "ms"),
      Layer("unattributed_ms", residue_ms("panel"), "ms"),
      Layer("trace_overhead_pct",
       (Ratio(plain.RealtimeX(), traced.RealtimeX()) - 1.0) * 100.0, "%"),
  };
}

// "parent = child + child + ... + unattributed", one line per parent kind.
void PrintReconciliation(const Tracer& tracer) {
  for (const auto& [name, parent] : tracer.parents()) {
    int64_t residue = parent.total_ns;
    std::printf("reconcile %s (%lld spans): %.6f ms =", name.c_str(),
                static_cast<long long>(parent.count), parent.total_ns / 1e6);
    for (const auto& [child, ns] : parent.children_ns) {
      std::printf(" %s_ms %.6f +", child.c_str(), ns / 1e6);
      residue -= ns;
    }
    std::printf(" unattributed_ms %.6f\n", residue / 1e6);
  }
}

void PrintResult(bool correct, const ReplayResult& r,
                 const std::vector<Metric>& metrics) {
  for (const Metric& m : metrics) {
    std::printf("metric %-24s %s %s", m.name.c_str(), Fmt(m.value).c_str(),
                m.unit);
    if (m.better != nullptr) {
      std::printf(" (%s is better)", m.better);
    }
    std::printf(m.note.empty() ? "\n" : " [%s]\n", m.note.c_str());
  }
  std::string json = "{\"correct\": ";
  json += correct ? "true" : "false";
  json += ", \"attempted\": " + std::to_string(r.attempted);
  json += ", \"failed\": " + std::to_string(r.failed);
  json += ", \"metrics\": {";
  for (size_t i = 0; i < metrics.size(); ++i) {
    json += (i == 0 ? "\"" : ", \"") + metrics[i].name +
            "\": {\"value\": " + Fmt(metrics[i].value) + ", \"unit\": \"" +
            metrics[i].unit + "\"}";
  }
  json += "}}";
  std::printf("%s\n", json.c_str());
}

void PrintChecks(const char* label, const ReplayResult& r) {
  std::printf(
      "check %s: panels=%lld answers=%lld failed=%lld "
      "batch_of_one_mismatches=%lld digest=%016llx\n",
      label, static_cast<long long>(r.panels),
      static_cast<long long>(r.attempted), static_cast<long long>(r.failed),
      static_cast<long long>(r.probe_mismatches),
      static_cast<unsigned long long>(r.digest));
}

// A replay cut short by the wall cap served less than the fixed work, so
// its figures are not comparable; it is reported as incorrect.
bool Correct(const ReplayResult& r, const ReplayOptions& options) {
  return r.panels == options.panels && r.failed == 0 &&
         r.probe_mismatches == 0;
}

int Run(const Args& args) {
  const Scale scale;
  const Workload w = args.workload;
  std::printf(
      "host {\"nproc\": %ld, \"workload\": \"%s\", \"threads\": %d, "
      "\"workload_threads\": {\"serial\": %d, \"batched\": %d, "
      "\"standing\": %d}, \"seed\": %llu, \"build_type\": \"%s\", "
      "\"objects\": %d, \"seconds\": %s, \"trace\": %d}\n",
      sysconf(_SC_NPROCESSORS_ONLN), WorkloadName(w), WorkloadThreads(w),
      WorkloadThreads(Workload::kSerial), WorkloadThreads(Workload::kBatched),
      WorkloadThreads(Workload::kStanding),
      static_cast<unsigned long long>(args.seed), E2EBENCH_BUILD_TYPE,
      scale.num_objects, Fmt(args.seconds).c_str(), args.trace ? 1 : 0);

  InputGenerator input(scale, args.seed);
  const std::vector<Second> warmup = input.Warmup();
  const double rss_baseline = CurrentRssBytes();
  std::vector<double> setup_s;
  auto timed_setup = [&] {
    const int64_t t0 = ipqs::obs::MonotonicNanos();
    std::unique_ptr<Server> s = Setup(w, WorkloadThreads(w), input.plan(),
                                      warmup, input.subscriptions(), nullptr,
                                      nullptr);
    setup_s.push_back((ipqs::obs::MonotonicNanos() - t0) / 1e9);
    return s;
  };
  std::unique_ptr<Server> server;
  for (int i = 0; i < kInitialSetups; ++i) {
    server.reset();
    server = timed_setup();
  }
  ReplayOptions options;
  options.panels = Panels(w, args.seconds);
  options.wall_cap_s = std::min(4 * args.seconds, 75.0);
  // More set-up samples, spread over the run so a burst of host contention
  // cannot move them all; each server is built and dropped between panels.
  options.idle_task = [&] { timed_setup(); };
  const ReplayResult plain = Replay(*server, input, w, scale, options);
  PrintChecks("untraced", plain);
  if (!args.trace) {
    const double mem_mb = (plain.peak_rss_bytes - rss_baseline) / (1 << 20);
    PrintResult(Correct(plain, options), plain,
                EndToEnd(plain, setup_s, mem_mb));
    return 0;
  }

  // The traced replay: same seed, so the same input, served by a fresh
  // server for the same panels.
  server.reset();
  InputGenerator traced_input(scale, args.seed);
  const std::vector<Second> traced_warmup = traced_input.Warmup();
  ipqs::obs::TraceRecorder recorder;
  Tracer tracer(&recorder);
  ipqs::obs::MetricsRegistry registry;
  for (int i = 0; i < kInitialSetups; ++i) {
    server.reset();
    server = Setup(w, WorkloadThreads(w), traced_input.plan(), traced_warmup,
                   traced_input.subscriptions(), &tracer, &registry);
  }
  options.idle_task = nullptr;
  options.tracer = &tracer;
  const ReplayResult traced = Replay(*server, traced_input, w, scale, options);
  PrintChecks("traced", traced);
  const bool same = traced.digest == plain.digest;
  std::printf("check traced digest %s untraced digest\n",
              same ? "==" : "!=");
  PrintReconciliation(tracer);
  if (!args.trace_out.empty() && !recorder.WriteJsonFile(args.trace_out)) {
    std::fprintf(stderr, "cannot write %s\n", args.trace_out.c_str());
    return 1;
  }
  PrintResult(same && Correct(plain, options) && Correct(traced, options),
              traced,
              PerLayer(tracer, plain, traced, *server));
  return 0;
}

}  // namespace
}  // namespace e2e

int main(int argc, char** argv) {
  e2e::Args args;
  if (!e2e::ParseArgs(argc, argv, &args)) {
    std::fprintf(stderr,
                 "usage: e2ebench --workload serial|batched|standing "
                 "--seed N --seconds S --trace 0|1 [--trace_out FILE]\n");
    return 2;
  }
  return e2e::Run(args);
}
