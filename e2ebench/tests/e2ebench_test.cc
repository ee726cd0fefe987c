// Self-tests of the end-to-end benchmark: input determinism, the tail rule,
// and answer identity across the serving paths it compares.
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "input.h"
#include "obs/trace.h"
#include "replay.h"
#include "stats.h"

namespace e2e {
namespace {

Scale SmallScale() {
  Scale s;
  s.num_objects = 60;
  s.warmup_seconds = 60;
  s.range_windows = 10;
  s.knn_points = 5;
  s.subscriptions = 6;
  return s;
}

std::string GenerateBytes(const Scale& scale, uint64_t seed) {
  InputGenerator input(scale, seed);
  std::string bytes;
  AppendBytes(input.subscriptions(), &bytes);
  for (int panel = 0; panel < 3; ++panel) {
    for (int i = 0; i < scale.panel_interval_seconds; ++i) {
      AppendBytes(input.NextSecond(), &bytes);
    }
    AppendBytes(input.MakePanel(), &bytes);
  }
  return bytes;
}

TEST(InputTest, SameSeedGivesByteIdenticalStreamAndSchedule) {
  const Scale scale = SmallScale();
  const std::string a = GenerateBytes(scale, 7);
  EXPECT_GT(a.size(), 1000u);
  EXPECT_EQ(a, GenerateBytes(scale, 7));
  EXPECT_NE(a, GenerateBytes(scale, 8));
}

std::vector<double> Ascending(int n) {
  std::vector<double> v;
  for (int i = n; i >= 1; --i) {
    v.push_back(i);  // Unsorted on purpose; sample i has value i.
  }
  return v;
}

TEST(TailTest, HighestPercentileWithTenSamplesBeyond) {
  struct Case {
    int n;
    double percentile;
    double value;  // The nearest-rank sample.
  };
  for (const Case& c : {Case{10000, 99.9, 9990}, Case{9999, 99, 9900},
                        Case{1000, 99, 990}, Case{999, 95, 950},
                        Case{200, 95, 190}, Case{199, 90, 180},
                        Case{100, 90, 90}, Case{40, 75, 30},
                        Case{20, 50, 10}}) {
    const Tail t = TailOf(Ascending(c.n));
    EXPECT_EQ(t.percentile, c.percentile) << c.n;
    EXPECT_EQ(t.value, c.value) << c.n;
    EXPECT_EQ(t.samples, static_cast<size_t>(c.n));
  }
  const Tail few = TailOf(Ascending(19));
  EXPECT_EQ(few.percentile, 100.0);
  EXPECT_EQ(few.value, 19.0);
}

// Replays `panels` panels of the seed-3 input through a fresh server.
ReplayResult RunSmall(Workload workload, int threads, int64_t panels,
                      Tracer* tracer = nullptr) {
  const Scale scale = SmallScale();
  InputGenerator input(scale, 3);
  const std::vector<Second> warmup = input.Warmup();
  ipqs::obs::MetricsRegistry registry;
  const std::unique_ptr<Server> server =
      Setup(workload, threads, input.plan(), warmup, input.subscriptions(),
            tracer, tracer == nullptr ? nullptr : &registry);
  ReplayOptions options;
  options.panels = panels;
  options.tracer = tracer;
  return Replay(*server, input, workload, scale, options);
}

TEST(ReplayTest, SerialAndBatchedAnswerIdentically) {
  const ReplayResult serial = RunSmall(Workload::kSerial, 1, 4);
  const ReplayResult batched1 = RunSmall(Workload::kBatched, 1, 4);
  const ReplayResult batched4 = RunSmall(Workload::kBatched, 4, 4);
  EXPECT_EQ(serial.attempted, 4 * 15);
  EXPECT_EQ(serial.failed, 0);
  EXPECT_EQ(serial.digest, batched1.digest);
  EXPECT_EQ(batched1.digest, batched4.digest);
  // Every answer of the first panel, re-issued alone, answered identically.
  EXPECT_EQ(batched4.probe_mismatches, 0);
  EXPECT_EQ(batched4.range_us.size() + batched4.knn_us.size(), 15u);
}

TEST(ReplayTest, TracedRunAnswersIdenticallyAndReconciles) {
  for (Workload w :
       {Workload::kSerial, Workload::kBatched, Workload::kStanding}) {
    ipqs::obs::TraceRecorder recorder;
    Tracer tracer(&recorder);
    const ReplayResult traced = RunSmall(w, WorkloadThreads(w), 12, &tracer);
    const ReplayResult plain = RunSmall(w, WorkloadThreads(w), 12);
    EXPECT_EQ(traced.digest, plain.digest) << WorkloadName(w);
    EXPECT_EQ(traced.failed, 0);
    EXPECT_EQ(traced.probe_mismatches, 0);
    for (const auto& [name, parent] : tracer.parents()) {
      int64_t children = 0;
      for (const auto& [child, ns] : parent.children_ns) {
        children += ns;
      }
      EXPECT_GT(children, 0) << name;
      EXPECT_LE(children, parent.total_ns) << name;
    }
    EXPECT_EQ(tracer.parents().at("panel").count, 12) << WorkloadName(w);
  }
}

}  // namespace
}  // namespace e2e
