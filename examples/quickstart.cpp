// Quickstart: stand up the full simulated system (the paper's default
// setting: 30 rooms, 4 hallways, 19 RFID readers, 200 tracked objects),
// let it run for a few minutes of simulated time, then ask one indoor
// range query and one kNN query and compare both inference engines
// against ground truth.
//
// Build & run:   ./build/examples/quickstart

#include <cstdio>

#include "sim/ascii_map.h"
#include "sim/experiment.h"
#include "sim/simulation.h"

int main() {
  using namespace ipqs;

  SimulationConfig config;
  config.trace.num_objects = 50;  // Keep the demo snappy.
  config.seed = 7;

  auto sim_or = Simulation::Create(config);
  if (!sim_or.ok()) {
    std::fprintf(stderr, "simulation setup failed: %s\n",
                 sim_or.status().ToString().c_str());
    return 1;
  }
  Simulation& sim = **sim_or;

  std::printf("Building: %d rooms, %d hallways, %d readers, %d anchors\n",
              static_cast<int>(sim.plan().rooms().size()),
              static_cast<int>(sim.plan().hallways().size()),
              sim.deployment().num_readers(), sim.anchors().num_anchors());

  // Let people walk around and accumulate RFID readings.
  sim.Run(300);
  std::printf("t=%lds: %zu objects seen by readers, miss rate %.1f%%\n",
              static_cast<long>(sim.now()),
              sim.collector().num_known_objects(),
              100.0 * sim.reading_stats().MissRate());

  // --- Range query: "who is inside this rectangle right now?" ---
  const Rect window =
      Experiment::RandomWindow(sim.plan(), 0.02, sim.query_rng());
  const auto truth = GroundTruth::RangeResult(sim.true_states(), window);
  const QueryResult pf = sim.pf_engine().EvaluateRange(window, sim.now());
  const QueryResult sm = sim.sm_engine().EvaluateRange(window, sim.now());

  std::printf("\nRange query %s\n", window.ToString().c_str());
  std::printf("  ground truth: %zu object(s) inside\n", truth.size());
  std::printf("  particle filter: %zu candidate(s), total mass %.2f\n",
              pf.objects.size(), pf.TotalProbability());
  std::printf("  symbolic model:  %zu candidate(s), total mass %.2f\n",
              sm.objects.size(), sm.TotalProbability());
  for (ObjectId id : truth) {
    std::printf("  object %3d: PF p=%.3f  SM p=%.3f\n", id,
                pf.ProbabilityOf(id), sm.ProbabilityOf(id));
  }

  // --- kNN query: "who are the 3 people nearest to this spot?" ---
  const Point q = Experiment::RandomIndoorPoint(sim.anchors(),
                                                sim.query_rng());
  const GraphLocation q_loc = sim.graph().NearestLocation(q, true);
  const auto knn_truth =
      sim.ground_truth().KnnResult(sim.true_states(), q_loc, 3);
  const KnnResult knn_pf = sim.pf_engine().EvaluateKnn(q, 3, sim.now());
  const KnnResult knn_sm = sim.sm_engine().EvaluateKnn(q, 3, sim.now());

  std::printf("\n3NN query at %s\n", q.ToString().c_str());
  std::printf("  ground truth:");
  for (ObjectId id : knn_truth) std::printf(" %d", id);
  std::printf("\n  particle filter (%d anchors searched):",
              knn_pf.anchors_searched);
  for (ObjectId id : knn_pf.result.TopObjects()) std::printf(" %d", id);
  std::printf("\n  symbolic model (%d anchors searched):",
              knn_sm.anchors_searched);
  for (ObjectId id : knn_sm.result.TopObjects(3)) std::printf(" %d", id);
  std::printf("\n");

  // --- A picture: the floor, the hardware, the people, and what the ---
  // --- particle filter believes about one tracked object.           ---
  AsciiMap map(sim.plan(), /*meters_per_cell=*/1.0);
  map.MarkReaders(sim.deployment());
  map.MarkObjects(sim.true_states());
  map.MarkWindow(window);
  const ObjectId tracked = sim.collector().KnownObjects().front();
  if (const AnchorDistribution* belief =
          sim.pf_engine().InferObject(tracked, sim.now())) {
    map.MarkDistribution(sim.anchors(), *belief);
    map.MarkPoint(sim.true_states()[tracked].pos, '@');
  }
  std::printf(
      "\nFloor map ('#' wall, '.' room, '+' door, 'R' reader, 'o' person,\n"
      "'q' range query, digits = particle filter belief for object %d,\n"
      "'@' that object's true position):\n\n%s",
      tracked, map.Render().c_str());
  return 0;
}
