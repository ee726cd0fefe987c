// Continuous queries & closest pairs: the extensions the paper's
// conclusion sketches as future work. A facilities dashboard keeps a
// standing range monitor on a meeting area and a standing 2NN monitor on
// the lobby, printing only *changes*; every 30 s it also reports the
// closest pair of tracked people (contact-tracing style). Both monitors
// share one SubscriptionManager, which re-evaluates a standing query only
// when its answer could have changed.
//
// Build & run:   ./build/examples/continuous_tracking

#include <cstdio>

#include "query/continuous.h"
#include "query/subscription.h"
#include "sim/simulation.h"

int main() {
  using namespace ipqs;

  SimulationConfig config;
  config.trace.num_objects = 50;
  config.seed = 31337;

  auto sim_or = Simulation::Create(config);
  if (!sim_or.ok()) {
    std::fprintf(stderr, "setup failed: %s\n",
                 sim_or.status().ToString().c_str());
    return 1;
  }
  Simulation& sim = **sim_or;
  sim.Run(200);

  const Rect meeting_area =
      Rect::FromCenter(sim.deployment().reader(14).pos, 14, 14);
  const Point lobby = sim.deployment().reader(2).pos;

  SubscriptionManager standing(&sim.pf_engine());
  ContinuousRangeMonitor area_monitor(&standing, meeting_area, 0.5);
  ContinuousKnnMonitor lobby_monitor(&standing, lobby, 2);
  const ClosestPairEvaluator closest(&sim.anchors(), &sim.anchor_graph());

  std::printf("Watching meeting area %s and lobby %s\n\n",
              meeting_area.ToString().c_str(), lobby.ToString().c_str());

  for (int tick = 0; tick < 18; ++tick) {
    sim.Run(10);
    const int64_t now = sim.now();

    const RangeUpdate area = area_monitor.Poll(now);
    if (!area.Empty()) {
      std::printf("[%4lds] meeting area:", static_cast<long>(now));
      for (const auto& [id, p] : area.entered) {
        std::printf(" +obj%d(p=%.2f)", id, p);
      }
      for (ObjectId id : area.left) {
        std::printf(" -obj%d", id);
      }
      std::printf("  (now %zu inside)\n", area_monitor.members().size());
    }

    const KnnUpdate knn = lobby_monitor.Poll(now);
    if (!knn.Empty()) {
      std::printf("[%4lds] lobby 2NN now:", static_cast<long>(now));
      for (ObjectId id : knn.current) {
        std::printf(" obj%d", id);
      }
      std::printf("\n");
    }

    if (tick % 3 == 2) {
      // Infer everyone so the closest-pair scan sees the full population.
      for (ObjectId id : sim.collector().KnownObjects()) {
        sim.pf_engine().InferObject(id, now);
      }
      const auto pair = closest.Evaluate(sim.pf_engine().table());
      if (pair.ok()) {
        std::printf("[%4lds] closest pair: obj%d & obj%d at ~%.1f m\n",
                    static_cast<long>(now), pair->first, pair->second,
                    pair->distance);
      }
    }
  }
  return 0;
}
