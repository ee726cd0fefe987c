#ifndef IPQS_FILTER_MOTION_MODEL_H_
#define IPQS_FILTER_MOTION_MODEL_H_

#include "common/rng.h"
#include "filter/particle_soa.h"
#include "graph/walking_graph.h"

namespace ipqs {

// Parameters of the object motion model (Section 3.1 / Algorithm 2 of the
// paper): objects move forward with constant speed drawn from
// N(speed_mean, speed_stddev), pick random directions at intersections, may
// enter rooms when passing doors, and leave a room with probability
// `room_exit_probability` per second once inside.
struct MotionConfig {
  double speed_mean = 1.0;
  double speed_stddev = 0.1;
  double min_speed = 0.3;  // Guards against non-positive Gaussian draws.
  double room_exit_probability = 0.1;
  // Probability of turning into a room stub when passing its door node.
  // The paper's particles "randomly choose a direction" at intersections
  // (a door node offers forward + door, i.e. ~0.5); 0.3 keeps coasting
  // particles settling into rooms near the last reading — where silent
  // objects actually are — without emptying the hallways too fast.
  double room_enter_probability = 0.3;

  // Roughening applied after every resampling step (Gordon et al.'s
  // remedy for sample impoverishment): resampling replicates high-weight
  // particles verbatim, and because motion between intersections is
  // deterministic, clones would otherwise never diverge again.
  double position_jitter = 0.3;  // Meters along the current edge.
  double speed_jitter = 0.05;    // Meters/second.
};

// Advances particles along the walking graph.
class MotionModel {
 public:
  MotionModel() : MotionModel(MotionConfig{}) {}
  explicit MotionModel(const MotionConfig& config);

  const MotionConfig& config() const { return config_; }

  // Draws a walking speed (truncated Gaussian).
  double SampleSpeed(Rng& rng) const;

  // Batch predict: advances every particle by `dt` seconds on `graph`.
  // The model never teleports: a particle covers exactly `speed * dt`
  // meters of graph distance, spilling across nodes and re-deciding
  // direction at each one. Room dwell: a particle parked in a room
  // consumes the whole step either staying put (probability
  // 1 - room_exit_probability) or walking back out. Particles draw from
  // `rng` in ascending index order. Split into two passes: a branch-light
  // vectorizable sweep advances every particle that stays mid-edge this
  // step (the common case; it consumes no randomness), then the stragglers
  // (parked in a room, or reaching a node) run the full scalar step in
  // ascending index order. `edges` must mirror `graph`
  // (EdgeSoA::FromGraph); `arena` supplies scratch.
  void StepAll(const WalkingGraph& graph, const EdgeSoA& edges,
               ParticleSoA* soa, FilterArena* arena, double dt,
               Rng& rng) const;

  // Post-resampling roughening: perturbs each particle's position along
  // its current edge (clamped to the edge; skipped for particles in a
  // room) and its speed (floored at min_speed), so replicated particles
  // explore slightly different futures. The draws go per particle in
  // ascending index order, position before speed, and are taken as one
  // GaussianBatch of standard normals scaled by the jitter.
  void RoughenAll(const EdgeSoA& edges, ParticleSoA* soa, FilterArena* arena,
                  Rng& rng) const;

  // Gap widening (fault tolerance): extra Gaussian positional diffusion of
  // `sigma` meters along each particle's current edge, applied while the
  // filter coasts across a reading gap so the cloud's spread reflects the
  // growing uncertainty instead of staying overconfident. Parked (in-room)
  // particles are left alone (dwelling is already the likeliest
  // explanation for silence); the others draw in ascending index order.
  void WidenPositionAll(const EdgeSoA& edges, ParticleSoA* soa,
                        FilterArena* arena, double sigma, Rng& rng) const;

  // Picks the edge a particle leaves `node` on, having arrived via
  // `incoming` (kInvalidId when the particle has no history, e.g. right
  // after initialization at a node). U-turns happen only at dead ends.
  EdgeId ChooseNextEdge(const WalkingGraph& graph, NodeId node,
                        EdgeId incoming, Rng& rng) const;

 private:
  MotionConfig config_;
};

}  // namespace ipqs

#endif  // IPQS_FILTER_MOTION_MODEL_H_
