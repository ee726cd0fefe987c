#include "filter/motion_model.h"

#include <algorithm>
#include <cmath>
#include <vector>

#include "common/check.h"

namespace ipqs {

MotionModel::MotionModel(const MotionConfig& config) : config_(config) {
  IPQS_CHECK_GT(config.speed_mean, 0.0);
  IPQS_CHECK_GE(config.speed_stddev, 0.0);
  IPQS_CHECK_GT(config.min_speed, 0.0);
  IPQS_CHECK(config.room_exit_probability >= 0.0 &&
             config.room_exit_probability <= 1.0);
  IPQS_CHECK(config.room_enter_probability >= 0.0 &&
             config.room_enter_probability <= 1.0);
}

double MotionModel::SampleSpeed(Rng& rng) const {
  const double s = rng.Gaussian(config_.speed_mean, config_.speed_stddev);
  return std::max(s, config_.min_speed);
}

void MotionModel::StepAll(const WalkingGraph& graph, const EdgeSoA& edges,
                          ParticleSoA* soa, FilterArena* arena, double dt,
                          Rng& rng) const {
  const size_t n = soa->size();
  std::vector<uint32_t>& slow = arena->slow;
  slow.resize(n);
  // Pass 1 — branchless sweep over the flat arrays. A hallway particle
  // that will not reach its heading node this step advances in place; the
  // arithmetic is exactly the first iteration of pass 2's walk loop (same
  // expressions, same order), and no randomness is consumed. Everything
  // else (parked in a room, or crossing a node) is deferred. The
  // data-dependent decisions compile to conditional moves — the crossing
  // pattern is effectively random, so branches here would mispredict: the
  // offset write-back stores the (bit-identical) old value for deferred
  // particles, and the slow list grows by unconditional store +
  // conditional bump.
  size_t num_slow = 0;
  for (size_t i = 0; i < n; ++i) {
    const bool room = soa->in_room[i] != 0;
    const double remaining = soa->speed[i] * dt;
    // Pass 2's loop guard: remaining <= 1e-12 is a no-op step, no draws.
    const bool moving = remaining > 1e-12;
    const EdgeId e = soa->edge[i];
    const double target =
        edges.a[e] == soa->heading[i] ? 0.0 : edges.length[e];
    const double off = soa->offset[i];
    const double dist_to_node = std::fabs(target - off);
    const bool fast = !room & moving & (remaining < dist_to_node);
    const bool deferred = room | (moving & (remaining >= dist_to_node));
    soa->offset[i] = fast ? off + (target > off ? remaining : -remaining) : off;
    slow[num_slow] = static_cast<uint32_t>(i);
    num_slow += deferred ? 1 : 0;
  }
  slow.resize(num_slow);
  // Pass 2 — the full scalar step over the deferred particles, in
  // ascending index order. These are the only particles that draw from
  // `rng`, so the draw sequence is the per-particle one.
  for (const uint32_t i : slow) {
    EdgeId e = soa->edge[i];
    NodeId heading = soa->heading[i];
    double offset = soa->offset[i];
    if (soa->in_room[i]) {
      if (!rng.Bernoulli(config_.room_exit_probability)) {
        continue;  // Keeps dwelling this second.
      }
      // Walk back out: the particle sits at the room-center end of a stub.
      soa->in_room[i] = 0;
      const NodeId room_node =
          edges.node_is_room[edges.a[e]] ? edges.a[e] : edges.b[e];
      heading = edges.a[e] == room_node ? edges.b[e] : edges.a[e];
    }
    double remaining = soa->speed[i] * dt;
    for (int guard = 0; remaining > 1e-12 && guard < 10000; ++guard) {
      IPQS_DCHECK(heading == edges.a[e] || heading == edges.b[e]);
      const double target = edges.a[e] == heading ? 0.0 : edges.length[e];
      const double dist_to_node = std::fabs(target - offset);

      if (remaining < dist_to_node) {
        offset += target > offset ? remaining : -remaining;
        break;
      }

      remaining -= dist_to_node;
      const NodeId node = heading;
      if (edges.node_is_room[node]) {
        // Entered the room: park and start the dwell process.
        offset = target;
        soa->in_room[i] = 1;
        break;
      }
      const EdgeId next = ChooseNextEdge(graph, node, e, rng);
      e = next;
      offset = edges.a[next] == node ? 0.0 : edges.length[next];
      heading = edges.a[next] == node ? edges.b[next] : edges.a[next];
    }
    soa->edge[i] = e;
    soa->offset[i] = offset;
    soa->heading[i] = heading;
  }
}

void MotionModel::RoughenAll(const EdgeSoA& edges, ParticleSoA* soa,
                             FilterArena* arena, Rng& rng) const {
  const size_t n = soa->size();
  const bool jitter_pos = config_.position_jitter > 0.0;
  const bool jitter_speed = config_.speed_jitter > 0.0;
  if (!jitter_pos && !jitter_speed) {
    return;
  }
  size_t num_draws = 0;
  for (size_t i = 0; i < n; ++i) {
    num_draws += (jitter_pos && !soa->in_room[i] ? 1 : 0) +
                 (jitter_speed ? 1 : 0);
  }
  // One batch of standard normals, consumed in the per-particle draw
  // order. Gaussian(0, s) returns z * s + 0.0 for the same standard draw
  // z, so scaling here is bit-identical to per-draw Gaussian calls.
  std::vector<double>& z = arena->draws;
  z.resize(num_draws);
  rng.GaussianBatch(0.0, 1.0, num_draws, z.data());
  size_t k = 0;
  for (size_t i = 0; i < n; ++i) {
    if (jitter_pos && !soa->in_room[i]) {
      soa->offset[i] =
          std::clamp(soa->offset[i] + (z[k++] * config_.position_jitter + 0.0),
                     0.0, edges.length[soa->edge[i]]);
    }
    if (jitter_speed) {
      soa->speed[i] =
          std::max(soa->speed[i] + (z[k++] * config_.speed_jitter + 0.0),
                   config_.min_speed);
    }
  }
}

void MotionModel::WidenPositionAll(const EdgeSoA& edges, ParticleSoA* soa,
                                   FilterArena* arena, double sigma,
                                   Rng& rng) const {
  if (sigma <= 0.0) {
    return;
  }
  const size_t n = soa->size();
  std::vector<uint32_t>& idx = arena->slow;
  idx.clear();
  for (size_t i = 0; i < n; ++i) {
    if (!soa->in_room[i]) {
      idx.push_back(static_cast<uint32_t>(i));
    }
  }
  arena->draws.resize(idx.size());
  rng.GaussianBatch(0.0, sigma, idx.size(), arena->draws.data());
  for (size_t k = 0; k < idx.size(); ++k) {
    const uint32_t i = idx[k];
    soa->offset[i] = std::clamp(soa->offset[i] + arena->draws[k], 0.0,
                                edges.length[soa->edge[i]]);
  }
}

namespace {

// k-th outgoing edge of `node` (excluding `incoming`) whose stub-ness
// matches `want_stub`, in adjacency order. Counterpart of the counting
// pass in ChooseNextEdge.
EdgeId NthCandidate(const WalkingGraph& graph, NodeId node, EdgeId incoming,
                    bool want_stub, size_t k) {
  for (EdgeId eid : graph.node(node).edges) {
    if (eid == incoming) {
      continue;
    }
    if ((graph.edge(eid).kind == EdgeKind::kRoomStub) != want_stub) {
      continue;
    }
    if (k == 0) {
      return eid;
    }
    --k;
  }
  IPQS_CHECK(false) << "candidate index out of range";
  return kInvalidId;
}

}  // namespace

EdgeId MotionModel::ChooseNextEdge(const WalkingGraph& graph, NodeId node,
                                   EdgeId incoming, Rng& rng) const {
  // Count-then-select keeps this allocation-free: it runs once per
  // node crossing inside the per-second motion loop, where materializing
  // candidate vectors dominated the whole predict stage. The candidate
  // counts come from the node's cached per-kind totals minus the incoming
  // edge, so no adjacency walk happens unless an edge is actually drawn.
  // The draw sequence is identical to the historical build-two-vectors
  // version: NthCandidate follows adjacency order, and the same rng calls
  // fire under the same conditions.
  const Node& nd = graph.node(node);
  size_t num_stubs = static_cast<size_t>(nd.num_stub_edges);
  size_t num_hallways = static_cast<size_t>(nd.num_hallway_edges);
  if (incoming != kInvalidId) {
    if (graph.edge(incoming).kind == EdgeKind::kRoomStub) {
      --num_stubs;
    } else {
      --num_hallways;
    }
  }
  if (num_stubs == 0 && num_hallways == 0) {
    IPQS_CHECK_NE(incoming, kInvalidId) << "isolated node";
    return incoming;  // Dead end: U-turn.
  }
  if (num_hallways == 0) {
    return NthCandidate(graph, node, incoming, /*want_stub=*/true,
                        rng.UniformIndex(num_stubs));
  }
  if (num_stubs > 0 && rng.Bernoulli(config_.room_enter_probability)) {
    return NthCandidate(graph, node, incoming, /*want_stub=*/true,
                        rng.UniformIndex(num_stubs));
  }
  return NthCandidate(graph, node, incoming, /*want_stub=*/false,
                      rng.UniformIndex(num_hallways));
}

}  // namespace ipqs
