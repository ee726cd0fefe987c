#ifndef IPQS_GRAPH_SHORTEST_PATH_H_
#define IPQS_GRAPH_SHORTEST_PATH_H_

#include <optional>
#include <vector>

#include "common/statusor.h"
#include "graph/walking_graph.h"

namespace ipqs {

// One traversed stretch of an edge: from `from_offset` to `to_offset`
// (either direction; offsets are measured from Edge::a).
struct PathLeg {
  EdgeId edge = kInvalidId;
  double from_offset = 0.0;
  double to_offset = 0.0;

  double Length() const {
    return to_offset >= from_offset ? to_offset - from_offset
                                    : from_offset - to_offset;
  }
};

// A walkable shortest path between two graph locations, as a sequence of
// edge stretches. Supports arc-length addressing so a simulated object can
// advance along it second by second.
class Path {
 public:
  Path() = default;
  explicit Path(std::vector<PathLeg> legs);
  // Zero-length path anchored at `location` (the from == to case of
  // FindShortestPath): no legs, but Start/End/Locate are well defined.
  explicit Path(const GraphLocation& location) : anchor_(location) {}

  const std::vector<PathLeg>& legs() const { return legs_; }
  double Length() const { return length_; }
  bool empty() const { return legs_.empty(); }

  // Location at arc length `s` from the start, clamped to [0, Length()].
  GraphLocation Locate(double s) const;

  GraphLocation Start() const;
  GraphLocation End() const;

 private:
  std::vector<PathLeg> legs_;
  std::vector<double> cumulative_;  // cumulative_[i] = length of legs [0, i).
  double length_ = 0.0;
  // Location of a zero-length path; Start/End/Locate on a leg-less path
  // without one (a default-constructed Path) is still a programming error.
  std::optional<GraphLocation> anchor_;
};

// Shortest network distances from one fixed source location to every node,
// computed once (Dijkstra) and then queried many times. This is the
// workhorse behind kNN pruning (Eq. 6 of the paper) and ground-truth kNN.
class OneToAllDistances {
 public:
  OneToAllDistances(const WalkingGraph& graph, const GraphLocation& source);

  const GraphLocation& source() const { return source_; }

  // Shortest network distance from the source to node `n`.
  double ToNode(NodeId n) const { return node_dist_[n]; }

  // Shortest network distance from the source to an arbitrary location.
  double ToLocation(const GraphLocation& loc) const;

 private:
  const WalkingGraph& graph_;
  GraphLocation source_;
  std::vector<double> node_dist_;
};

// Convenience one-shot distance between two locations:
// OneToAllDistances(graph, from).ToLocation(to).
double NetworkDistance(const WalkingGraph& graph, const GraphLocation& from,
                       const GraphLocation& to);

// Shortest path between two locations. Returns a leg-less path anchored at
// `from` when from == to. Fails only if the graph is disconnected between
// them.
StatusOr<Path> FindShortestPath(const WalkingGraph& graph,
                                const GraphLocation& from,
                                const GraphLocation& to);

}  // namespace ipqs

#endif  // IPQS_GRAPH_SHORTEST_PATH_H_
