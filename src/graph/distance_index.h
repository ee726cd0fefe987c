#ifndef IPQS_GRAPH_DISTANCE_INDEX_H_
#define IPQS_GRAPH_DISTANCE_INDEX_H_

#include <cstdint>
#include <span>
#include <vector>

#include "graph/anchor_points.h"
#include "graph/walking_graph.h"
#include "obs/metrics.h"

namespace ipqs {

// Optional observability hooks for a DistanceIndex; any member may be null.
struct DistanceIndexMetrics {
  obs::Counter* hits = nullptr;
  obs::Counter* misses = nullptr;  // Lookups that filled their row.
};

// The one distance structure kNN pruning reads: a flat anchors x targets
// table of exact network distances, where the targets are fixed locations
// (the readers, which are pinned for the life of a deployment). Every
// uncertain region is a disc around a reader and a kNN query snaps to an
// anchor on its edge, so row `a` — the distances from anchor `a` to every
// target — is all Equation 6 needs.
//
// Row `a` holds OneToAllDistances(graph, anchor a).ToLocation(target t),
// filled by one Dijkstra the first time the row is looked up: that lookup
// counts as a miss, every later lookup of the row as a hit. Entries are
// +inf for targets unreachable from the anchor.
//
// Not thread-safe: lookups fill rows in place, so the index is read only
// from the engine's calling thread (the serial query path and the
// scheduler's pruning stage), never from inside a thread-pool task.
class DistanceIndex {
 public:
  struct Stats {
    int64_t hits = 0;
    int64_t misses = 0;
  };

  DistanceIndex(const WalkingGraph* graph, const AnchorPointIndex* anchors,
                std::vector<GraphLocation> targets);

  void SetMetrics(const DistanceIndexMetrics& metrics) { metrics_ = metrics; }

  // Distances from anchor `anchor` to every target, indexed like the
  // constructor's `targets`. Valid for the life of the index.
  std::span<const double> Lookup(AnchorId anchor);

  Stats stats() const { return stats_; }

 private:
  const WalkingGraph* graph_;
  const AnchorPointIndex* anchors_;
  std::vector<GraphLocation> targets_;
  // table_[a * targets_.size() + t]; meaningful once filled_[a] is set.
  std::vector<double> table_;
  std::vector<char> filled_;
  Stats stats_;
  DistanceIndexMetrics metrics_;
};

}  // namespace ipqs

#endif  // IPQS_GRAPH_DISTANCE_INDEX_H_
