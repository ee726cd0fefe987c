#ifndef IPQS_QUERY_UNCERTAIN_REGION_H_
#define IPQS_QUERY_UNCERTAIN_REGION_H_

#include <cstdint>
#include <vector>

#include "geom/point.h"
#include "geom/rect.h"
#include "graph/shortest_path.h"
#include "rfid/data_collector.h"
#include "rfid/deployment.h"

namespace ipqs {

// Uncertain region of an object (Section 4.3): a disc centered at its last
// detecting reader with radius
//   r = u_max * (t_now - t_last) + d.range,
// guaranteed to contain the object's true position (under the max-speed
// assumption). The query-aware optimization module prunes objects whose
// uncertain region cannot intersect any registered query.
struct UncertainRegion {
  ObjectId object = kInvalidId;
  ReaderId reader = kInvalidId;
  Point center;
  double radius = 0.0;

  // Euclidean window test for range-query pruning.
  bool Overlaps(const Rect& window) const {
    return window.DistanceTo(center) <= radius;
  }
};

UncertainRegion ComputeUncertainRegion(const Deployment& deployment,
                                       ObjectId object,
                                       const AggregatedEntry& last_reading,
                                       int64_t now, double max_speed);

// Min/max shortest-network-distance interval [s_i, l_i] from a query point
// to an uncertain region (Equation 6):
//   s_i = max(0, d_net(q, reader) - radius),  l_i = d_net(q, reader) + radius.
struct DistanceInterval {
  double min_dist = 0.0;  // s_i
  double max_dist = 0.0;  // l_i
};

// Network distances from one query source point to every reader. This is
// the only shape of distance information kNN pruning consumes — every
// uncertain region is centered on a reader. The engine fills it from the
// DistanceIndex row of the anchor the query snaps to. Entries are +inf
// when a reader is unreachable from the source; consumers must treat +inf
// as "cannot prove reachable", never as an orderable distance.
struct SourceDistances {
  // Indexed by ReaderId; empty means "no distances computed".
  std::vector<double> to_reader;
  // Bound on the network distance between the true query point and the
  // source the distances were computed from (0 when sourced exactly).
  double slack = 0.0;

  bool empty() const { return to_reader.empty(); }

  // Evaluates `table.ToLocation` once per reader. With a table sourced at
  // the query point and slack 0 this is the exact reference tests compare
  // pruning against.
  static SourceDistances FromTable(const OneToAllDistances& table,
                                   double source_slack,
                                   const Deployment& deployment);
};

// Interval through per-reader distances, widened by the region radius plus
// the source slack on both sides, so it always contains the true
// [s_i, l_i] of the query point.
DistanceInterval NetworkDistanceInterval(const SourceDistances& dists,
                                         const UncertainRegion& region);

// Both candidate filters read the collector's LastReadIndex instead of
// scanning every known object: along one reader's bucket the region
// radius only shrinks as t_last grows, so each filter keeps the oldest
// prefix of every bucket, found by binary search with the exact predicate
// the scan applied per object. Output is ascending and unique. Both abort
// (like ComputeUncertainRegion) when any reading is newer than `now`, and
// require max_speed >= 0 (a negative speed would reverse the order).

// Range-query candidate filter: objects whose uncertain region overlaps at
// least one window. Objects without any reading are never candidates (they
// have never been inside the instrumented space).
std::vector<ObjectId> FilterRangeCandidates(
    const DataCollector& collector, const Deployment& deployment,
    const std::vector<Rect>& windows, int64_t now, double max_speed);

// The kNN pruning bound f: the k-th smallest l_i over every known object,
// or +inf when at most k objects are known. l_i is smallest for the newest
// entries of a bucket, so only the k newest of each bucket are examined.
double KnnPruningBound(const DataCollector& collector,
                       const Deployment& deployment,
                       const SourceDistances& dists, int k, int64_t now,
                       double max_speed);

// kNN candidate filter (distance-based pruning of [30]): drops every object
// whose s_i exceeds f = KnnPruningBound. With unreachable readers in play f
// can be +inf, in which case nothing is pruned — a sound superset; the
// evaluation stage, which expands over the actual graph, is what rules
// unreachable objects out.
std::vector<ObjectId> FilterKnnCandidates(const DataCollector& collector,
                                          const Deployment& deployment,
                                          const SourceDistances& dists, int k,
                                          int64_t now, double max_speed);

}  // namespace ipqs

#endif  // IPQS_QUERY_UNCERTAIN_REGION_H_
