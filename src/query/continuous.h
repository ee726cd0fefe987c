#ifndef IPQS_QUERY_CONTINUOUS_H_
#define IPQS_QUERY_CONTINUOUS_H_

#include <cstdint>
#include <map>
#include <vector>

#include "query/query_engine.h"

namespace ipqs {

class SubscriptionManager;

// Continuous indoor spatial queries — the extensions the paper lists as
// future work (Section 6: "continuous range, continuous kNN,
// closest-pairs"). A monitor registers a standing query with a
// SubscriptionManager (query/subscription.h), which evaluates many
// standing queries incrementally and shares work across them, and reports
// result *deltas* between polls, which is what a monitoring application
// actually consumes.

// Delta of a continuous range query between two polls. Membership is
// thresholded: an object is "inside" while its probability of being in the
// window is at least `membership_threshold`.
struct RangeUpdate {
  int64_t time = 0;
  std::vector<std::pair<ObjectId, double>> entered;  // Crossed above.
  std::vector<ObjectId> left;                        // Dropped below.

  bool Empty() const { return entered.empty() && left.empty(); }
};

// The shared delta algebra both the monitors and the SubscriptionManager
// speak: diffs `result` (thresholded at `threshold`) against `*members`,
// returns the delta, and advances `*members` to the new membership.
// Ordering contract: `entered` and `left` are ascending by ObjectId —
// explicitly, never via container iteration order — so deltas are stable
// under any upstream reordering of equal-probability results.
RangeUpdate DiffRangeResult(const QueryResult& result, double threshold,
                            int64_t now, std::map<ObjectId, double>* members);

class ContinuousRangeMonitor {
 public:
  // The standing query is registered with `manager`; every Poll serves
  // from its (incrementally maintained) cached answer.
  ContinuousRangeMonitor(SubscriptionManager* manager, Rect window,
                         double membership_threshold = 0.5);

  // Brings the standing query's answer to `now` (ticking the manager if it
  // has not ticked at `now`) and returns what changed since the previous
  // poll.
  RangeUpdate Poll(int64_t now);

  const Rect& window() const { return window_; }
  // Objects currently above the membership threshold, with probabilities.
  const std::map<ObjectId, double>& members() const { return members_; }

 private:
  SubscriptionManager* manager_;
  int64_t sub_id_ = -1;
  Rect window_;
  double threshold_;
  std::map<ObjectId, double> members_;
};

// Delta of a continuous kNN query between two polls, tracking the k most
// probable objects of the Algorithm 4 result.
struct KnnUpdate {
  int64_t time = 0;
  std::vector<ObjectId> entered;
  std::vector<ObjectId> left;
  std::vector<ObjectId> current;  // The full current top-k, most probable first.

  bool Empty() const { return entered.empty() && left.empty(); }
};

// kNN counterpart of DiffRangeResult: diffs the top-k of `result` against
// `*current` and advances it. `current` in the update (and `*current`)
// keeps the most-probable-first top-k order; `entered`/`left` are
// ascending by ObjectId, independent of probability ties.
KnnUpdate DiffKnnResult(const KnnResult& result, int k, int64_t now,
                        std::vector<ObjectId>* current);

class ContinuousKnnMonitor {
 public:
  // Registers the standing query with `manager` (see ContinuousRangeMonitor).
  ContinuousKnnMonitor(SubscriptionManager* manager, Point query, int k);

  KnnUpdate Poll(int64_t now);

  const Point& query() const { return query_; }
  int k() const { return k_; }

 private:
  SubscriptionManager* manager_;
  int64_t sub_id_ = -1;
  Point query_;
  int k_;
  std::vector<ObjectId> current_;
};

// Probabilistic Threshold kNN (PTkNN of Yang et al. [30]): the objects of
// an Algorithm 4 result whose accumulated probability of belonging to the
// kNN set reaches `threshold`, most probable first.
std::vector<std::pair<ObjectId, double>> ThresholdKnn(const KnnResult& result,
                                                      double threshold);

// Closest-pair query: the two objects with the smallest expected network
// distance, approximated by the distance between their most probable
// (MAP) anchor points. One Dijkstra over the anchor graph per object.
struct ClosestPairResult {
  ObjectId first = kInvalidId;
  ObjectId second = kInvalidId;
  double distance = 0.0;
};

class ClosestPairEvaluator {
 public:
  ClosestPairEvaluator(const AnchorPointIndex* anchors,
                       const AnchorGraph* anchor_graph);

  // Fails with NotFound when fewer than two objects are known.
  StatusOr<ClosestPairResult> Evaluate(const AnchorObjectTable& table) const;

 private:
  const AnchorPointIndex* anchors_;
  const AnchorGraph* anchor_graph_;
};

}  // namespace ipqs

#endif  // IPQS_QUERY_CONTINUOUS_H_
