#include "query/continuous.h"

#include <algorithm>
#include <limits>
#include <unordered_map>
#include <queue>

#include "common/check.h"
#include "query/subscription.h"

namespace ipqs {

RangeUpdate DiffRangeResult(const QueryResult& result, double threshold,
                            int64_t now, std::map<ObjectId, double>* members) {
  RangeUpdate update;
  update.time = now;
  std::map<ObjectId, double> next;
  for (const auto& [id, p] : result.objects) {
    if (p >= threshold) {
      next[id] = p;
      if (members->find(id) == members->end()) {
        update.entered.emplace_back(id, p);
      }
    }
  }
  for (const auto& [id, _] : *members) {
    if (next.find(id) == next.end()) {
      update.left.push_back(id);
    }
  }
  // Ordering contract: deltas ascend by ObjectId regardless of the order
  // the evaluator listed the result in.
  std::sort(update.entered.begin(), update.entered.end(),
            [](const auto& a, const auto& b) { return a.first < b.first; });
  std::sort(update.left.begin(), update.left.end());
  *members = std::move(next);
  return update;
}

KnnUpdate DiffKnnResult(const KnnResult& result, int k, int64_t now,
                        std::vector<ObjectId>* current) {
  KnnUpdate update;
  update.time = now;
  update.current = result.result.TopObjects(k);
  for (ObjectId id : update.current) {
    if (std::find(current->begin(), current->end(), id) == current->end()) {
      update.entered.push_back(id);
    }
  }
  for (ObjectId id : *current) {
    if (std::find(update.current.begin(), update.current.end(), id) ==
        update.current.end()) {
      update.left.push_back(id);
    }
  }
  // Ordering contract: `current` keeps the top-k (most probable first)
  // order, but the deltas ascend by ObjectId — previously `entered`
  // inherited probability order and `left` the prior membership
  // container's iteration order, which made tie-broken results reorder
  // deltas between runs.
  std::sort(update.entered.begin(), update.entered.end());
  std::sort(update.left.begin(), update.left.end());
  *current = update.current;
  return update;
}

ContinuousRangeMonitor::ContinuousRangeMonitor(SubscriptionManager* manager,
                                               Rect window,
                                               double membership_threshold)
    : manager_(manager), window_(window), threshold_(membership_threshold) {
  IPQS_CHECK(manager != nullptr);
  IPQS_CHECK(membership_threshold > 0.0 && membership_threshold <= 1.0);
  sub_id_ = manager_->AddRange(window, membership_threshold);
}

RangeUpdate ContinuousRangeMonitor::Poll(int64_t now) {
  manager_->EnsureTick(now);
  return DiffRangeResult(manager_->Answer(sub_id_).range, threshold_, now,
                         &members_);
}

ContinuousKnnMonitor::ContinuousKnnMonitor(SubscriptionManager* manager,
                                           Point query, int k)
    : manager_(manager), query_(query), k_(k) {
  IPQS_CHECK(manager != nullptr);
  IPQS_CHECK_GT(k, 0);
  sub_id_ = manager_->AddKnn(query, k);
}

KnnUpdate ContinuousKnnMonitor::Poll(int64_t now) {
  manager_->EnsureTick(now);
  return DiffKnnResult(manager_->Answer(sub_id_).knn, k_, now, &current_);
}

std::vector<std::pair<ObjectId, double>> ThresholdKnn(const KnnResult& result,
                                                      double threshold) {
  std::vector<std::pair<ObjectId, double>> out = result.result.objects;
  std::erase_if(out, [threshold](const auto& e) {
    return e.second < threshold;
  });
  std::sort(out.begin(), out.end(), [](const auto& a, const auto& b) {
    if (a.second != b.second) return a.second > b.second;
    return a.first < b.first;
  });
  return out;
}

ClosestPairEvaluator::ClosestPairEvaluator(const AnchorPointIndex* anchors,
                                           const AnchorGraph* anchor_graph)
    : anchors_(anchors), anchor_graph_(anchor_graph) {
  IPQS_CHECK(anchors != nullptr);
  IPQS_CHECK(anchor_graph != nullptr);
}

StatusOr<ClosestPairResult> ClosestPairEvaluator::Evaluate(
    const AnchorObjectTable& table) const {
  const std::vector<ObjectId> objects = table.Objects();
  if (objects.size() < 2) {
    return Status::NotFound("closest pair needs at least two objects");
  }

  // MAP anchor per object.
  std::vector<AnchorId> map_anchor(objects.size(), kInvalidId);
  for (size_t i = 0; i < objects.size(); ++i) {
    const AnchorDistribution* dist = table.Distribution(objects[i]);
    IPQS_CHECK(dist != nullptr);
    const auto top = dist->TopK(1);
    if (!top.empty()) {
      map_anchor[i] = top[0];
    }
  }

  // Objects parked on each anchor, for O(1) hit checks during expansion.
  std::unordered_map<AnchorId, std::vector<size_t>> objects_at;
  for (size_t i = 0; i < objects.size(); ++i) {
    if (map_anchor[i] != kInvalidId) {
      objects_at[map_anchor[i]].push_back(i);
    }
  }

  ClosestPairResult best;
  best.distance = std::numeric_limits<double>::infinity();

  // One bounded Dijkstra per object over the anchor graph: expansion stops
  // once it exceeds the best pair distance found so far, so later sources
  // explore progressively smaller neighborhoods.
  for (size_t i = 0; i < objects.size(); ++i) {
    if (map_anchor[i] == kInvalidId) {
      continue;
    }
    struct Entry {
      double dist;
      AnchorId anchor;
      bool operator>(const Entry& o) const { return dist > o.dist; }
    };
    std::priority_queue<Entry, std::vector<Entry>, std::greater<>> queue;
    std::vector<double> dist(anchor_graph_->num_anchors(),
                             std::numeric_limits<double>::infinity());
    dist[map_anchor[i]] = 0.0;
    queue.push({0.0, map_anchor[i]});
    while (!queue.empty()) {
      const Entry top = queue.top();
      queue.pop();
      if (top.dist >= best.distance) {
        break;  // Everything farther cannot improve the best pair.
      }
      if (top.dist > dist[top.anchor]) {
        continue;
      }
      const auto hit = objects_at.find(top.anchor);
      if (hit != objects_at.end()) {
        for (size_t j : hit->second) {
          if (j != i) {
            best.distance = top.dist;
            best.first = std::min(objects[i], objects[j]);
            best.second = std::max(objects[i], objects[j]);
          }
        }
        if (top.dist >= best.distance && top.dist > 0.0) {
          break;
        }
      }
      for (const AnchorGraph::Neighbor& nb :
           anchor_graph_->NeighborsOf(top.anchor)) {
        const double cand = top.dist + nb.dist;
        if (cand < dist[nb.anchor] && cand < best.distance) {
          dist[nb.anchor] = cand;
          queue.push({cand, nb.anchor});
        }
      }
    }
  }

  if (best.first == kInvalidId) {
    return Status::NotFound("no pair of located objects");
  }
  return best;
}

}  // namespace ipqs
