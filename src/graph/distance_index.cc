#include "graph/distance_index.h"

#include <utility>

#include "common/check.h"
#include "graph/shortest_path.h"

namespace ipqs {

DistanceIndex::DistanceIndex(const WalkingGraph* graph,
                             const AnchorPointIndex* anchors,
                             std::vector<GraphLocation> targets)
    : graph_(graph), anchors_(anchors), targets_(std::move(targets)) {
  IPQS_CHECK(graph != nullptr);
  IPQS_CHECK(anchors != nullptr);
  table_.resize(static_cast<size_t>(anchors->num_anchors()) * targets_.size());
  filled_.resize(anchors->num_anchors(), 0);
}

std::span<const double> DistanceIndex::Lookup(AnchorId anchor) {
  IPQS_CHECK(anchor >= 0 && anchor < anchors_->num_anchors());
  double* row = table_.data() + static_cast<size_t>(anchor) * targets_.size();
  if (filled_[anchor]) {
    ++stats_.hits;
    if (metrics_.hits != nullptr) metrics_.hits->Increment();
    return {row, targets_.size()};
  }
  ++stats_.misses;
  if (metrics_.misses != nullptr) metrics_.misses->Increment();
  const AnchorPoint& a = anchors_->anchor(anchor);
  const OneToAllDistances from(*graph_, GraphLocation{a.edge, a.offset});
  for (size_t t = 0; t < targets_.size(); ++t) {
    row[t] = from.ToLocation(targets_[t]);
  }
  filled_[anchor] = 1;
  return {row, targets_.size()};
}

}  // namespace ipqs
