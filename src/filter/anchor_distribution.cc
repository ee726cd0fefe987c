#include "filter/anchor_distribution.h"

#include <algorithm>
#include <map>

#include "common/check.h"

namespace ipqs {

AnchorDistribution AnchorDistribution::FromParticles(
    const AnchorPointIndex& index, const ParticleSoA& particles) {
  // Flat per-thread accumulator: slot[a] is anchor a's position in `mass`
  // while this call runs and -1 otherwise (every touched slot is reset
  // before returning), so a snap is one pass over the particles plus a
  // sort of the touched anchors, and allocates only the result.
  thread_local std::vector<int32_t> slot;
  thread_local std::vector<std::pair<AnchorId, double>> mass;
  const size_t num_anchors = static_cast<size_t>(index.num_anchors());
  if (slot.size() < num_anchors) {
    slot.resize(num_anchors, -1);
  }
  mass.clear();
  double total = 0.0;
  for (size_t i = 0; i < particles.size(); ++i) {
    const AnchorId ap =
        index.NearestOnEdge({particles.edge[i], particles.offset[i]});
    int32_t& s = slot[ap];
    if (s < 0) {
      s = static_cast<int32_t>(mass.size());
      mass.emplace_back(ap, 0.0);
    }
    mass[s].second += particles.weight[i];
    total += particles.weight[i];
  }
  for (const auto& [anchor, _] : mass) {
    slot[anchor] = -1;
  }
  AnchorDistribution dist;
  if (total <= 0.0) {
    return dist;
  }
  std::sort(mass.begin(), mass.end(),
            [](const auto& a, const auto& b) { return a.first < b.first; });
  dist.entries_.reserve(mass.size());
  for (const auto& [anchor, m] : mass) {
    dist.entries_.emplace_back(anchor, m / total);
  }
  return dist;
}

AnchorDistribution AnchorDistribution::Uniform(std::vector<AnchorId> anchors) {
  std::sort(anchors.begin(), anchors.end());
  anchors.erase(std::unique(anchors.begin(), anchors.end()), anchors.end());
  AnchorDistribution dist;
  if (anchors.empty()) {
    return dist;
  }
  const double p = 1.0 / static_cast<double>(anchors.size());
  dist.entries_.reserve(anchors.size());
  for (AnchorId a : anchors) {
    dist.entries_.emplace_back(a, p);
  }
  return dist;
}

AnchorDistribution AnchorDistribution::FromWeights(
    std::vector<std::pair<AnchorId, double>> weighted) {
  std::map<AnchorId, double> mass;
  double total = 0.0;
  for (const auto& [anchor, w] : weighted) {
    IPQS_CHECK_GE(w, 0.0);
    if (w > 0.0) {
      mass[anchor] += w;
      total += w;
    }
  }
  AnchorDistribution dist;
  if (total <= 0.0) {
    return dist;
  }
  dist.entries_.reserve(mass.size());
  for (const auto& [anchor, m] : mass) {
    dist.entries_.emplace_back(anchor, m / total);
  }
  return dist;
}

double AnchorDistribution::ProbabilityAt(AnchorId anchor) const {
  const auto it = std::lower_bound(
      entries_.begin(), entries_.end(), anchor,
      [](const std::pair<AnchorId, double>& e, AnchorId a) {
        return e.first < a;
      });
  if (it != entries_.end() && it->first == anchor) {
    return it->second;
  }
  return 0.0;
}

double AnchorDistribution::TotalProbability() const {
  double total = 0.0;
  for (const auto& [_, p] : entries_) {
    total += p;
  }
  return total;
}

std::vector<AnchorId> AnchorDistribution::TopK(int k) const {
  std::vector<std::pair<AnchorId, double>> sorted = entries_;
  std::sort(sorted.begin(), sorted.end(),
            [](const auto& a, const auto& b) {
              if (a.second != b.second) return a.second > b.second;
              return a.first < b.first;
            });
  std::vector<AnchorId> out;
  const int n = std::min<int>(k, static_cast<int>(sorted.size()));
  out.reserve(n);
  for (int i = 0; i < n; ++i) {
    out.push_back(sorted[i].first);
  }
  return out;
}

void AnchorObjectTable::Set(ObjectId object, AnchorDistribution distribution) {
  Erase(object);
  // Per-anchor lists stay sorted by object id, so the table's content — and
  // every accumulation order downstream of AtAnchor — is canonical: it
  // depends only on WHICH (object, distribution) pairs are present, never
  // on the order queries inserted them in.
  for (const auto& [anchor, p] : distribution.entries()) {
    auto& list = by_anchor_[anchor];
    const auto pos = std::lower_bound(
        list.begin(), list.end(), object,
        [](const std::pair<ObjectId, double>& e, ObjectId id) {
          return e.first < id;
        });
    list.emplace(pos, object, p);
  }
  by_object_[object] = std::move(distribution);
}

void AnchorObjectTable::Erase(ObjectId object) {
  const auto it = by_object_.find(object);
  if (it == by_object_.end()) {
    return;
  }
  for (const auto& [anchor, _] : it->second.entries()) {
    auto list_it = by_anchor_.find(anchor);
    if (list_it == by_anchor_.end()) {
      continue;
    }
    std::erase_if(list_it->second,
                  [object](const auto& e) { return e.first == object; });
    if (list_it->second.empty()) {
      by_anchor_.erase(list_it);
    }
  }
  by_object_.erase(it);
}

void AnchorObjectTable::Clear() {
  by_object_.clear();
  by_anchor_.clear();
}

const std::vector<std::pair<ObjectId, double>>& AnchorObjectTable::AtAnchor(
    AnchorId anchor) const {
  // Leaked singleton keeps the static trivially destructible.
  static const auto& kEmpty = *new std::vector<std::pair<ObjectId, double>>();
  const auto it = by_anchor_.find(anchor);
  return it == by_anchor_.end() ? kEmpty : it->second;
}

const AnchorDistribution* AnchorObjectTable::Distribution(
    ObjectId object) const {
  const auto it = by_object_.find(object);
  return it == by_object_.end() ? nullptr : &it->second;
}

std::vector<ObjectId> AnchorObjectTable::Objects() const {
  std::vector<ObjectId> out;
  out.reserve(by_object_.size());
  for (const auto& [id, _] : by_object_) {
    out.push_back(id);
  }
  std::sort(out.begin(), out.end());
  return out;
}

}  // namespace ipqs
