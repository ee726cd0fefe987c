#ifndef IPQS_FILTER_ANCHOR_DISTRIBUTION_H_
#define IPQS_FILTER_ANCHOR_DISTRIBUTION_H_

#include <unordered_map>
#include <utility>
#include <vector>

#include "filter/particle_soa.h"
#include "graph/anchor_points.h"
#include "rfid/reader.h"

namespace ipqs {

// A discrete probability distribution over anchor points for one object —
// the output of location inference (both particle-filter-based and
// symbolic-model-based, so query evaluation is method-agnostic).
class AnchorDistribution {
 public:
  AnchorDistribution() = default;

  // Snaps every particle to its nearest anchor point on the same edge and
  // accumulates weight mass per anchor (Algorithm 2, lines 32-36). Each
  // anchor's mass is summed in particle order, and the total in particle
  // order too.
  static AnchorDistribution FromParticles(const AnchorPointIndex& index,
                                          const ParticleSoA& particles);

  // Uniform distribution over the given anchor points (the symbolic model's
  // "uniform over all reachable locations").
  static AnchorDistribution Uniform(std::vector<AnchorId> anchors);

  // Arbitrary weighted construction; weights are normalized to sum to 1.
  static AnchorDistribution FromWeights(
      std::vector<std::pair<AnchorId, double>> weighted);

  // (anchor, probability) pairs, ascending by anchor id; probabilities sum
  // to 1 (up to rounding) for a non-empty distribution.
  const std::vector<std::pair<AnchorId, double>>& entries() const {
    return entries_;
  }
  bool empty() const { return entries_.empty(); }
  size_t support_size() const { return entries_.size(); }

  double ProbabilityAt(AnchorId anchor) const;
  double TotalProbability() const;

  // The k most probable anchor points, descending by probability (ties by
  // ascending anchor id, for determinism). Used by the top-k success
  // metric.
  std::vector<AnchorId> TopK(int k) const;

 private:
  std::vector<std::pair<AnchorId, double>> entries_;
};

// The APtoObjHT hash table of the paper: anchor point -> list of
// (object, probability). Rebuilt (or patched per object) after every
// filtering pass; range and kNN evaluation read only this structure.
class AnchorObjectTable {
 public:
  AnchorObjectTable() = default;

  // Replaces `object`'s location distribution.
  void Set(ObjectId object, AnchorDistribution distribution);

  // Removes `object` entirely.
  void Erase(ObjectId object);

  void Clear();

  // Objects with probability mass at `anchor`, ascending by object id
  // (empty list when none). The ordering is part of the contract: it makes
  // the table canonical by content, so evaluation results cannot depend on
  // insertion order.
  const std::vector<std::pair<ObjectId, double>>& AtAnchor(
      AnchorId anchor) const;

  // Per-object distribution; nullptr when unknown.
  const AnchorDistribution* Distribution(ObjectId object) const;

  std::vector<ObjectId> Objects() const;
  size_t num_objects() const { return by_object_.size(); }

 private:
  std::unordered_map<ObjectId, AnchorDistribution> by_object_;
  std::unordered_map<AnchorId, std::vector<std::pair<ObjectId, double>>>
      by_anchor_;
};

}  // namespace ipqs

#endif  // IPQS_FILTER_ANCHOR_DISTRIBUTION_H_
