#include "query/uncertain_region.h"

#include <algorithm>

#include "common/check.h"

namespace ipqs {

UncertainRegion ComputeUncertainRegion(const Deployment& deployment,
                                       ObjectId object,
                                       const AggregatedEntry& last_reading,
                                       int64_t now, double max_speed) {
  IPQS_CHECK_GE(now, last_reading.time);
  const Reader& d = deployment.reader(last_reading.reader);
  UncertainRegion ur;
  ur.object = object;
  ur.reader = last_reading.reader;
  ur.center = d.pos;
  ur.radius =
      max_speed * static_cast<double>(now - last_reading.time) + d.range;
  return ur;
}

SourceDistances SourceDistances::FromTable(const OneToAllDistances& table,
                                           double source_slack,
                                           const Deployment& deployment) {
  SourceDistances out;
  out.slack = source_slack;
  out.to_reader.reserve(deployment.num_readers());
  for (ReaderId r = 0; r < deployment.num_readers(); ++r) {
    out.to_reader.push_back(table.ToLocation(deployment.reader(r).loc));
  }
  return out;
}

DistanceInterval NetworkDistanceInterval(const SourceDistances& dists,
                                         const UncertainRegion& region) {
  const double d = dists.to_reader[region.reader];
  // The true distance from the query is within dists.slack of `d`
  // (triangle inequality through the source), so widening by it keeps the
  // interval a superset of the exact [s_i, l_i]. An unreachable reader
  // (d = inf) yields {inf, inf}: the object can never be proven near, and
  // inf - pad stays inf (never NaN, since pad is finite).
  const double pad = region.radius + dists.slack;
  return DistanceInterval{std::max(0.0, d - pad), d + pad};
}

std::vector<ObjectId> FilterRangeCandidates(
    const DataCollector& collector, const Deployment& deployment,
    const std::vector<Rect>& windows, int64_t now, double max_speed) {
  std::vector<ObjectId> candidates;
  for (ObjectId object : collector.KnownObjects()) {
    const auto last = collector.LastReading(object);
    if (!last.has_value()) {
      continue;
    }
    const UncertainRegion ur =
        ComputeUncertainRegion(deployment, object, *last, now, max_speed);
    for (const Rect& w : windows) {
      if (ur.Overlaps(w)) {
        candidates.push_back(object);
        break;
      }
    }
  }
  return candidates;
}

std::vector<ObjectId> FilterKnnCandidates(const DataCollector& collector,
                                          const Deployment& deployment,
                                          const SourceDistances& dists, int k,
                                          int64_t now, double max_speed) {
  IPQS_CHECK_GT(k, 0);

  struct Entry {
    ObjectId object;
    DistanceInterval interval;
  };
  std::vector<Entry> entries;
  for (ObjectId object : collector.KnownObjects()) {
    const auto last = collector.LastReading(object);
    if (!last.has_value()) {
      continue;
    }
    const UncertainRegion ur =
        ComputeUncertainRegion(deployment, object, *last, now, max_speed);
    entries.push_back({object, NetworkDistanceInterval(dists, ur)});
  }
  if (static_cast<int>(entries.size()) <= k) {
    std::vector<ObjectId> all;
    all.reserve(entries.size());
    for (const Entry& e : entries) {
      all.push_back(e.object);
    }
    return all;
  }

  // f = k-th smallest l_i.
  std::vector<double> max_dists;
  max_dists.reserve(entries.size());
  for (const Entry& e : entries) {
    max_dists.push_back(e.interval.max_dist);
  }
  std::nth_element(max_dists.begin(), max_dists.begin() + (k - 1),
                   max_dists.end());
  const double f = max_dists[k - 1];

  std::vector<ObjectId> candidates;
  for (const Entry& e : entries) {
    if (e.interval.min_dist <= f) {
      candidates.push_back(e.object);
    }
  }
  return candidates;
}

}  // namespace ipqs
