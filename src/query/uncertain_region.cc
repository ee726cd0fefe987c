#include "query/uncertain_region.h"

#include <algorithm>
#include <bit>
#include <limits>
#include <span>

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

namespace {

// Checks the filters' preconditions: no reading newer than `now` (the
// per-object check of ComputeUncertainRegion, hoisted to the newest
// entry) and a non-negative speed.
const LastReadIndex& PruningIndex(const DataCollector& collector, int64_t now,
                                  double max_speed) {
  IPQS_CHECK_GE(max_speed, 0.0);
  const LastReadIndex& index = collector.last_read_index();
  IPQS_CHECK_GE(now, index.newest);
  return index;
}

UncertainRegion RegionOf(const Deployment& deployment, ReaderId reader,
                         const LastRead& e, int64_t now, double max_speed) {
  return ComputeUncertainRegion(deployment, e.object,
                                AggregatedEntry{e.time, reader}, now,
                                max_speed);
}

// The objects of the longest prefix of every bucket on which
// `keep(reader, entry)` holds, ascending; `keep` must hold on a prefix
// (true for the oldest entries, false from some point on). Survivors are
// marked by rank and read back in id order, which is cheaper than
// sorting them.
template <typename Keep>
std::vector<ObjectId> OldestPrefixes(const LastReadIndex& index, Keep keep) {
  std::vector<uint64_t> marked((index.objects.size() + 63) / 64);
  for (ReaderId r = 0; r < index.num_readers(); ++r) {
    const std::span<const LastRead> bucket = index.bucket(r);
    const auto end = std::partition_point(
        bucket.begin(), bucket.end(),
        [&](const LastRead& e) { return keep(r, e); });
    for (auto it = bucket.begin(); it != end; ++it) {
      marked[it->rank / 64] |= uint64_t{1} << (it->rank % 64);
    }
  }
  std::vector<ObjectId> out;
  for (size_t w = 0; w < marked.size(); ++w) {
    for (uint64_t bits = marked[w]; bits != 0; bits &= bits - 1) {
      out.push_back(index.objects[w * 64 + std::countr_zero(bits)]);
    }
  }
  return out;
}

}  // namespace

std::vector<ObjectId> FilterRangeCandidates(
    const DataCollector& collector, const Deployment& deployment,
    const std::vector<Rect>& windows, int64_t now, double max_speed) {
  const LastReadIndex& index = PruningIndex(collector, now, max_speed);
  return OldestPrefixes(index, [&](ReaderId r, const LastRead& e) {
    const UncertainRegion ur = RegionOf(deployment, r, e, now, max_speed);
    return std::any_of(windows.begin(), windows.end(),
                       [&](const Rect& w) { return ur.Overlaps(w); });
  });
}

double KnnPruningBound(const DataCollector& collector,
                       const Deployment& deployment,
                       const SourceDistances& dists, int k, int64_t now,
                       double max_speed) {
  IPQS_CHECK_GT(k, 0);
  const LastReadIndex& index = PruningIndex(collector, now, max_speed);
  if (index.entries.size() <= static_cast<size_t>(k)) {
    return std::numeric_limits<double>::infinity();
  }
  // The k smallest l_i overall are among the k newest of each bucket.
  std::vector<double> max_dists;
  for (ReaderId r = 0; r < index.num_readers(); ++r) {
    const std::span<const LastRead> bucket = index.bucket(r);
    for (const LastRead& e :
         bucket.last(std::min(bucket.size(), static_cast<size_t>(k)))) {
      max_dists.push_back(
          NetworkDistanceInterval(dists, RegionOf(deployment, r, e, now,
                                                  max_speed))
              .max_dist);
    }
  }
  std::nth_element(max_dists.begin(), max_dists.begin() + (k - 1),
                   max_dists.end());
  return max_dists[k - 1];
}

std::vector<ObjectId> FilterKnnCandidates(const DataCollector& collector,
                                          const Deployment& deployment,
                                          const SourceDistances& dists, int k,
                                          int64_t now, double max_speed) {
  const double f =
      KnnPruningBound(collector, deployment, dists, k, now, max_speed);
  return OldestPrefixes(
      collector.last_read_index(), [&](ReaderId r, const LastRead& e) {
        return NetworkDistanceInterval(
                   dists, RegionOf(deployment, r, e, now, max_speed))
                   .min_dist <= f;
      });
}

}  // namespace ipqs
