#ifndef IPQS_FILTER_PARTICLE_CACHE_H_
#define IPQS_FILTER_PARTICLE_CACHE_H_

#include <cstdint>
#include <memory>
#include <mutex>
#include <optional>
#include <unordered_map>
#include <vector>

#include "filter/particle_filter.h"
#include "obs/metrics.h"
#include "rfid/data_collector.h"
#include "rfid/reader.h"

namespace ipqs {

// Optional observability hooks for a ParticleCache; any member may be
// null. These mirror the per-shard Stats into a MetricsRegistry so cache
// behavior shows up in exported metrics without polling.
struct CacheMetrics {
  obs::Counter* hits = nullptr;
  obs::Counter* misses = nullptr;
  obs::Counter* invalidations = nullptr;        // Device hand-offs.
  obs::Counter* stale_invalidations = nullptr;  // Stale-coast evictions.
  obs::Counter* evictions = nullptr;            // Aged out by EvictOlderThan.
  obs::Counter* served_stale = nullptr;         // LookupStale servings.
};

// Cache management module (Section 4.5): stores the particle state an
// object's filter run ended in (a ParticleSoA, as the filter left it), so
// a follow-up query resumes filtering from that timestamp instead of
// replaying the whole history.
//
// Invalidation rules:
//  * Paper's rule: the moment an object is detected by a NEW device,
//    cached particles become useless (filtering is always based on the
//    readings of the two most recent devices), so a lookup whose current
//    device differs from the cached one misses and evicts.
//  * Stale-coast rule: a cached state may have coasted past readings it
//    never saw — the run ended at `last_reading + max_coast_seconds`, and a
//    newer same-device reading landed at or before that time. Resuming
//    would silently drop that reading (Advance starts strictly after
//    state.time), so such a lookup misses and evicts too.
//
// The cache is internally sharded by object with one mutex per shard, so
// concurrent per-object inference (QueryEngine::InferBatch) can look up and
// insert without a global lock.
class ParticleCache {
 public:
  struct Stats {
    int64_t hits = 0;
    int64_t misses = 0;
    int64_t invalidations = 0;        // Device hand-offs (paper's rule).
    int64_t stale_invalidations = 0;  // Coasted-past-a-reading evictions.
    int64_t served_stale = 0;         // Entries served as-is by LookupStale.

    double HitRate() const {
      const int64_t total = hits + misses;
      return total == 0 ? 0.0 : static_cast<double>(hits) / total;
    }
  };

  ParticleCache() = default;

  // Installs observability hooks. Not thread-safe: call before the cache
  // is shared across threads (the hooks are read without synchronization).
  void SetMetrics(const CacheMetrics& metrics) { metrics_ = metrics; }

  // Cached state for `object` if present, still keyed to the history's
  // current device, and not stale-coasted; otherwise evicts any invalid
  // entry and returns nullopt. A hit moves the particles out of the cache
  // (no copy); the entry keeps its key and state time, and the caller
  // stores the advanced state back with Insert, which reuses the entry.
  std::optional<FilterResult> Lookup(ObjectId object,
                                     const DataCollector::ObjectHistory& history);

  // Non-mutating admission probe for the degradation policy: reports the
  // cached entry's state time and age (now - state.time) without touching
  // stats or evicting anything. nullopt when no entry exists or the entry
  // is keyed to a different device than the history's current one (such an
  // entry is useless at any staleness). `resumable` is whether a real
  // Lookup would hit (i.e. the stale-coast rule also passes).
  struct ProbeResult {
    int64_t state_time = 0;
    int64_t age_seconds = 0;
    bool resumable = false;
  };
  std::optional<ProbeResult> Probe(ObjectId object,
                                   const DataCollector::ObjectHistory& history,
                                   int64_t now) const;

  // Degraded-read path: returns a copy of the cached state as-is (no
  // filter advance) when it is keyed to the current device and its age is
  // within `max_age_seconds`. Serving is counted under `served_stale` and
  // the entry's age is reported through `age_seconds` (when non-null), so
  // callers can enforce and observe the staleness bound. Never evicts —
  // the entry remains for a future full-quality resume.
  std::optional<FilterResult> LookupStale(
      ObjectId object, const DataCollector::ObjectHistory& history,
      int64_t now, int64_t max_age_seconds, int64_t* age_seconds = nullptr);

  // Stores `state` for `object`, keyed to the device and last-reading time
  // of the history it was computed from.
  void Insert(ObjectId object, const DataCollector::ObjectHistory& history,
              FilterResult state);

  // Drops entries older than `min_time` (aging, driven by the data
  // collector clock).
  void EvictOlderThan(int64_t min_time);

  void Clear();

  size_t size() const;
  // Aggregated snapshot over all shards.
  Stats stats() const;

  // Every cached entry with its key metadata, ascending by object, for the
  // persistence layer (src/persist/). Stats are process-local and are not
  // exported.
  struct PersistedEntry {
    ObjectId object = kInvalidId;
    ReaderId device = kInvalidId;
    int64_t last_reading = 0;
    FilterResult state;

    friend bool operator==(const PersistedEntry&,
                           const PersistedEntry&) = default;
  };
  std::vector<PersistedEntry> ExportEntries() const;
  // Replaces the cache contents wholesale (recovery).
  void RestoreEntries(std::vector<PersistedEntry> entries);

 private:
  struct Entry {
    ReaderId device = kInvalidId;
    int64_t last_reading = 0;  // History's LastTime() when cached.
    FilterResult state;
  };
  struct Shard {
    mutable std::mutex mu;
    std::unordered_map<ObjectId, Entry> entries;
    Stats stats;
  };

  static constexpr size_t kNumShards = 16;

  Shard& ShardFor(ObjectId object) {
    return shards_[static_cast<uint32_t>(object) % kNumShards];
  }
  const Shard& ShardFor(ObjectId object) const {
    return shards_[static_cast<uint32_t>(object) % kNumShards];
  }

  Shard shards_[kNumShards];
  CacheMetrics metrics_;
};

}  // namespace ipqs

#endif  // IPQS_FILTER_PARTICLE_CACHE_H_
