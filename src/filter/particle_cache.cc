#include "filter/particle_cache.h"

#include <algorithm>

#include "common/check.h"

namespace ipqs {
namespace {

inline void Bump(obs::Counter* counter) {
  if (counter != nullptr) {
    counter->Increment();
  }
}

}  // namespace

std::optional<FilterResult> ParticleCache::Lookup(
    ObjectId object, const DataCollector::ObjectHistory& history) {
  IPQS_CHECK(!history.entries.empty());
  Shard& shard = ShardFor(object);
  std::lock_guard<std::mutex> lock(shard.mu);
  const auto it = shard.entries.find(object);
  if (it == shard.entries.end()) {
    ++shard.stats.misses;
    Bump(metrics_.misses);
    return std::nullopt;
  }
  Entry& entry = it->second;
  if (entry.device != history.current_device) {
    // New device since the cached run: stale by the paper's rule.
    shard.entries.erase(it);
    ++shard.stats.misses;
    ++shard.stats.invalidations;
    Bump(metrics_.misses);
    Bump(metrics_.invalidations);
    return std::nullopt;
  }
  // Stale-coast check: a reading the cached run never processed, at or
  // before the time the state coasted to, would be silently dropped by
  // Resume (it only advances strictly past state.time). Entries are
  // ascending by time, so the first unseen reading is enough to check.
  const auto first_unseen = std::upper_bound(
      history.entries.begin(), history.entries.end(), entry.last_reading,
      [](int64_t t, const AggregatedEntry& e) { return t < e.time; });
  if (first_unseen != history.entries.end() &&
      first_unseen->time <= entry.state.time) {
    shard.entries.erase(it);
    ++shard.stats.misses;
    ++shard.stats.stale_invalidations;
    Bump(metrics_.misses);
    Bump(metrics_.stale_invalidations);
    return std::nullopt;
  }
  ++shard.stats.hits;
  Bump(metrics_.hits);
  return std::move(entry.state);
}

std::optional<ParticleCache::ProbeResult> ParticleCache::Probe(
    ObjectId object, const DataCollector::ObjectHistory& history,
    int64_t now) const {
  IPQS_CHECK(!history.entries.empty());
  const Shard& shard = ShardFor(object);
  std::lock_guard<std::mutex> lock(shard.mu);
  const auto it = shard.entries.find(object);
  if (it == shard.entries.end() ||
      it->second.device != history.current_device) {
    return std::nullopt;
  }
  const Entry& entry = it->second;
  ProbeResult probe;
  probe.state_time = entry.state.time;
  probe.age_seconds = now - entry.state.time;
  const auto first_unseen = std::upper_bound(
      history.entries.begin(), history.entries.end(), entry.last_reading,
      [](int64_t t, const AggregatedEntry& e) { return t < e.time; });
  probe.resumable = first_unseen == history.entries.end() ||
                    first_unseen->time > entry.state.time;
  return probe;
}

std::optional<FilterResult> ParticleCache::LookupStale(
    ObjectId object, const DataCollector::ObjectHistory& history, int64_t now,
    int64_t max_age_seconds, int64_t* age_seconds) {
  IPQS_CHECK(!history.entries.empty());
  Shard& shard = ShardFor(object);
  std::lock_guard<std::mutex> lock(shard.mu);
  const auto it = shard.entries.find(object);
  if (it == shard.entries.end() ||
      it->second.device != history.current_device) {
    return std::nullopt;
  }
  const Entry& entry = it->second;
  const int64_t age = now - entry.state.time;
  if (age > max_age_seconds) {
    return std::nullopt;
  }
  if (age_seconds != nullptr) {
    *age_seconds = age;
  }
  ++shard.stats.served_stale;
  Bump(metrics_.served_stale);
  return entry.state;
}

void ParticleCache::Insert(ObjectId object,
                           const DataCollector::ObjectHistory& history,
                           FilterResult state) {
  IPQS_CHECK(!history.entries.empty());
  Shard& shard = ShardFor(object);
  std::lock_guard<std::mutex> lock(shard.mu);
  shard.entries[object] =
      Entry{history.current_device, history.LastTime(), std::move(state)};
}

void ParticleCache::EvictOlderThan(int64_t min_time) {
  for (Shard& shard : shards_) {
    std::lock_guard<std::mutex> lock(shard.mu);
    const size_t evicted =
        std::erase_if(shard.entries, [min_time](const auto& kv) {
          return kv.second.state.time < min_time;
        });
    if (metrics_.evictions != nullptr && evicted > 0) {
      metrics_.evictions->Increment(static_cast<int64_t>(evicted));
    }
  }
}

void ParticleCache::Clear() {
  for (Shard& shard : shards_) {
    std::lock_guard<std::mutex> lock(shard.mu);
    shard.entries.clear();
  }
}

size_t ParticleCache::size() const {
  size_t total = 0;
  for (const Shard& shard : shards_) {
    std::lock_guard<std::mutex> lock(shard.mu);
    total += shard.entries.size();
  }
  return total;
}

ParticleCache::Stats ParticleCache::stats() const {
  Stats total;
  for (const Shard& shard : shards_) {
    std::lock_guard<std::mutex> lock(shard.mu);
    total.hits += shard.stats.hits;
    total.misses += shard.stats.misses;
    total.invalidations += shard.stats.invalidations;
    total.stale_invalidations += shard.stats.stale_invalidations;
    total.served_stale += shard.stats.served_stale;
  }
  return total;
}

std::vector<ParticleCache::PersistedEntry> ParticleCache::ExportEntries()
    const {
  std::vector<PersistedEntry> out;
  for (const Shard& shard : shards_) {
    std::lock_guard<std::mutex> lock(shard.mu);
    for (const auto& [object, entry] : shard.entries) {
      out.push_back({object, entry.device, entry.last_reading, entry.state});
    }
  }
  std::sort(out.begin(), out.end(), [](const auto& a, const auto& b) {
    return a.object < b.object;
  });
  return out;
}

void ParticleCache::RestoreEntries(std::vector<PersistedEntry> entries) {
  Clear();
  for (PersistedEntry& e : entries) {
    Shard& shard = ShardFor(e.object);
    std::lock_guard<std::mutex> lock(shard.mu);
    shard.entries[e.object] =
        Entry{e.device, e.last_reading, std::move(e.state)};
  }
}

}  // namespace ipqs
