#include "filter/particle_filter.h"

#include <algorithm>

#include "common/check.h"
#include "filter/resampler.h"

namespace ipqs {

ParticleFilter::ParticleFilter(const WalkingGraph* graph,
                               const Deployment* deployment,
                               const FilterConfig& config)
    : graph_(graph),
      deployment_(deployment),
      config_(config),
      motion_(config.motion),
      measurement_(config.measurement) {
  IPQS_CHECK(graph != nullptr);
  IPQS_CHECK(deployment != nullptr);
  IPQS_CHECK_GT(config.num_particles, 0);
  IPQS_CHECK_GE(config.max_coast_seconds, 0);
  edges_soa_ = EdgeSoA::FromGraph(*graph);
  reader_support_.resize(static_cast<size_t>(deployment->num_readers()));
  for (ReaderId r = 0; r < deployment->num_readers(); ++r) {
    ReaderSupport& support = reader_support_[r];
    support.intervals = EdgeIntervalsInRange(*graph, deployment->reader(r));
    for (const EdgeInterval& iv : support.intervals) {
      support.lengths.push_back(iv.Length());
    }
  }
}

void ParticleFilter::InitializeAtReader(ReaderId reader, Rng& rng,
                                        ParticleSoA* particles) const {
  IPQS_CHECK(reader >= 0 &&
             static_cast<size_t>(reader) < reader_support_.size())
      << "unknown reader " << reader;
  const Reader& r = deployment_->reader(reader);
  const ReaderSupport& support = reader_support_[reader];
  const size_t n = static_cast<size_t>(config_.num_particles);
  particles->Resize(n);
  const double w = 1.0 / config_.num_particles;
  for (size_t i = 0; i < n; ++i) {
    // Pathological range (smaller than the snap error): park everything
    // at the reader's own graph location.
    GraphLocation loc = r.loc;
    if (!support.intervals.empty()) {
      const EdgeInterval& iv =
          support.intervals[rng.Categorical(support.lengths)];
      loc = GraphLocation{iv.edge, rng.Uniform(iv.lo, iv.hi)};
    }
    particles->edge[i] = loc.edge;
    particles->offset[i] = loc.offset;
    particles->heading[i] =
        rng.Bernoulli(0.5) ? edges_soa_.a[loc.edge] : edges_soa_.b[loc.edge];
    particles->speed[i] = motion_.SampleSpeed(rng);
    particles->weight[i] = w;
    particles->in_room[i] = 0;
  }
}

void ParticleFilter::Advance(ParticleSoA* particles,
                             const DataCollector::ObjectHistory& history,
                             int64_t from_time, int64_t to_time, int* seconds,
                             Rng& rng) const {
  // A cursor over the ascending readings: the first one after from_time.
  // The newest observation at or before from_time anchors the gap clock;
  // computed from the history (not from from_time) so a cache Resume sees
  // the same gap a full Run would.
  const std::vector<AggregatedEntry>& entries = history.entries;
  size_t next = static_cast<size_t>(
      std::upper_bound(entries.begin(), entries.end(), from_time,
                       [](int64_t t, const AggregatedEntry& e) {
                         return t < e.time;
                       }) -
      entries.begin());
  int64_t last_obs = next > 0 ? entries[next - 1].time : from_time;

  // The buffers are thread_local so the hot loop allocates nothing after
  // warm-up; safe because Advance is non-reentrant and all randomness
  // flows through the explicit `rng`.
  thread_local FilterArena arena;
  thread_local std::vector<uint8_t> trust_mask;
  ParticleSoA& soa = *particles;
  const EdgeSoA& edges = edges_soa_;

  for (int64_t tj = from_time + 1; tj <= to_time; ++tj) {
    // Stage timing samples every 4th simulated second (keyed to the
    // absolute timestamp, so it is deterministic and identical across
    // runs); see FilterMetrics.
    const bool timed = metrics_.predict_ns != nullptr && (tj & 3) == 0;
    int64_t stage_start = timed ? obs::MonotonicNanos() : 0;

    // Predict: every particle walks for one second.
    motion_.StepAll(*graph_, edges, &soa, &arena, 1.0, rng);
    ++*seconds;
    if (timed) {
      const int64_t now_ns = obs::MonotonicNanos();
      metrics_.predict_ns->Observe(now_ns - stage_start);
      stage_start = now_ns;
    }

    // Gap widening (see FilterConfig): while coasting across a reading
    // gap, diffuse positions a little extra so the cloud honestly reports
    // the accumulated uncertainty. Off by default (jitter 0.0).
    if (config_.gap_position_jitter > 0.0 &&
        tj - last_obs > config_.gap_widen_after_seconds) {
      motion_.WidenPositionAll(edges, &soa, &arena,
                               config_.gap_position_jitter, rng);
    }

    // Update: reweight against the observation of second tj, if any. When
    // several readings share a second, the last one wins.
    while (next < entries.size() && entries[next].time < tj) {
      ++next;
    }
    ReaderId reading = kInvalidId;
    while (next < entries.size() && entries[next].time == tj) {
      reading = entries[next++].reader;
    }
    bool reweighted = false;
    if (reading != kInvalidId) {
      last_obs = tj;
      const size_t n = soa.size();
      arena.x.resize(n);
      arena.y.resize(n);
      ComputePositions(edges, soa, arena.x.data(), arena.y.data());
      const size_t consistent = measurement_.WeightOnDetection(
          *deployment_, reading, n, arena.x.data(), arena.y.data(),
          soa.weight.data());
      if (consistent == 0) {
        // The whole cloud contradicts a trustworthy observation (sample
        // impoverishment, or the object did something the motion model
        // finds very unlikely). Re-seed at the detecting reader — exactly
        // the Algorithm 2 initialization, applied mid-stream. (The
        // scaled weights are discarded with the rest of the old cloud.)
        InitializeAtReader(reading, rng, &soa);
        if (metrics_.reseeds != nullptr) {
          metrics_.reseeds->Increment();
        }
        if (timed && metrics_.weight_ns != nullptr) {
          // The consistency scan and re-seed are this second's update
          // stage; record it rather than dropping the elapsed time on the
          // floor (the timer previously skipped re-seed seconds entirely,
          // biasing weight_ns low exactly when the filter struggles).
          metrics_.weight_ns->Observe(obs::MonotonicNanos() - stage_start);
        }
        continue;
      }
      reweighted = true;
    } else if (measurement_.config().use_negative_information) {
      const size_t n = soa.size();
      arena.x.resize(n);
      arena.y.resize(n);
      ComputePositions(edges, soa, arena.x.data(), arena.y.data());
      // Silence trust: a reader that is suspect/dead (health monitor) or
      // produced no readings at all during second tj contributes no
      // discount — its silence is noise, not information. Masked by the
      // REPLAYED second, so a cache Resume weighs each second the same way
      // a cold Run would at the same evaluation time.
      const uint8_t* mask = nullptr;
      if (trust_ != nullptr) {
        const size_t num_readers =
            static_cast<size_t>(deployment_->num_readers());
        trust_mask.resize(num_readers);
        if (trust_->FillSilenceTrust(tj, num_readers, trust_mask.data())) {
          mask = trust_mask.data();
        }
      }
      reweighted = measurement_.WeightOnSilence(*deployment_, n,
                                                arena.x.data(), arena.y.data(),
                                                soa.weight.data(), mask) > 0;
    }

    if (timed && reweighted && metrics_.weight_ns != nullptr) {
      const int64_t now_ns = obs::MonotonicNanos();
      metrics_.weight_ns->Observe(now_ns - stage_start);
      stage_start = now_ns;
    }

    if (reweighted) {
      // SIR: resample at the observation (weights come out uniform), then
      // roughen so replicated particles diverge again. With adaptive
      // resampling enabled, skip while the ESS is still healthy. Weights
      // are normalized exactly once — here — and the resampler consumes
      // them pre-normalized (it used to renormalize internally, wasted
      // work that also perturbed the CDF by an ulp).
      NormalizeWeights(&soa);
      const double ess_threshold =
          config_.resample_ess_fraction * static_cast<double>(soa.size());
      if (EffectiveSampleSize(soa) <= ess_threshold) {
        Resample(config_.resampling, &soa, &arena, rng);
        if (timed && metrics_.resample_ns != nullptr) {
          const int64_t now_ns = obs::MonotonicNanos();
          metrics_.resample_ns->Observe(now_ns - stage_start);
          stage_start = now_ns;
        }
        motion_.RoughenAll(edges, &soa, &arena, rng);
        if (timed && metrics_.roughen_ns != nullptr) {
          metrics_.roughen_ns->Observe(obs::MonotonicNanos() - stage_start);
        }
      } else if (timed && metrics_.resample_ns != nullptr) {
        metrics_.resample_ns->Observe(obs::MonotonicNanos() - stage_start);
      }
    }
  }
}

FilterResult ParticleFilter::Run(const DataCollector::ObjectHistory& history,
                                 int64_t now, Rng& rng) const {
  IPQS_CHECK(!history.entries.empty());
  const obs::ScopedTimer timer(metrics_.run_ns);
  if (metrics_.particles != nullptr) {
    metrics_.particles->Set(config_.num_particles);
  }
  const int64_t t0 = history.FirstTime();
  const int64_t td = history.LastTime();
  const int64_t tmin = std::min(td + config_.max_coast_seconds, now);

  FilterResult result;
  InitializeAtReader(history.entries.front().reader, rng, &result.particles);
  result.time = t0;
  Advance(&result.particles, history, t0, tmin, &result.seconds_processed,
          rng);
  result.time = tmin;
  return result;
}

FilterResult ParticleFilter::Resume(FilterResult state,
                                    const DataCollector::ObjectHistory& history,
                                    int64_t now, Rng& rng) const {
  IPQS_CHECK(!history.entries.empty());
  const obs::ScopedTimer timer(metrics_.resume_ns);
  const int64_t td = history.LastTime();
  const int64_t tmin = std::min(td + config_.max_coast_seconds, now);
  if (tmin <= state.time) {
    return state;  // Nothing new to process.
  }
  Advance(&state.particles, history, state.time, tmin,
          &state.seconds_processed, rng);
  state.time = tmin;
  return state;
}

AnchorDistribution ParticleFilter::Infer(
    const AnchorPointIndex& anchors,
    const DataCollector::ObjectHistory& history, int64_t now,
    Rng& rng) const {
  const FilterResult result = Run(history, now, rng);
  return AnchorDistribution::FromParticles(anchors, result.particles);
}

}  // namespace ipqs
