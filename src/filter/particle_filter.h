#ifndef IPQS_FILTER_PARTICLE_FILTER_H_
#define IPQS_FILTER_PARTICLE_FILTER_H_

#include <cstdint>
#include <vector>

#include "common/rng.h"
#include "filter/anchor_distribution.h"
#include "filter/measurement_model.h"
#include "filter/motion_model.h"
#include "filter/particle_soa.h"
#include "filter/resampler.h"
#include "graph/anchor_points.h"
#include "obs/metrics.h"
#include "rfid/data_collector.h"
#include "rfid/deployment.h"

namespace ipqs {

// Optional observability hooks for a ParticleFilter; any member may be
// null. Whole-call timings (run/resume) cost two clock reads per filter
// run. The per-stage histograms sample every 4th simulated second of the
// Advance loop (deterministically, on the absolute timestamp), so their
// distributions describe per-second stage cost while the clock overhead
// in the hot loop stays ~1%. Stage sampling is on when predict_ns is set.
struct FilterMetrics {
  obs::Histogram* run_ns = nullptr;       // Full Algorithm 2 runs.
  obs::Histogram* resume_ns = nullptr;    // Cache-hit resumptions.
  obs::Histogram* predict_ns = nullptr;   // Sampled per-second motion step.
  obs::Histogram* weight_ns = nullptr;    // Sampled per-second reweight.
  obs::Histogram* resample_ns = nullptr;  // Sampled per-second resample.
  obs::Histogram* roughen_ns = nullptr;   // Sampled post-resample roughen.
  obs::Gauge* particles = nullptr;        // Particle count of the last run.
  // Mid-stream re-seeds: seconds where the whole cloud contradicted a
  // reading and the filter re-initialized at the detecting reader. A
  // climbing rate means the motion model keeps losing the objects.
  obs::Counter* reseeds = nullptr;
};

// Per-reader silence-trust source for the negative-information branch.
// Consulted once per silent simulated second with the REPLAYED second (not
// the query time): implementations report which readers' silence is
// informative at that second. Implementations must be const + thread-safe
// — Run/Resume are called concurrently from the inference pool.
class SilenceTrustProvider {
 public:
  virtual ~SilenceTrustProvider() = default;

  // Fills mask[0..num_readers) with 1 = trust reader i's silence (apply
  // its silent-zone discount) / 0 = ignore it. Returns true iff any entry
  // is 0; returning false lets the caller keep the unmasked (faster,
  // bit-identical-to-legacy) kernel.
  virtual bool FillSilenceTrust(int64_t second, size_t num_readers,
                                uint8_t* mask) const = 0;
};

// Tuning knobs for Algorithm 2 of the paper.
struct FilterConfig {
  // Ns: particle set size per object. The paper's sweet spot is ~64.
  int num_particles = 64;
  // Line 6 of Algorithm 2: stop filtering this many seconds after the last
  // reading — beyond that, an undetected object is almost surely parked in
  // a room and further diffusion only destroys information.
  int max_coast_seconds = 60;
  MotionConfig motion;
  MeasurementConfig measurement;
  // The paper's SIR filter resamples systematically at every observation.
  // Other schemes and ESS-triggered (adaptive) resampling are provided for
  // ablation: with ess_fraction < 1, resampling runs only when the
  // effective sample size drops below ess_fraction * Ns.
  ResamplingScheme resampling = ResamplingScheme::kSystematic;
  double resample_ess_fraction = 1.0;
  // Reading-gap degradation (fault tolerance): once the filter has coasted
  // more than `gap_widen_after_seconds` past the last observation — a
  // dropout window, not the sub-second cadence of a healthy stream — every
  // further predict step adds `gap_position_jitter` meters of positional
  // diffusion, so the cloud widens to match the real uncertainty instead
  // of staying confidently wrong. 0.0 disables (the default: clean-stream
  // results stay byte-identical to the pre-fault-framework filter).
  int gap_widen_after_seconds = 10;
  double gap_position_jitter = 0.0;
};

// The state a filter run ends in; cacheable and resumable. Run and Resume
// advance `particles` in place.
struct FilterResult {
  ParticleSoA particles;
  int64_t time = 0;          // Simulation second the particles represent.
  int seconds_processed = 0; // Motion steps executed (work metric).

  friend bool operator==(const FilterResult&, const FilterResult&) = default;
};

// SIR particle filter over the indoor walking graph (Section 4.4,
// Algorithm 2): initializes particles in the activation range of the
// older of the two retained detecting devices, replays the aggregated
// reading history second by second (predict -> reweight -> resample), and
// coasts up to `max_coast_seconds` past the last reading.
class ParticleFilter {
 public:
  ParticleFilter(const WalkingGraph* graph, const Deployment* deployment,
                 const FilterConfig& config);

  const FilterConfig& config() const { return config_; }
  const MotionModel& motion_model() const { return motion_; }
  const MeasurementModel& measurement_model() const { return measurement_; }

  // Installs observability hooks. Not thread-safe: call before concurrent
  // Run/Resume calls (the hooks are read without synchronization; the
  // histograms themselves are thread-safe).
  void SetMetrics(const FilterMetrics& metrics) { metrics_ = metrics; }

  // Installs the per-reader silence-trust source for the
  // negative-information branch (nullptr = trust every reader, the legacy
  // behavior, bit-identical). Same threading contract as SetMetrics: call
  // before concurrent Run/Resume calls.
  void SetSilenceTrust(const SilenceTrustProvider* trust) { trust_ = trust; }
  const SilenceTrustProvider* silence_trust() const { return trust_; }

  // Replaces `particles` with num_particles particles uniformly distributed
  // over the graph stretches inside `reader`'s activation range, each with
  // its own random direction and Gaussian speed.
  void InitializeAtReader(ReaderId reader, Rng& rng,
                          ParticleSoA* particles) const;

  // Full Algorithm 2 run for one object: from its first retained reading to
  // min(last reading + max_coast_seconds, now).
  FilterResult Run(const DataCollector::ObjectHistory& history, int64_t now,
                   Rng& rng) const;

  // Resumes a previous run (cache hit): advances `state` through any
  // readings in (state.time, ...] and coasts to the same horizon as Run.
  FilterResult Resume(FilterResult state,
                      const DataCollector::ObjectHistory& history, int64_t now,
                      Rng& rng) const;

  // Convenience: Run + snap to anchor points.
  AnchorDistribution Infer(const AnchorPointIndex& anchors,
                           const DataCollector::ObjectHistory& history,
                           int64_t now, Rng& rng) const;

 private:
  // Advances particles from `from_time` (exclusive) to `to_time`
  // (inclusive), applying reweight/resample at seconds with readings.
  void Advance(ParticleSoA* particles,
               const DataCollector::ObjectHistory& history, int64_t from_time,
               int64_t to_time, int* seconds, Rng& rng) const;

  const WalkingGraph* graph_;
  const Deployment* deployment_;
  FilterConfig config_;
  MotionModel motion_;
  MeasurementModel measurement_;
  FilterMetrics metrics_;
  const SilenceTrustProvider* trust_ = nullptr;
  // Flat per-edge mirror of the graph fields the per-second SoA kernels
  // touch; built once here since the graph is immutable while the filter
  // exists (and Run/Resume are const + thread-safe, so no lazy init).
  EdgeSoA edges_soa_;
  // Per reader (indexed by ReaderId): the graph stretches inside its
  // activation range and their lengths, the support InitializeAtReader
  // draws from. Built once here, like edges_soa_; the deployment must not
  // gain readers while the filter exists.
  struct ReaderSupport {
    std::vector<EdgeInterval> intervals;
    std::vector<double> lengths;
  };
  std::vector<ReaderSupport> reader_support_;
};

}  // namespace ipqs

#endif  // IPQS_FILTER_PARTICLE_FILTER_H_
