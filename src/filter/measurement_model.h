#ifndef IPQS_FILTER_MEASUREMENT_MODEL_H_
#define IPQS_FILTER_MEASUREMENT_MODEL_H_

#include <cstddef>
#include <cstdint>

#include "geom/point.h"
#include "rfid/deployment.h"

// Keeps the batch kernels standalone under LTO: a cross-TU-inlined body
// is re-optimized with the caller's recorded options, which in practice
// drops the vector codegen the kernel TU's flags bought (observed: the
// range test falls back to scalar sqrt-with-errno when inlined into the
// per-second loop). One call per observation batch is noise next to the
// n-particle loop, so pinning the standalone body is free.
#if defined(__GNUC__) || defined(__clang__)
#define IPQS_KERNEL_NOINLINE __attribute__((noinline))
#else
#define IPQS_KERNEL_NOINLINE
#endif

namespace ipqs {

// Device sensing model used to reweight particles at each observation
// (Algorithm 2, lines 21-27): particles consistent with the detecting
// reader get `hit_weight`, others `miss_weight`.
//
// `use_negative_information` is an extension the paper lists as future
// refinement territory: when the object was NOT detected during a second,
// particles sitting inside some reader's activation range are discounted by
// `silent_zone_weight` (they should have been seen). Disabled by default to
// match the paper (its Algorithm 2 skips seconds without readings).
struct MeasurementConfig {
  double hit_weight = 1.0;
  double miss_weight = 1e-6;
  bool use_negative_information = false;
  double silent_zone_weight = 0.2;
};

class MeasurementModel {
 public:
  MeasurementModel() : MeasurementModel(MeasurementConfig{}) {}
  explicit MeasurementModel(const MeasurementConfig& config);

  const MeasurementConfig& config() const { return config_; }

  // Likelihood multiplier for a particle at `pos` given that `detected_by`
  // produced a reading this second.
  double WeightOnDetection(const Deployment& deployment, const Point& pos,
                           ReaderId detected_by) const;

  // Batch form over precomputed particle positions (x[i], y[i]): multiplies
  // weight[i] by the same per-particle likelihood (bit-identical range
  // test) and returns how many particles are inside the detecting reader's
  // range — 0 means the whole cloud contradicts the observation (the
  // filter's re-seed trigger). One pass, branch-light: the reader's center
  // and radius are hoisted out of the loop.
  IPQS_KERNEL_NOINLINE size_t WeightOnDetection(const Deployment& deployment,
                                                ReaderId detected_by, size_t n,
                                                const double* x,
                                                const double* y,
                                                double* weight) const;

  // Likelihood multiplier for a particle at `pos` given that NO reader
  // produced a reading this second. Returns 1.0 unless negative
  // information is enabled.
  double WeightOnSilence(const Deployment& deployment, const Point& pos) const;

  // Trust-masked form: `reader_trusted[id]` == 0 means reader `id`'s
  // silence is uninformative (the reader is suspect/dead or produced no
  // readings at all this second), so its zone contributes no discount.
  // Passing nullptr trusts every reader and is bit-identical to the
  // unmasked form.
  double WeightOnSilence(const Deployment& deployment, const Point& pos,
                         const uint8_t* reader_trusted) const;

  // Batch form over precomputed positions: multiplies weight[i] by the
  // silence likelihood (multiplying by the 1.0 case is an exact FP
  // identity, so the loop is unconditional) and returns how many weights
  // were scaled by a multiplier != 1.0 — 0 both when negative information
  // is disabled and when no particle sits in a silent zone, i.e. exactly
  // when the per-particle path would have left every weight untouched.
  IPQS_KERNEL_NOINLINE size_t WeightOnSilence(const Deployment& deployment,
                                              size_t n, const double* x,
                                              const double* y,
                                              double* weight) const;

  // Trust-masked batch form; nullptr `reader_trusted` delegates to the
  // unmasked kernel (same codegen, bit-identical results). With a mask,
  // untrusted readers are skipped in the coverage test so particles inside
  // only their zones keep weight 1.0.
  IPQS_KERNEL_NOINLINE size_t WeightOnSilence(const Deployment& deployment,
                                              size_t n, const double* x,
                                              const double* y, double* weight,
                                              const uint8_t* reader_trusted)
      const;

 private:
  MeasurementConfig config_;
};

}  // namespace ipqs

#endif  // IPQS_FILTER_MEASUREMENT_MODEL_H_
