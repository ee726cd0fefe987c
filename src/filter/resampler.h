#ifndef IPQS_FILTER_RESAMPLER_H_
#define IPQS_FILTER_RESAMPLER_H_

#include <cstdint>
#include <string>
#include <vector>

#include "common/rng.h"
#include "filter/particle_soa.h"

namespace ipqs {

// Resampling schemes for the SIR update. The paper uses the systematic
// scheme (its Algorithm 1); the classic alternatives are provided for
// ablation (`bench/ablation_resampling`) and for library users tuning the
// variance/cost trade-off.
enum class ResamplingScheme {
  kSystematic,   // Algorithm 1: one uniform draw, lowest variance, O(N).
  kStratified,   // One uniform draw per stratum, O(N).
  kMultinomial,  // N independent draws, highest variance, O(N log N).
  kResidual,     // Deterministic floor(N*w) copies + multinomial remainder.
};

std::string ToString(ResamplingScheme scheme);

// Resampling kernels, the filter's hot path. Contract, shared by all
// schemes:
//
//  * Weights must be pre-normalized (sum to 1 in ascending index order, as
//    NormalizeWeights produces; checked with IPQS_DCHECK, never silently
//    re-normalized — the filter normalizes exactly once per reweight, and
//    double normalization was both wasted work and an ulp-level answer
//    perturbation).
//  * The set is replaced by exactly `size()` survivors with uniform
//    weights 1/Ns, selected via an inclusive prefix-sum CDF and a single
//    monotone cursor pass over sorted quantiles.
//  * `arena` supplies every buffer (CDF, quantiles, selection indices, the
//    output double-buffer); nothing is allocated after arena warm-up.
void Resample(ResamplingScheme scheme, ParticleSoA* soa, FilterArena* arena,
              Rng& rng);
void SystematicResample(ParticleSoA* soa, FilterArena* arena, Rng& rng);

// Low-level selection kernel (exposed for regression tests): fills
// sel[0..quantiles.size()) with the index of the particle owning each
// quantile, where `cdf` is an inclusive prefix sum over the weights and
// `quantiles` is ascending. The cursor is clamped to the last particle:
// a quantile past cdf.back() — an adversarial or denormalized CDF —
// selects the final particle instead of walking off the end (the old
// implementation only guarded this with a DCHECK, so a Release build
// would read out of bounds).
void SelectIndicesAtQuantiles(const std::vector<double>& cdf,
                              const std::vector<double>& quantiles,
                              uint32_t* sel);

}  // namespace ipqs

#endif  // IPQS_FILTER_RESAMPLER_H_
