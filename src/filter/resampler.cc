#include "filter/resampler.h"

#include <algorithm>
#include <cmath>

#include "common/check.h"

namespace ipqs {
namespace {

// Debug guard for the pre-normalized-weights contract of the kernels;
// compiled out of Release builds.
void DCheckNormalized(const ParticleSoA& soa) {
#ifndef NDEBUG
  double acc = 0.0;
  for (size_t i = 0; i < soa.size(); ++i) {
    acc += soa.weight[i];
  }
  IPQS_DCHECK(std::fabs(acc - 1.0) <= 1e-6)
      << "resampler requires pre-normalized weights; sum=" << acc;
#else
  (void)soa;
#endif
}

// Fused CDF + quantile selection + survivor gather: one pass over the
// sorted quantiles q(0..ns-1) with a single monotone cursor, copying the
// selected particle's fields into arena->swap as soon as the cursor
// settles. The inclusive prefix-sum CDF is accumulated on the fly, in
// ascending index order — the filter's fixed summation order — as the
// cursor advances, so no CDF array is ever materialized: the running sum
// `c` equals cdf[i] bit-for-bit. Selection is exactly
// SelectIndicesAtQuantiles (including the last-particle clamp for an
// adversarial weight total short of the largest quantile): the historical
// cdf.back() = 1.0 rounding pin never influenced selection, because the
// `i + 1 < ns` guard stops the cursor before the last entry's value can
// decide anything. `quantile(j)` must be non-decreasing in j.
template <bool kPeel, typename QuantileFn>
void GatherAtQuantilesImpl(QuantileFn quantile, ParticleSoA* soa,
                           FilterArena* arena) {
  const size_t ns = soa->size();
  DCheckNormalized(*soa);
  ParticleSoA& out = arena->swap;
  out.Resize(ns);
  const double* w = soa->weight.data();
  size_t i = 0;
  double c = w[0];
  for (size_t j = 0; j < ns; ++j) {
    const double u = quantile(j);
    // The cursor usually advances 0-2 entries per quantile but the exact
    // count is data-dependent, so for large sets the plain while loop
    // mispredicts nearly every iteration — the dominant cost of this
    // kernel. Peel the first four advances branchlessly (guarded selects;
    // a not-taken advance adds a dummy w[i] whose sum is discarded by the
    // select, so the running sum only ever accumulates the weights the
    // while loop would have added, in the same order — bit-identical),
    // then fall back to the loop for the rare longer runs. Depth 4
    // measured faster than 2 at 1024 particles; both are selections over
    // the same exact sums, so the depth cannot affect results.
    if constexpr (kPeel) {
      for (int p = 0; p < 4; ++p) {
        const bool a = (u > c) & (i + 1 < ns);
        const double cn = c + w[a ? i + 1 : i];
        i += a ? 1 : 0;
        c = a ? cn : c;
      }
    }
    while (u > c && i + 1 < ns) {
      c += w[++i];
    }
    out.edge[j] = soa->edge[i];
    out.offset[j] = soa->offset[i];
    out.heading[j] = soa->heading[i];
    out.speed[j] = soa->speed[i];
    out.in_room[j] = soa->in_room[i];
  }
  // Uniform survivor weights, filled as one vectorizable pass instead of
  // a sixth store stream inside the gather loop.
  std::fill(out.weight.begin(), out.weight.end(),
            1.0 / static_cast<double>(ns));
  std::swap(*soa, arena->swap);
}

// Below this size the plain cursor loop predicts well (the selection
// pattern fits the branch predictor's reach) and the peel's extra selects
// are pure overhead; above it the peel wins decisively. Crossover measured
// between 64 and 1024 particles. Both paths select identically, so the
// dispatch cannot affect results.
constexpr size_t kPeelMinParticles = 256;

template <typename QuantileFn>
void GatherAtQuantiles(QuantileFn quantile, ParticleSoA* soa,
                       FilterArena* arena) {
  if (soa->size() >= kPeelMinParticles) {
    GatherAtQuantilesImpl<true>(quantile, soa, arena);
  } else {
    GatherAtQuantilesImpl<false>(quantile, soa, arena);
  }
}

// Gathers arena->sel into arena->swap with uniform survivor weights and
// swaps the buffers into place. The gather is a plain indexed field copy
// per array — no branches, no struct strides.
void GatherUniform(ParticleSoA* soa, FilterArena* arena) {
  const std::vector<uint32_t>& sel = arena->sel;
  const size_t out_n = sel.size();
  ParticleSoA& out = arena->swap;
  out.Resize(out_n);
  for (size_t j = 0; j < out_n; ++j) {
    const uint32_t i = sel[j];
    out.edge[j] = soa->edge[i];
    out.offset[j] = soa->offset[i];
    out.heading[j] = soa->heading[i];
    out.speed[j] = soa->speed[i];
    out.in_room[j] = soa->in_room[i];
  }
  std::fill(out.weight.begin(), out.weight.end(),
            1.0 / static_cast<double>(soa->size()));
  std::swap(*soa, arena->swap);
}

void StratifiedResample(ParticleSoA* soa, FilterArena* arena, Rng& rng) {
  const size_t ns = soa->size();
  arena->draws.resize(ns);
  rng.Uniform01Batch(ns, arena->draws.data());
  const double* draws = arena->draws.data();
  const double nsd = static_cast<double>(ns);
  GatherAtQuantiles(
      [draws, nsd](size_t j) {
        return (static_cast<double>(j) + draws[j]) / nsd;
      },
      soa, arena);
}

void MultinomialResample(ParticleSoA* soa, FilterArena* arena, Rng& rng) {
  const size_t ns = soa->size();
  arena->quantiles.resize(ns);
  rng.Uniform01Batch(ns, arena->quantiles.data());
  std::sort(arena->quantiles.begin(), arena->quantiles.end());
  const double* q = arena->quantiles.data();
  GatherAtQuantiles([q](size_t j) { return q[j]; }, soa, arena);
}

void ResidualResample(ParticleSoA* soa, FilterArena* arena, Rng& rng) {
  const size_t ns = soa->size();
  std::vector<uint32_t>& sel = arena->sel;
  sel.clear();
  sel.reserve(ns);
  std::vector<double>& residuals = arena->residuals;
  residuals.resize(ns);
  // Deterministic part: floor(N * w_i) guaranteed copies.
  double residual_total = 0.0;
  for (size_t i = 0; i < ns; ++i) {
    const double expected = soa->weight[i] * static_cast<double>(ns);
    const int copies = static_cast<int>(std::floor(expected));
    for (int c = 0; c < copies; ++c) {
      sel.push_back(static_cast<uint32_t>(i));
    }
    residuals[i] = expected - copies;
    residual_total += residuals[i];
  }
  // Stochastic remainder: multinomial over the residual weights.
  while (sel.size() < ns) {
    if (residual_total <= 0.0) {
      // All residual mass rounded away: pad with the heaviest particle
      // (first among ties, matching std::max_element).
      size_t heaviest = 0;
      for (size_t i = 1; i < ns; ++i) {
        if (soa->weight[i] > soa->weight[heaviest]) {
          heaviest = i;
        }
      }
      sel.push_back(static_cast<uint32_t>(heaviest));
      continue;
    }
    sel.push_back(static_cast<uint32_t>(rng.Categorical(residuals)));
  }
  GatherUniform(soa, arena);
}

}  // namespace

std::string ToString(ResamplingScheme scheme) {
  switch (scheme) {
    case ResamplingScheme::kSystematic:
      return "systematic";
    case ResamplingScheme::kStratified:
      return "stratified";
    case ResamplingScheme::kMultinomial:
      return "multinomial";
    case ResamplingScheme::kResidual:
      return "residual";
  }
  return "?";
}

void SelectIndicesAtQuantiles(const std::vector<double>& cdf,
                              const std::vector<double>& quantiles,
                              uint32_t* sel) {
  const size_t ns = cdf.size();
  IPQS_CHECK(ns > 0);
  size_t i = 0;
  for (size_t j = 0; j < quantiles.size(); ++j) {
    // Single monotone cursor: quantiles are sorted, so `i` only advances.
    // The `i + 1 < ns` clamp keeps an adversarial CDF (one whose total
    // mass falls short of the largest quantile) on the last particle
    // instead of walking past the end of the arrays; the historical
    // implementation only DCHECKed this, so a Release build would read
    // out of bounds.
    const double u = quantiles[j];
    while (i + 1 < ns && u > cdf[i]) {
      ++i;
    }
    sel[j] = static_cast<uint32_t>(i);
  }
}

void SystematicResample(ParticleSoA* soa, FilterArena* arena, Rng& rng) {
  IPQS_CHECK(!soa->empty());
  const size_t ns = soa->size();
  const double u1 = rng.Uniform(0.0, 1.0 / static_cast<double>(ns));
  const double nsd = static_cast<double>(ns);
  GatherAtQuantiles(
      [u1, nsd](size_t j) { return u1 + static_cast<double>(j) / nsd; }, soa,
      arena);
}

void Resample(ResamplingScheme scheme, ParticleSoA* soa, FilterArena* arena,
              Rng& rng) {
  IPQS_CHECK(!soa->empty());
  switch (scheme) {
    case ResamplingScheme::kSystematic:
      SystematicResample(soa, arena, rng);
      return;
    case ResamplingScheme::kStratified:
      StratifiedResample(soa, arena, rng);
      return;
    case ResamplingScheme::kMultinomial:
      MultinomialResample(soa, arena, rng);
      return;
    case ResamplingScheme::kResidual:
      ResidualResample(soa, arena, rng);
      return;
  }
  IPQS_CHECK(false) << "unknown resampling scheme";
}

}  // namespace ipqs
