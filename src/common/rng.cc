#include "common/rng.h"

#include <algorithm>
#include <cmath>
#include <limits>

#include "common/check.h"

namespace ipqs {

Mt19937_64::Mt19937_64(result_type seed) {
  state_[0] = seed;
  for (size_t i = 1; i < kStateWords; ++i) {
    const result_type prev = state_[i - 1];
    state_[i] = 6364136223846793005ULL * (prev ^ (prev >> 62)) + i;
  }
}

void Mt19937_64::Twist() {
  constexpr size_t kShift = 156;
  constexpr result_type kUpper = 0xffffffff80000000ULL;
  constexpr result_type kLower = 0x7fffffffULL;
  constexpr result_type kMatrix = 0xb5026f5aa96619e9ULL;
  // Word i mixes words i and i + 1 with word i + kShift (mod 312); the
  // three loops are the standard split that keeps every index in range.
  // `-(y & 1) & kMatrix` is the branch-free form of `(y & 1) ? kMatrix : 0`.
  const auto mix = [](result_type a, result_type b, result_type far) {
    const result_type y = (a & kUpper) | (b & kLower);
    return far ^ (y >> 1) ^ ((result_type{0} - (y & 1)) & kMatrix);
  };
  size_t i = 0;
  for (; i < kStateWords - kShift; ++i) {
    state_[i] = mix(state_[i], state_[i + 1], state_[i + kShift]);
  }
  for (; i < kStateWords - 1; ++i) {
    state_[i] =
        mix(state_[i], state_[i + 1], state_[i + kShift - kStateWords]);
  }
  state_[kStateWords - 1] =
      mix(state_[kStateWords - 1], state_[0], state_[kShift - 1]);
  next_ = 0;
}

double Rng::Uniform(double lo, double hi) {
  IPQS_CHECK_LE(lo, hi);
  std::uniform_real_distribution<double> dist(lo, hi);
  return dist(engine_);
}

double Rng::Uniform01() { return Uniform(0.0, 1.0); }

int Rng::UniformInt(int lo, int hi) {
  IPQS_CHECK_LE(lo, hi);
  std::uniform_int_distribution<int> dist(lo, hi);
  return dist(engine_);
}

size_t Rng::UniformIndex(size_t n) {
  IPQS_CHECK_GT(n, 0u);
  std::uniform_int_distribution<size_t> dist(0, n - 1);
  return dist(engine_);
}

double Rng::Gaussian(double mu, double sigma) {
  std::normal_distribution<double> dist(mu, sigma);
  return dist(engine_);
}

void Rng::GaussianBatch(double mu, double sigma, size_t n, double* out) {
#if defined(__GLIBCXX__)
  // libstdc++'s normal_distribution is the Marsaglia polar method: draw
  // canonical (x, y) pairs until 0 < r2 = x^2 + y^2 <= 1, return
  // y * sqrt(-2 log(r2) / r2) * sigma + mu, and cache x's variate on the
  // distribution object. Gaussian() builds a fresh object per draw, so the
  // cached variate is discarded and each draw costs exactly one accepted
  // pair. This is the same arithmetic split in two passes per chunk:
  // pass 1 draws pairs in engine order and keeps the accepted ones
  // (branch-free, so the 21% rejections do not mispredict), pass 2 does
  // the transcendental math. Same expressions on the same values, so the
  // output and the engine state afterwards are bit-identical to n
  // Gaussian() calls (pinned by RngTest.GaussianBatchMatchesScalarDraws).
  constexpr size_t kChunk = 64;
  double r2s[kChunk];
  const auto canonical = [this] {
    return std::generate_canonical<double,
                                   std::numeric_limits<double>::digits>(
        engine_);
  };
  for (size_t base = 0; base < n; base += kChunk) {
    const size_t m = std::min(kChunk, n - base);
    double* ys = out + base;
    size_t accepted = 0;
    while (accepted < m) {
      // At most one acceptance per pair, so none of these pairs is drawn
      // past the m-th acceptance: the engine advances exactly as far as
      // the scalar loop would.
      for (size_t todo = m - accepted; todo > 0; --todo) {
        const double x = 2.0 * canonical() - 1.0;
        const double y = 2.0 * canonical() - 1.0;
        const double r2 = x * x + y * y;
        ys[accepted] = y;
        r2s[accepted] = r2;
        accepted += (r2 > 1.0 || r2 == 0.0) ? 0 : 1;
      }
    }
    // The libm log calls first, then a loop of plain IEEE arithmetic that
    // vectorizes (vector sqrt and div round exactly like the scalar ones).
    double logs[kChunk];
    for (size_t i = 0; i < m; ++i) {
      logs[i] = std::log(r2s[i]);
    }
    for (size_t i = 0; i < m; ++i) {
      const double mult = std::sqrt(-2 * logs[i] / r2s[i]);
      const double z = ys[i] * mult;
      ys[i] = z * sigma + mu;
    }
  }
#else
  for (size_t i = 0; i < n; ++i) {
    out[i] = Gaussian(mu, sigma);
  }
#endif
}

void Rng::Uniform01Batch(size_t n, double* out) {
  for (size_t i = 0; i < n; ++i) {
    std::uniform_real_distribution<double> dist(0.0, 1.0);
    out[i] = dist(engine_);
  }
}

bool Rng::Bernoulli(double p) {
  const double clamped = std::clamp(p, 0.0, 1.0);
  std::bernoulli_distribution dist(clamped);
  return dist(engine_);
}

size_t Rng::Categorical(const std::vector<double>& weights) {
  IPQS_CHECK(!weights.empty());
  double total = 0.0;
  for (double w : weights) {
    IPQS_CHECK_GE(w, 0.0);
    total += w;
  }
  IPQS_CHECK_GT(total, 0.0);
  double u = Uniform(0.0, total);
  for (size_t i = 0; i < weights.size(); ++i) {
    u -= weights[i];
    if (u <= 0.0) {
      return i;
    }
  }
  // Floating point slack: fall back to the last positive-weight entry.
  for (size_t i = weights.size(); i-- > 0;) {
    if (weights[i] > 0.0) {
      return i;
    }
  }
  return weights.size() - 1;
}

Rng Rng::Fork() {
  // Derive the child seed from this stream, advancing it once.
  return Rng(engine_());
}

namespace {

// SplitMix64 finalizer (Vigna): a bijective avalanche mix, the standard
// way to turn structured counters into well-distributed seeds.
uint64_t SplitMix64(uint64_t x) {
  x += 0x9e3779b97f4a7c15ULL;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  return x ^ (x >> 31);
}

}  // namespace

Rng Rng::ForStream(uint64_t seed, uint64_t stream, uint64_t substream) {
  // Chain the mixes so that (seed, stream, substream) triples that differ
  // in any coordinate land on unrelated seeds; a plain XOR of the three
  // would alias (a^b, b^a) style swaps onto the same generator.
  uint64_t h = SplitMix64(seed);
  h = SplitMix64(h ^ SplitMix64(stream));
  h = SplitMix64(h ^ SplitMix64(substream));
  return Rng(h);
}

}  // namespace ipqs
