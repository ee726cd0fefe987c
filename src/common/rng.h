#ifndef IPQS_COMMON_RNG_H_
#define IPQS_COMMON_RNG_H_

#include <cstdint>
#include <random>
#include <vector>

namespace ipqs {

// std::mt19937_64, bit for bit: the same seeding recurrence, twist and
// tempering, so every output (and every <random> distribution drawn from
// it) equals the standard engine's (RngTest.EngineMatchesStdMt19937_64).
// The twist is written branch-free: libstdc++ selects the twist constant
// with a branch on a random bit, which mispredicts on half the state
// words of every refill.
class Mt19937_64 {
 public:
  using result_type = uint64_t;
  static constexpr size_t kStateWords = 312;
  static constexpr result_type min() { return 0; }
  static constexpr result_type max() { return ~result_type{0}; }

  explicit Mt19937_64(result_type seed);

  result_type operator()() {
    if (next_ >= kStateWords) {
      Twist();
    }
    result_type z = state_[next_++];
    z ^= (z >> 29) & 0x5555555555555555ULL;
    z ^= (z << 17) & 0x71d67fffeda60000ULL;
    z ^= (z << 37) & 0xfff7eee000000000ULL;
    return z ^ (z >> 43);
  }

 private:
  void Twist();

  result_type state_[kStateWords];
  size_t next_ = kStateWords;  // Drawing from a fresh engine twists first.
};

// Deterministic random number generator shared by every stochastic component
// in the library (particle motion, sensing noise, trace generation, ...).
//
// All randomness flows through explicitly passed Rng& so that simulations
// and experiments are exactly reproducible from a single seed. Components
// never construct their own generators from wall-clock entropy.
class Rng {
 public:
  explicit Rng(uint64_t seed) : engine_(seed) {}

  Rng(const Rng&) = delete;
  Rng& operator=(const Rng&) = delete;
  Rng(Rng&&) = default;
  Rng& operator=(Rng&&) = default;

  // Uniform double in [lo, hi).
  double Uniform(double lo, double hi);

  // Uniform double in [0, 1).
  double Uniform01();

  // Uniform integer in [lo, hi] (inclusive).
  int UniformInt(int lo, int hi);

  // Uniform index in [0, n). Precondition: n > 0.
  size_t UniformIndex(size_t n);

  // Normal with mean `mu` and standard deviation `sigma`.
  double Gaussian(double mu, double sigma);

  // Batched draws for the data-oriented filter kernels: fills out[0..n)
  // with exactly the values n successive Gaussian()/Uniform01() calls
  // would produce — byte-identical sequence, same engine state afterwards.
  // Batching hoists the per-call distribution setup out of consumer loops
  // and keeps those loops branch-light; it never changes draw order.
  void GaussianBatch(double mu, double sigma, size_t n, double* out);
  void Uniform01Batch(size_t n, double* out);

  // True with probability `p` (clamped to [0, 1]).
  bool Bernoulli(double p);

  // Samples an index in [0, weights.size()) proportionally to weights.
  // Precondition: weights non-empty with non-negative entries and a
  // positive sum.
  size_t Categorical(const std::vector<double>& weights);

  // Forks an independent deterministic child stream. Used to give each
  // experiment trial its own stream without coupling consumption order.
  Rng Fork();

  // Counter-based stream split: an independent generator that is a pure
  // function of (seed, stream, substream) — no shared state, no dependence
  // on how much any other stream has consumed. Used to give every
  // (object, timestamp) inference its own stream so per-object filtering
  // is order- and thread-count-invariant.
  static Rng ForStream(uint64_t seed, uint64_t stream, uint64_t substream);

  // UniformRandomBitGenerator interface so <random> distributions and
  // std::shuffle can consume this directly.
  using result_type = Mt19937_64::result_type;
  static constexpr result_type min() { return Mt19937_64::min(); }
  static constexpr result_type max() { return Mt19937_64::max(); }
  result_type operator()() { return engine_(); }

 private:
  Mt19937_64 engine_;
};

}  // namespace ipqs

#endif  // IPQS_COMMON_RNG_H_
