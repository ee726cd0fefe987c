#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdint>
#include <random>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "common/logging.h"
#include "common/rng.h"
#include "common/status.h"
#include "common/statusor.h"
#include "common/thread_pool.h"

namespace ipqs {
namespace {

TEST(StatusTest, DefaultIsOk) {
  Status s;
  EXPECT_TRUE(s.ok());
  EXPECT_EQ(s.code(), StatusCode::kOk);
  EXPECT_EQ(s.ToString(), "OK");
}

TEST(StatusTest, ErrorCarriesCodeAndMessage) {
  Status s = Status::NotFound("missing thing");
  EXPECT_FALSE(s.ok());
  EXPECT_EQ(s.code(), StatusCode::kNotFound);
  EXPECT_EQ(s.message(), "missing thing");
  EXPECT_EQ(s.ToString(), "NOT_FOUND: missing thing");
}

TEST(StatusTest, EqualityComparesCodeAndMessage) {
  EXPECT_EQ(Status::Internal("x"), Status::Internal("x"));
  EXPECT_FALSE(Status::Internal("x") == Status::Internal("y"));
  EXPECT_FALSE(Status::Internal("x") == Status::InvalidArgument("x"));
}

TEST(StatusTest, AllCodesHaveNames) {
  for (StatusCode code :
       {StatusCode::kOk, StatusCode::kInvalidArgument, StatusCode::kNotFound,
        StatusCode::kOutOfRange, StatusCode::kFailedPrecondition,
        StatusCode::kAlreadyExists, StatusCode::kInternal}) {
    EXPECT_FALSE(StatusCodeToString(code).empty());
    EXPECT_NE(StatusCodeToString(code), "UNKNOWN");
  }
}

Status FailsWhenNegative(int x) {
  if (x < 0) {
    return Status::InvalidArgument("negative");
  }
  return Status::Ok();
}

Status UsesReturnIfError(int x) {
  IPQS_RETURN_IF_ERROR(FailsWhenNegative(x));
  return Status::Ok();
}

TEST(StatusTest, ReturnIfErrorPropagates) {
  EXPECT_TRUE(UsesReturnIfError(1).ok());
  EXPECT_EQ(UsesReturnIfError(-1).code(), StatusCode::kInvalidArgument);
}

StatusOr<int> ParsePositive(int x) {
  if (x <= 0) {
    return Status::OutOfRange("not positive");
  }
  return x;
}

TEST(StatusOrTest, HoldsValue) {
  StatusOr<int> v = ParsePositive(5);
  ASSERT_TRUE(v.ok());
  EXPECT_EQ(*v, 5);
  EXPECT_EQ(v.value(), 5);
}

TEST(StatusOrTest, HoldsError) {
  StatusOr<int> v = ParsePositive(-5);
  EXPECT_FALSE(v.ok());
  EXPECT_EQ(v.status().code(), StatusCode::kOutOfRange);
}

StatusOr<int> DoublesViaAssignOrReturn(int x) {
  int value;
  IPQS_ASSIGN_OR_RETURN(value, ParsePositive(x));
  return value * 2;
}

TEST(StatusOrTest, AssignOrReturnHappyPath) {
  StatusOr<int> v = DoublesViaAssignOrReturn(4);
  ASSERT_TRUE(v.ok());
  EXPECT_EQ(*v, 8);
}

TEST(StatusOrTest, AssignOrReturnErrorPath) {
  StatusOr<int> v = DoublesViaAssignOrReturn(0);
  EXPECT_FALSE(v.ok());
  EXPECT_EQ(v.status().code(), StatusCode::kOutOfRange);
}

TEST(RngTest, DeterministicForSameSeed) {
  Rng a(123);
  Rng b(123);
  for (int i = 0; i < 100; ++i) {
    EXPECT_DOUBLE_EQ(a.Uniform01(), b.Uniform01());
  }
}

TEST(RngTest, DifferentSeedsDiffer) {
  Rng a(1);
  Rng b(2);
  int same = 0;
  for (int i = 0; i < 100; ++i) {
    if (a.Uniform01() == b.Uniform01()) ++same;
  }
  EXPECT_LT(same, 5);
}

TEST(RngTest, UniformRespectsBounds) {
  Rng rng(7);
  for (int i = 0; i < 1000; ++i) {
    const double v = rng.Uniform(2.0, 3.5);
    EXPECT_GE(v, 2.0);
    EXPECT_LT(v, 3.5);
  }
}

TEST(RngTest, UniformIntInclusive) {
  Rng rng(7);
  bool saw_lo = false;
  bool saw_hi = false;
  for (int i = 0; i < 1000; ++i) {
    const int v = rng.UniformInt(0, 3);
    EXPECT_GE(v, 0);
    EXPECT_LE(v, 3);
    saw_lo |= v == 0;
    saw_hi |= v == 3;
  }
  EXPECT_TRUE(saw_lo);
  EXPECT_TRUE(saw_hi);
}

TEST(RngTest, GaussianMoments) {
  Rng rng(99);
  double sum = 0.0;
  double sum_sq = 0.0;
  const int n = 20000;
  for (int i = 0; i < n; ++i) {
    const double v = rng.Gaussian(1.0, 0.1);
    sum += v;
    sum_sq += v * v;
  }
  const double mean = sum / n;
  const double var = sum_sq / n - mean * mean;
  EXPECT_NEAR(mean, 1.0, 0.01);
  EXPECT_NEAR(std::sqrt(var), 0.1, 0.01);
}

TEST(RngTest, EngineMatchesStdMt19937_64) {
  // Same seeding, twist and tempering as the standard engine: identical
  // outputs across several refills, for edge-case and stream-derived
  // seeds.
  for (const uint64_t seed :
       {uint64_t{0}, uint64_t{1}, uint64_t{5489}, ~uint64_t{0},
        uint64_t{0x9e3779b97f4a7c15ULL}}) {
    Mt19937_64 engine(seed);
    std::mt19937_64 reference(seed);
    for (int i = 0; i < 2000; ++i) {
      ASSERT_EQ(engine(), reference()) << "seed " << seed << " draw " << i;
    }
  }
}

// The batch draws must be the scalar draws bit for bit, at chunk and
// engine-refill boundaries (64 values per chunk, 312 engine words per
// refill) and for several (mu, sigma), and leave the engine where the
// scalar calls leave it.
constexpr size_t kBatchSizes[] = {0, 1, 2, 63, 64, 65, 313, 1000};

TEST(RngTest, GaussianBatchMatchesScalarDraws) {
  const std::pair<double, double> params[] = {
      {0.0, 1.0}, {0.0, 0.3}, {1.0, 0.1}, {-2.5, 7.0}, {3.0, 1e-3}};
  for (const size_t n : kBatchSizes) {
    for (const auto& [mu, sigma] : params) {
      Rng batch(1234 + n);
      Rng scalar(1234 + n);
      std::vector<double> out(n);
      batch.GaussianBatch(mu, sigma, n, out.data());
      for (size_t i = 0; i < n; ++i) {
        EXPECT_EQ(out[i], scalar.Gaussian(mu, sigma))
            << "n=" << n << " mu=" << mu << " sigma=" << sigma << " i=" << i;
      }
      EXPECT_EQ(batch.Gaussian(mu, sigma), scalar.Gaussian(mu, sigma));
      EXPECT_EQ(batch(), scalar()) << "n=" << n;
    }
  }
}

TEST(RngTest, Uniform01BatchMatchesScalarDraws) {
  for (const size_t n : kBatchSizes) {
    Rng batch(99 + n);
    Rng scalar(99 + n);
    std::vector<double> out(n);
    batch.Uniform01Batch(n, out.data());
    for (size_t i = 0; i < n; ++i) {
      EXPECT_EQ(out[i], scalar.Uniform01()) << "n=" << n << " i=" << i;
    }
    EXPECT_EQ(batch.Uniform01(), scalar.Uniform01());
    EXPECT_EQ(batch(), scalar()) << "n=" << n;
  }
}

TEST(RngTest, BernoulliFrequency) {
  Rng rng(5);
  int hits = 0;
  const int n = 10000;
  for (int i = 0; i < n; ++i) {
    if (rng.Bernoulli(0.3)) ++hits;
  }
  EXPECT_NEAR(static_cast<double>(hits) / n, 0.3, 0.02);
}

TEST(RngTest, BernoulliClampsProbability) {
  Rng rng(5);
  EXPECT_FALSE(rng.Bernoulli(-1.0));
  EXPECT_TRUE(rng.Bernoulli(2.0));
}

TEST(RngTest, CategoricalProportions) {
  Rng rng(11);
  const std::vector<double> weights = {1.0, 3.0, 6.0};
  std::vector<int> counts(3, 0);
  const int n = 30000;
  for (int i = 0; i < n; ++i) {
    ++counts[rng.Categorical(weights)];
  }
  EXPECT_NEAR(counts[0] / static_cast<double>(n), 0.1, 0.02);
  EXPECT_NEAR(counts[1] / static_cast<double>(n), 0.3, 0.02);
  EXPECT_NEAR(counts[2] / static_cast<double>(n), 0.6, 0.02);
}

TEST(RngTest, CategoricalSkipsZeroWeights) {
  Rng rng(13);
  const std::vector<double> weights = {0.0, 1.0, 0.0};
  for (int i = 0; i < 100; ++i) {
    EXPECT_EQ(rng.Categorical(weights), 1u);
  }
}

TEST(RngTest, ForkProducesIndependentStream) {
  Rng parent(42);
  Rng child = parent.Fork();
  // The child must be deterministic given the parent's seed.
  Rng parent2(42);
  Rng child2 = parent2.Fork();
  for (int i = 0; i < 10; ++i) {
    EXPECT_DOUBLE_EQ(child.Uniform01(), child2.Uniform01());
  }
}

TEST(RngTest, ForStreamIsPureFunctionOfArguments) {
  Rng a = Rng::ForStream(7, 12, 345);
  Rng b = Rng::ForStream(7, 12, 345);
  for (int i = 0; i < 20; ++i) {
    EXPECT_DOUBLE_EQ(a.Uniform01(), b.Uniform01());
  }
}

TEST(RngTest, ForStreamUnaffectedByOtherStreamsConsumption) {
  // Draw a reference sequence, then re-derive the same stream after
  // heavily consuming a sibling stream: identical (no shared state).
  Rng reference = Rng::ForStream(7, 1, 100);
  std::vector<double> expected;
  for (int i = 0; i < 10; ++i) {
    expected.push_back(reference.Uniform01());
  }
  Rng sibling = Rng::ForStream(7, 2, 100);
  for (int i = 0; i < 1000; ++i) {
    sibling.Uniform01();
  }
  Rng again = Rng::ForStream(7, 1, 100);
  for (int i = 0; i < 10; ++i) {
    EXPECT_DOUBLE_EQ(again.Uniform01(), expected[i]);
  }
}

TEST(RngTest, ForStreamSeparatesCoordinates) {
  // Streams differing in any one coordinate (or swapping two) must not
  // collide. Compare first draws of the raw engines.
  auto first = [](Rng rng) { return rng(); };
  const auto base = first(Rng::ForStream(7, 1, 2));
  EXPECT_NE(base, first(Rng::ForStream(8, 1, 2)));
  EXPECT_NE(base, first(Rng::ForStream(7, 2, 2)));
  EXPECT_NE(base, first(Rng::ForStream(7, 1, 3)));
  EXPECT_NE(base, first(Rng::ForStream(7, 2, 1)));
}

TEST(ThreadPoolTest, ParallelForCoversEveryIndexOnce) {
  ThreadPool pool(4);
  EXPECT_EQ(pool.num_threads(), 4);
  std::vector<std::atomic<int>> hits(1000);
  pool.ParallelFor(hits.size(),
                   [&](size_t i) { hits[i].fetch_add(1); });
  for (const auto& h : hits) {
    EXPECT_EQ(h.load(), 1);
  }
}

TEST(ThreadPoolTest, ParallelForHandlesEdgeSizes) {
  ThreadPool pool(2);
  int zero_calls = 0;
  pool.ParallelFor(0, [&](size_t) { ++zero_calls; });
  EXPECT_EQ(zero_calls, 0);

  std::atomic<int> one_calls{0};
  pool.ParallelFor(1, [&](size_t) { one_calls.fetch_add(1); });
  EXPECT_EQ(one_calls.load(), 1);

  // More workers than items.
  ThreadPool wide(8);
  std::vector<std::atomic<int>> hits(3);
  wide.ParallelFor(hits.size(), [&](size_t i) { hits[i].fetch_add(1); });
  for (const auto& h : hits) {
    EXPECT_EQ(h.load(), 1);
  }
}

TEST(ThreadPoolTest, SubmittedTasksAllRun) {
  std::atomic<int> ran{0};
  {
    ThreadPool pool(3);
    for (int i = 0; i < 200; ++i) {
      pool.Submit([&] { ran.fetch_add(1); });
    }
    // Back-to-back ParallelFor drains and completes alongside the
    // submitted tasks.
    pool.ParallelFor(50, [&](size_t) { ran.fetch_add(1); });
    // Destructor note: Submit gives no completion signal; sleep-free
    // drain is guaranteed only for ParallelFor, so wait via a second
    // barrier batch.
    pool.ParallelFor(1, [](size_t) {});
  }
  EXPECT_GE(ran.load(), 250);
}

TEST(ThreadPoolTest, UnevenWorkRebalances) {
  // One shard is 100x heavier; stealing keeps total wall-clock bounded.
  // (Correctness assertion only — timing is not asserted on 1-core CI.)
  ThreadPool pool(4);
  std::atomic<int64_t> total{0};
  pool.ParallelFor(64, [&](size_t i) {
    int64_t local = 0;
    const int spins = i == 0 ? 200000 : 2000;
    for (int s = 0; s < spins; ++s) {
      local += s;
    }
    total.fetch_add(local);
  });
  EXPECT_GT(total.load(), 0);
}

TEST(RngTest, UniformIndexCoversRange) {
  Rng rng(3);
  std::vector<bool> seen(5, false);
  for (int i = 0; i < 500; ++i) {
    seen[rng.UniformIndex(5)] = true;
  }
  EXPECT_TRUE(std::all_of(seen.begin(), seen.end(), [](bool b) { return b; }));
}

TEST(LoggingTest, LevelFiltering) {
  const LogLevel old_level = GetLogLevel();
  SetLogLevel(LogLevel::kError);
  EXPECT_EQ(GetLogLevel(), LogLevel::kError);
  // Nothing to assert on output here beyond "does not crash".
  IPQS_LOG(kInfo) << "suppressed";
  IPQS_LOG(kError) << "emitted";
  SetLogLevel(old_level);
}

}  // namespace
}  // namespace ipqs
