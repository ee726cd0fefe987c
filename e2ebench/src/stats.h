#ifndef E2EBENCH_STATS_H_
#define E2EBENCH_STATS_H_

#include <cstddef>
#include <cstdint>
#include <vector>

#include "query/knn_query.h"
#include "query/range_query.h"

namespace e2e {

// Median of `samples` (mean of the two middle values for an even count);
// 0 for an empty set.
double Median(std::vector<double> samples);

// A latency tail: the highest percentile of the ladder 50, 75, 90, 95, 99,
// 99.9 that leaves at least ten samples strictly beyond it (nearest-rank),
// so the figure rests on more than a handful of outliers. With fewer than
// 20 samples no rung qualifies and the tail is the maximum (p100).
struct Tail {
  double percentile = 0.0;
  double value = 0.0;
  size_t samples = 0;
};
Tail TailOf(std::vector<double> samples);

// FNV-1a over every answer a run delivers, bit-exact on probabilities, so
// two runs agree only when they returned byte-identical answers.
class Digest {
 public:
  void AddBytes(const void* data, size_t n);
  void AddInt(int64_t v) { AddBytes(&v, sizeof(v)); }
  void AddDouble(double v) { AddBytes(&v, sizeof(v)); }
  void Add(const ipqs::QueryResult& r);
  void Add(const ipqs::KnnResult& r);
  uint64_t value() const { return h_; }

 private:
  uint64_t h_ = 1469598103934665603ull;
};

// The failure rule for one delivered answer: every probability finite and
// within [0, 1], and a kNN answer non-empty whenever objects are known.
bool ValidRange(const ipqs::QueryResult& r);
bool ValidKnn(const ipqs::KnnResult& r, bool objects_known);

}  // namespace e2e

#endif  // E2EBENCH_STATS_H_
