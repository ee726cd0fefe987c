#include "stats.h"

#include <algorithm>
#include <cmath>

namespace e2e {

double Median(std::vector<double> samples) {
  if (samples.empty()) {
    return 0.0;
  }
  std::sort(samples.begin(), samples.end());
  const size_t n = samples.size();
  return n % 2 == 1 ? samples[n / 2]
                    : 0.5 * (samples[n / 2 - 1] + samples[n / 2]);
}

Tail TailOf(std::vector<double> samples) {
  // Percentiles in basis points, highest first; integer ranks keep the
  // rung choice exact (0.999 * n is not representable in binary).
  static constexpr int64_t kLadderBp[] = {9990, 9900, 9500, 9000, 7500, 5000};
  Tail tail;
  tail.samples = samples.size();
  if (samples.empty()) {
    return tail;
  }
  std::sort(samples.begin(), samples.end());
  const int64_t n = static_cast<int64_t>(samples.size());
  for (int64_t bp : kLadderBp) {
    const int64_t rank = (bp * n + 9999) / 10000;  // ceil(bp/10000 * n)
    if (rank >= 1 && n - rank >= 10) {
      tail.percentile = static_cast<double>(bp) / 100.0;
      tail.value = samples[static_cast<size_t>(rank - 1)];
      return tail;
    }
  }
  tail.percentile = 100.0;
  tail.value = samples.back();
  return tail;
}

void Digest::AddBytes(const void* data, size_t n) {
  const auto* p = static_cast<const unsigned char*>(data);
  for (size_t i = 0; i < n; ++i) {
    h_ ^= p[i];
    h_ *= 1099511628211ull;
  }
}

void Digest::Add(const ipqs::QueryResult& r) {
  AddInt(static_cast<int64_t>(r.objects.size()));
  for (const auto& [object, p] : r.objects) {
    AddInt(object);
    AddDouble(p);
  }
  AddInt(static_cast<int64_t>(r.quality));
  AddInt(r.coverage_degraded ? 1 : 0);
}

void Digest::Add(const ipqs::KnnResult& r) {
  Add(r.result);
  AddInt(r.anchors_searched);
  AddDouble(r.total_probability);
}

bool ValidRange(const ipqs::QueryResult& r) {
  return std::all_of(r.objects.begin(), r.objects.end(), [](const auto& e) {
    return std::isfinite(e.second) && e.second >= 0.0 && e.second <= 1.0;
  });
}

bool ValidKnn(const ipqs::KnnResult& r, bool objects_known) {
  if (objects_known && r.result.objects.empty()) {
    return false;
  }
  return ValidRange(r.result);
}

}  // namespace e2e
