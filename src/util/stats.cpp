#include "util/stats.h"

#include <algorithm>
#include <cmath>

#include "util/check.h"

namespace aethereal {

void Stats::Add(double sample) {
  samples_.push_back(sample);
  sum_ += sample;
}

double Stats::Min() const {
  AETHEREAL_CHECK(!samples_.empty());
  return *std::min_element(samples_.begin(), samples_.end());
}

double Stats::Max() const {
  AETHEREAL_CHECK(!samples_.empty());
  return *std::max_element(samples_.begin(), samples_.end());
}

double Stats::Mean() const {
  AETHEREAL_CHECK(!samples_.empty());
  return sum_ / static_cast<double>(samples_.size());
}

double Stats::StdDev() const {
  AETHEREAL_CHECK(!samples_.empty());
  if (samples_.size() < 2) return 0.0;
  const double mean = Mean();
  double acc = 0.0;
  for (double s : samples_) acc += (s - mean) * (s - mean);
  return std::sqrt(acc / static_cast<double>(samples_.size() - 1));
}

std::size_t NearestRank(std::size_t n, double p) {
  AETHEREAL_CHECK(n > 0);
  AETHEREAL_CHECK(p >= 0.0 && p <= 100.0);
  auto rank = static_cast<std::size_t>(
      std::ceil(p / 100.0 * static_cast<double>(n)));
  if (rank > 0) --rank;
  return std::min(rank, n - 1);
}

double SortedPercentile(const std::vector<double>& sorted, double p) {
  AETHEREAL_CHECK(!sorted.empty());
  return sorted[NearestRank(sorted.size(), p)];
}

TailPercentiles SelectTailPercentiles(std::vector<double>& samples) {
  AETHEREAL_CHECK(!samples.empty());
  auto from = samples.begin();
  const auto select = [&](double p) {
    const auto at = samples.begin() + static_cast<std::ptrdiff_t>(
                                          NearestRank(samples.size(), p));
    std::nth_element(from, at, samples.end());
    from = at;
    return *at;
  };
  TailPercentiles t;
  t.p50 = select(50);
  t.p95 = select(95);
  t.p99 = select(99);
  return t;
}

double Stats::Percentile(double p) const {
  AETHEREAL_CHECK(!samples_.empty());
  std::vector<double> copy = samples_;
  const auto at =
      copy.begin() + static_cast<std::ptrdiff_t>(NearestRank(copy.size(), p));
  std::nth_element(copy.begin(), at, copy.end());
  return *at;
}

}  // namespace aethereal
