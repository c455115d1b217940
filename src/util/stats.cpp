#include "util/stats.h"

#include <algorithm>
#include <bit>
#include <cmath>
#include <utility>

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

std::vector<double> Stats::TakeSamples() {
  sum_ = 0.0;
  return std::exchange(samples_, {});
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

template <typename F>
void CycleCounts::ForEach(F f) const {
  const auto non_negative = sparse_.lower_bound(0);
  for (auto it = sparse_.begin(); it != non_negative; ++it) {
    f(it->first, it->second);
  }
  for (std::size_t v = 0; v < dense_.size(); ++v) {
    if (dense_[v] != 0) f(static_cast<std::int64_t>(v), dense_[v]);
  }
  for (auto it = non_negative; it != sparse_.end(); ++it) {
    f(it->first, it->second);
  }
}

void CycleCounts::Add(std::int64_t value) { AddTimes(value, 1); }

void CycleCounts::AddTimes(std::int64_t value, std::int64_t times) {
  if (value >= 0 && value < kDenseLimit) {
    const auto v = static_cast<std::size_t>(value);
    if (v >= dense_.size()) {
      dense_.resize(std::min(std::bit_ceil(v + 1),
                             static_cast<std::size_t>(kDenseLimit)));
    }
    dense_[v] += times;
  } else {
    sparse_[value] += times;
  }
  if (count_ == 0 || value < min_) min_ = value;
  if (count_ == 0 || value > max_) max_ = value;
  count_ += times;
  sum_ += value * times;
}

void CycleCounts::AddSamples(const std::vector<double>& samples,
                             std::size_t first) {
  AETHEREAL_CHECK(first <= samples.size());
  for (std::size_t i = first; i < samples.size(); ++i) {
    const double v = samples[i];
    AETHEREAL_CHECK_MSG(std::fabs(v) < 0x1p62 && std::trunc(v) == v,
                        "sample " << v << " is not a whole cycle count");
    Add(static_cast<std::int64_t>(v));
  }
}

void CycleCounts::Merge(const CycleCounts& other) {
  other.ForEach(
      [&](std::int64_t value, std::int64_t times) { AddTimes(value, times); });
}

double CycleCounts::Min() const {
  AETHEREAL_CHECK(count_ > 0);
  return static_cast<double>(min_);
}

double CycleCounts::Max() const {
  AETHEREAL_CHECK(count_ > 0);
  return static_cast<double>(max_);
}

double CycleCounts::Mean() const {
  AETHEREAL_CHECK(count_ > 0);
  return Sum() / static_cast<double>(count_);
}

TailPercentiles CycleCounts::Tail() const {
  AETHEREAL_CHECK(count_ > 0);
  const auto n = static_cast<std::size_t>(count_);
  // One ascending walk: each percentile is the first value whose
  // cumulative count passes its 0-based nearest rank.
  const std::array<std::size_t, 3> ranks = {
      NearestRank(n, 50), NearestRank(n, 95), NearestRank(n, 99)};
  std::array<double, 3> at{};
  std::size_t next = 0;
  std::size_t seen = 0;
  ForEach([&](std::int64_t value, std::int64_t times) {
    seen += static_cast<std::size_t>(times);
    while (next < ranks.size() && ranks[next] < seen) {
      at[next++] = static_cast<double>(value);
    }
  });
  return TailPercentiles{at[0], at[1], at[2]};
}

std::array<std::int64_t, CycleCounts::kBuckets> CycleCounts::Buckets() const {
  std::array<std::int64_t, kBuckets> buckets{};
  ForEach([&](std::int64_t value, std::int64_t times) {
    buckets[value < 1 ? 0
                      : static_cast<std::size_t>(std::bit_width(
                            static_cast<std::uint64_t>(value)))] += times;
  });
  return buckets;
}

}  // namespace aethereal
