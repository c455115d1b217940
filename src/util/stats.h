// Streaming statistics accumulator (min/max/mean/stddev/percentile support).
#ifndef AETHEREAL_UTIL_STATS_H
#define AETHEREAL_UTIL_STATS_H

#include <cstddef>
#include <cstdint>
#include <vector>

namespace aethereal {

/// Accumulates samples and answers summary queries. Keeps all samples so
/// exact percentiles are available (bench runs are bounded in size).
///
/// Samples stay in insertion order forever: phased scenarios snapshot the
/// sample count at window boundaries and take exact percentiles of the
/// samples recorded within one phase's window, so Percentile() selects
/// from a copy.
class Stats {
 public:
  void Add(double sample);

  std::int64_t count() const { return static_cast<std::int64_t>(samples_.size()); }
  bool empty() const { return samples_.empty(); }

  double Min() const;
  double Max() const;
  double Mean() const;
  /// Unbiased sample standard deviation (n-1 denominator; 0 for a single
  /// sample). The batch-means confidence intervals are built on this, so
  /// the population (n) estimator would bias every half-width low.
  double StdDev() const;
  /// Exact percentile by nearest-rank, p in [0, 100]. Selects from a fresh
  /// copy of the samples (linear time); for several percentiles of one
  /// population, copy samples() once into SelectTailPercentiles.
  double Percentile(double p) const;
  double Sum() const { return sum_; }

  /// Samples in insertion order (for histogram bucketing / merging).
  const std::vector<double>& samples() const { return samples_; }

 private:
  std::vector<double> samples_;  // insertion order; never reordered
  double sum_ = 0.0;
};

/// The index of the nearest-rank percentile p (in [0, 100]) among `n`
/// sorted samples, n > 0: the one formula behind every percentile in the
/// result JSON.
std::size_t NearestRank(std::size_t n, double p);

/// Nearest-rank percentile of an externally sorted sample vector
/// (p in [0, 100]).
double SortedPercentile(const std::vector<double>& sorted, double p);

/// The p50, p95 and p99 the result JSON reports for a latency population.
struct TailPercentiles {
  double p50 = 0;
  double p95 = 0;
  double p99 = 0;
};

/// The nearest-rank p50, p95 and p99 of `samples` (non-empty), which it
/// reorders: each is picked with std::nth_element from the part above the
/// one before, so the values equal SortedPercentile's on the sorted
/// samples at linear cost.
TailPercentiles SelectTailPercentiles(std::vector<double>& samples);

}  // namespace aethereal

#endif  // AETHEREAL_UTIL_STATS_H
