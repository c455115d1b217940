// Latency statistics: insertion-order samples (Stats) and exact counts of
// whole-cycle values (CycleCounts).
#ifndef AETHEREAL_UTIL_STATS_H
#define AETHEREAL_UTIL_STATS_H

#include <array>
#include <cstddef>
#include <cstdint>
#include <map>
#include <vector>

namespace aethereal {

/// Accumulates samples and answers summary queries. Keeps all samples so
/// exact percentiles are available (bench runs are bounded in size).
///
/// Samples stay in insertion order until TakeSamples(): phased scenarios
/// snapshot the sample count at window boundaries and count the samples
/// recorded within one phase's window, and the convergence check's batch
/// means read them in that order, so Percentile() selects from a copy.
class Stats {
 public:
  void Add(double sample);

  std::int64_t count() const { return static_cast<std::int64_t>(samples_.size()); }
  bool empty() const { return samples_.empty(); }

  double Min() const;
  double Max() const;
  double Mean() const;
  /// Exact percentile by nearest-rank, p in [0, 100]. Selects from a fresh
  /// copy of the samples (linear time); for several percentiles of one
  /// population, copy samples() once into SelectTailPercentiles.
  double Percentile(double p) const;
  double Sum() const { return sum_; }

  /// Samples in insertion order.
  const std::vector<double>& samples() const { return samples_; }

  /// Moves the samples out, leaving the Stats empty: the hand-off of a
  /// finished flow's samples to its result, which costs no copy.
  std::vector<double> TakeSamples();

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

/// Exact counts of whole-cycle values (latencies, inter-arrival gaps): the
/// population behind every merged or windowed latency summary. It gives
/// the count, sum, extremes, nearest-rank p50/p95/p99 and power-of-two
/// buckets of the values added, in memory that grows with the number of
/// distinct values, not with the number of samples. The values are whole
/// numbers, so the sum is exact (below 2^53) in any order, and each
/// percentile equals the one SelectTailPercentiles picks from the same
/// samples: merging counts gives the bytes merging samples did.
///
/// A value may be negative: a fault that corrupts a word's emission stamp
/// makes its latency anything, and the sub-cycle bucket takes it.
class CycleCounts {
 public:
  /// Number of power-of-two buckets: bucket 0 holds the values below one
  /// cycle (the sub-cycle bucket [0, 1)), bucket k + 1 the values in
  /// [2^k, 2^(k+1)).
  static constexpr std::size_t kBuckets = 65;

  /// Counts `value` once.
  void Add(std::int64_t value);
  /// Counts samples[first, end). Each must be a whole number of cycles
  /// (CHECKed): samples are integer cycle counts stored as doubles.
  void AddSamples(const std::vector<double>& samples, std::size_t first = 0);
  void Merge(const CycleCounts& other);

  std::int64_t count() const { return count_; }
  bool empty() const { return count_ == 0; }
  double Sum() const { return static_cast<double>(sum_); }
  double Min() const;
  double Max() const;
  /// Sum() / count(): one IEEE division of two exact values.
  double Mean() const;
  /// The nearest-rank p50, p95 and p99 (non-empty).
  TailPercentiles Tail() const;
  std::array<std::int64_t, kBuckets> Buckets() const;

 private:
  /// Values in [0, kDenseLimit) are counted in `dense_`, the rest in
  /// `sparse_`.
  static constexpr std::int64_t kDenseLimit = 1024;

  void AddTimes(std::int64_t value, std::int64_t times);
  /// Calls f(value, times) for every counted value, ascending.
  template <typename F>
  void ForEach(F f) const;

  std::vector<std::int64_t> dense_;  // dense_[v]: times v was counted
  std::map<std::int64_t, std::int64_t> sparse_;
  std::int64_t count_ = 0;
  std::int64_t sum_ = 0;
  std::int64_t min_ = 0;
  std::int64_t max_ = 0;
};

}  // namespace aethereal

#endif  // AETHEREAL_UTIL_STATS_H
