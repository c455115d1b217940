// Deterministic pseudo-random number generation for traffic generators.
//
// Simulation runs must be exactly reproducible across platforms, so we use
// our own xoshiro256** implementation instead of std::mt19937 + unspecified
// distribution algorithms.
#ifndef AETHEREAL_UTIL_RNG_H
#define AETHEREAL_UTIL_RNG_H

#include <cstdint>

namespace aethereal {

/// xoshiro256** deterministic generator.
class Rng {
 public:
  explicit Rng(std::uint64_t seed = 0x9E3779B97F4A7C15ull);

  /// Uniform 64-bit value.
  std::uint64_t Next();

  /// Uniform integer in [0, bound) (bound > 0).
  std::uint64_t NextBelow(std::uint64_t bound);

  /// Uniform integer in [lo, hi] inclusive.
  std::int64_t NextInRange(std::int64_t lo, std::int64_t hi);

  /// Uniform double in [0, 1).
  double NextDouble();

  /// Bernoulli trial with probability p in [0, 1].
  bool NextBool(double p);

 private:
  std::uint64_t state_[4];
};

/// Geometric inter-arrival gaps of a Bernoulli(p)-per-cycle process, i.e.
/// the number of failures before the first success. p in (0, 1] is fixed
/// per source, so the inversion's denominator log(1 - p) is computed once.
class GeometricGap {
 public:
  explicit GeometricGap(double p);

  /// One gap drawn from `rng`. At p = 1 the gap is 0 and nothing is drawn.
  std::int64_t Draw(Rng& rng) const;

 private:
  bool certain_;      // p == 1
  double log1m_p_;    // log1p(-p), unused when certain_
};

}  // namespace aethereal

#endif  // AETHEREAL_UTIL_RNG_H
