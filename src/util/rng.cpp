#include "util/rng.h"

#include <cmath>

#include "util/check.h"

namespace aethereal {
namespace {

constexpr std::uint64_t RotL(std::uint64_t x, int k) {
  return (x << k) | (x >> (64 - k));
}

// splitmix64, used only to expand the seed into the xoshiro state.
std::uint64_t SplitMix64(std::uint64_t& state) {
  state += 0x9E3779B97F4A7C15ull;
  std::uint64_t z = state;
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBull;
  return z ^ (z >> 31);
}

}  // namespace

Rng::Rng(std::uint64_t seed) {
  std::uint64_t sm = seed;
  for (auto& s : state_) s = SplitMix64(sm);
}

std::uint64_t Rng::Next() {
  const std::uint64_t result = RotL(state_[1] * 5, 7) * 9;
  const std::uint64_t t = state_[1] << 17;
  state_[2] ^= state_[0];
  state_[3] ^= state_[1];
  state_[1] ^= state_[2];
  state_[0] ^= state_[3];
  state_[2] ^= t;
  state_[3] = RotL(state_[3], 45);
  return result;
}

std::uint64_t Rng::NextBelow(std::uint64_t bound) {
  AETHEREAL_CHECK(bound > 0);
  // Rejection sampling to avoid modulo bias.
  const std::uint64_t limit = (~0ull) - (~0ull) % bound;
  std::uint64_t v = Next();
  while (v >= limit) v = Next();
  return v % bound;
}

std::int64_t Rng::NextInRange(std::int64_t lo, std::int64_t hi) {
  AETHEREAL_CHECK(lo <= hi);
  const std::uint64_t span = static_cast<std::uint64_t>(hi - lo) + 1;
  return lo + static_cast<std::int64_t>(NextBelow(span));
}

double Rng::NextDouble() {
  // 53 random mantissa bits.
  return static_cast<double>(Next() >> 11) * 0x1.0p-53;
}

bool Rng::NextBool(double p) { return NextDouble() < p; }

GeometricGap::GeometricGap(double p)
    : certain_(p >= 1.0), log1m_p_(certain_ ? 0.0 : std::log1p(-p)) {
  AETHEREAL_CHECK(p > 0.0 && p <= 1.0);
}

std::int64_t GeometricGap::Draw(Rng& rng) const {
  if (certain_) return 0;
  const double u = rng.NextDouble();
  return static_cast<std::int64_t>(std::floor(std::log1p(-u) / log1m_p_));
}

}  // namespace aethereal
