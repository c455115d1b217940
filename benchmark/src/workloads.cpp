#include "workloads.h"

#include <algorithm>
#include <cmath>
#include <cstdlib>
#include <functional>
#include <numeric>
#include <sstream>
#include <utility>

#include "link/header.h"
#include "scenario/runner.h"
#include "scenario/spec.h"

namespace noc_bench {
namespace {

using aethereal::Result;
using aethereal::Status;

constexpr const char* kSweepName = "mesh8_be_saturation";
constexpr std::uint64_t kSweepPlacementSeed = 1;

/// The generator's own RNG (SplitMix64), so that the generated text does
/// not change when the library's traffic RNG does.
class SplitMix {
 public:
  explicit SplitMix(std::uint64_t seed) : state_(seed) {}
  std::uint64_t Next() {
    std::uint64_t z = (state_ += 0x9E3779B97F4A7C15ull);
    z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
    z = (z ^ (z >> 27)) * 0x94D049BB133111EBull;
    return z ^ (z >> 31);
  }
  int Below(std::size_t n) { return static_cast<int>(Next() % n); }
  void Shuffle(std::vector<int>& v) {
    for (std::size_t i = v.size(); i > 1; --i) {
      std::swap(v[i - 1], v[Below(i)]);
    }
  }
  /// A spec-level `seed` value.
  std::uint64_t SpecSeed() { return Next() % 2147483647u + 1; }

 private:
  std::uint64_t state_;
};

/// Channels an NI can address (the header's 5-bit qid field).
constexpr int kQidBudget = aethereal::link::kMaxQueueId + 1;
/// Local pairs stay within this many mesh hops, far inside the source
/// route's kMaxPathHops routers.
constexpr int kLocalHops = 3;
static_assert(kLocalHops + 1 <= aethereal::link::kMaxPathHops);
/// Placements resampled before the generator gives up on a seed.
constexpr int kMaxAttempts = 16;

/// Mesh hops between NIs `a` and `b` of a side x side mesh with one NI per
/// router (NI id = row * side + col).
int Hops(int side, int a, int b) {
  return std::abs(a / side - b / side) + std::abs(a % side - b % side);
}

Status Exhausted(const std::string& what) {
  return aethereal::ResourceExhaustedError("no feasible " + what);
}

/// A random local permutation of a side x side mesh: every NI sends to a
/// distinct NI 1..kLocalHops hops away, so every NI terminates exactly one
/// flow and no destination is a hotspot whose position would make the
/// workload's cost depend on the seed. Augmenting paths (Kuhn) over the
/// sources in random order, each trying its candidates in random order.
Result<std::vector<int>> LocalPermutation(int side, SplitMix& rng) {
  const int n = side * side;
  std::vector<std::vector<int>> candidates(n);
  for (int src = 0; src < n; ++src) {
    for (int dst = 0; dst < n; ++dst) {
      const int hops = Hops(side, src, dst);
      if (hops >= 1 && hops <= kLocalHops) candidates[src].push_back(dst);
    }
    rng.Shuffle(candidates[src]);
  }
  std::vector<int> order(n);
  std::iota(order.begin(), order.end(), 0);
  rng.Shuffle(order);
  std::vector<int> src_of(n, -1);
  std::vector<bool> seen;
  std::function<bool(int)> augment = [&](int src) {
    for (int dst : candidates[src]) {
      if (seen[dst]) continue;
      seen[dst] = true;
      if (src_of[dst] < 0 || augment(src_of[dst])) {
        src_of[dst] = src;
        return true;
      }
    }
    return false;
  };
  for (int src : order) {
    seen.assign(n, false);
    if (!augment(src)) return Exhausted("local permutation");
  }
  std::vector<int> dst_of(n);
  for (int dst = 0; dst < n; ++dst) dst_of[src_of[dst]] = dst;
  return dst_of;
}

/// The channels each NI has handed out (one per flow endpoint,
/// configuration channels first), so no NI exceeds the qid budget.
class ChannelBudget {
 public:
  explicit ChannelBudget(std::vector<int> used) : used_(std::move(used)) {}

  /// Takes a channel at a random NI in [first, size) other than `other`
  /// that still has one free; -1 when none has.
  int Take(int first, int other, SplitMix& rng) {
    std::vector<int> candidates;
    for (int ni = first; ni < static_cast<int>(used_.size()); ++ni) {
      if (ni != other && used_[ni] < kQidBudget) candidates.push_back(ni);
    }
    if (candidates.empty()) return -1;
    const int ni = candidates[rng.Below(candidates.size())];
    ++used_[ni];
    return ni;
  }

 private:
  std::vector<int> used_;
};

using Pairs = std::vector<std::pair<int, int>>;

std::string PairsLine(const Pairs& pairs, const std::string& clauses) {
  std::ostringstream out;
  out << "traffic pairs";
  for (const auto& [src, dst] : pairs) out << ' ' << src << ' ' << dst;
  out << ' ' << clauses << '\n';
  return out.str();
}

long long Cycles(double nominal, double scale) {
  return std::max(300LL, std::llround(nominal * scale));
}

std::string Header(const std::string& name, int side, SplitMix& rng,
                   long long warmup, const GenOptions& options) {
  std::ostringstream out;
  out << "scenario " << name << "\nnoc mesh " << side << ' ' << side
      << " 1\nstu 8\nqueues 32\nseed " << rng.SpecSeed() << "\nwarmup "
      << warmup << '\n';
  if (!options.engine.empty()) out << "engine " << options.engine << '\n';
  return out.str();
}

/// Every NI of a side x side mesh sends one flow along a LocalPermutation.
/// Flows from NIs divisible by `gt_every` use `gt_clauses` (gt_every 0:
/// none), the rest `be_clauses`.
Result<std::string> LocalFlows(int side, int gt_every,
                               const std::string& gt_clauses,
                               const std::string& be_clauses, SplitMix& rng) {
  auto dst_of = LocalPermutation(side, rng);
  if (!dst_of.ok()) return dst_of.status();
  Pairs gt;
  Pairs be;
  for (int src = 0; src < side * side; ++src) {
    (gt_every > 0 && src % gt_every == 0 ? gt : be)
        .emplace_back(src, (*dst_of)[src]);
  }
  std::string lines;
  if (!gt.empty()) lines += PairsLine(gt, gt_clauses);
  if (!be.empty()) lines += PairsLine(be, be_clauses);
  return lines;
}

Result<std::string> LocalScenario(const std::string& name, int side,
                                  long long warmup, double duration,
                                  int gt_every, const std::string& gt_clauses,
                                  const std::string& be_clauses, SplitMix& rng,
                                  const GenOptions& options) {
  std::string text = Header(name, side, rng, warmup, options);
  text += "duration " + std::to_string(Cycles(duration, options.scale)) + '\n';
  auto flows = LocalFlows(side, gt_every, gt_clauses, be_clauses, rng);
  if (!flows.ok()) return flows.status();
  return text + *flows;
}

/// 4x4 mesh, configuration master at NI 0 (15 config channels, no flows),
/// 24 phases. Each phase opens 3 GT pairs, 3 BE pairs and one closed-loop
/// memory master/slave; one GT stream opened in phase 0 persists.
Result<std::string> Churn(SplitMix& rng, const GenOptions& options) {
  constexpr int kSide = 4;
  constexpr int kPhases = 24;
  std::vector<int> channels(kSide * kSide, 1);  // the CNIP channel
  channels[0] = kSide * kSide - 1;              // one per remote NI
  ChannelBudget budget(std::move(channels));
  auto take_pairs = [&](int count, Pairs* pairs) {
    for (int i = 0; i < count; ++i) {
      const int src = budget.Take(1, -1, rng);
      const int dst = src < 0 ? -1 : budget.Take(1, src, rng);
      if (dst < 0) return false;
      pairs->emplace_back(src, dst);
    }
    return true;
  };

  std::string text = Header("mesh4_churn", kSide, rng, 200, options);
  text += "cfgni 0\n";
  const std::string phase_duration =
      std::to_string(Cycles(6000, options.scale));
  for (int phase = 0; phase < kPhases; ++phase) {
    text += "phase p" + std::to_string(phase) + " duration " +
            phase_duration + '\n';
    Pairs persist, gt, be, memory;
    if ((phase == 0 && !take_pairs(1, &persist)) || !take_pairs(3, &gt) ||
        !take_pairs(3, &be) || !take_pairs(1, &memory)) {
      return Exhausted("phase placement");
    }
    if (!persist.empty()) {
      text += PairsLine(persist, "inject periodic 24 qos gt 1 persist");
    }
    text += PairsLine(gt, "inject periodic 12 qos gt 1");
    text += PairsLine(be, "inject bernoulli 0.04 qos be");
    text += "traffic memory " + std::to_string(memory[0].first) + ' ' +
            std::to_string(memory[0].second) + " inject closed\n";
  }
  return text;
}

Result<Workload> Compose(const std::string& name, std::uint64_t seed,
                         int attempt, const GenOptions& options) {
  const auto& names = WorkloadNames();
  const auto it = std::find(names.begin(), names.end(), name);
  if (it == names.end()) {
    return aethereal::InvalidArgumentError("unknown workload '" + name + "'");
  }
  SplitMix rng(SplitMix(seed).Next() ^
               (static_cast<std::uint64_t>(it - names.begin()) << 56) ^
               static_cast<std::uint64_t>(attempt) << 48);
  const std::string mixed_gt = "inject periodic 12 qos gt 1";
  const std::string mixed_be = "inject bernoulli 0.05 qos be";

  Workload w;
  w.name = name;
  Result<std::string> scn = std::string();
  if (name == "mesh16_mixed") {
    scn = LocalScenario(name, 16, 500, 16000, 4, mixed_gt, mixed_be, rng,
                        options);
  } else if (name == "mesh16_gt_sparse") {
    scn = LocalScenario(name, 16, 500, 80000, 1,
                        "inject periodic 200 qos gt 1", "", rng, options);
  } else if (name == "mesh4_churn") {
    scn = Churn(rng, options);
  } else if (name == "mesh8_observed") {
    scn = LocalScenario(name, 8, 500, 60000, 4, mixed_gt, mixed_be, rng,
                        options);
    if (scn.ok() && options.verify) *scn += "verify on\n";
    if (scn.ok() && options.sample) *scn += "stats sample_every 300\n";
  } else {
    // The base placement is fixed: it sets the saturation rate, so it sets
    // how much traffic the probes carry, and a seeded one moved the sweep's
    // host time by ±8% from seed to seed. The seed picks the axis seeds,
    // i.e. every point's traffic. Probes are short: the reps run all 56 of
    // them one after another.
    SplitMix fixed(kSweepPlacementSeed);
    scn = LocalScenario(std::string(kSweepName) + "_base", 8, 300, 600, 0, "",
                        mixed_be, fixed, options);
    std::ostringstream swp;
    swp << "sweep " << kSweepName << "\nbase " << kSweepName
        << "_base.scn\naxis seed";
    for (int i = 0; i < 8; ++i) swp << ' ' << rng.SpecSeed();
    swp << "\nsaturate rate 0.01 0.3 p99 150 iters 5\n";
    w.swp = swp.str();
  }
  if (!scn.ok()) return scn.status();
  w.scn = std::move(*scn);
  return w;
}

}  // namespace

const std::vector<std::string>& WorkloadNames() {
  static const std::vector<std::string> names = {
      "mesh16_mixed", "mesh16_gt_sparse", "mesh4_churn", "mesh8_observed",
      kSweepName};
  return names;
}

std::string Workload::ScnFile() const {
  return name + (IsSweep() ? "_base.scn" : ".scn");
}

std::string Workload::SwpFile() const { return name + ".swp"; }

Result<Workload> Generate(const std::string& name, std::uint64_t seed,
                          const GenOptions& options) {
  Status last;
  for (int attempt = 0; attempt < kMaxAttempts; ++attempt) {
    auto w = Compose(name, seed, attempt, options);
    if (!w.ok() &&
        w.status().code() != aethereal::StatusCode::kResourceExhausted) {
      return w.status();
    }
    if (w.ok()) {
      auto spec = aethereal::scenario::ParseScenario(w->scn);
      if (!spec.ok()) return spec.status();
      aethereal::scenario::ScenarioRunner runner(std::move(*spec));
      last = runner.Build();
      if (last.ok()) return w;
      if (last.code() != aethereal::StatusCode::kResourceExhausted) {
        return last;
      }
    } else {
      last = w.status();
    }
  }
  return Status(last.code(), name + " seed " + std::to_string(seed) +
                                 ": no feasible placement in " +
                                 std::to_string(kMaxAttempts) +
                                 " attempts: " + last.message());
}

Result<aethereal::sweep::SweepSpec> ParseWorkloadSweep(
    const Workload& workload) {
  return aethereal::sweep::ParseSweep(
      workload.swp,
      [&](const std::string& path)
          -> Result<aethereal::scenario::ScenarioSpec> {
        if (path != workload.ScnFile()) {
          return aethereal::NotFoundError("unknown base '" + path + "'");
        }
        return aethereal::scenario::ParseScenario(workload.scn);
      });
}

}  // namespace noc_bench
