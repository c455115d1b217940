#include "scenario/patterns.h"

#include <string>

#include "util/check.h"

namespace aethereal::scenario {

namespace {

bool IsPowerOfTwo(int n) { return n > 0 && (n & (n - 1)) == 0; }

int Log2(int n) {
  int bits = 0;
  while ((1 << bits) < n) ++bits;
  return bits;
}

Status CheckNi(const ScenarioSpec& spec, NiId ni, const char* what) {
  if (ni < 0 || ni >= spec.NumNis()) {
    return InvalidArgumentError(std::string(what) + " NI " +
                                std::to_string(ni) + " out of range [0, " +
                                std::to_string(spec.NumNis()) + ")");
  }
  return OkStatus();
}

}  // namespace

std::vector<NiId> UniformPartners(int num_nis, Rng& rng) {
  std::vector<NiId> partners(static_cast<std::size_t>(num_nis));
  for (int i = 0; i < num_nis; ++i) partners[static_cast<std::size_t>(i)] = i;
  // Fisher-Yates with the deterministic xoshiro stream.
  for (int i = num_nis - 1; i > 0; --i) {
    const auto j = static_cast<std::size_t>(
        rng.NextBelow(static_cast<std::uint64_t>(i) + 1));
    std::swap(partners[static_cast<std::size_t>(i)], partners[j]);
  }
  // Displace fixed points so every NI has a remote partner. Swapping a
  // fixed point with its cyclic successor never creates a new one (a
  // permutation cannot map two positions to the same id).
  if (num_nis > 1) {
    for (int i = 0; i < num_nis; ++i) {
      const auto si = static_cast<std::size_t>(i);
      if (partners[si] == i) {
        std::swap(partners[si],
                  partners[static_cast<std::size_t>((i + 1) % num_nis)]);
      }
    }
  }
  return partners;
}

Result<std::vector<Flow>> ExpandPattern(const ScenarioSpec& spec,
                                        const TrafficSpec& traffic, Rng& rng) {
  const int n = spec.NumNis();
  std::vector<Flow> flows;
  switch (traffic.pattern) {
    case PatternKind::kUniform: {
      if (n < 2) return InvalidArgumentError("uniform needs >= 2 NIs");
      const std::vector<NiId> partners = UniformPartners(n, rng);
      for (int i = 0; i < n; ++i) {
        flows.push_back(Flow{i, partners[static_cast<std::size_t>(i)]});
      }
      break;
    }
    case PatternKind::kTranspose: {
      if (spec.topology != TopologyKind::kMesh || spec.dim_a != spec.dim_b) {
        return InvalidArgumentError("transpose needs a square mesh");
      }
      const int side = spec.dim_a;
      const int per = spec.nis_per_router;
      for (int r = 0; r < side; ++r) {
        for (int c = 0; c < side; ++c) {
          if (r == c) continue;  // diagonal maps to itself
          for (int local = 0; local < per; ++local) {
            const NiId src = (r * side + c) * per + local;
            const NiId dst = (c * side + r) * per + local;
            flows.push_back(Flow{src, dst});
          }
        }
      }
      break;
    }
    case PatternKind::kBitComplement: {
      if (!IsPowerOfTwo(n) || n < 2) {
        return InvalidArgumentError(
            "bitcomp needs a power-of-two NI count >= 2");
      }
      for (int i = 0; i < n; ++i) flows.push_back(Flow{i, (n - 1) & ~i});
      break;
    }
    case PatternKind::kBitReversal: {
      if (!IsPowerOfTwo(n) || n < 2) {
        return InvalidArgumentError(
            "bitrev needs a power-of-two NI count >= 2");
      }
      const int bits = Log2(n);
      for (int i = 0; i < n; ++i) {
        int rev = 0;
        for (int b = 0; b < bits; ++b) {
          if ((i >> b) & 1) rev |= 1 << (bits - 1 - b);
        }
        if (rev == i) continue;  // palindromic index
        flows.push_back(Flow{i, rev});
      }
      break;
    }
    case PatternKind::kNeighbor: {
      if (n < 2) return InvalidArgumentError("neighbor needs >= 2 NIs");
      for (int i = 0; i < n; ++i) flows.push_back(Flow{i, (i + 1) % n});
      break;
    }
    case PatternKind::kHotspot: {
      if (Status s = CheckNi(spec, traffic.hotspot, "hotspot"); !s.ok()) {
        return s;
      }
      if (n < 2) return InvalidArgumentError("hotspot needs >= 2 NIs");
      for (int i = 0; i < n; ++i) {
        if (i == traffic.hotspot) continue;
        flows.push_back(Flow{i, traffic.hotspot});
      }
      break;
    }
    case PatternKind::kPairs: {
      for (std::size_t i = 0; i + 1 < traffic.nis.size(); i += 2) {
        const Flow flow{traffic.nis[i], traffic.nis[i + 1]};
        if (Status s = CheckNi(spec, flow.src, "pairs"); !s.ok()) return s;
        if (Status s = CheckNi(spec, flow.dst, "pairs"); !s.ok()) return s;
        if (flow.src == flow.dst) {
          return InvalidArgumentError("pairs flow " + std::to_string(flow.src) +
                                      "->" + std::to_string(flow.dst) +
                                      " is a self-loop");
        }
        flows.push_back(flow);
      }
      break;
    }
    case PatternKind::kVideo: {
      if (traffic.nis.size() < 2) {
        return InvalidArgumentError("video needs a chain of >= 2 NIs");
      }
      for (std::size_t i = 0; i + 1 < traffic.nis.size(); ++i) {
        const Flow hop{traffic.nis[i], traffic.nis[i + 1]};
        if (Status s = CheckNi(spec, hop.src, "video"); !s.ok()) return s;
        if (Status s = CheckNi(spec, hop.dst, "video"); !s.ok()) return s;
        if (hop.src == hop.dst) {
          return InvalidArgumentError("video chain repeats NI " +
                                      std::to_string(hop.src));
        }
        flows.push_back(hop);
      }
      break;
    }
    case PatternKind::kMemory: {
      if (traffic.nis.size() != 2) {
        return InvalidArgumentError("memory needs exactly {master, slave}");
      }
      const Flow flow{traffic.nis[0], traffic.nis[1]};
      if (Status s = CheckNi(spec, flow.src, "memory master"); !s.ok()) {
        return s;
      }
      if (Status s = CheckNi(spec, flow.dst, "memory slave"); !s.ok()) {
        return s;
      }
      if (flow.src == flow.dst) {
        return InvalidArgumentError("memory master and slave must differ");
      }
      flows.push_back(flow);
      break;
    }
  }
  return flows;
}

ip::Injection StreamInjection(const TrafficSpec& traffic, Rng& rng) {
  ip::Injection injection;
  switch (traffic.inject) {
    case InjectKind::kPeriodic:
      injection.period = traffic.period;
      break;
    case InjectKind::kBernoulli:
      injection.rate = traffic.rate;
      break;
    case InjectKind::kBursty:
      // The burst occupies burst_words cycles on the port, then the line
      // goes idle for gap_cycles.
      injection.period = traffic.burst_words + traffic.gap_cycles;
      injection.words = traffic.burst_words;
      break;
    case InjectKind::kClosedLoop:
      AETHEREAL_CHECK_MSG(false, "closed-loop traffic has no stream source");
  }
  // Seeded phase offset: flows of one pattern must not inject in lockstep,
  // or the arbiter would see an artificial synchronized burst every period.
  injection.phase =
      injection.rate > 0
          ? GeometricGap(injection.rate).Draw(rng)
          : static_cast<Cycle>(
                rng.NextBelow(static_cast<std::uint64_t>(injection.period)));
  return injection;
}

}  // namespace aethereal::scenario
