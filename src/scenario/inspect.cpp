#include "scenario/inspect.h"

#include <algorithm>
#include <sstream>

#include "scenario/runner.h"
#include "util/rng.h"

namespace aethereal::scenario {

Result<Inspection> InspectScenario(const ScenarioSpec& spec, bool wire) {
  Inspection inspection;
  inspection.spec = spec;
  inspection.num_nis = spec.NumNis();

  // Mirror of ScenarioRunner::Build: one seeded master RNG, patterns
  // expanded in directive order, connids assigned per NI in flow order.
  // Phased scenarios provision the configuration plumbing first: one
  // channel per remote NI at the Cfg NI, a CNIP channel everywhere else.
  Rng rng(spec.seed);
  std::vector<int> next_connid(static_cast<std::size_t>(spec.NumNis()), 0);
  for (std::size_t n = 0; n < next_connid.size(); ++n) {
    next_connid[n] = spec.ConfigChannelsOf(static_cast<NiId>(n));
  }
  for (std::size_t g = 0; g < spec.traffic.size(); ++g) {
    auto flows = ExpandPattern(spec, spec.traffic[g], rng);
    if (!flows.ok()) {
      return Status(flows.status().code(),
                    "traffic directive " + std::to_string(g) + " (" +
                        PatternKindName(spec.traffic[g].pattern) +
                        "): " + flows.status().message());
    }
    for (const Flow& flow : *flows) {
      InspectedFlow inspected;
      inspected.group = static_cast<int>(g);
      inspected.flow = flow;
      inspected.src_connid = next_connid[static_cast<std::size_t>(flow.src)]++;
      inspected.dst_connid = next_connid[static_cast<std::size_t>(flow.dst)]++;
      inspection.flows.push_back(inspected);
    }
  }
  inspection.channels_per_ni.reserve(next_connid.size());
  for (int count : next_connid) {
    inspection.channels_per_ni.push_back(std::max(count, 1));
  }

  if (wire) {
    // The full Build catches what structure alone cannot: GT slot-table
    // exhaustion, channel/queue provisioning limits, path constraints.
    ScenarioRunner runner(spec);
    if (Status s = runner.Build(); !s.ok()) return s;
  }
  return inspection;
}

std::string Inspection::Describe() const {
  std::ostringstream os;
  os << "scenario " << spec.name << ": " << TopologyKindName(spec.topology)
     << "(" << spec.dim_a;
  if (spec.topology == TopologyKind::kMesh) os << "x" << spec.dim_b;
  if (spec.topology != TopologyKind::kStar) os << "x" << spec.nis_per_router;
  os << ") — " << num_nis << " NIs, stu " << spec.stu_slots << ", queues "
     << spec.queue_words << ", seed " << spec.seed << ", warmup "
     << spec.warmup << ", duration " << spec.TotalDuration() << ", engine "
     << sim::EngineKindName(spec.engine);
  if (spec.IpMhz() != spec.net_mhz) {
    os << ", ipmhz " << spec.IpMhz() << " (netmhz " << spec.net_mhz << ")";
  }
  os << "\n";
  if (spec.Phased()) {
    os << "  phased: " << spec.phases.size() << " phases, cfg ni "
       << spec.cfg_ni << " (config channels occupy the lowest connids), "
       << "drain bound " << spec.drain_cycles << "\n";
    for (std::size_t k = 0; k < spec.phases.size(); ++k) {
      const PhaseSpec& phase = spec.phases[k];
      os << "  phase " << k << " '" << phase.name << "' duration "
         << phase.duration;
      if (phase.warmup > 0) os << " warmup " << phase.warmup;
      os << " — groups:";
      for (std::size_t g = 0; g < spec.traffic.size(); ++g) {
        if (spec.traffic[g].phase == static_cast<int>(k)) {
          os << " g" << g
             << (spec.traffic[g].persist ? " (persist)" : "");
        }
      }
      os << "\n";
    }
  }
  for (int ni = 0; ni < num_nis; ++ni) {
    os << "  ni " << ni << ": "
       << channels_per_ni[static_cast<std::size_t>(ni)] << " channel"
       << (channels_per_ni[static_cast<std::size_t>(ni)] == 1 ? "" : "s")
       << "\n";
  }
  for (std::size_t g = 0; g < spec.traffic.size(); ++g) {
    const TrafficSpec& traffic = spec.traffic[g];
    os << "  g" << g << " " << PatternKindName(traffic.pattern) << " inject "
       << InjectKindName(traffic.inject);
    switch (traffic.inject) {
      case InjectKind::kPeriodic: os << " " << traffic.period; break;
      case InjectKind::kBernoulli: os << " " << traffic.rate; break;
      case InjectKind::kBursty:
        os << " " << traffic.burst_words << " " << traffic.gap_cycles;
        break;
      case InjectKind::kClosedLoop: break;
    }
    os << " qos " << (traffic.gt ? "gt " + std::to_string(traffic.gt_slots)
                                 : std::string("be"));
    std::size_t count = 0;
    for (const InspectedFlow& f : flows) {
      if (f.group == static_cast<int>(g)) ++count;
    }
    os << " — " << count << " flow" << (count == 1 ? "" : "s") << ":\n";
    for (const InspectedFlow& f : flows) {
      if (f.group != static_cast<int>(g)) continue;
      os << "    " << f.flow.src << " -> " << f.flow.dst << " (connids "
         << f.src_connid << " -> " << f.dst_connid << ")\n";
    }
  }
  return os.str();
}

}  // namespace aethereal::scenario
