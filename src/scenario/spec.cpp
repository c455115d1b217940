#include "scenario/spec.h"

#include <cctype>
#include <fstream>
#include <set>
#include <sstream>
#include <vector>

#include "core/registers.h"
#include "util/parse.h"

namespace aethereal::scenario {

const char* PatternKindName(PatternKind kind) {
  switch (kind) {
    case PatternKind::kUniform: return "uniform";
    case PatternKind::kTranspose: return "transpose";
    case PatternKind::kBitComplement: return "bitcomp";
    case PatternKind::kBitReversal: return "bitrev";
    case PatternKind::kNeighbor: return "neighbor";
    case PatternKind::kHotspot: return "hotspot";
    case PatternKind::kPairs: return "pairs";
    case PatternKind::kVideo: return "video";
    case PatternKind::kMemory: return "memory";
  }
  return "?";
}

const char* InjectKindName(InjectKind kind) {
  switch (kind) {
    case InjectKind::kPeriodic: return "periodic";
    case InjectKind::kBernoulli: return "bernoulli";
    case InjectKind::kBursty: return "bursty";
    case InjectKind::kClosedLoop: return "closed";
  }
  return "?";
}

const char* TopologyKindName(TopologyKind kind) {
  switch (kind) {
    case TopologyKind::kStar: return "star";
    case TopologyKind::kMesh: return "mesh";
    case TopologyKind::kRing: return "ring";
  }
  return "?";
}

int ScenarioSpec::NumNis() const {
  switch (topology) {
    case TopologyKind::kStar: return dim_a;
    case TopologyKind::kMesh: return dim_a * dim_b * nis_per_router;
    case TopologyKind::kRing: return dim_a * nis_per_router;
  }
  return 0;
}

int ScenarioSpec::ConfigChannelsOf(NiId ni) const {
  if (!Phased()) return 0;
  return ni == cfg_ni ? NumNis() - 1 : 1;
}

std::vector<PhaseSpec> ScenarioSpec::Windows() const {
  if (Phased()) return phases;
  PhaseSpec implicit;
  implicit.duration = duration;
  return {implicit};
}

Cycle ScenarioSpec::TotalDuration() const {
  Cycle total = 0;
  for (const PhaseSpec& window : Windows()) total += window.duration;
  return total;
}

namespace {

/// Parses the clause tail of a traffic directive, starting at token `at`.
Status ParseTrafficClauses(const SpecLine& line, std::size_t at,
                           TrafficSpec* traffic) {
  const auto& t = line.tokens;
  while (at < t.size()) {
    const std::string& clause = t[at];
    auto need = [&](std::size_t extra) -> Status {
      if (at + extra >= t.size()) {
        return line.Error("clause '" + clause + "' is missing arguments");
      }
      return OkStatus();
    };
    if (clause == "inject") {
      if (Status s = need(1); !s.ok()) return s;
      const std::string& kind = t[at + 1];
      if (kind == "periodic") {
        if (Status s = need(2); !s.ok()) return s;
        auto v = line.Int(t[at + 2]);
        if (!v.ok()) return v.status();
        if (*v < 1) return line.Error("period must be >= 1");
        if (*v > limits::kMaxPeriod) {
          return line.Error("period must be <= 2^30");
        }
        traffic->inject = InjectKind::kPeriodic;
        traffic->period = *v;
        at += 3;
      } else if (kind == "bernoulli") {
        if (Status s = need(2); !s.ok()) return s;
        auto v = line.Double(t[at + 2]);
        if (!v.ok()) return v.status();
        if (*v <= 0.0 || *v > 1.0) {
          return line.Error("rate must be in (0, 1]");
        }
        traffic->inject = InjectKind::kBernoulli;
        traffic->rate = *v;
        at += 3;
      } else if (kind == "bursty") {
        if (Status s = need(3); !s.ok()) return s;
        auto words = line.Int(t[at + 2]);
        auto gap = line.Int(t[at + 3]);
        if (!words.ok()) return words.status();
        if (!gap.ok()) return gap.status();
        if (*words < 1 || *gap < 0) {
          return line.Error("bursty needs WORDS >= 1, GAP >= 0");
        }
        if (*words > limits::kMaxBurstWords || *gap > limits::kMaxGapCycles) {
          return line.Error("bursty needs WORDS <= 2^20, GAP <= 2^30");
        }
        traffic->inject = InjectKind::kBursty;
        traffic->burst_words = *words;
        traffic->gap_cycles = *gap;
        at += 4;
      } else if (kind == "closed") {
        if (traffic->pattern != PatternKind::kMemory) {
          return line.Error("'inject closed' is memory-pattern only");
        }
        traffic->inject = InjectKind::kClosedLoop;
        at += 2;
      } else {
        return line.Error("unknown inject kind '" + kind + "'");
      }
    } else if (clause == "qos") {
      if (Status s = need(1); !s.ok()) return s;
      if (t[at + 1] == "be") {
        traffic->gt = false;
        traffic->gt_slots = 0;
        at += 2;
      } else if (t[at + 1] == "gt") {
        if (Status s = need(2); !s.ok()) return s;
        auto v = line.IntIn(t[at + 2], 1, limits::kMaxGtSlots);
        if (!v.ok()) return v.status();
        traffic->gt = true;
        traffic->gt_slots = static_cast<int>(*v);
        at += 3;
      } else {
        return line.Error("qos must be 'be' or 'gt SLOTS'");
      }
    } else if (clause == "data_threshold" || clause == "credit_threshold") {
      if (Status s = need(1); !s.ok()) return s;
      auto v = line.IntIn(t[at + 1], 1, 1 << 20);
      if (!v.ok()) return v.status();
      (clause[0] == 'd' ? traffic->data_threshold
                        : traffic->credit_threshold) = static_cast<int>(*v);
      at += 2;
    } else if (clause == "persist") {
      traffic->persist = true;
      at += 1;
    } else if (clause == "read_fraction") {
      if (traffic->pattern != PatternKind::kMemory) {
        return line.Error("'read_fraction' is memory-only");
      }
      if (Status s = need(1); !s.ok()) return s;
      auto v = line.Double(t[at + 1]);
      if (!v.ok()) return v.status();
      if (*v < 0.0 || *v > 1.0) {
        return line.Error("read_fraction must be in [0, 1]");
      }
      traffic->read_fraction = *v;
      at += 2;
    } else if (clause == "burst") {
      if (traffic->pattern != PatternKind::kMemory) {
        return line.Error("'burst' is memory-only");
      }
      if (Status s = need(1); !s.ok()) return s;
      // Transport ceiling: a write request is 2 header words + payload and
      // must fit the master shell's 64-word sequentializer staging, so
      // bursts above 62 words could never be issued (silent zero traffic).
      auto v = line.IntIn(t[at + 1], 1, 62);
      if (!v.ok()) return v.status();
      traffic->mem_burst_words = static_cast<int>(*v);
      at += 2;
    } else {
      return line.Error("unknown clause '" + clause + "'");
    }
  }
  return OkStatus();
}

/// Consumes leading NI-id tokens (for hotspot/pairs/video/memory) until a
/// clause keyword appears.
Result<std::size_t> ParseNiList(const SpecLine& line, std::size_t at,
                                std::vector<NiId>* out) {
  const auto& t = line.tokens;
  while (at < t.size() &&
         (std::isdigit(static_cast<unsigned char>(t[at][0])) != 0 ||
          t[at][0] == '-')) {
    auto v = line.IntIn(t[at], 0, limits::kMaxNis);
    if (!v.ok()) return v.status();
    out->push_back(static_cast<NiId>(*v));
    ++at;
  }
  return at;
}

Status ParseTraffic(const SpecLine& line, ScenarioSpec* spec,
                    int current_phase) {
  if (line.tokens.size() < 2) {
    return line.Error("traffic <pattern> [args] [clauses]");
  }
  TrafficSpec traffic;
  traffic.phase = current_phase;
  traffic.line = line.number;
  const std::string& pattern = line.tokens[1];
  std::size_t at = 2;
  if (pattern == "uniform") {
    traffic.pattern = PatternKind::kUniform;
  } else if (pattern == "transpose") {
    traffic.pattern = PatternKind::kTranspose;
  } else if (pattern == "bitcomp") {
    traffic.pattern = PatternKind::kBitComplement;
  } else if (pattern == "bitrev") {
    traffic.pattern = PatternKind::kBitReversal;
  } else if (pattern == "neighbor") {
    traffic.pattern = PatternKind::kNeighbor;
  } else if (pattern == "hotspot") {
    traffic.pattern = PatternKind::kHotspot;
    std::vector<NiId> ids;
    auto next = ParseNiList(line, at, &ids);
    if (!next.ok()) return next.status();
    if (ids.size() != 1) {
      return line.Error("hotspot needs exactly one target NI");
    }
    traffic.hotspot = ids[0];
    at = *next;
  } else if (pattern == "pairs") {
    traffic.pattern = PatternKind::kPairs;
    auto next = ParseNiList(line, at, &traffic.nis);
    if (!next.ok()) return next.status();
    if (traffic.nis.empty() || traffic.nis.size() % 2 != 0) {
      return line.Error("pairs needs an even NI-id list");
    }
    at = *next;
  } else if (pattern == "video") {
    traffic.pattern = PatternKind::kVideo;
    auto next = ParseNiList(line, at, &traffic.nis);
    if (!next.ok()) return next.status();
    if (traffic.nis.size() < 2) {
      return line.Error("video needs a chain of >= 2 NIs");
    }
    at = *next;
  } else if (pattern == "memory") {
    traffic.pattern = PatternKind::kMemory;
    auto next = ParseNiList(line, at, &traffic.nis);
    if (!next.ok()) return next.status();
    if (traffic.nis.size() != 2) {
      return line.Error("memory needs <master_ni> <slave_ni>");
    }
    at = *next;
  } else {
    return line.Error("unknown pattern '" + pattern + "'");
  }
  // ('inject closed' outside memory is already rejected clause-side, where
  // the pattern is known.)
  if (Status s = ParseTrafficClauses(line, at, &traffic); !s.ok()) return s;
  if (traffic.pattern == PatternKind::kMemory &&
      traffic.inject == InjectKind::kBursty) {
    return line.Error("memory traffic supports periodic/bernoulli/closed");
  }
  if (traffic.persist && current_phase < 0) {
    return line.Error("'persist' needs a phase block");
  }
  if (current_phase >= 0 &&
      (traffic.data_threshold != 1 || traffic.credit_threshold != 1)) {
    return line.Error(
        "phased directives require data_threshold 1 and "
        "credit_threshold 1 (a closing channel must be able "
        "to drain completely)");
  }
  spec->traffic.push_back(std::move(traffic));
  return OkStatus();
}

}  // namespace

Result<ScenarioSpec> ParseScenario(const std::string& text) {
  ScenarioSpec spec;
  bool have_noc = false;
  bool have_duration = false;
  int cfgni_line = 0;  // 0: directive absent
  int drain_line = 0;
  int current_phase = -1;
  bool in_fault = false;
  int fault_line = 0;
  // Every scalar directive may appear at most once: a duplicate almost
  // always means a copy-paste error, and silently keeping the later value
  // would make the earlier line a lie.
  std::set<std::string> seen;
  for (const SpecLine& line : TokenizeSpec(text)) {
    const std::string& kind = line.tokens[0];
    // Inside a `fault` block every line belongs to the fault grammar, so
    // its directive names (seed, link, ...) never collide with the
    // scenario-level ones.
    if (in_fault) {
      if (kind == "end") {
        if (line.tokens.size() != 1) {
          return line.Error("'end' takes no arguments");
        }
        in_fault = false;
        continue;
      }
      if (Status s = fault::ApplyFaultDirective(line.tokens, &*spec.fault);
          !s.ok()) {
        return line.Error(s.message());
      }
      continue;
    }
    if (kind != "traffic" && kind != "noc" && kind != "phase" &&
        !seen.insert(kind).second) {
      return line.Error("duplicate '" + kind + "' directive");
    }
    auto int_arg = [&]() -> Result<std::int64_t> {
      if (line.tokens.size() != 2) {
        return line.Error("'" + kind + "' takes one argument");
      }
      return line.Int(line.tokens[1]);
    };
    if (kind == "scenario") {
      if (line.tokens.size() != 2) {
        return line.Error("scenario <name>");
      }
      spec.name = line.tokens[1];
    } else if (kind == "noc") {
      if (have_noc) return line.Error("duplicate 'noc'");
      if (line.tokens.size() < 3) {
        return line.Error("noc <star|mesh|ring> <dims...>");
      }
      if (line.tokens[1] == "star") {
        if (line.tokens.size() != 3) {
          return line.Error("noc star NIS");
        }
        auto n = line.Int(line.tokens[2]);
        if (!n.ok()) return n.status();
        if (*n < 1 || *n > limits::kMaxNis) {
          return line.Error(
              "star needs 1.." + std::to_string(limits::kMaxNis) + " NIs");
        }
        spec.topology = TopologyKind::kStar;
        spec.dim_a = static_cast<int>(*n);
      } else if (line.tokens[1] == "mesh") {
        if (line.tokens.size() != 5) {
          return line.Error("noc mesh ROWS COLS NIS_PER_ROUTER");
        }
        // Per-dimension bounds first, so the product below cannot overflow.
        auto rows = line.IntIn(line.tokens[2], 1, limits::kMaxNis);
        auto cols = line.IntIn(line.tokens[3], 1, limits::kMaxNis);
        auto nis = line.IntIn(line.tokens[4], 1, limits::kMaxNis);
        if (!rows.ok()) return rows.status();
        if (!cols.ok()) return cols.status();
        if (!nis.ok()) return nis.status();
        if (*rows * *cols * *nis > limits::kMaxNis) {
          return line.Error(
              "mesh gives at most " + std::to_string(limits::kMaxNis) + " NIs");
        }
        spec.topology = TopologyKind::kMesh;
        spec.dim_a = static_cast<int>(*rows);
        spec.dim_b = static_cast<int>(*cols);
        spec.nis_per_router = static_cast<int>(*nis);
      } else if (line.tokens[1] == "ring") {
        if (line.tokens.size() != 4) {
          return line.Error("noc ring ROUTERS NIS_PER_ROUTER");
        }
        // Per-dimension bounds first, so the product below cannot overflow.
        auto routers = line.IntIn(line.tokens[2], 3, limits::kMaxNis);
        auto nis = line.IntIn(line.tokens[3], 1, limits::kMaxNis);
        if (!routers.ok()) return routers.status();
        if (!nis.ok()) return nis.status();
        if (*routers * *nis > limits::kMaxNis) {
          return line.Error(
              "ring gives at most " + std::to_string(limits::kMaxNis) + " NIs");
        }
        spec.topology = TopologyKind::kRing;
        spec.dim_a = static_cast<int>(*routers);
        spec.nis_per_router = static_cast<int>(*nis);
      } else {
        return line.Error("unknown topology '" + line.tokens[1] + "'");
      }
      have_noc = true;
    } else if (kind == "stu") {
      auto v = int_arg();
      if (!v.ok()) return v.status();
      // The NI's SLOTS register is a 32-bit mask, so kMaxStuSlots is a
      // hard hardware limit; values beyond it previously aborted deep in
      // the NI kernel instead of failing here.
      if (*v < 1 || *v > core::regs::kMaxStuSlots) {
        return line.Error(
            "stu must be in [1, " +
            std::to_string(core::regs::kMaxStuSlots) + "]");
      }
      spec.stu_slots = static_cast<int>(*v);
    } else if (kind == "netmhz" || kind == "ipmhz") {
      auto v = int_arg();
      if (!v.ok()) return v.status();
      if (*v < 1 || *v > limits::kMaxMhz) {
        return line.Error(kind + " must be in [1, " +
                          std::to_string(limits::kMaxMhz) + "]");
      }
      const double mhz = static_cast<double>(*v);
      if (kind == "netmhz") {
        spec.net_mhz = mhz;
      } else {
        spec.ip_mhz = mhz;
      }
    } else if (kind == "queues") {
      auto v = int_arg();
      if (!v.ok()) return v.status();
      if (*v < 1 || *v > limits::kMaxQueueWords) {
        return line.Error("queues must be in [1, 1048576]");
      }
      spec.queue_words = static_cast<int>(*v);
    } else if (kind == "seed") {
      auto v = int_arg();
      if (!v.ok()) return v.status();
      // Reproducibility-critical: a negative seed must fail loudly, not
      // silently wrap (mirrors the noc_sim --seed check).
      if (*v < 0) return line.Error("seed must be >= 0");
      spec.seed = static_cast<std::uint64_t>(*v);
    } else if (kind == "warmup") {
      auto v = int_arg();
      if (!v.ok()) return v.status();
      // ~12 days of 1 GHz simulation — anything beyond this is a typo,
      // and the bound keeps warmup + duration far from Cycle overflow.
      if (*v < 0 || *v > kMaxCycles) {
        return line.Error("warmup must be in [0, 2^40]");
      }
      spec.warmup = *v;
    } else if (kind == "duration") {
      if (!spec.phases.empty()) {
        return line.Error(
            "phased scenarios take per-phase durations; drop "
            "the scenario-level 'duration'");
      }
      auto v = int_arg();
      if (!v.ok()) return v.status();
      if (*v < 1 || *v > kMaxCycles) {
        return line.Error("duration must be in [1, 2^40]");
      }
      spec.duration = *v;
      have_duration = true;
    } else if (kind == "phase") {
      if (line.tokens.size() != 4 && line.tokens.size() != 6) {
        return line.Error("phase <name> duration <cycles> [warmup <cycles>]");
      }
      if (have_duration) {
        return line.Error(
            "phased scenarios take per-phase durations; drop "
            "the scenario-level 'duration'");
      }
      if (spec.phases.size() >= 64) {
        return line.Error("at most 64 phases");
      }
      PhaseSpec phase;
      phase.name = line.tokens[1];
      phase.line = line.number;
      for (const PhaseSpec& earlier : spec.phases) {
        if (earlier.name == phase.name) {
          return line.Error("duplicate phase name '" + phase.name + "'");
        }
      }
      if (line.tokens[2] != "duration") {
        return line.Error("phase <name> duration <cycles> [warmup <cycles>]");
      }
      auto d = line.IntIn(line.tokens[3], 1, kMaxCycles);
      if (!d.ok()) return d.status();
      phase.duration = *d;
      if (line.tokens.size() == 6) {
        if (line.tokens[4] != "warmup") {
          return line.Error("expected 'warmup <cycles>'");
        }
        auto w = line.IntIn(line.tokens[5], 0, kMaxCycles);
        if (!w.ok()) return w.status();
        phase.warmup = *w;
      }
      current_phase = static_cast<int>(spec.phases.size());
      spec.phases.push_back(std::move(phase));
    } else if (kind == "cfgni") {
      auto v = int_arg();
      if (!v.ok()) return v.status();
      if (*v < 0 || *v > limits::kMaxNis) {
        return line.Error("cfgni must be a valid NI id");
      }
      spec.cfg_ni = static_cast<NiId>(*v);
      cfgni_line = line.number;
    } else if (kind == "drain") {
      auto v = int_arg();
      if (!v.ok()) return v.status();
      if (*v < 1 || *v > kMaxCycles) {
        return line.Error("drain must be in [1, 2^40]");
      }
      spec.drain_cycles = *v;
      drain_line = line.number;
    } else if (kind == "engine") {
      const std::optional<sim::EngineKind> parsed =
          line.tokens.size() == 2 ? sim::ParseEngineKind(line.tokens[1])
                                  : std::nullopt;
      if (!parsed.has_value()) {
        return line.Error(std::string("engine <") +
                          sim::kEngineKindChoices + ">");
      }
      spec.engine = *parsed;
    } else if (kind == "verify") {
      if (line.tokens.size() != 2 ||
          (line.tokens[1] != "on" && line.tokens[1] != "off")) {
        return line.Error("verify <on|off>");
      }
      spec.verify = line.tokens[1] == "on";
    } else if (kind == "converge") {
      // converge rel_err E [conf C] [max_duration D] [interval I]
      //          [batches B] — key-value clauses in any order; rel_err is
      // mandatory (a stopping rule without a target is meaningless).
      if (line.tokens.size() < 3 || line.tokens.size() % 2 == 0) {
        return line.Error(
            "converge rel_err <frac> [conf <frac>] "
            "[max_duration <cycles>] [interval <cycles>] "
            "[batches <n>]");
      }
      bool have_rel_err = false;
      for (std::size_t at = 1; at + 1 < line.tokens.size(); at += 2) {
        const std::string& key = line.tokens[at];
        const std::string& val = line.tokens[at + 1];
        if (key == "rel_err") {
          auto v = line.Double(val);
          if (!v.ok()) return v.status();
          if (*v <= 0.0 || *v >= 1.0) {
            return line.Error("rel_err must be in (0, 1)");
          }
          spec.converge.rel_err = *v;
          have_rel_err = true;
        } else if (key == "conf") {
          auto v = line.Double(val);
          if (!v.ok()) return v.status();
          if (*v <= 0.5 || *v >= 1.0) {
            return line.Error("conf must be in (0.5, 1)");
          }
          spec.converge.conf = *v;
        } else if (key == "max_duration") {
          auto v = line.IntIn(val, 1, kMaxCycles);
          if (!v.ok()) return v.status();
          spec.converge.max_duration = *v;
        } else if (key == "interval") {
          // A check interval shorter than one slot could never close a
          // new sample window.
          auto v = line.IntIn(val, kFlitWords, kMaxCycles);
          if (!v.ok()) return v.status();
          spec.converge.interval = *v;
        } else if (key == "batches") {
          auto v = line.IntIn(val, 2, 4096);
          if (!v.ok()) return v.status();
          spec.converge.batches = static_cast<int>(*v);
        } else {
          return line.Error("unknown converge clause '" + key + "'");
        }
      }
      if (!have_rel_err) {
        return line.Error("converge requires 'rel_err <frac>'");
      }
      spec.converge.enabled = true;
    } else if (kind == "stats") {
      if (line.tokens.size() != 3 || line.tokens[1] != "sample_every") {
        return line.Error("stats sample_every <cycles>");
      }
      // Windows close at slot boundaries (the wire-transfer granularity),
      // so a window shorter than one slot could never hold a sample.
      auto v = line.IntIn(line.tokens[2], kFlitWords, kMaxCycles);
      if (!v.ok()) return v.status();
      spec.obs.sample_every = *v;
    } else if (kind == "trace") {
      if (line.tokens.size() != 2 && line.tokens.size() != 4) {
        return line.Error("trace <file> [cap <events>]");
      }
      spec.obs.trace_path = line.tokens[1];
      if (line.tokens.size() == 4) {
        if (line.tokens[2] != "cap") {
          return line.Error("expected 'cap <events>'");
        }
        auto v = line.IntIn(line.tokens[3], 1, std::int64_t{1} << 30);
        if (!v.ok()) return v.status();
        spec.obs.trace_cap = *v;
      }
    } else if (kind == "fault") {
      if (line.tokens.size() != 1) {
        return line.Error(
            "'fault' opens a block; directives go on the "
            "following lines, closed with 'end'");
      }
      if (spec.fault.has_value()) {
        return line.Error("duplicate 'fault' block");
      }
      spec.fault.emplace();
      in_fault = true;
      fault_line = line.number;
    } else if (kind == "traffic") {
      if (!have_noc) {
        return line.Error("'noc' must come before 'traffic'");
      }
      if (Status s = ParseTraffic(line, &spec, current_phase); !s.ok()) {
        return s;
      }
    } else {
      return line.Error("unknown directive '" + kind + "'");
    }
  }
  if (in_fault) {
    return LineError(fault_line, "'fault' block is never closed with 'end'");
  }
  if (!have_noc) return InvalidArgumentError("scenario has no 'noc' line");
  if (spec.traffic.empty()) {
    return InvalidArgumentError("scenario has no 'traffic' directives");
  }
  if (spec.Phased()) {
    for (const TrafficSpec& traffic : spec.traffic) {
      if (traffic.phase < 0) {
        return LineError(traffic.line,
                          "phased scenario has a traffic directive before "
                          "the first 'phase' block");
      }
    }
    if (spec.cfg_ni >= spec.NumNis()) {
      return LineError(cfgni_line,
                        "cfgni " + std::to_string(spec.cfg_ni) +
                            " is off the topology (" +
                            std::to_string(spec.NumNis()) + " NIs)");
    }
    // Every phase window must observe at least one flow — its own
    // directives or a persistent one from an earlier phase.
    for (std::size_t k = 0; k < spec.phases.size(); ++k) {
      bool active = false;
      for (const TrafficSpec& traffic : spec.traffic) {
        if (traffic.ActiveIn(static_cast<int>(k))) {
          active = true;
          break;
        }
      }
      if (!active) {
        return LineError(spec.phases[k].line,
                          "phase '" + spec.phases[k].name +
                              "' has no active traffic directive");
      }
    }
  } else {
    if (cfgni_line != 0 || drain_line != 0) {
      return LineError(cfgni_line != 0 ? cfgni_line : drain_line,
                        std::string(cfgni_line != 0 ? "'cfgni'" : "'drain'") +
                            " applies to phased scenarios only");
    }
    if (spec.fault.has_value() &&
        (spec.fault->AnyConfigFaults() || spec.fault->retry.enabled)) {
      return LineError(fault_line,
                        "config faults and the retry policy act on the "
                        "runtime configuration protocol, which only phased "
                        "scenarios exercise");
    }
  }
  return spec;
}

Result<ScenarioSpec> LoadScenarioFile(const std::string& path) {
  std::ifstream in(path);
  if (!in.good()) return NotFoundError("cannot open '" + path + "'");
  std::ostringstream text;
  text << in.rdbuf();
  auto spec = ParseScenario(text.str());
  if (!spec.ok()) {
    return Status(spec.status().code(), path + ": " + spec.status().message());
  }
  return spec;
}

}  // namespace aethereal::scenario
