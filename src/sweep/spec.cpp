#include "sweep/spec.h"

#include <cctype>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <utility>

#include "core/registers.h"
#include "scenario/patterns.h"
#include "util/json.h"
#include "util/parse.h"
#include "util/rng.h"

namespace aethereal::sweep {

using scenario::InjectKind;
using scenario::ScenarioSpec;
using scenario::TrafficSpec;
namespace limits = scenario::limits;

bool ParamRef::IsTrafficKey() const {
  switch (key) {
    case Key::kRate:
    case Key::kPeriod:
    case Key::kBurst:
    case Key::kGtSlots:
    case Key::kQos:
      return true;
    default:
      return false;
  }
}

namespace {

const char* KeyName(ParamRef::Key key) {
  switch (key) {
    case ParamRef::Key::kStu: return "stu";
    case ParamRef::Key::kQueues: return "queues";
    case ParamRef::Key::kSeed: return "seed";
    case ParamRef::Key::kWarmup: return "warmup";
    case ParamRef::Key::kDuration: return "duration";
    case ParamRef::Key::kNetMhz: return "netmhz";
    case ParamRef::Key::kNoc: return "noc";
    case ParamRef::Key::kEngine: return "engine";
    case ParamRef::Key::kRate: return "rate";
    case ParamRef::Key::kPeriod: return "period";
    case ParamRef::Key::kBurst: return "burst";
    case ParamRef::Key::kGtSlots: return "gtslots";
    case ParamRef::Key::kQos: return "qos";
    case ParamRef::Key::kFaultSeed: return "fault.seed";
    case ParamRef::Key::kFaultCorrupt: return "fault.corrupt";
    case ParamRef::Key::kFaultDrop: return "fault.drop";
    case ParamRef::Key::kFaultCfgDrop: return "fault.cfgdrop";
  }
  return "?";
}

constexpr ParamRef::Key kAllKeys[] = {
    ParamRef::Key::kStu,     ParamRef::Key::kQueues,
    ParamRef::Key::kSeed,    ParamRef::Key::kWarmup,
    ParamRef::Key::kDuration, ParamRef::Key::kNetMhz,
    ParamRef::Key::kNoc,     ParamRef::Key::kEngine,
    ParamRef::Key::kRate,    ParamRef::Key::kPeriod,
    ParamRef::Key::kBurst,   ParamRef::Key::kGtSlots,
    ParamRef::Key::kQos,
    ParamRef::Key::kFaultSeed, ParamRef::Key::kFaultCorrupt,
    ParamRef::Key::kFaultDrop, ParamRef::Key::kFaultCfgDrop,
};

/// Applies a "noc" axis value: star7, mesh4x4x1, ring6x1.
Status ApplyNoc(const std::string& value, ScenarioSpec* spec) {
  std::size_t at = 0;
  while (at < value.size() &&
         std::isalpha(static_cast<unsigned char>(value[at])) != 0) {
    ++at;
  }
  const std::string kind = value.substr(0, at);
  std::vector<std::int64_t> dims;
  std::string token;
  for (std::size_t i = at; i <= value.size(); ++i) {
    if (i == value.size() || value[i] == 'x') {
      auto v = ParseInt64In(token, 1, limits::kMaxNis);
      if (!v.ok()) {
        return InvalidArgumentError("noc '" + value +
                                    "': " + v.status().message());
      }
      dims.push_back(*v);
      token.clear();
    } else {
      token += value[i];
    }
  }
  if (kind == "star" && dims.size() == 1) {
    spec->topology = scenario::TopologyKind::kStar;
    spec->dim_a = static_cast<int>(dims[0]);
    spec->dim_b = 1;
    spec->nis_per_router = 1;
  } else if (kind == "mesh" && dims.size() == 3) {
    if (dims[0] * dims[1] * dims[2] > limits::kMaxNis) {
      return InvalidArgumentError("noc '" + value + "': more than " +
                                  std::to_string(limits::kMaxNis) + " NIs");
    }
    spec->topology = scenario::TopologyKind::kMesh;
    spec->dim_a = static_cast<int>(dims[0]);
    spec->dim_b = static_cast<int>(dims[1]);
    spec->nis_per_router = static_cast<int>(dims[2]);
  } else if (kind == "ring" && dims.size() == 2) {
    if (dims[0] < 3) {
      return InvalidArgumentError("noc '" + value + "': ring needs >= 3 routers");
    }
    if (dims[0] * dims[1] > limits::kMaxNis) {
      return InvalidArgumentError("noc '" + value + "': more than " +
                                  std::to_string(limits::kMaxNis) + " NIs");
    }
    spec->topology = scenario::TopologyKind::kRing;
    spec->dim_a = static_cast<int>(dims[0]);
    spec->dim_b = 1;
    spec->nis_per_router = static_cast<int>(dims[1]);
  } else {
    return InvalidArgumentError(
        "noc value must be starN, meshRxCxN, or ringRxN, got '" + value +
        "'");
  }
  if (spec->Phased() && spec->cfg_ni >= spec->NumNis()) {
    return InvalidArgumentError("noc '" + value + "': cfgni " +
                                std::to_string(spec->cfg_ni) +
                                " is off the new topology");
  }
  return OkStatus();
}

/// Visits the traffic directives a traffic-level param targets: the
/// scoped one, or every directive `matches` accepts. Fails when nothing
/// matches, so a sweep never silently leaves the workload unchanged.
Status ForEachTarget(const ParamRef& param, ScenarioSpec* spec,
                     const std::function<bool(const TrafficSpec&)>& matches,
                     const std::function<void(TrafficSpec*)>& apply,
                     const std::string& wants) {
  if (param.group >= 0) {
    if (static_cast<std::size_t>(param.group) >= spec->traffic.size()) {
      return InvalidArgumentError(
          param.Name() + ": base scenario has " +
          std::to_string(spec->traffic.size()) + " traffic directives");
    }
    TrafficSpec* traffic = &spec->traffic[static_cast<std::size_t>(param.group)];
    if (!matches(*traffic)) {
      return InvalidArgumentError(param.Name() + ": directive g" +
                                  std::to_string(param.group) + " is not " +
                                  wants);
    }
    apply(traffic);
    return OkStatus();
  }
  bool any = false;
  for (TrafficSpec& traffic : spec->traffic) {
    if (matches(traffic)) {
      apply(&traffic);
      any = true;
    }
  }
  if (!any) {
    return InvalidArgumentError("'" + param.Name() +
                                "': no traffic directive is " + wants);
  }
  return OkStatus();
}

}  // namespace

std::string ParamRef::Name() const {
  std::string name;
  if (group >= 0) name = "g" + std::to_string(group) + ".";
  if (phase >= 0) name = "p" + std::to_string(phase) + ".";
  name += KeyName(key);
  return name;
}

Result<ParamRef> ParseParamRef(const std::string& token) {
  ParamRef param;
  std::string key = token;
  if (token.size() >= 2 && token[0] == 'g' &&
      std::isdigit(static_cast<unsigned char>(token[1])) != 0) {
    const auto dot = token.find('.');
    if (dot != std::string::npos) {
      auto group = ParseInt64In(token.substr(1, dot - 1), 0, 4096);
      if (!group.ok()) return group.status();
      param.group = static_cast<int>(*group);
      key = token.substr(dot + 1);
    }
  } else if (token.size() >= 2 && token[0] == 'p' &&
             std::isdigit(static_cast<unsigned char>(token[1])) != 0) {
    const auto dot = token.find('.');
    if (dot != std::string::npos) {
      auto phase = ParseInt64In(token.substr(1, dot - 1), 0, 64);
      if (!phase.ok()) return phase.status();
      param.phase = static_cast<int>(*phase);
      key = token.substr(dot + 1);
    }
  }
  for (ParamRef::Key candidate : kAllKeys) {
    if (key == KeyName(candidate)) {
      param.key = candidate;
      if (param.group >= 0 && !param.IsTrafficKey()) {
        return InvalidArgumentError("'" + key +
                                    "' is scenario-level; it cannot be "
                                    "scoped to a traffic directive");
      }
      if (param.phase >= 0 && candidate != ParamRef::Key::kDuration &&
          candidate != ParamRef::Key::kWarmup) {
        return InvalidArgumentError(
            "only duration/warmup can be scoped to a phase, not '" + key +
            "'");
      }
      return param;
    }
  }
  return InvalidArgumentError("unknown sweep parameter '" + token + "'");
}

Status ApplyParam(const ParamRef& param, const std::string& value,
                  ScenarioSpec* spec) {
  if (param.phase >= 0 &&
      static_cast<std::size_t>(param.phase) >= spec->phases.size()) {
    return InvalidArgumentError(param.Name() + ": base scenario has " +
                                std::to_string(spec->phases.size()) +
                                " phases");
  }
  switch (param.key) {
    case ParamRef::Key::kStu: {
      // Mirrors the scenario parser: the SLOTS register is a 32-bit mask.
      auto v = ParseInt64In(value, 1, core::regs::kMaxStuSlots);
      if (!v.ok()) return v.status();
      spec->stu_slots = static_cast<int>(*v);
      return OkStatus();
    }
    case ParamRef::Key::kQueues: {
      auto v = ParseInt64In(value, 1, limits::kMaxQueueWords);
      if (!v.ok()) return v.status();
      spec->queue_words = static_cast<int>(*v);
      return OkStatus();
    }
    case ParamRef::Key::kSeed: {
      auto v = ParseUint64(value);
      if (!v.ok()) return v.status();
      spec->seed = *v;
      return OkStatus();
    }
    case ParamRef::Key::kWarmup: {
      auto v = ParseInt64In(value, 0, kMaxCycles);
      if (!v.ok()) return v.status();
      if (param.phase >= 0) {
        spec->phases[static_cast<std::size_t>(param.phase)].warmup = *v;
      } else {
        spec->warmup = *v;
      }
      return OkStatus();
    }
    case ParamRef::Key::kDuration: {
      auto v = ParseInt64In(value, 1, kMaxCycles);
      if (!v.ok()) return v.status();
      if (param.phase >= 0) {
        spec->phases[static_cast<std::size_t>(param.phase)].duration = *v;
      } else if (spec->Phased()) {
        return InvalidArgumentError(
            "a phased base scenario takes per-phase durations; use "
            "pN.duration");
      } else {
        spec->duration = *v;
      }
      return OkStatus();
    }
    case ParamRef::Key::kNetMhz: {
      auto v = ParseInt64In(value, 1, limits::kMaxMhz);
      if (!v.ok()) return v.status();
      spec->net_mhz = static_cast<double>(*v);
      return OkStatus();
    }
    case ParamRef::Key::kNoc:
      return ApplyNoc(value, spec);
    case ParamRef::Key::kEngine: {
      const auto kind = sim::ParseEngineKind(value);
      if (!kind.has_value()) {
        return InvalidArgumentError(std::string("engine value must be ") +
                                    sim::kEngineKindChoices + ", got '" +
                                    value + "'");
      }
      spec->engine = *kind;
      return OkStatus();
    }
    case ParamRef::Key::kRate: {
      auto v = ParseDouble(value);
      if (!v.ok()) return v.status();
      if (*v <= 0.0 || *v > 1.0) {
        return InvalidArgumentError("rate must be in (0, 1], got '" + value +
                                    "'");
      }
      return ForEachTarget(
          param, spec,
          [](const TrafficSpec& t) { return t.inject == InjectKind::kBernoulli; },
          [&](TrafficSpec* t) { t->rate = *v; }, "a bernoulli directive");
    }
    case ParamRef::Key::kPeriod: {
      auto v = ParseInt64In(value, 1, limits::kMaxPeriod);
      if (!v.ok()) return v.status();
      return ForEachTarget(
          param, spec,
          [](const TrafficSpec& t) { return t.inject == InjectKind::kPeriodic; },
          [&](TrafficSpec* t) { t->period = *v; }, "a periodic directive");
    }
    case ParamRef::Key::kBurst: {
      const auto slash = value.find('/');
      if (slash == std::string::npos) {
        return InvalidArgumentError("burst value must be WORDS/GAP, got '" +
                                    value + "'");
      }
      auto words = ParseInt64In(value.substr(0, slash), 1,
                                limits::kMaxBurstWords);
      auto gap = ParseInt64In(value.substr(slash + 1), 0,
                              limits::kMaxGapCycles);
      if (!words.ok()) return words.status();
      if (!gap.ok()) return gap.status();
      return ForEachTarget(
          param, spec,
          [](const TrafficSpec& t) { return t.inject == InjectKind::kBursty; },
          [&](TrafficSpec* t) {
            t->burst_words = *words;
            t->gap_cycles = *gap;
          },
          "a bursty directive");
    }
    case ParamRef::Key::kGtSlots: {
      auto v = ParseInt64In(value, 1, limits::kMaxGtSlots);
      if (!v.ok()) return v.status();
      return ForEachTarget(
          param, spec, [](const TrafficSpec& t) { return t.gt; },
          [&](TrafficSpec* t) { t->gt_slots = static_cast<int>(*v); },
          "a GT directive");
    }
    case ParamRef::Key::kQos: {
      bool gt = false;
      int slots = 0;
      if (value == "be") {
        gt = false;
      } else if (value.size() > 2 && value.compare(0, 2, "gt") == 0) {
        auto v = ParseInt64In(value.substr(2), 1, limits::kMaxGtSlots);
        if (!v.ok()) return v.status();
        gt = true;
        slots = static_cast<int>(*v);
      } else {
        return InvalidArgumentError("qos value must be 'be' or 'gtN', got '" +
                                    value + "'");
      }
      return ForEachTarget(
          param, spec, [](const TrafficSpec&) { return true; },
          [&](TrafficSpec* t) {
            t->gt = gt;
            t->gt_slots = slots;
          },
          "a traffic directive");
    }
    case ParamRef::Key::kFaultSeed: {
      auto v = ParseUint64(value);
      if (!v.ok()) return v.status();
      if (!spec->fault.has_value()) spec->fault.emplace();
      spec->fault->seed = *v;
      return OkStatus();
    }
    case ParamRef::Key::kFaultCorrupt:
    case ParamRef::Key::kFaultDrop:
    case ParamRef::Key::kFaultCfgDrop: {
      auto v = ParseDouble(value);
      if (!v.ok()) return v.status();
      if (*v < 0.0 || *v > 1.0) {
        return InvalidArgumentError(param.Name() + " must be in [0, 1], got '" +
                                    value + "'");
      }
      // Mirrors the scenario parser's rule: config faults act on the
      // runtime configuration protocol, which only phased workloads carry.
      if (param.key == ParamRef::Key::kFaultCfgDrop && *v > 0.0 &&
          !spec->Phased()) {
        return InvalidArgumentError(
            "fault.cfgdrop needs a phased base scenario (config faults act "
            "on the runtime configuration protocol)");
      }
      if (!spec->fault.has_value()) spec->fault.emplace();
      if (param.key == ParamRef::Key::kFaultCorrupt) {
        spec->fault->link_corrupt_rate = *v;
      } else if (param.key == ParamRef::Key::kFaultDrop) {
        spec->fault->link_drop_rate = *v;
      } else {
        spec->fault->config_drop_rate = *v;
      }
      return OkStatus();
    }
  }
  return InvalidArgumentError("unhandled sweep parameter");
}

std::size_t SweepSpec::NumPoints() const {
  std::size_t n = 1;
  for (const Axis& axis : axes) n *= axis.values.size();
  return n;
}

std::vector<std::string> GridPoint::Values(const SweepSpec& spec) const {
  std::vector<std::string> values;
  values.reserve(choice.size());
  for (std::size_t a = 0; a < choice.size(); ++a) {
    values.push_back(spec.axes[a].values[choice[a]]);
  }
  return values;
}

std::vector<GridPoint> ExpandGrid(const SweepSpec& spec) {
  std::vector<GridPoint> grid;
  grid.reserve(spec.NumPoints());
  GridPoint point;
  point.choice.assign(spec.axes.size(), 0);
  for (std::size_t i = 0; i < spec.NumPoints(); ++i) {
    point.index = i;
    grid.push_back(point);
    // Odometer increment, last axis fastest.
    for (std::size_t a = spec.axes.size(); a-- > 0;) {
      if (++point.choice[a] < spec.axes[a].values.size()) break;
      point.choice[a] = 0;
    }
  }
  return grid;
}

Result<scenario::ScenarioSpec> MaterializePoint(const SweepSpec& spec,
                                                const GridPoint& point) {
  ScenarioSpec materialized = spec.base;
  for (std::size_t a = 0; a < spec.axes.size(); ++a) {
    const Axis& axis = spec.axes[a];
    if (Status s = ApplyParam(axis.param, axis.values[point.choice[a]],
                              &materialized);
        !s.ok()) {
      return Status(s.code(), "point " + std::to_string(point.index) + ", " +
                                  axis.param.Name() + ": " + s.message());
    }
  }
  return materialized;
}

namespace {

/// Dry-runs a materialized spec's pattern expansion so structurally
/// impossible grids (transpose on a non-square mesh, bit patterns on a
/// non-power-of-two population, NI ids off the new topology) fail at
/// parse time with a line number instead of mid-sweep.
Status CheckPatterns(const ScenarioSpec& spec) {
  Rng rng(spec.seed);
  for (const TrafficSpec& traffic : spec.traffic) {
    if (auto flows = scenario::ExpandPattern(spec, traffic, rng);
        !flows.ok()) {
      return flows.status();
    }
  }
  return OkStatus();
}

}  // namespace

Status ValidateAxisValue(const ParamRef& param, const std::string& value,
                         const scenario::ScenarioSpec& base) {
  scenario::ScenarioSpec probe = base;
  if (Status s = ApplyParam(param, value, &probe); !s.ok()) return s;
  return CheckPatterns(probe);
}

Result<SweepSpec> ParseSweep(
    const std::string& text,
    const std::function<Result<scenario::ScenarioSpec>(const std::string&)>&
        load_base) {
  SweepSpec spec;
  bool have_base = false;
  bool have_name = false;
  std::vector<ParamRef> set_params;
  for (const SpecLine& line : TokenizeSpec(text)) {
    const std::string& kind = line.tokens[0];
    if (kind == "sweep") {
      if (have_name) return line.Error("duplicate 'sweep'");
      if (line.tokens.size() != 2) {
        return line.Error("sweep <name>");
      }
      spec.name = line.tokens[1];
      have_name = true;
    } else if (kind == "base") {
      if (have_base) return line.Error("duplicate 'base'");
      if (line.tokens.size() != 2) {
        return line.Error("base <scenario-file>");
      }
      spec.base_path = line.tokens[1];
      auto base = load_base(spec.base_path);
      if (!base.ok()) {
        return line.Error("base '" + spec.base_path +
                          "': " + base.status().message());
      }
      spec.base = std::move(*base);
      have_base = true;
    } else if (kind == "set" || kind == "axis") {
      if (!have_base) {
        return line.Error("'base' must come before '" + kind + "'");
      }
      if (line.tokens.size() < 3) {
        return line.Error(kind + " <param> <value...>");
      }
      auto param = ParseParamRef(line.tokens[1]);
      if (!param.ok()) {
        return line.Error(param.status().message());
      }
      if (kind == "set") {
        if (line.tokens.size() != 3) {
          return line.Error("set <param> <value>");
        }
        // Same rule as the scenario parser's duplicate check: silently
        // keeping the later value would make the earlier line a lie.
        for (const ParamRef& earlier : set_params) {
          if (earlier == *param) {
            return line.Error("duplicate 'set " + param->Name() + "'");
          }
        }
        set_params.push_back(*param);
        // Sets fold into the stored base, in file order.
        if (Status s = ApplyParam(*param, line.tokens[2], &spec.base);
            !s.ok()) {
          return line.Error(s.message());
        }
      } else {
        for (const Axis& axis : spec.axes) {
          if (axis.param == *param) {
            return line.Error("duplicate axis on '" + param->Name() + "'");
          }
        }
        Axis axis;
        axis.param = *param;
        axis.values.assign(line.tokens.begin() + 2, line.tokens.end());
        axis.line = line.number;
        spec.axes.push_back(std::move(axis));
      }
    } else if (kind == "saturate") {
      if (!have_base) {
        return line.Error("'base' must come before 'saturate'");
      }
      if (spec.saturation.enabled) {
        return line.Error("duplicate 'saturate'");
      }
      if (line.tokens.size() != 6 && line.tokens.size() != 8) {
        return line.Error(
            "saturate <param> <lo> <hi> <mean|p99|max> <bound> [iters N]");
      }
      auto param = ParseParamRef(line.tokens[1]);
      if (!param.ok()) {
        return line.Error(param.status().message());
      }
      if (param->key != ParamRef::Key::kRate) {
        return line.Error("saturate needs a continuous parameter (rate)");
      }
      auto lo = line.Double(line.tokens[2]);
      auto hi = line.Double(line.tokens[3]);
      if (!lo.ok()) return lo.status();
      if (!hi.ok()) return hi.status();
      if (!(*lo < *hi)) {
        return line.Error("saturate needs LO < HI");
      }
      const std::string& metric = line.tokens[4];
      if (metric != "mean" && metric != "p99" && metric != "max") {
        return line.Error("saturate metric must be mean, p99, or max");
      }
      auto bound = line.Double(line.tokens[5]);
      if (!bound.ok()) return bound.status();
      if (*bound <= 0) {
        return line.Error("saturate bound must be > 0");
      }
      spec.saturation.enabled = true;
      spec.saturation.param = *param;
      spec.saturation.lo = *lo;
      spec.saturation.hi = *hi;
      spec.saturation.metric = metric;
      spec.saturation.bound = *bound;
      if (line.tokens.size() == 8) {
        if (line.tokens[6] != "iters") {
          return line.Error("expected 'iters N'");
        }
        auto iters = line.IntIn(line.tokens[7], 1, 32);
        if (!iters.ok()) return iters.status();
        spec.saturation.iters = static_cast<int>(*iters);
      }
    } else {
      return line.Error("unknown directive '" + kind + "'");
    }
  }
  if (!have_base) return InvalidArgumentError("sweep has no 'base' line");

  // Validate every axis value against the base (independently; cross-axis
  // combinations are validated again when the point is materialized).
  for (const Axis& axis : spec.axes) {
    for (const std::string& value : axis.values) {
      if (Status s = ValidateAxisValue(axis.param, value, spec.base);
          !s.ok()) {
        return LineError(axis.line, "axis " + axis.param.Name() +
                                        " value '" + value +
                                        "': " + s.message());
      }
    }
    if (spec.saturation.enabled && axis.param == spec.saturation.param) {
      return LineError(axis.line, "'" + axis.param.Name() +
                                      "' is both an axis and the saturate "
                                      "parameter");
    }
  }
  if (spec.saturation.enabled) {
    ScenarioSpec probe = spec.base;
    for (double endpoint : {spec.saturation.lo, spec.saturation.hi}) {
      if (Status s = ApplyParam(spec.saturation.param,
                                FormatDouble(endpoint), &probe);
          !s.ok()) {
        return InvalidArgumentError("saturate endpoint: " + s.message());
      }
    }
  }
  if (Status s = CheckPatterns(spec.base); !s.ok()) {
    return InvalidArgumentError("base scenario: " + s.message());
  }
  return spec;
}

Result<SweepSpec> LoadSweepFile(const std::string& path) {
  std::ifstream in(path);
  if (!in.good()) return NotFoundError("cannot open '" + path + "'");
  std::ostringstream text;
  text << in.rdbuf();
  const auto dir = std::filesystem::path(path).parent_path();
  auto spec = ParseSweep(text.str(), [&](const std::string& base) {
    return scenario::LoadScenarioFile((dir / base).string());
  });
  if (!spec.ok()) {
    return Status(spec.status().code(), path + ": " + spec.status().message());
  }
  return spec;
}

}  // namespace aethereal::sweep
