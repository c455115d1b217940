// Declarative sweep specification — one small text file turns a scenario
// spec into a parameter study: a base .scn workload, fixed overrides, and
// sweep axes whose cartesian product becomes a grid of independent
// scenario runs (sweep/runner.h executes them on a thread pool and folds
// the per-point results into latency–throughput curves).
//
// Line-based format ('#' starts a comment):
//
//   sweep NAME                    # result label (default "sweep")
//   base FILE.scn                 # base scenario, relative to the .swp file
//   set PARAM VALUE               # fixed override applied to every point
//   axis PARAM V1 V2 ...          # sweep axis (>= 1 value); the cartesian
//                                 # product of all axes is the job grid,
//                                 # last axis fastest (odometer order)
//   saturate PARAM LO HI METRIC BOUND [iters N]
//                                 # bisection search per grid point: the
//                                 # largest PARAM value in [LO, HI] whose
//                                 # METRIC (mean|p99|max flow latency, in
//                                 # cycles) stays <= BOUND. N bisection
//                                 # steps after the endpoints (default 8).
//
// PARAM is either a scenario-level knob or a traffic-directive knob,
// optionally scoped to one directive with a `gN.` prefix (N = directive
// index in the base file; unscoped traffic knobs apply to every directive
// of the matching injection/QoS kind and fail if none matches):
//
//   scenario level:  stu queues seed warmup duration netmhz noc engine
//       noc values name the topology inline: star7, mesh4x4x1, ring6x1
//       engine values are naive|soa
//   traffic level:   rate     (bernoulli directives; value in (0, 1])
//                    period   (periodic directives; cycles >= 1)
//                    burst    (bursty directives; value WORDS/GAP)
//                    gtslots  (GT directives; reserved slots >= 1)
//                    qos      (any directive; value be or gtN)
//   fault level:     fault.seed     (fault-stream seed, >= 0)
//                    fault.corrupt  (link corrupt rate, [0, 1])
//                    fault.drop     (link drop rate, [0, 1])
//                    fault.cfgdrop  (CNIP drop rate, [0, 1]; needs a
//                                    phased base when > 0)
//       fault keys create the base's fault block on first use, so a
//       fault-free .scn can be swept straight into a resilience study
//   phase level:     pN.duration / pN.warmup (phased base scenarios; N =
//       phase index). Directive indices gN are global across phases, so
//       traffic knobs already scope to one phase's directives — e.g.
//       `axis g2.gtslots 1 2 4` sweeps the slot budget of phase 2's
//       directive when g2 lives in phase 2.
//
// Every `set` and axis value is validated against the base spec at parse
// time, so a bad grid fails with a line number before any job runs.
// Axis order and value order are part of the sweep's deterministic
// identity: the same .swp always expands to the same job grid, and the
// aggregated output is byte-identical for any worker count.
#ifndef AETHEREAL_SWEEP_SPEC_H
#define AETHEREAL_SWEEP_SPEC_H

#include <cstddef>
#include <functional>
#include <string>
#include <vector>

#include "scenario/spec.h"
#include "util/status.h"

namespace aethereal::sweep {

/// Identifies one swept parameter, optionally scoped to a single traffic
/// directive of the base scenario.
struct ParamRef {
  enum class Key {
    // Scenario level.
    kStu,
    kQueues,
    kSeed,
    kWarmup,
    kDuration,
    kNetMhz,
    kNoc,
    kEngine,
    // Traffic level (scoped by `group`, or all matching directives).
    kRate,
    kPeriod,
    kBurst,
    kGtSlots,
    kQos,
    // Fault level (creates the base's fault block on demand).
    kFaultSeed,
    kFaultCorrupt,
    kFaultDrop,
    kFaultCfgDrop,
  };

  Key key = Key::kSeed;
  int group = -1;  // traffic directive index; -1 = all matching directives
  int phase = -1;  // phase index (kDuration/kWarmup of a phased base)

  bool IsTrafficKey() const;
  /// Canonical spelling, e.g. "rate", "g0.rate", or "p1.duration".
  std::string Name() const;

  friend bool operator==(const ParamRef&, const ParamRef&) = default;
};

/// Parses "rate", "g2.qos", "stu", ... Fails on unknown keys or a scope
/// prefix on a scenario-level key.
Result<ParamRef> ParseParamRef(const std::string& token);

/// Applies one parameter value to a scenario spec. The value grammar is
/// per key (see the header comment); range checks mirror the scenario
/// parser so a sweep cannot smuggle in an out-of-range value.
Status ApplyParam(const ParamRef& param, const std::string& value,
                  scenario::ScenarioSpec* spec);

/// Full single-value validation: applies `value` to a copy of `base` and
/// dry-runs every pattern expansion, so structurally impossible values
/// (transpose on a non-square mesh, ids off the topology) fail before
/// any job runs. This is what file axes get at parse time; the CLI's
/// --axis overrides go through the same gate.
Status ValidateAxisValue(const ParamRef& param, const std::string& value,
                         const scenario::ScenarioSpec& base);

struct Axis {
  ParamRef param;
  std::vector<std::string> values;  // raw tokens, applied via ApplyParam
  int line = 0;                     // source line (diagnostics only)
};

struct SaturationSpec {
  bool enabled = false;
  ParamRef param;        // must be continuous (rate)
  double lo = 0;
  double hi = 0;
  std::string metric;    // "mean" | "p99" | "max"
  double bound = 0;      // cycles
  int iters = 8;         // bisection steps after probing both endpoints
};

struct SweepSpec {
  std::string name = "sweep";
  std::string base_path;          // as written in the .swp file
  scenario::ScenarioSpec base;    // loaded base with `set` overrides applied
  std::vector<Axis> axes;
  SaturationSpec saturation;

  /// Number of grid points (product of axis sizes; 1 with no axes).
  std::size_t NumPoints() const;
};

/// One grid point: the value index chosen on each axis, odometer order
/// (last axis fastest).
struct GridPoint {
  std::size_t index = 0;
  std::vector<std::size_t> choice;  // one entry per axis

  /// The chosen raw value per axis, in axis order.
  std::vector<std::string> Values(const SweepSpec& spec) const;
};

/// Expands the full job grid in deterministic order.
std::vector<GridPoint> ExpandGrid(const SweepSpec& spec);

/// Base spec + this point's axis values -> a runnable scenario spec.
Result<scenario::ScenarioSpec> MaterializePoint(const SweepSpec& spec,
                                                const GridPoint& point);

/// Parses the text form. `load_base` resolves the `base` path to a parsed
/// scenario (the CLI resolves relative to the .swp file's directory).
Result<SweepSpec> ParseSweep(
    const std::string& text,
    const std::function<Result<scenario::ScenarioSpec>(const std::string&)>&
        load_base);

/// Reads and parses a .swp file; `base` paths resolve relative to it.
Result<SweepSpec> LoadSweepFile(const std::string& path);

}  // namespace aethereal::sweep

#endif  // AETHEREAL_SWEEP_SPEC_H
