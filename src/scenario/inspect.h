// Scenario inspection: build the SoC a parsed spec implies — topology,
// per-NI channel provisioning, every concrete flow with its connids —
// without running a single cycle. Shared by `noc_sim --validate/--print`
// and `noc_sweep --validate` so both CLIs report identical diagnostics.
// The flows and channel counts are read from ScenarioRunner::Build, so
// the inspection cannot drift from what a run wires.
#ifndef AETHEREAL_SCENARIO_INSPECT_H
#define AETHEREAL_SCENARIO_INSPECT_H

#include <string>
#include <vector>

#include "scenario/runner.h"
#include "scenario/spec.h"
#include "util/status.h"

namespace aethereal::scenario {

struct Inspection {
  ScenarioSpec spec;
  int num_nis = 0;
  std::vector<int> channels_per_ni;  // as built (idle NIs get one)
  std::vector<ScenarioRunner::Hop> flows;  // directive, then pattern order

  /// Human-readable dump of the expanded SoC (the `noc_sim --print`
  /// output).
  std::string Describe() const;
};

/// Builds the SoC of `spec` (ScenarioRunner::Build), so pattern errors and
/// wiring-time errors (GT slot-table exhaustion, channel and queue limits,
/// path constraints) surface exactly as a run would report them.
Result<Inspection> InspectScenario(const ScenarioSpec& spec);

}  // namespace aethereal::scenario

#endif  // AETHEREAL_SCENARIO_INSPECT_H
