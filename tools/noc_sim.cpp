// noc_sim — the scenario-driven NoC simulator CLI.
//
// Parses one or more declarative scenario specs (see src/scenario/spec.h
// for the format), wires and runs each on the cycle engine, prints a
// human-readable summary, and emits a machine-readable result JSON
// (deterministic for a given spec + seed, on any engine).
//
// Usage:
//   noc_sim [options] SPEC_FILE...
//     -o FILE             write result JSON to FILE (single spec: the
//                         scenario object; several specs: an array).
//                         '-' writes JSON to stdout.
//     --engine E          override the spec's engine (naive | soa)
//     --seed N            override the spec's RNG seed
//     --duration N        override the spec's measured-cycle count
//     --verify            arm the guarantee-verification layer (runtime
//                         invariant checkers + analytical GT bounds); any
//                         violation fails the run
//     --fault FILE        arm the fault models from a fault file (the
//                         fault/spec.h grammar; replaces the spec's own
//                         fault block). A zero-rate file keeps the result
//                         byte-identical to the fault-free run — the CI
//                         kill-switch check
//     --trace FILE        record a Chrome trace_event JSON of the run to
//                         FILE (overrides the spec's own `trace` line)
//     --sample-every N    sample windowed time-series stats every N cycles
//                         (overrides the spec's `stats sample_every` line)
//     --converge E        stop-on-convergence mode (DESIGN.md §14): run
//                         until the batch-means CI of the measured latency
//                         tightens to relative error E, instead of the
//                         fixed duration. Tunables: --converge-conf C,
//                         --converge-max-duration D, --converge-interval I,
//                         --converge-batches B
//     --stats-csv FILE    write the per-window per-link utilization CSV to
//                         FILE (needs sampling: a `stats` line in the spec
//                         or --sample-every)
//     --validate          parse + fully wire each spec, report diagnostics
//                         (with line numbers), and exit without running
//     --print             like --validate, and dump the expanded SoC
//                         (topology, per-NI channels, every flow + connid)
//     --quiet             suppress the human-readable summary
//
// Exit status: 0 on success, 1 on parse/build/run failure, 3 when a
// bounded wait expired (drain window, config-ack timeout without retry),
// 4 when the config retry policy exhausted its budget.
#include <iostream>
#include <limits>
#include <optional>
#include <string>
#include <vector>

#include "cli_common.h"
#include "fault/spec.h"
#include "obs/hub.h"
#include "scenario/inspect.h"
#include "scenario/runner.h"
#include "scenario/spec.h"
#include "util/table.h"

using namespace aethereal;

namespace {

struct CliOptions {
  cli::CommonOptions common;
  std::vector<std::string> spec_paths;
  std::optional<Cycle> duration;
  std::string trace_path;
  std::optional<Cycle> sample_every;
  std::string stats_csv_path;
  bool validate = false;
  bool print = false;
  bool quiet = false;
};

void PrintUsage(std::ostream& os) {
  cli::PrintUsage(os, "noc_sim",
                  {"[-o FILE]",
                   std::string("[--engine ") + sim::kEngineKindChoices + "]",
                   "[--seed N]", "[--duration N]",
                   "[--verify]",
                   "[--fault FILE]", "[--trace FILE]", "[--sample-every N]",
                   "[--stats-csv FILE]", "[--converge E]",
                   "[--converge-conf C]", "[--converge-max-duration D]",
                   "[--converge-interval I]", "[--converge-batches B]",
                   "[--validate]", "[--print]", "[--quiet]", "SPEC_FILE..."});
}

bool ParseArgs(int argc, char** argv, CliOptions* options) {
  cli::ArgReader args("noc_sim", argc, argv);
  while (args.Next()) {
    switch (cli::MatchCommonArg(args, &options->common)) {
      case cli::Match::kYes:
        continue;
      case cli::Match::kError:
        return false;
      case cli::Match::kNo:
        break;
    }
    const std::string& arg = args.Arg();
    if (arg == "--duration") {
      const auto parsed = args.IntValue("a cycle count >= 1", 1,
                                        std::numeric_limits<Cycle>::max());
      if (!parsed.has_value()) return false;
      options->duration = *parsed;
    } else if (arg == "--trace") {
      const char* v = args.Value();
      if (v == nullptr) return false;
      options->trace_path = v;
    } else if (arg == "--sample-every") {
      const auto parsed = args.IntValue("a cycle count >= one slot (3 cycles)",
                                        kFlitWords, std::int64_t{1} << 40);
      if (!parsed.has_value()) return false;
      options->sample_every = *parsed;
    } else if (arg == "--stats-csv") {
      const char* v = args.Value();
      if (v == nullptr) return false;
      options->stats_csv_path = v;
    } else if (arg == "--validate") {
      options->validate = true;
    } else if (arg == "--print") {
      options->print = true;
    } else if (arg == "--quiet") {
      options->quiet = true;
    } else if (arg == "-h" || arg == "--help") {
      PrintUsage(std::cout);
      std::exit(0);
    } else if (args.IsOption()) {
      std::cerr << "noc_sim: unknown option '" << arg << "'\n";
      return false;
    } else {
      options->spec_paths.push_back(arg);
    }
  }
  if (options->spec_paths.empty()) {
    std::cerr << "noc_sim: no scenario spec given\n";
    PrintUsage(std::cerr);
    return false;
  }
  // One trace / stats-CSV file cannot hold several runs: the second spec
  // would silently overwrite the first one's artifact.
  if (options->spec_paths.size() > 1 &&
      (!options->trace_path.empty() || !options->stats_csv_path.empty())) {
    std::cerr << "noc_sim: --trace / --stats-csv take exactly one "
                 "SPEC_FILE\n";
    return false;
  }
  // '-o -' streams the document to stdout, which must then be valid JSON:
  // suppress the human-readable summary.
  if (options->common.output_path == "-") options->quiet = true;
  return true;
}

void PrintSummary(const scenario::ScenarioResult& result,
                  sim::EngineKind engine) {
  std::cout << "=== scenario " << result.spec.name << " ("
            << scenario::TopologyKindName(result.spec.topology) << ", "
            << result.spec.NumNis() << " NIs, "
            << sim::EngineKindName(engine) << " engine";
  if (result.spec.Phased()) {
    std::cout << ", " << result.spec.phases.size() << " phases";
  }
  std::cout << ") ===\n";
  if (result.spec.Phased()) {
    Table phases({"phase", "window", "words", "w/cyc", "lat mean", "lat p50",
                  "lat p95", "lat p99", "opens", "closes", "setup",
                  "teardown", "cfg msgs", "slots +/-"});
    for (std::size_t k = 0; k < result.phases.size(); ++k) {
      const auto& phase = result.phases[k];
      const auto& tr = result.transitions[k];
      const bool lat = phase.latency_count > 0;
      phases.AddRow(
          {phase.name,
           Table::Fmt(phase.window_start) + "+" + Table::Fmt(phase.duration),
           Table::Fmt(phase.words_in_window),
           Table::Fmt(phase.throughput_wpc, 4),
           lat ? Table::Fmt(phase.latency_mean, 1) : "-",
           lat ? Table::Fmt(phase.latency_p50, 0) : "-",
           lat ? Table::Fmt(phase.latency_p95, 0) : "-",
           lat ? Table::Fmt(phase.latency_p99, 0) : "-",
           std::to_string(tr.opens), std::to_string(tr.closes),
           tr.opens > 0 ? Table::Fmt(tr.setup_latency_max) : "-",
           tr.closes > 0 ? Table::Fmt(tr.teardown_latency_max) : "-",
           Table::Fmt(tr.config_messages),
           "+" + std::to_string(tr.slots_allocated) + "/-" +
               std::to_string(tr.slots_reclaimed)});
    }
    phases.Print(std::cout);
  }
  Table table({"pattern", "flow", "qos", "words", "w/cyc", "lat mean",
               "lat p50", "lat p95", "lat p99", "lat max"});
  for (const auto& flow : result.flows) {
    const std::string qos =
        flow.gt ? "gt/" + std::to_string(flow.gt_slots) : "be";
    const bool lat = flow.latency.count > 0;
    table.AddRow({flow.pattern,
                  std::to_string(flow.src) + "->" + std::to_string(flow.dst),
                  qos, Table::Fmt(flow.words_in_window),
                  Table::Fmt(flow.throughput_wpc, 4),
                  lat ? Table::Fmt(flow.latency.mean, 1) : "-",
                  lat ? Table::Fmt(flow.latency.p50, 0) : "-",
                  lat ? Table::Fmt(flow.latency.p95, 0) : "-",
                  lat ? Table::Fmt(flow.latency.p99, 0) : "-",
                  lat ? Table::Fmt(flow.latency.max, 0) : "-"});
  }
  table.Print(std::cout);
  std::cout << "aggregate: " << result.words_in_window << " words in "
            << result.spec.TotalDuration() << " measured cycles ("
            << Table::Fmt(result.throughput_wpc, 3)
            << " w/cyc), slot utilization "
            << Table::Fmt(100.0 * result.slot_utilization, 1) << "%\n";
  if (result.fault.has_value()) {
    const auto& f = *result.fault;
    std::cout << "faults (seed " << f.seed << "): " << f.flits_corrupted
              << " corrupted, "
              << f.link_packets_dropped + f.router_stall_packets_dropped
              << " packets dropped, config " << f.config_requests_dropped
              << " lost / " << f.config_requests_delayed << " delayed, "
              << f.config_write_retries << " write retries";
    if (result.spec.verify) {
      std::cout << ", GT recovery "
                << Table::Fmt(100.0 * f.gt_recovery_ratio, 2) << "%, "
                << f.degradations.size() << " degradation(s), "
                << f.monitor_unexplained_violations << " unexplained";
    }
    std::cout << "\n";
  }
  std::cout << "\n";
}

/// --validate / --print: parse and fully wire each spec without running.
/// Reports per-file diagnostics (parse errors carry line numbers) and
/// keeps going so one bad spec doesn't mask the next one's problems.
int ValidateSpecs(const CliOptions& options) {
  int failures = 0;
  for (const std::string& path : options.spec_paths) {
    auto spec = scenario::LoadScenarioFile(path);
    if (!spec.ok()) {
      std::cerr << "noc_sim: " << spec.status() << "\n";
      ++failures;
      continue;
    }
    auto inspection = scenario::InspectScenario(*spec);
    if (!inspection.ok()) {
      std::cerr << "noc_sim: " << path << ": " << inspection.status() << "\n";
      ++failures;
      continue;
    }
    if (options.print) {
      std::cout << inspection->Describe();
    } else if (!options.quiet) {
      std::cout << path << ": OK (" << spec->name << ", "
                << inspection->num_nis << " NIs, " << inspection->flows.size()
                << " flows)\n";
    }
  }
  return failures == 0 ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  CliOptions options;
  if (!ParseArgs(argc, argv, &options)) return 1;
  if (options.validate || options.print) return ValidateSpecs(options);

  std::optional<fault::FaultSpec> fault_override;
  if (!options.common.fault_path.empty()) {
    fault_override =
        cli::LoadFaultOverride("noc_sim", options.common.fault_path);
    if (!fault_override.has_value()) return 1;
  }

  std::vector<std::string> jsons;
  for (const std::string& path : options.spec_paths) {
    auto spec = scenario::LoadScenarioFile(path);
    if (!spec.ok()) {
      std::cerr << "noc_sim: " << spec.status() << "\n";
      return 1;
    }
    if (fault_override.has_value()) {
      // Same rule the scenario parser enforces for in-file fault blocks.
      if (!cli::FaultOverrideApplies("noc_sim", options.common.fault_path,
                                     *fault_override, *spec, path)) {
        return 1;
      }
      spec->fault = fault_override;
    }
    if (options.common.engine) spec->engine = *options.common.engine;
    if (options.common.seed) spec->seed = *options.common.seed;
    if (options.duration) {
      if (spec->Phased()) {
        std::cerr << "noc_sim: " << path << ": --duration cannot override a "
                  << "phased scenario (durations are per phase)\n";
        return 1;
      }
      spec->duration = *options.duration;
    }
    if (options.common.verify) spec->verify = true;
    if (!cli::ApplyConvergeOverrides("noc_sim", options.common, &*spec)) {
      return 1;
    }
    if (!options.trace_path.empty()) spec->obs.trace_path = options.trace_path;
    if (options.sample_every) spec->obs.sample_every = *options.sample_every;
    if (!options.stats_csv_path.empty() && !spec->obs.SamplingEnabled()) {
      std::cerr << "noc_sim: " << path << ": --stats-csv needs sampling — "
                << "add 'stats sample_every N' to the spec or pass "
                << "--sample-every N\n";
      return 1;
    }

    scenario::ScenarioRunner runner(*spec);
    auto result = runner.Run();
    if (!result.ok()) {
      std::cerr << "noc_sim: " << path << ": " << result.status() << "\n";
      if (result.status().code() == StatusCode::kTimeout) {
        std::cerr << "noc_sim: a bounded wait expired (drain window or "
                     "config ack) — the workload is wedged, not misparsed\n";
      } else if (result.status().code() == StatusCode::kRetriesExhausted) {
        std::cerr << "noc_sim: the config retry policy spent its whole "
                     "budget without an ack\n";
      }
      return cli::ExitCodeOf(result.status());
    }
    if (!options.quiet) PrintSummary(*result, spec->engine);
    if (!options.stats_csv_path.empty()) {
      if (!cli::WriteOutput("noc_sim", options.stats_csv_path,
                            obs::SeriesCsv(*result->obs_stats),
                            options.quiet)) {
        return 1;
      }
    }
    jsons.push_back(result->ToJson());
  }

  if (!options.common.output_path.empty()) {
    // Single spec: the scenario object. Several: a JSON array of them.
    if (!cli::WriteOutput("noc_sim", options.common.output_path,
                          cli::JoinJsonDocuments(jsons), options.quiet)) {
      return 1;
    }
  }
  return 0;
}
