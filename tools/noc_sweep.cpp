// noc_sweep — parallel parameter sweeps over scenario specs.
//
// Expands one or more .swp sweep specs (see src/sweep/spec.h for the
// format) into a cartesian job grid, runs every point as an independent
// ScenarioRunner on a work-stealing thread pool, and emits deterministic
// sweep JSON / CSV — byte-identical for any --jobs value.
//
// Usage:
//   noc_sweep [options] SWEEP_FILE...
//     --jobs N            worker threads (default: all hardware threads)
//     -o FILE             write sweep JSON to FILE (several sweeps: an
//                         array). '-' writes JSON to stdout.
//     --csv FILE          write the per-point CSV (single sweep only)
//     --curve PARAM       with --csv: emit the latency–throughput curve
//                         keyed on axis PARAM instead of the point table
//     --axis PARAM=V1,V2,...  add or replace an axis from the command
//                         line (repeatable). PARAM accepts the same gN.
//                         directive scoping and pN. phase scoping
//                         (pN.duration / pN.warmup of phased bases) as
//                         the .swp grammar (src/sweep/spec.h)
//     --verify            arm the guarantee-verification layer in every
//                         grid point and saturation probe; any violation
//                         fails the sweep
//     --engine E          override the base scenario's engine (naive |
//                         soa) for every point
//     --seed N            override the base scenario's RNG seed
//     --fault FILE        arm the fault models from a fault file in every
//                         grid point (replaces the base's fault block)
//     --converge E        arm stop-on-convergence mode (DESIGN.md §14) in
//                         every grid point: each point runs until its
//                         batch-means latency CI reaches relative error E.
//                         Tunables: --converge-conf C,
//                         --converge-max-duration D, --converge-interval I,
//                         --converge-batches B
//     --validate          expand and fully validate every grid point
//                         (parse + pattern + wiring) without running
//     --quiet             suppress the human-readable summary
//
// Exit status: 0 on success, 1 on parse/validate/run failure, 3 when a
// grid point timed out on a bounded wait, 4 when a grid point exhausted
// its config retry budget.
#include <algorithm>
#include <iostream>
#include <optional>
#include <sstream>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "cli_common.h"
#include "fault/spec.h"
#include "scenario/inspect.h"
#include "sweep/runner.h"
#include "sweep/spec.h"
#include "util/table.h"

using namespace aethereal;

namespace {

struct CliOptions {
  cli::CommonOptions common;
  std::vector<std::string> sweep_paths;
  std::string csv_path;    // empty: no CSV output
  std::string curve_param; // empty: point CSV
  std::vector<std::pair<std::string, std::string>> axis_overrides;
  int jobs = 0;            // 0: hardware concurrency
  bool validate = false;
  bool quiet = false;
};

void PrintUsage(std::ostream& os) {
  cli::PrintUsage(os, "noc_sweep",
                  {"[--jobs N]", "[-o FILE]", "[--csv FILE]",
                   "[--curve PARAM]", "[--axis PARAM=V1,V2,...]",
                   "[--verify]",
                   std::string("[--engine ") + sim::kEngineKindChoices + "]",
                   "[--seed N]", "[--fault FILE]",
                   "[--converge E]",
                   "[--converge-conf C]", "[--converge-max-duration D]",
                   "[--converge-interval I]", "[--converge-batches B]",
                   "[--validate]", "[--quiet]", "SWEEP_FILE..."});
}

bool ParseArgs(int argc, char** argv, CliOptions* options) {
  cli::ArgReader args("noc_sweep", argc, argv);
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
    if (arg == "--csv") {
      const char* v = args.Value();
      if (v == nullptr) return false;
      options->csv_path = v;
    } else if (arg == "--curve") {
      const char* v = args.Value();
      if (v == nullptr) return false;
      options->curve_param = v;
    } else if (arg == "--jobs") {
      const auto parsed = args.IntValue("an integer in [1, 1024]", 1, 1024);
      if (!parsed.has_value()) return false;
      options->jobs = static_cast<int>(*parsed);
    } else if (arg == "--axis") {
      const char* v = args.Value();
      if (v == nullptr) return false;
      const std::string spec = v;
      const auto eq = spec.find('=');
      if (eq == std::string::npos || eq == 0 || eq + 1 == spec.size()) {
        std::cerr << "noc_sweep: --axis needs PARAM=V1,V2,..., got '" << spec
                  << "'\n";
        return false;
      }
      options->axis_overrides.emplace_back(spec.substr(0, eq),
                                           spec.substr(eq + 1));
    } else if (arg == "--validate") {
      options->validate = true;
    } else if (arg == "--quiet") {
      options->quiet = true;
    } else if (arg == "-h" || arg == "--help") {
      PrintUsage(std::cout);
      std::exit(0);
    } else if (args.IsOption()) {
      std::cerr << "noc_sweep: unknown option '" << arg << "'\n";
      return false;
    } else {
      options->sweep_paths.push_back(arg);
    }
  }
  if (options->sweep_paths.empty()) {
    std::cerr << "noc_sweep: no sweep spec given\n";
    PrintUsage(std::cerr);
    return false;
  }
  if (!options->csv_path.empty() && options->sweep_paths.size() > 1) {
    std::cerr << "noc_sweep: --csv takes exactly one sweep spec\n";
    return false;
  }
  if (!options->curve_param.empty() && options->csv_path.empty()) {
    std::cerr << "noc_sweep: --curve needs --csv FILE\n";
    return false;
  }
  if (options->common.output_path == "-") options->quiet = true;
  return true;
}

/// Folds --axis PARAM=V1,V2,... overrides into the parsed sweep,
/// replacing an existing axis on the same parameter or appending a new
/// one. Values are validated exactly like file axes.
Status ApplyAxisOverrides(const CliOptions& options, sweep::SweepSpec* spec) {
  for (const auto& [name, csv_values] : options.axis_overrides) {
    auto param = sweep::ParseParamRef(name);
    if (!param.ok()) return param.status();
    sweep::Axis axis;
    axis.param = *param;
    std::istringstream values(csv_values);
    std::string token;
    while (std::getline(values, token, ',')) {
      if (token.empty()) continue;
      if (Status s = sweep::ValidateAxisValue(*param, token, spec->base);
          !s.ok()) {
        return Status(s.code(), "--axis " + name + " value '" + token +
                                    "': " + s.message());
      }
      axis.values.push_back(token);
    }
    if (axis.values.empty()) {
      return InvalidArgumentError("--axis " + name + " has no values");
    }
    if (spec->saturation.enabled && axis.param == spec->saturation.param) {
      return InvalidArgumentError("--axis " + name +
                                  " collides with the saturate parameter");
    }
    bool replaced = false;
    for (sweep::Axis& existing : spec->axes) {
      if (existing.param == axis.param) {
        existing.values = axis.values;
        replaced = true;
      }
    }
    if (!replaced) spec->axes.push_back(std::move(axis));
  }
  return OkStatus();
}

/// --validate: materialize and fully wire every grid point. Catches the
/// cross-axis combinations the per-axis parse-time checks cannot.
int ValidateSweep(const std::string& path, const sweep::SweepSpec& spec,
                  bool quiet) {
  const auto grid = sweep::ExpandGrid(spec);
  int failures = 0;
  for (const sweep::GridPoint& point : grid) {
    auto materialized = sweep::MaterializePoint(spec, point);
    if (materialized.ok()) {
      auto inspection =
          scenario::InspectScenario(*materialized, /*wire=*/true);
      if (inspection.ok()) continue;
      std::cerr << "noc_sweep: " << path << " point " << point.index << ": "
                << inspection.status() << "\n";
    } else {
      std::cerr << "noc_sweep: " << path << ": " << materialized.status()
                << "\n";
    }
    ++failures;
  }
  if (!quiet) {
    std::cout << path << ": " << spec.name << ", " << grid.size()
              << " grid points"
              << (spec.saturation.enabled ? " (saturation search)" : "")
              << ", " << (grid.size() - static_cast<std::size_t>(failures))
              << " valid\n";
  }
  return failures;
}

void PrintSummary(const sweep::SweepResult& result) {
  std::cout << "=== sweep " << result.spec.name << " ("
            << result.points.size() << " points) ===\n";
  if (result.spec.saturation.enabled) {
    Table table({"point", "params", "saturation", "probes"});
    for (const auto& point : result.points) {
      std::string params;
      for (std::size_t a = 0; a < result.spec.axes.size(); ++a) {
        if (!params.empty()) params += " ";
        params += result.spec.axes[a].param.Name() + "=" + point.values[a];
      }
      table.AddRow({std::to_string(point.index),
                    params.empty() ? "-" : params,
                    point.saturation.feasible
                        ? point.saturation.value_label
                        : "< " + point.saturation.value_label,
                    std::to_string(point.saturation.probes.size())});
    }
    table.Print(std::cout);
  } else {
    Table table({"point", "params", "offered", "delivered", "lat mean",
                 "lat p99", "util"});
    for (const auto& point : result.points) {
      std::string params;
      for (std::size_t a = 0; a < result.spec.axes.size(); ++a) {
        if (!params.empty()) params += " ";
        params += result.spec.axes[a].param.Name() + "=" + point.values[a];
      }
      table.AddRow({std::to_string(point.index),
                    params.empty() ? "-" : params,
                    Table::Fmt(point.all.offered_wpc, 4),
                    Table::Fmt(point.all.throughput_wpc, 4),
                    point.all.latency_count > 0
                        ? Table::Fmt(point.all.latency_mean, 1)
                        : "-",
                    point.all.latency_count > 0
                        ? Table::Fmt(point.all.latency_p99, 0)
                        : "-",
                    Table::Fmt(100.0 * point.slot_utilization, 1) + "%"});
    }
    table.Print(std::cout);
  }
  std::cout << "\n";
}

}  // namespace

int main(int argc, char** argv) {
  CliOptions options;
  if (!ParseArgs(argc, argv, &options)) return 1;
  const int jobs =
      options.jobs > 0
          ? options.jobs
          : static_cast<int>(std::max(1u, std::thread::hardware_concurrency()));

  std::optional<fault::FaultSpec> fault_override;
  if (!options.common.fault_path.empty()) {
    fault_override =
        cli::LoadFaultOverride("noc_sweep", options.common.fault_path);
    if (!fault_override.has_value()) return 1;
  }

  int validate_failures = 0;
  std::vector<std::string> jsons;
  for (const std::string& path : options.sweep_paths) {
    auto spec = sweep::LoadSweepFile(path);
    if (!spec.ok()) {
      std::cerr << "noc_sweep: " << spec.status() << "\n";
      // --validate keeps going so one bad sweep doesn't mask the next
      // one's problems (mirrors noc_sim --validate).
      if (!options.validate) return 1;
      ++validate_failures;
      continue;
    }
    if (Status s = ApplyAxisOverrides(options, &*spec); !s.ok()) {
      std::cerr << "noc_sweep: " << path << ": " << s << "\n";
      if (!options.validate) return 1;
      ++validate_failures;
      continue;
    }
    // Materialized points copy the base spec, so these overrides reach
    // every grid point and saturation probe.
    if (options.common.verify) spec->base.verify = true;
    if (options.common.engine) spec->base.engine = *options.common.engine;
    if (options.common.seed) spec->base.seed = *options.common.seed;
    if (!cli::ApplyConvergeOverrides("noc_sweep", options.common,
                                     &spec->base)) {
      if (!options.validate) return 1;
      ++validate_failures;
      continue;
    }
    if (fault_override.has_value()) {
      if (!cli::FaultOverrideApplies("noc_sweep", options.common.fault_path,
                                     *fault_override, spec->base, path)) {
        if (!options.validate) return 1;
        ++validate_failures;
        continue;
      }
      spec->base.fault = fault_override;
    }

    if (options.validate) {
      validate_failures += ValidateSweep(path, *spec, options.quiet);
      continue;
    }

    sweep::SweepRunner runner(std::move(*spec));
    auto result = runner.Run(jobs);
    if (!result.ok()) {
      std::cerr << "noc_sweep: " << path << ": " << result.status() << "\n";
      return cli::ExitCodeOf(result.status());
    }
    if (!options.quiet) PrintSummary(*result);
    jsons.push_back(result->ToJson());

    if (!options.csv_path.empty()) {
      std::string csv;
      if (options.curve_param.empty()) {
        csv = result->ToCsv();
      } else {
        auto curve = result->ToCurveCsv(options.curve_param);
        if (!curve.ok()) {
          std::cerr << "noc_sweep: " << path << ": " << curve.status()
                    << "\n";
          return 1;
        }
        csv = *curve;
      }
      if (!cli::WriteOutput("noc_sweep", options.csv_path, csv,
                            options.quiet)) {
        return 1;
      }
    }
  }
  if (options.validate) return validate_failures == 0 ? 0 : 1;

  if (!options.common.output_path.empty()) {
    if (!cli::WriteOutput("noc_sweep", options.common.output_path,
                          cli::JoinJsonDocuments(jsons), options.quiet)) {
      return 1;
    }
  }
  return 0;
}
