// noc_verify — the guarantee-verification CLI.
//
// Runs scenario specs (and/or seeded random conformance configs) with the
// verification layer armed: the runtime invariant monitor (slot-table
// conformance, GT timing, flit integrity/ordering, credit conservation)
// plus the analytical GT throughput/latency bound checks. By default every
// workload runs on both engines (naive and soa), and the result JSON is
// compared byte-for-byte across them — including --fault runs, so the
// cross-compare covers the fault ledger too.
//
// Usage:
//   noc_verify [options] [SPEC_FILE...]
//     --engine E          naive | soa | all  (default all)
//     -o FILE             write the verified result JSON to FILE (single
//                         workload: the scenario object; several: an
//                         array). '-' writes JSON to stdout.
//     --fuzz N            also run N seeded random conformance configs
//     --fault FILE        arm the fault models from a fault file in every
//                         SPEC_FILE workload (replaces the spec's own
//                         fault block); fault-induced guarantee shortfalls
//                         degrade instead of failing, unexplained
//                         violations still fail
//     --fault-fuzz N      also run N seeded random fault configs over
//                         stream-only random workloads (the resilience
//                         soak; DESIGN.md §12)
//     --seed S            fuzz / fault-fuzz batch seed (default 1)
//     --case I            run only case I of the --fuzz / --fault-fuzz
//                         batches (I below each batch size): a case
//                         derives from (seed, I) alone, so it replays
//                         exactly as it ran in the batch
//     --bounds            print the analytical GT bound table per workload
//     --quiet             only report failures
//
// Exit status: 0 when every run passed verified (and every pair of
// same-workload runs agreed bit-for-bit); 3 when the worst failure was a
// bounded-wait expiry, 4 when a retry budget ran out, 1 otherwise.
#include <iostream>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "cli_common.h"
#include "fault/spec.h"
#include "scenario/runner.h"
#include "scenario/spec.h"
#include "util/table.h"
#include "verify/fuzz.h"
#include "verify/monitor.h"

using namespace aethereal;

namespace {

struct CliOptions {
  cli::CommonOptions common;
  std::vector<std::string> spec_paths;
  int fuzz = 0;
  int fault_fuzz = 0;
  std::optional<int> case_index;
  bool bounds = false;
  bool quiet = false;

  /// The engines every workload runs on: one with --engine E, or both by
  /// default or with --engine all. Their result JSON must agree
  /// byte-for-byte.
  std::vector<sim::EngineKind> Engines() const {
    if (common.engine.has_value()) return {*common.engine};
    return {sim::EngineKind::kNaive, sim::EngineKind::kSoa};
  }

  /// The cases [first, last) of a batch of `size`: all of them, or only
  /// --case I.
  std::pair<int, int> Cases(int size) const {
    if (size == 0 || !case_index.has_value()) return {0, size};
    return {*case_index, *case_index + 1};
  }
};

void PrintUsage(std::ostream& os) {
  cli::PrintUsage(os, "noc_verify",
                  {std::string("[--engine ") + sim::kEngineKindChoices +
                       "|all]",
                   "[-o FILE]", "[--fuzz N]",
                   "[--fault FILE]",
                   "[--fault-fuzz N]", "[--seed S]", "[--case I]",
                   "[--bounds]",
                   "[--quiet]", "[SPEC_FILE...]"});
}

bool ParseArgs(int argc, char** argv, CliOptions* options) {
  cli::ArgReader args("noc_verify", argc, argv);
  while (args.Next()) {
    switch (cli::MatchCommonArg(args, &options->common,
                                /*allow_engine_all=*/true)) {
      case cli::Match::kYes:
        continue;
      case cli::Match::kError:
        return false;
      case cli::Match::kNo:
        break;
    }
    const std::string& arg = args.Arg();
    if (arg == "--fuzz" || arg == "--fault-fuzz") {
      const auto parsed =
          args.IntValue("a batch size in [0, 1000000]", 0, 1'000'000);
      if (!parsed.has_value()) return false;
      (arg == "--fuzz" ? options->fuzz : options->fault_fuzz) =
          static_cast<int>(*parsed);
    } else if (arg == "--case") {
      const auto parsed =
          args.IntValue("a case index in [0, 999999]", 0, 999'999);
      if (!parsed.has_value()) return false;
      options->case_index = static_cast<int>(*parsed);
    } else if (arg == "--bounds") {
      options->bounds = true;
    } else if (arg == "--quiet") {
      options->quiet = true;
    } else if (arg == "-h" || arg == "--help") {
      PrintUsage(std::cout);
      std::exit(0);
    } else if (args.IsOption()) {
      std::cerr << "noc_verify: unknown option '" << arg << "'\n";
      return false;
    } else {
      options->spec_paths.push_back(arg);
    }
  }
  if (options->spec_paths.empty() && options->fuzz == 0 &&
      options->fault_fuzz == 0) {
    std::cerr << "noc_verify: nothing to do (no specs, no --fuzz, no "
                 "--fault-fuzz)\n";
    PrintUsage(std::cerr);
    return false;
  }
  if (options->case_index.has_value()) {
    if (options->fuzz == 0 && options->fault_fuzz == 0) {
      std::cerr << "noc_verify: --case needs --fuzz N or --fault-fuzz N\n";
      return false;
    }
    for (const int size : {options->fuzz, options->fault_fuzz}) {
      if (size > 0 && *options->case_index >= size) {
        std::cerr << "noc_verify: --case " << *options->case_index
                  << " is not below the batch size " << size << "\n";
        return false;
      }
    }
  }
  if (!options->common.fault_path.empty() && options->spec_paths.empty()) {
    std::cerr << "noc_verify: --fault needs SPEC_FILE workloads to arm\n";
    return false;
  }
  if (options->common.output_path == "-") options->quiet = true;
  return true;
}

void PrintBounds(const std::string& label,
                 const std::vector<scenario::GtFlowBound>& bounds) {
  if (bounds.empty()) {
    std::cout << label << ": no GT flows\n";
    return;
  }
  std::cout << "=== GT bounds: " << label << " ===\n";
  Table table({"flow", "slots/stu", "max gap", "hops", "words/rot",
               "min w/cyc", "worst lat"});
  for (const scenario::GtFlowBound& flow : bounds) {
    table.AddRow({std::to_string(flow.src) + "->" + std::to_string(flow.dst),
                  std::to_string(flow.bound.slots) + "/" +
                      std::to_string(flow.bound.table_slots),
                  std::to_string(flow.bound.max_gap_slots),
                  std::to_string(flow.bound.hops),
                  Table::Fmt(flow.bound.words_per_rotation),
                  Table::Fmt(flow.bound.min_throughput_wpc, 4),
                  Table::Fmt(flow.bound.worst_case_latency)});
  }
  table.Print(std::cout);
}

/// Runs one workload verified on the selected engines; appends the
/// (cross-checked) result JSON to `jsons` on pass. Returns 0 on pass or
/// the exit code of the first verification failure / cross-engine
/// divergence.
int RunWorkload(const CliOptions& options, scenario::ScenarioSpec spec,
                const std::string& label, std::vector<std::string>* jsons) {
  spec.verify = true;
  if (options.bounds) {
    scenario::ScenarioRunner prober(spec);
    auto bounds = prober.ComputeGtBounds();
    if (!bounds.ok()) {
      std::cerr << "noc_verify: " << label << ": " << bounds.status() << "\n";
      return 1;
    }
    PrintBounds(label, *bounds);
  }

  std::vector<std::string> engine_jsons;
  for (const sim::EngineKind engine : options.Engines()) {
    spec.engine = engine;
    scenario::ScenarioRunner runner(spec);
    auto result = runner.Run();
    if (!result.ok()) {
      const char* detail =
          result.status().code() == StatusCode::kTimeout
              ? " [bounded wait expired]"
              : result.status().code() == StatusCode::kRetriesExhausted
                    ? " [retry budget exhausted]"
                    : "";
      std::cerr << "FAIL " << label << " (" << sim::EngineKindName(engine)
                << "): " << result.status() << detail << "\n";
      return cli::ExitCodeOf(result.status());
    }
    engine_jsons.push_back(result->ToJson());
    if (!options.quiet) {
      const verify::Monitor* monitor = runner.soc()->monitor();
      std::cout << "PASS " << label << " (" << sim::EngineKindName(engine)
                << "): "
                << (monitor != nullptr ? monitor->Describe()
                                       : std::string("no monitor"));
      if (result->fault.has_value()) {
        const auto& f = *result->fault;
        std::cout << "; faults: " << f.events_total << " event(s), "
                  << f.degradations.size() << " degradation(s), GT "
                  << f.gt_words_delivered << "/" << f.gt_words_offered
                  << " words";
      }
      std::cout << "\n";
    }
  }
  for (std::size_t i = 1; i < engine_jsons.size(); ++i) {
    if (engine_jsons[i] != engine_jsons[0]) {
      std::cerr << "FAIL " << label << ": "
                << sim::EngineKindName(options.Engines()[0]) << " and "
                << sim::EngineKindName(options.Engines()[i])
                << " engines disagree bit-for-bit\n";
      return 1;
    }
  }
  jsons->push_back(engine_jsons.front());
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  CliOptions options;
  if (!ParseArgs(argc, argv, &options)) return 1;

  std::optional<fault::FaultSpec> fault_override;
  if (!options.common.fault_path.empty()) {
    fault_override =
        cli::LoadFaultOverride("noc_verify", options.common.fault_path);
    if (!fault_override.has_value()) return 1;
  }

  int failures = 0;
  int worst_code = 0;  // 4 (retries) outranks 3 (timeout) outranks 1
  const auto rank = [](int code) { return code == 4 ? 3 : code == 3 ? 2 : 1; };
  const auto tally = [&](int code) {
    if (code == 0) return;
    ++failures;
    if (worst_code == 0 || rank(code) > rank(worst_code)) worst_code = code;
  };
  std::vector<std::string> jsons;
  for (const std::string& path : options.spec_paths) {
    auto spec = scenario::LoadScenarioFile(path);
    if (!spec.ok()) {
      std::cerr << "noc_verify: " << spec.status() << "\n";
      tally(1);
      continue;
    }
    if (fault_override.has_value()) {
      if (!cli::FaultOverrideApplies("noc_verify", options.common.fault_path,
                                     *fault_override, *spec, path)) {
        tally(1);
        continue;
      }
      spec->fault = fault_override;
    }
    tally(RunWorkload(options, *spec, path, &jsons));
  }
  int workloads = static_cast<int>(options.spec_paths.size());
  const auto [fuzz_first, fuzz_last] = options.Cases(options.fuzz);
  for (int i = fuzz_first; i < fuzz_last; ++i) {
    ++workloads;
    scenario::ScenarioSpec spec =
        verify::RandomConformanceSpec(options.common.seed.value_or(1), i);
    tally(RunWorkload(options, spec, spec.name, &jsons));
  }
  const auto [fault_first, fault_last] = options.Cases(options.fault_fuzz);
  for (int i = fault_first; i < fault_last; ++i) {
    ++workloads;
    const std::uint64_t seed = options.common.seed.value_or(1);
    scenario::ScenarioSpec spec = verify::RandomFaultWorkload(seed, i);
    const int num_routers = spec.topology == scenario::TopologyKind::kStar
                                ? 1
                                : spec.topology == scenario::TopologyKind::kMesh
                                      ? spec.dim_a * spec.dim_b
                                      : spec.dim_a;
    spec.fault = fault::RandomFaultSpec(seed, i, num_routers, spec.NumNis(),
                                        spec.duration);
    tally(RunWorkload(options, spec, spec.name, &jsons));
  }
  if (failures > 0) {
    std::cerr << "noc_verify: " << failures << " workload(s) FAILED\n";
    return worst_code == 0 ? 1 : worst_code;
  }
  if (!options.common.output_path.empty() &&
      !cli::WriteOutput("noc_verify", options.common.output_path,
                        cli::JoinJsonDocuments(jsons), options.quiet)) {
    return 1;
  }
  if (!options.quiet) {
    std::cout << "noc_verify: all " << workloads
              << " workload(s) passed verified\n";
  }
  return 0;
}
