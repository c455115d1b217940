// Shared CLI layer of the NoC tools (noc_sim, noc_sweep, noc_verify).
//
// The three tools are front-ends over the same scenario stack and must
// speak the same dialect: one --engine grammar (the sim::EngineKind
// choices), one --verify / --fault / --seed / -o surface, one usage
// formatter, and one failure-to-exit-code mapping. This header is that
// dialect; each tool keeps only its genuinely tool-specific flags.
//
// Structure:
//  * ArgReader       — argv cursor with the shared "needs a value"
//                      diagnostics and checked integer parsing;
//  * CommonOptions   — the flags every tool accepts, filled by
//                      MatchCommonArg() from inside the tool's arg loop
//                      (tri-state: matched / no match / error);
//  * PrintUsage      — the one usage formatter (wrapped, aligned);
//  * ExitCodeOf      — consistent exit codes: 0 success, 1 generic
//                      failure, 3 bounded-wait expiry, 4 retry budget
//                      exhausted;
//  * fault helpers   — --fault file loading and the phased-scenario
//                      applicability rule, with shared diagnostics;
//  * output helpers  — result-document assembly ('-' streams to stdout;
//                      several documents form a JSON array).
#ifndef AETHEREAL_TOOLS_CLI_COMMON_H
#define AETHEREAL_TOOLS_CLI_COMMON_H

#include <cstdint>
#include <fstream>
#include <iostream>
#include <limits>
#include <optional>
#include <string>
#include <vector>

#include "fault/spec.h"
#include "scenario/spec.h"
#include "sim/engine.h"
#include "util/parse.h"
#include "util/status.h"

namespace aethereal::cli {

/// Cursor over argv. Owns the shared diagnostics so every tool reports
/// missing or malformed option values with identical wording.
class ArgReader {
 public:
  ArgReader(const char* prog, int argc, char** argv)
      : prog_(prog), argc_(argc), argv_(argv) {}

  const char* prog() const { return prog_; }

  /// Advances to the next argument; false when argv is exhausted.
  bool Next() {
    if (index_ + 1 >= argc_) return false;
    arg_ = argv_[++index_];
    return true;
  }

  /// The current argument.
  const std::string& Arg() const { return arg_; }

  /// True when the current argument looks like an option.
  bool IsOption() const { return !arg_.empty() && arg_[0] == '-'; }

  /// Consumes the next argument as the current option's value; nullptr
  /// (with the shared diagnostic) when argv is exhausted.
  const char* Value() {
    if (index_ + 1 >= argc_) {
      std::cerr << prog_ << ": " << arg_ << " needs a value\n";
      return nullptr;
    }
    return argv_[++index_];
  }

  /// Value() parsed as an integer in [min, max]; nullopt (with a
  /// diagnostic naming `what`) on anything else.
  std::optional<std::int64_t> IntValue(
      const char* what, std::int64_t min = 0,
      std::int64_t max = std::numeric_limits<std::int64_t>::max()) {
    const char* v = Value();
    if (v == nullptr) return std::nullopt;
    const auto parsed = ParseInt64In(v, min, max);
    if (!parsed.ok()) {
      std::cerr << prog_ << ": " << arg_ << " needs " << what << ", got '"
                << v << "'\n";
      return std::nullopt;
    }
    return *parsed;
  }

  /// Value() parsed as an unsigned 64-bit integer (ParseUint64); nullopt
  /// (with a diagnostic naming `what`) on anything else.
  std::optional<std::uint64_t> U64Value(const char* what) {
    const char* v = Value();
    if (v == nullptr) return std::nullopt;
    const auto parsed = ParseUint64(v);
    if (!parsed.ok()) {
      std::cerr << prog_ << ": " << arg_ << " needs " << what << ", got '"
                << v << "'\n";
      return std::nullopt;
    }
    return *parsed;
  }

  /// Value() parsed as a double in the OPEN interval (lo, hi); nullopt
  /// (with a diagnostic naming `what`) on anything else.
  std::optional<double> F64Value(const char* what, double lo, double hi) {
    const char* v = Value();
    if (v == nullptr) return std::nullopt;
    const auto parsed = ParseDouble(v);
    if (!parsed.ok() || *parsed <= lo || *parsed >= hi) {
      std::cerr << prog_ << ": " << arg_ << " needs " << what << ", got '"
                << v << "'\n";
      return std::nullopt;
    }
    return *parsed;
  }

 private:
  const char* prog_;
  int argc_;
  char** argv_;
  int index_ = 0;
  std::string arg_;
};

/// The option surface every tool shares. Tools interpret the fields
/// through their own semantics (e.g. `seed` overrides the scenario seed in
/// noc_sim / noc_sweep but seeds the fuzz batches in noc_verify); the
/// grammar and diagnostics are identical everywhere.
struct CommonOptions {
  std::optional<sim::EngineKind> engine;  // --engine (one specific engine)
  bool engine_all = false;                // --engine all (cross-check mode)
  bool verify = false;                    // --verify
  std::string fault_path;                 // --fault FILE ("" = none)
  std::optional<std::uint64_t> seed;      // --seed N
  std::string output_path;                // -o/--output FILE ("" = none)

  /// Stop-on-convergence overrides (--converge REL_ERR arms the mode; the
  /// --converge-* flags tune it and require it). Applied on top of any
  /// in-file `converge` directive by ApplyConvergeOverrides().
  std::optional<double> converge_rel_err;        // --converge
  std::optional<double> converge_conf;           // --converge-conf
  std::optional<Cycle> converge_max_duration;    // --converge-max-duration
  std::optional<Cycle> converge_interval;        // --converge-interval
  std::optional<int> converge_batches;           // --converge-batches
};

enum class Match {
  kNo,     // not a common option; the tool's own loop handles it
  kYes,    // consumed (including any value)
  kError,  // consumed but malformed; diagnostics already printed
};

/// Matches the current argument of `args` against the common option set.
/// `allow_engine_all` admits `--engine all` (noc_verify's cross-check
/// mode).
inline Match MatchCommonArg(ArgReader& args, CommonOptions* out,
                            bool allow_engine_all = false) {
  const std::string& arg = args.Arg();
  if (arg == "-o" || arg == "--output") {
    const char* v = args.Value();
    if (v == nullptr) return Match::kError;
    out->output_path = v;
    return Match::kYes;
  }
  if (arg == "--engine") {
    const char* v = args.Value();
    if (v == nullptr) return Match::kError;
    const std::string engine = v;
    if (allow_engine_all && engine == "all") {
      out->engine_all = true;
      out->engine.reset();
      return Match::kYes;
    }
    const auto parsed = sim::ParseEngineKind(engine);
    if (!parsed.has_value()) {
      std::cerr << args.prog() << ": --engine must be one of "
                << sim::kEngineKindChoices
                << (allow_engine_all ? "|all" : "") << ", got '" << engine
                << "'\n";
      return Match::kError;
    }
    out->engine = *parsed;
    out->engine_all = false;
    return Match::kYes;
  }
  if (arg == "--verify") {
    out->verify = true;
    return Match::kYes;
  }
  if (arg == "--fault") {
    const char* v = args.Value();
    if (v == nullptr) return Match::kError;
    out->fault_path = v;
    return Match::kYes;
  }
  if (arg == "--seed") {
    const auto parsed = args.U64Value("a non-negative integer");
    if (!parsed.has_value()) return Match::kError;
    out->seed = *parsed;
    return Match::kYes;
  }
  if (arg == "--converge") {
    const auto parsed = args.F64Value("a relative error in (0, 1)", 0.0, 1.0);
    if (!parsed.has_value()) return Match::kError;
    out->converge_rel_err = *parsed;
    return Match::kYes;
  }
  if (arg == "--converge-conf") {
    const auto parsed =
        args.F64Value("a confidence level in (0.5, 1)", 0.5, 1.0);
    if (!parsed.has_value()) return Match::kError;
    out->converge_conf = *parsed;
    return Match::kYes;
  }
  if (arg == "--converge-max-duration") {
    const auto parsed =
        args.IntValue("a positive cycle count", 1, std::int64_t{1} << 40);
    if (!parsed.has_value()) return Match::kError;
    out->converge_max_duration = *parsed;
    return Match::kYes;
  }
  if (arg == "--converge-interval") {
    // The `converge interval` directive's bounds: a check interval shorter
    // than one slot could never close a new sample window.
    const auto parsed = args.IntValue("a cycle count of at least one slot",
                                      kFlitWords, kMaxCycles);
    if (!parsed.has_value()) return Match::kError;
    out->converge_interval = *parsed;
    return Match::kYes;
  }
  if (arg == "--converge-batches") {
    const auto parsed = args.IntValue("a batch count in [2, 4096]", 2, 4096);
    if (!parsed.has_value()) return Match::kError;
    out->converge_batches = static_cast<int>(*parsed);
    return Match::kYes;
  }
  return Match::kNo;
}

/// Applies the CLI convergence overrides to a spec. --converge arms the
/// mode (or tightens an in-file `converge` directive); the tuning flags
/// require the mode to be armed — by either surface — because silently
/// ignoring them would misreport error bars. Returns false with
/// diagnostics on that misuse.
inline bool ApplyConvergeOverrides(const char* prog,
                                   const CommonOptions& options,
                                   scenario::ScenarioSpec* spec) {
  if (options.converge_rel_err.has_value()) {
    spec->converge.enabled = true;
    spec->converge.rel_err = *options.converge_rel_err;
  }
  const bool tuning = options.converge_conf.has_value() ||
                      options.converge_max_duration.has_value() ||
                      options.converge_interval.has_value() ||
                      options.converge_batches.has_value();
  if (tuning && !spec->converge.enabled) {
    std::cerr << prog << ": --converge-* flags need convergence mode armed "
              << "(pass --converge REL_ERR or add a `converge` directive "
              << "to the spec)\n";
    return false;
  }
  if (options.converge_conf.has_value()) {
    spec->converge.conf = *options.converge_conf;
  }
  if (options.converge_max_duration.has_value()) {
    spec->converge.max_duration = *options.converge_max_duration;
  }
  if (options.converge_interval.has_value()) {
    spec->converge.interval = *options.converge_interval;
  }
  if (options.converge_batches.has_value()) {
    spec->converge.batches = *options.converge_batches;
  }
  return true;
}

/// The one usage formatter: "usage: PROG PIECE PIECE ...", wrapped at 78
/// columns with continuation lines aligned under the first piece.
inline void PrintUsage(std::ostream& os, const char* prog,
                       const std::vector<std::string>& pieces) {
  const std::string head = std::string("usage: ") + prog + " ";
  const std::string indent(head.size(), ' ');
  std::string line = head;
  bool line_has_piece = false;
  for (const std::string& piece : pieces) {
    if (line_has_piece && line.size() + 1 + piece.size() > 78) {
      os << line << "\n";
      line = indent;
      line_has_piece = false;
    }
    if (line_has_piece) line += " ";
    line += piece;
    line_has_piece = true;
  }
  os << line << "\n";
}

/// CLI exit code of a failed run: bounded-wait expiries and exhausted
/// retry budgets get their own codes so scripts can tell "the workload is
/// wedged" from "the spec is wrong" without parsing stderr.
inline int ExitCodeOf(const Status& status) {
  switch (status.code()) {
    case StatusCode::kTimeout:
      return 3;
    case StatusCode::kRetriesExhausted:
      return 4;
    default:
      return 1;
  }
}

/// Loads a --fault FILE override; nullopt (diagnostics printed) on error.
inline std::optional<fault::FaultSpec> LoadFaultOverride(
    const char* prog, const std::string& path) {
  auto loaded = fault::LoadFaultFile(path);
  if (!loaded.ok()) {
    std::cerr << prog << ": --fault " << path << ": " << loaded.status()
              << "\n";
    return std::nullopt;
  }
  return std::move(*loaded);
}

/// The applicability rule a fault override shares with in-file fault
/// blocks: config faults and the retry policy act on the runtime
/// configuration protocol, which only phased scenarios exercise. Returns
/// false (diagnostics printed, naming `label`) when the override cannot
/// arm `spec`.
inline bool FaultOverrideApplies(const char* prog,
                                 const std::string& fault_path,
                                 const fault::FaultSpec& fault,
                                 const scenario::ScenarioSpec& spec,
                                 const std::string& label) {
  if ((fault.AnyConfigFaults() || fault.retry.enabled) && !spec.Phased()) {
    std::cerr << prog << ": --fault " << fault_path << ": config faults "
              << "and the retry policy act on the runtime configuration "
              << "protocol, which only phased scenarios exercise ('" << label
              << "' is not phased)\n";
    return false;
  }
  return true;
}

/// Assembles the output document: a single result stays a bare object; a
/// batch becomes a JSON array of them.
inline std::string JoinJsonDocuments(const std::vector<std::string>& jsons) {
  if (jsons.size() == 1) return jsons.front();
  std::string document = "[\n";
  for (std::size_t i = 0; i < jsons.size(); ++i) {
    std::string entry = jsons[i];
    if (!entry.empty() && entry.back() == '\n') entry.pop_back();
    document += entry;
    document += i + 1 < jsons.size() ? ",\n" : "\n";
  }
  document += "]\n";
  return document;
}

/// Writes `content` to `path`; '-' streams to stdout. Returns false (with
/// diagnostics) on I/O failure; announces the file unless quiet.
inline bool WriteOutput(const char* prog, const std::string& path,
                        const std::string& content, bool quiet) {
  if (path == "-") {
    std::cout << content;
    return true;
  }
  std::ofstream out(path);
  out << content;
  out.flush();
  if (!out.good()) {
    std::cerr << prog << ": failed writing '" << path << "'\n";
    return false;
  }
  if (!quiet) std::cout << "wrote " << path << "\n";
  return true;
}

}  // namespace aethereal::cli

#endif  // AETHEREAL_TOOLS_CLI_COMMON_H
