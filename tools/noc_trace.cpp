// noc_trace — summarizes a Chrome trace_event JSON file recorded by the
// observability subsystem (noc_sim --trace / a scenario `trace` line).
//
// The writer emits one event per line (obs/trace.cpp), so this tool is a
// line scanner, not a JSON parser: it extracts the few fields it needs
// ("cat", "name", "ts", "args.site") with plain string matching and folds
// them into per-category and per-event counts, the cycle span, the
// busiest trace sites, and the trailing drop_accounting metadata the
// tracer appends (recorded/dropped per category — the completeness proof).
//
// Usage:
//   noc_trace [options] TRACE_FILE
//     --top N             show the N busiest sites (default 5)
//     --assert-no-drops   exit 2 when any ring dropped events (CI smoke:
//                         the default cap must hold a canonical run)
//     --quiet             suppress everything except assertion failures
//
// Exit status: 0 on success, 1 on I/O or format errors, 2 when
// --assert-no-drops found drops.
#include <algorithm>
#include <cstdint>
#include <fstream>
#include <iostream>
#include <map>
#include <optional>
#include <string>
#include <vector>

#include "cli_common.h"
#include "obs/trace.h"
#include "util/table.h"

using namespace aethereal;

namespace {

struct CliOptions {
  std::string trace_path;
  std::int64_t top = 5;
  bool assert_no_drops = false;
  bool quiet = false;
};

void PrintUsage(std::ostream& os) {
  cli::PrintUsage(os, "noc_trace",
                  {"[--top N]", "[--assert-no-drops]", "[--quiet]",
                   "TRACE_FILE"});
}

bool ParseArgs(int argc, char** argv, CliOptions* options) {
  cli::ArgReader args("noc_trace", argc, argv);
  while (args.Next()) {
    const std::string& arg = args.Arg();
    if (arg == "--top") {
      const auto parsed = args.IntValue("a site count >= 1", 1, 1000);
      if (!parsed.has_value()) return false;
      options->top = *parsed;
    } else if (arg == "--assert-no-drops") {
      options->assert_no_drops = true;
    } else if (arg == "--quiet") {
      options->quiet = true;
    } else if (arg == "-h" || arg == "--help") {
      PrintUsage(std::cout);
      std::exit(0);
    } else if (args.IsOption()) {
      std::cerr << "noc_trace: unknown option '" << arg << "'\n";
      return false;
    } else if (options->trace_path.empty()) {
      options->trace_path = arg;
    } else {
      std::cerr << "noc_trace: exactly one TRACE_FILE\n";
      return false;
    }
  }
  if (options->trace_path.empty()) {
    std::cerr << "noc_trace: no trace file given\n";
    PrintUsage(std::cerr);
    return false;
  }
  return true;
}

/// The value of `"key":"..."` on `line`; nullopt when the key is absent.
std::optional<std::string> StringField(const std::string& line,
                                       const std::string& key) {
  const std::string needle = "\"" + key + "\":\"";
  const std::size_t at = line.find(needle);
  if (at == std::string::npos) return std::nullopt;
  const std::size_t begin = at + needle.size();
  const std::size_t end = line.find('"', begin);
  if (end == std::string::npos) return std::nullopt;
  return line.substr(begin, end - begin);
}

/// The value of `"key":N` on `line`; nullopt when absent or non-numeric.
std::optional<std::int64_t> IntField(const std::string& line,
                                     const std::string& key) {
  const std::string needle = "\"" + key + "\":";
  const std::size_t at = line.find(needle);
  if (at == std::string::npos) return std::nullopt;
  std::size_t i = at + needle.size();
  bool negative = false;
  if (i < line.size() && line[i] == '-') {
    negative = true;
    ++i;
  }
  if (i >= line.size() || line[i] < '0' || line[i] > '9') return std::nullopt;
  std::int64_t value = 0;
  for (; i < line.size() && line[i] >= '0' && line[i] <= '9'; ++i) {
    value = value * 10 + (line[i] - '0');
  }
  return negative ? -value : value;
}

struct CatTally {
  std::int64_t in_file = 0;   // event lines seen in the document
  std::int64_t recorded = 0;  // from drop_accounting
  std::int64_t dropped = 0;   // from drop_accounting
  std::map<std::string, std::int64_t> by_name;
};

}  // namespace

int main(int argc, char** argv) {
  CliOptions options;
  if (!ParseArgs(argc, argv, &options)) return 1;

  std::ifstream in(options.trace_path);
  if (!in.good()) {
    std::cerr << "noc_trace: cannot open '" << options.trace_path << "'\n";
    return 1;
  }

  std::map<std::string, CatTally> cats;
  std::map<std::string, std::int64_t> site_events;
  std::int64_t total_events = 0;
  std::optional<Cycle> ts_min;
  Cycle ts_max = 0;
  bool saw_accounting = false;

  std::string line;
  while (std::getline(in, line)) {
    const auto cat = StringField(line, "cat");
    if (!cat.has_value()) continue;  // document framing lines
    if (*cat == "meta") {
      // The trailing drop_accounting event: per-category recorded/dropped.
      saw_accounting = true;
      for (int c = 0; c < obs::kNumTraceCats; ++c) {
        const char* name = obs::TraceCatName(static_cast<obs::TraceCat>(c));
        CatTally& tally = cats[name];
        tally.recorded = IntField(line, std::string(name) + "_recorded")
                             .value_or(tally.recorded);
        tally.dropped = IntField(line, std::string(name) + "_dropped")
                            .value_or(tally.dropped);
      }
      continue;
    }
    CatTally& tally = cats[*cat];
    ++tally.in_file;
    ++total_events;
    if (const auto name = StringField(line, "name"); name.has_value()) {
      ++tally.by_name[*name];
    }
    if (const auto ts = IntField(line, "ts"); ts.has_value()) {
      if (!ts_min.has_value() || *ts < *ts_min) ts_min = *ts;
      ts_max = std::max(ts_max, *ts);
    }
    if (const auto site = StringField(line, "site"); site.has_value()) {
      ++site_events[*site];
    }
  }

  if (total_events == 0 && !saw_accounting) {
    std::cerr << "noc_trace: '" << options.trace_path
              << "' holds no trace events (not a noc_sim trace?)\n";
    return 1;
  }

  std::int64_t total_dropped = 0;
  for (const auto& [name, tally] : cats) total_dropped += tally.dropped;

  if (!options.quiet) {
    std::cout << "=== trace " << options.trace_path << " (" << total_events
              << " events";
    if (ts_min.has_value()) {
      std::cout << ", cycles " << *ts_min << ".." << ts_max;
    }
    std::cout << ") ===\n";
    Table table({"category", "in file", "recorded", "dropped", "events"});
    for (const auto& [name, tally] : cats) {
      std::string names;
      for (const auto& [event, count] : tally.by_name) {
        if (!names.empty()) names += " ";
        names += event + ":" + std::to_string(count);
      }
      table.AddRow({name, Table::Fmt(tally.in_file),
                    Table::Fmt(tally.recorded), Table::Fmt(tally.dropped),
                    names});
    }
    table.Print(std::cout);
    if (!saw_accounting) {
      std::cout << "warning: no drop_accounting event (truncated trace?)\n";
    }
    if (!site_events.empty()) {
      // Busiest sites by event count; ties break alphabetically so the
      // summary is deterministic.
      std::vector<std::pair<std::string, std::int64_t>> busiest(
          site_events.begin(), site_events.end());
      std::stable_sort(busiest.begin(), busiest.end(),
                       [](const auto& a, const auto& b) {
                         return a.second > b.second;
                       });
      if (static_cast<std::int64_t>(busiest.size()) > options.top) {
        busiest.resize(static_cast<std::size_t>(options.top));
      }
      Table sites({"site", "events"});
      for (const auto& [site, count] : busiest) {
        sites.AddRow({site, Table::Fmt(count)});
      }
      std::cout << "busiest sites:\n";
      sites.Print(std::cout);
    }
  }

  if (options.assert_no_drops) {
    if (!saw_accounting) {
      std::cerr << "noc_trace: --assert-no-drops: no drop_accounting event "
                   "in '"
                << options.trace_path << "'\n";
      return 2;
    }
    if (total_dropped > 0) {
      std::cerr << "noc_trace: --assert-no-drops: " << total_dropped
                << " event(s) dropped (raise the trace cap)\n";
      return 2;
    }
    if (!options.quiet) std::cout << "no dropped events\n";
  }
  return 0;
}
