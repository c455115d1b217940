// Seeded mutational fuzz of the three spec grammars. Every canonical
// .scn, .swp and .flt file is mutated token by token (drop, duplicate,
// swap, and substitution of boundary numbers), and each mutant must either
// parse or be rejected with a non-OK Status: never abort, hang or trip a
// sanitizer. A value that slips past a parser usually blows up later, when
// the SoC is wired, so parsed scenario mutants are also wired
// (InspectScenario), and parsed sweep mutants materialize every grid point
// and wire the first.
//
// Fixed seed and count: the test is deterministic and sized for tier-1 and
// the ASan/UBSan build alike.
#include <filesystem>
#include <fstream>
#include <set>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "fault/spec.h"
#include "scenario/inspect.h"
#include "scenario/spec.h"
#include "sweep/spec.h"
#include "util/parse.h"
#include "util/rng.h"

// In a sanitizer build, make the first UBSan report fatal so an overflow
// a mutant provokes fails the test instead of scrolling past.
extern "C" const char* __ubsan_default_options() {
  return "halt_on_error=1:print_stacktrace=1";
}

namespace aethereal {
namespace {

namespace fs = std::filesystem;

constexpr std::uint64_t kSeed = 2026;
constexpr int kMutantsPerFile = 400;
constexpr int kMaxMutationsPerMutant = 2;

/// Numbers at the edges of what the grammars and the integer types hold.
const char* const kBoundaryNumbers[] = {
    "0", "-1", "2147483648", "9223372036854775807", "nan", "inf",
};

std::string ReadFile(const fs::path& path) {
  std::ifstream in(path);
  EXPECT_TRUE(in.good()) << "cannot open " << path;
  std::ostringstream text;
  text << in.rdbuf();
  return text.str();
}

std::set<fs::path> FilesWithExtension(const fs::path& dir,
                                      const std::string& extension) {
  std::set<fs::path> files;  // sorted, so the mutant stream is stable
  for (const auto& entry : fs::directory_iterator(dir)) {
    if (entry.path().extension() == extension) files.insert(entry.path());
  }
  return files;
}

/// Applies 1..kMaxMutationsPerMutant random token mutations to `text` and
/// returns the mutant, one line per source line. Directive keywords (the
/// first token of a line) are left alone so most mutants get past the
/// dispatch and into the value checks: a drop, duplicate or swap acts on
/// the arguments of one line, and a substitution replaces one number
/// anywhere in the file with a boundary number.
std::string Mutate(const std::string& text, Rng& rng) {
  std::vector<std::vector<std::string>> lines;
  std::vector<std::pair<std::size_t, std::size_t>> numbers;
  for (SpecLine& line : TokenizeSpec(text)) {
    for (std::size_t t = 1; t < line.tokens.size(); ++t) {
      if (ParseDouble(line.tokens[t]).ok()) {
        numbers.emplace_back(lines.size(), t);
      }
    }
    lines.push_back(std::move(line.tokens));
  }
  const auto mutations = 1 + rng.NextBelow(kMaxMutationsPerMutant);
  for (std::uint64_t m = 0; m < mutations; ++m) {
    const std::uint64_t op = rng.NextBelow(5);
    if (op >= 3 && !numbers.empty()) {
      const auto [l, t] = numbers[rng.NextBelow(numbers.size())];
      if (t < lines[l].size()) {
        lines[l][t] =
            kBoundaryNumbers[rng.NextBelow(std::size(kBoundaryNumbers))];
      }
      continue;
    }
    std::vector<std::string>& tokens = lines[rng.NextBelow(lines.size())];
    if (tokens.size() < 2) continue;
    const std::size_t at = 1 + rng.NextBelow(tokens.size() - 1);
    const auto it = tokens.begin() + static_cast<std::ptrdiff_t>(at);
    if (op == 0) {
      tokens.erase(it);
    } else if (op == 1) {
      tokens.insert(it, tokens[at]);
    } else {
      std::swap(tokens[at], tokens[1 + rng.NextBelow(tokens.size() - 1)]);
    }
  }
  std::string mutant;
  for (const std::vector<std::string>& tokens : lines) {
    for (const std::string& token : tokens) mutant += token + " ";
    mutant += "\n";
  }
  return mutant;
}

TEST(SpecFuzzTest, ScenarioMutantsParseAndWireOrFail) {
  Rng rng(kSeed);
  int parsed = 0;
  int rejected = 0;
  for (const fs::path& path :
       FilesWithExtension(AETHEREAL_SCENARIO_DIR, ".scn")) {
    const std::string text = ReadFile(path);
    for (int i = 0; i < kMutantsPerFile; ++i) {
      const std::string mutant = Mutate(text, rng);
      SCOPED_TRACE(path.filename().string() + " mutant:\n" + mutant);
      auto spec = scenario::ParseScenario(mutant);
      if (!spec.ok()) {
        EXPECT_FALSE(spec.status().message().empty());
        ++rejected;
        continue;
      }
      ++parsed;
      // Wiring may still refuse the spec (slot tables full, a pattern the
      // topology cannot hold); it must do so with a Status.
      auto inspection = scenario::InspectScenario(*spec);
      if (!inspection.ok()) {
        EXPECT_FALSE(inspection.status().message().empty());
      }
    }
  }
  // Both outcomes must occur, or the mutations are too weak or too wild.
  EXPECT_GT(parsed, 0);
  EXPECT_GT(rejected, 0);
}

TEST(SpecFuzzTest, SweepMutantsParseAndMaterializeOrFail) {
  Rng rng(kSeed);
  const fs::path dir = fs::path(AETHEREAL_SCENARIO_DIR) / "sweeps";
  auto load_base = [&](const std::string& base) {
    return scenario::LoadScenarioFile((dir / base).string());
  };
  int parsed = 0;
  int rejected = 0;
  for (const fs::path& path : FilesWithExtension(dir, ".swp")) {
    const std::string text = ReadFile(path);
    for (int i = 0; i < kMutantsPerFile; ++i) {
      const std::string mutant = Mutate(text, rng);
      SCOPED_TRACE(path.filename().string() + " mutant:\n" + mutant);
      auto spec = sweep::ParseSweep(mutant, load_base);
      if (!spec.ok()) {
        EXPECT_FALSE(spec.status().message().empty());
        ++rejected;
        continue;
      }
      ++parsed;
      for (const sweep::GridPoint& point : sweep::ExpandGrid(*spec)) {
        auto materialized = sweep::MaterializePoint(*spec, point);
        if (!materialized.ok() || point.index != 0) continue;
        auto inspection = scenario::InspectScenario(*materialized);
        if (!inspection.ok()) {
          EXPECT_FALSE(inspection.status().message().empty());
        }
      }
    }
  }
  EXPECT_GT(parsed, 0);
  EXPECT_GT(rejected, 0);
}

TEST(SpecFuzzTest, FaultFileMutantsParseOrFail) {
  Rng rng(kSeed);
  int parsed = 0;
  int rejected = 0;
  const fs::path dir = fs::path(AETHEREAL_SCENARIO_DIR) / "faults";
  for (const fs::path& path : FilesWithExtension(dir, ".flt")) {
    const std::string text = ReadFile(path);
    // Fault files are parse-only and cheap: mutate them harder.
    for (int i = 0; i < 10 * kMutantsPerFile; ++i) {
      const std::string mutant = Mutate(text, rng);
      SCOPED_TRACE(path.filename().string() + " mutant:\n" + mutant);
      auto spec = fault::ParseFaultText(mutant);
      if (spec.ok()) {
        ++parsed;
      } else {
        EXPECT_FALSE(spec.status().message().empty());
        ++rejected;
      }
    }
  }
  EXPECT_GT(parsed, 0);
  EXPECT_GT(rejected, 0);
}

}  // namespace
}  // namespace aethereal
