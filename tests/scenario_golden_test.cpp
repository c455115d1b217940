// Golden-results regression: every canonical scenario spec in scenarios/
// must reproduce its committed result JSON byte for byte. This locks the
// *content* of the simulation — delivered word counts, latency summaries,
// slot utilization — so an engine change that alters behaviour is caught
// even if it stays self-consistent (the bit-exactness test only compares
// the two engines against each other). Every scenario runs on both
// engines, each pinned to the same golden.
//
// To regenerate after an intentional behaviour change:
//   ./scripts/regen_goldens.sh <build-dir>
#include <filesystem>
#include <fstream>
#include <set>
#include <sstream>
#include <string>

#include <gtest/gtest.h>

#include "scenario/runner.h"
#include "scenario/spec.h"
#include "sim/engine.h"

namespace aethereal::scenario {
namespace {

namespace fs = std::filesystem;

std::string ReadFile(const fs::path& path) {
  std::ifstream in(path);
  EXPECT_TRUE(in.good()) << "cannot open " << path;
  std::ostringstream text;
  text << in.rdbuf();
  return text.str();
}

std::set<fs::path> CanonicalSpecs() {
  std::set<fs::path> specs;  // sorted for stable test order
  for (const auto& entry : fs::directory_iterator(AETHEREAL_SCENARIO_DIR)) {
    if (entry.path().extension() == ".scn") specs.insert(entry.path());
  }
  return specs;
}

TEST(ScenarioGoldenTest, CanonicalSuiteIsComplete) {
  // The acceptance bar: at least 8 canonical scenarios (3+ of them phased
  // use-case switches), and together they exercise every pattern kind.
  const auto specs = CanonicalSpecs();
  EXPECT_GE(specs.size(), 11u);
  std::set<PatternKind> kinds;
  std::size_t phased = 0;
  for (const fs::path& path : specs) {
    auto spec = LoadScenarioFile(path.string());
    ASSERT_TRUE(spec.ok()) << spec.status();
    if (spec->Phased()) ++phased;
    for (const TrafficSpec& traffic : spec->traffic) {
      kinds.insert(traffic.pattern);
    }
  }
  EXPECT_EQ(kinds.size(), 9u) << "canonical suite misses a pattern kind";
  EXPECT_GE(phased, 3u) << "canonical suite misses phased scenarios";
}

// Both engines are pinned to the same committed bytes, so a change that
// keeps them agreeing with each other but drifts both is caught too.
class ScenarioGoldenEngineTest
    : public ::testing::TestWithParam<sim::EngineKind> {};

TEST_P(ScenarioGoldenEngineTest, EveryCanonicalScenarioMatchesItsGolden) {
  for (const fs::path& path : CanonicalSpecs()) {
    SCOPED_TRACE(path.filename().string());
    auto spec = LoadScenarioFile(path.string());
    ASSERT_TRUE(spec.ok()) << spec.status();
    // Observability off is the canonical setting: its cost when disabled
    // is one null-pointer check and its behavioural footprint is zero.
    ASSERT_FALSE(spec->obs.Enabled())
        << "canonical specs must keep observability off";
    spec->engine = GetParam();

    ScenarioRunner runner(*spec);
    auto result = runner.Run();
    ASSERT_TRUE(result.ok()) << result.status();
    const std::string actual = result->ToJson();

    const fs::path golden_path = fs::path(AETHEREAL_GOLDEN_DIR) /
                                 path.stem().replace_extension(".json");
    ASSERT_TRUE(fs::exists(golden_path))
        << "missing golden " << golden_path
        << " — run ./scripts/regen_goldens.sh";
    const std::string golden = ReadFile(golden_path);
    EXPECT_EQ(actual, golden)
        << "result drifted from " << golden_path
        << " — if the change is intentional, run ./scripts/regen_goldens.sh";
  }
}

INSTANTIATE_TEST_SUITE_P(
    Engines, ScenarioGoldenEngineTest,
    ::testing::Values(sim::EngineKind::kNaive, sim::EngineKind::kSoa),
    [](const ::testing::TestParamInfo<sim::EngineKind>& info) {
      return std::string(sim::EngineKindName(info.param));
    });

}  // namespace
}  // namespace aethereal::scenario
