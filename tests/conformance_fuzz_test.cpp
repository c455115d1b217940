// Randomized conformance fuzzing: seeded random topologies, slot
// allocations and traffic mixes run with the full verification layer armed
// (runtime invariant monitor + analytical GT bounds), on every engine,
// with cross-engine byte-identity of the result JSON. CI runs a larger
// batch through noc_verify --fuzz under ASan; this test keeps a
// fixed-seed slice in every ctest run.
#include <gtest/gtest.h>

#include "scenario/runner.h"
#include "scenario/spec.h"
#include "sim/engine.h"
#include "verify/fuzz.h"

namespace aethereal::verify {
namespace {

constexpr std::uint64_t kBatchSeed = 0xAE7E12EAu;
constexpr int kConfigs = 25;

std::string DescribeSpec(const scenario::ScenarioSpec& spec) {
  std::string out = spec.name;
  out += " (";
  out += scenario::TopologyKindName(spec.topology);
  out += ", " + std::to_string(spec.NumNis()) + " NIs, stu " +
         std::to_string(spec.stu_slots) + ", " +
         std::to_string(spec.traffic.size()) + " directives:";
  for (const scenario::TrafficSpec& traffic : spec.traffic) {
    out += " ";
    out += scenario::PatternKindName(traffic.pattern);
    out += traffic.gt ? "/gt" + std::to_string(traffic.gt_slots) : "/be";
  }
  out += ")";
  return out;
}

TEST(ConformanceFuzz, SeededBatchPassesVerifiedOnAllEngines) {
  for (int i = 0; i < kConfigs; ++i) {
    scenario::ScenarioSpec spec = RandomConformanceSpec(kBatchSeed, i);
    ASSERT_TRUE(spec.verify);
    SCOPED_TRACE(DescribeSpec(spec));

    spec.engine = sim::EngineKind::kNaive;
    scenario::ScenarioRunner naive(spec);
    auto ref = naive.Run();
    ASSERT_TRUE(ref.ok()) << ref.status();

    spec.engine = sim::EngineKind::kSoa;
    scenario::ScenarioRunner gated(spec);
    auto run = gated.Run();
    ASSERT_TRUE(run.ok()) << run.status();

    // The engines must agree bit-for-bit even under checker load (the
    // result JSON carries no engine identifier by design).
    EXPECT_EQ(run->ToJson(), ref->ToJson());
  }
}

TEST(ConformanceFuzz, GeneratorIsDeterministic) {
  for (int i : {0, 7, 19}) {
    const scenario::ScenarioSpec a = RandomConformanceSpec(kBatchSeed, i);
    const scenario::ScenarioSpec b = RandomConformanceSpec(kBatchSeed, i);
    EXPECT_EQ(a.name, b.name);
    EXPECT_EQ(a.seed, b.seed);
    EXPECT_EQ(a.NumNis(), b.NumNis());
    EXPECT_EQ(a.stu_slots, b.stu_slots);
    ASSERT_EQ(a.traffic.size(), b.traffic.size());
    for (std::size_t t = 0; t < a.traffic.size(); ++t) {
      EXPECT_EQ(a.traffic[t].pattern, b.traffic[t].pattern);
      EXPECT_EQ(a.traffic[t].gt, b.traffic[t].gt);
      EXPECT_EQ(a.traffic[t].gt_slots, b.traffic[t].gt_slots);
      EXPECT_EQ(a.traffic[t].inject, b.traffic[t].inject);
      EXPECT_EQ(a.traffic[t].period, b.traffic[t].period);
      EXPECT_EQ(a.traffic[t].rate, b.traffic[t].rate);
    }
  }
}

TEST(ConformanceFuzz, DistinctIndicesExploreDistinctConfigs) {
  // Not a hard requirement of the seeding contract, but if every index
  // collapsed to the same config the fuzzer would be worthless.
  int distinct = 0;
  const scenario::ScenarioSpec first = RandomConformanceSpec(kBatchSeed, 0);
  for (int i = 1; i < 8; ++i) {
    const scenario::ScenarioSpec spec = RandomConformanceSpec(kBatchSeed, i);
    if (spec.NumNis() != first.NumNis() ||
        spec.stu_slots != first.stu_slots ||
        spec.traffic.size() != first.traffic.size()) {
      ++distinct;
    }
  }
  EXPECT_GT(distinct, 0);
}

}  // namespace
}  // namespace aethereal::verify
