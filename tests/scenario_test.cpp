// Scenario-layer unit tests: spec parsing, pattern expansion, runner
// wiring, and the determinism contract (same spec + seed -> identical
// result JSON, on either engine).
#include <set>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "scenario/patterns.h"
#include "scenario/runner.h"
#include "scenario/spec.h"
#include "util/rng.h"

namespace aethereal::scenario {
namespace {

ScenarioSpec MustParse(const std::string& text) {
  auto spec = ParseScenario(text);
  EXPECT_TRUE(spec.ok()) << spec.status();
  return *spec;
}

// ---------------------------------------------------------------------------
// Parsing
// ---------------------------------------------------------------------------

TEST(ScenarioSpecTest, ParsesDefaultsAndDirectives) {
  const ScenarioSpec spec = MustParse(R"(
    scenario demo
    noc mesh 2 3 2         # 12 NIs
    stu 16
    netmhz 400
    queues 16
    seed 42
    warmup 100
    duration 5000
    engine naive
    traffic uniform inject bernoulli 0.25 qos be
    traffic hotspot 3 inject periodic 7 qos gt 2 data_threshold 3
    traffic video 0 1 2 inject bursty 5 20 credit_threshold 4
    traffic memory 0 5 inject closed burst 8 read_fraction 0.75
  )");
  EXPECT_EQ(spec.name, "demo");
  EXPECT_EQ(spec.topology, TopologyKind::kMesh);
  EXPECT_EQ(spec.NumNis(), 12);
  EXPECT_EQ(spec.stu_slots, 16);
  EXPECT_EQ(spec.net_mhz, 400.0);
  EXPECT_EQ(spec.queue_words, 16);
  EXPECT_EQ(spec.seed, 42u);
  EXPECT_EQ(spec.warmup, 100);
  EXPECT_EQ(spec.duration, 5000);
  EXPECT_EQ(spec.engine, sim::EngineKind::kNaive);
  ASSERT_EQ(spec.traffic.size(), 4u);

  EXPECT_EQ(spec.traffic[0].pattern, PatternKind::kUniform);
  EXPECT_EQ(spec.traffic[0].inject, InjectKind::kBernoulli);
  EXPECT_EQ(spec.traffic[0].rate, 0.25);

  EXPECT_EQ(spec.traffic[1].pattern, PatternKind::kHotspot);
  EXPECT_EQ(spec.traffic[1].hotspot, 3);
  EXPECT_EQ(spec.traffic[1].period, 7);
  EXPECT_TRUE(spec.traffic[1].gt);
  EXPECT_EQ(spec.traffic[1].gt_slots, 2);
  EXPECT_EQ(spec.traffic[1].data_threshold, 3);

  EXPECT_EQ(spec.traffic[2].pattern, PatternKind::kVideo);
  EXPECT_EQ(spec.traffic[2].nis, (std::vector<NiId>{0, 1, 2}));
  EXPECT_EQ(spec.traffic[2].inject, InjectKind::kBursty);
  EXPECT_EQ(spec.traffic[2].burst_words, 5);
  EXPECT_EQ(spec.traffic[2].gap_cycles, 20);
  EXPECT_EQ(spec.traffic[2].credit_threshold, 4);

  EXPECT_EQ(spec.traffic[3].pattern, PatternKind::kMemory);
  EXPECT_EQ(spec.traffic[3].inject, InjectKind::kClosedLoop);
  EXPECT_EQ(spec.traffic[3].mem_burst_words, 8);
  EXPECT_EQ(spec.traffic[3].read_fraction, 0.75);
}

TEST(ScenarioSpecTest, IpClockDefaultsToTheNetworkClock) {
  const ScenarioSpec plain = MustParse("netmhz 400\nnoc star 4\n"
                                       "traffic uniform\n");
  EXPECT_FALSE(plain.ip_mhz.has_value());
  EXPECT_EQ(plain.IpMhz(), 400.0);
  const ScenarioSpec slow = MustParse("ipmhz 125\nnoc star 4\n"
                                      "traffic uniform\n");
  EXPECT_EQ(slow.IpMhz(), 125.0);
  EXPECT_EQ(slow.net_mhz, 500.0);
}

TEST(ScenarioSpecTest, RejectsMalformedInput) {
  // Each case: (description text, expected error fragment).
  const std::vector<std::pair<std::string, std::string>> cases = {
      {"traffic uniform", "'noc' must come before"},
      {"noc star 4", "no 'traffic'"},
      {"noc star 4\ntraffic uniform inject bogus 1", "unknown inject"},
      {"noc star 4\ntraffic warp", "unknown pattern"},
      {"noc star 4\ntraffic uniform qos gt", "missing arguments"},
      {"noc star 4\ntraffic uniform qos maybe", "qos must be"},
      {"noc star 4\ntraffic hotspot", "exactly one target"},
      {"noc star 4\ntraffic pairs 0 1 2", "even NI-id list"},
      {"noc star 4\ntraffic video 2", "chain of >= 2"},
      {"noc star 4\ntraffic memory 1", "memory needs"},
      {"noc star 4\ntraffic uniform inject closed", "memory-pattern only"},
      {"noc star 4\ntraffic memory 0 1 inject bursty 4 10",
       "periodic/bernoulli/closed"},
      {"noc star 4\ntraffic uniform inject bernoulli 1.5", "rate must be"},
      {"noc triangle 4\ntraffic uniform", "unknown topology"},
      {"noc ring 2 1\ntraffic uniform", "out of range [3, 4096]"},
      {"noc star 3000000000\ntraffic uniform", "star needs 1.."},
      {"noc mesh 70000 70000 1\ntraffic uniform", "out of range"},
      {"noc mesh 64 64 2\ntraffic uniform", "at most"},
      {"noc ring 100 64\ntraffic uniform", "at most"},
      {"noc star 6\nstu 4294967297\ntraffic uniform", "stu must be in"},
      {"noc star 6\ntraffic hotspot 4294967300", "out of range"},
      {"noc star 6\nseed -1\ntraffic uniform", "seed must be >= 0"},
      {"noc star 4\ntraffic memory 0 1 burst 300", "out of range [1, 62]"},
      {"noc star 4\ntraffic uniform burst 16", "'burst' is memory-only"},
      {"noc star 4\ntraffic pairs 0 1 read_fraction 0.5",
       "'read_fraction' is memory-only"},
      {"noc star 4\nnoc star 4\ntraffic uniform", "duplicate 'noc'"},
      {"noc star 4\nbogus 7\ntraffic uniform", "unknown directive"},
  };
  for (const auto& [text, fragment] : cases) {
    auto spec = ParseScenario(text);
    ASSERT_FALSE(spec.ok()) << "accepted: " << text;
    EXPECT_NE(spec.status().message().find(fragment), std::string::npos)
        << "error for '" << text << "' was: " << spec.status();
  }
}

// ---------------------------------------------------------------------------
// Pattern expansion
// ---------------------------------------------------------------------------

TEST(PatternTest, UniformPartnersIsFixedPointFreePermutation) {
  for (std::uint64_t seed : {1u, 7u, 99u}) {
    Rng rng(seed);
    const auto partners = UniformPartners(16, rng);
    std::set<NiId> seen(partners.begin(), partners.end());
    EXPECT_EQ(seen.size(), 16u);  // a permutation
    for (int i = 0; i < 16; ++i) {
      EXPECT_NE(partners[static_cast<std::size_t>(i)], i)
          << "fixed point at " << i << " with seed " << seed;
    }
  }
  // Deterministic for a given stream.
  Rng a(5), b(5);
  EXPECT_EQ(UniformPartners(8, a), UniformPartners(8, b));
}

TEST(PatternTest, TransposeMapsMeshCoordinates) {
  const ScenarioSpec spec =
      MustParse("noc mesh 4 4 1\ntraffic transpose");
  Rng rng(1);
  auto flows = ExpandPattern(spec, spec.traffic[0], rng);
  ASSERT_TRUE(flows.ok()) << flows.status();
  EXPECT_EQ(flows->size(), 12u);  // 16 NIs minus the 4 diagonal ones
  for (const Flow& flow : *flows) {
    const int r = flow.src / 4, c = flow.src % 4;
    EXPECT_EQ(flow.dst, c * 4 + r);
    EXPECT_NE(flow.src, flow.dst);
  }
}

TEST(PatternTest, BitPatternsRequirePowerOfTwo) {
  const ScenarioSpec spec = MustParse("noc star 6\ntraffic bitcomp");
  Rng rng(1);
  EXPECT_FALSE(ExpandPattern(spec, spec.traffic[0], rng).ok());

  const ScenarioSpec ok = MustParse("noc star 8\ntraffic bitcomp");
  auto flows = ExpandPattern(ok, ok.traffic[0], rng);
  ASSERT_TRUE(flows.ok()) << flows.status();
  EXPECT_EQ(flows->size(), 8u);
  for (const Flow& flow : *flows) EXPECT_EQ(flow.dst, 7 & ~flow.src);
}

TEST(PatternTest, BitReversalSkipsPalindromes) {
  const ScenarioSpec spec = MustParse("noc star 8\ntraffic bitrev");
  Rng rng(1);
  auto flows = ExpandPattern(spec, spec.traffic[0], rng);
  ASSERT_TRUE(flows.ok()) << flows.status();
  // 3-bit reversal: 0,2,5,7 are palindromic -> 4 flows remain.
  EXPECT_EQ(flows->size(), 4u);
  for (const Flow& flow : *flows) {
    const int i = flow.src;
    const int rev = ((i & 1) << 2) | (i & 2) | ((i >> 2) & 1);
    EXPECT_EQ(flow.dst, rev);
  }
}

TEST(PatternTest, HotspotAndNeighborAndPairs) {
  const ScenarioSpec spec = MustParse(
      "noc star 5\ntraffic hotspot 2\ntraffic neighbor\ntraffic pairs 0 4");
  Rng rng(1);
  auto hotspot = ExpandPattern(spec, spec.traffic[0], rng);
  ASSERT_TRUE(hotspot.ok());
  EXPECT_EQ(hotspot->size(), 4u);
  for (const Flow& flow : *hotspot) EXPECT_EQ(flow.dst, 2);

  auto neighbor = ExpandPattern(spec, spec.traffic[1], rng);
  ASSERT_TRUE(neighbor.ok());
  EXPECT_EQ(neighbor->size(), 5u);
  for (const Flow& flow : *neighbor) EXPECT_EQ(flow.dst, (flow.src + 1) % 5);

  auto pairs = ExpandPattern(spec, spec.traffic[2], rng);
  ASSERT_TRUE(pairs.ok());
  EXPECT_EQ(*pairs, (std::vector<Flow>{{0, 4}}));
}

TEST(PatternTest, RejectsStructuralViolations) {
  Rng rng(1);
  const ScenarioSpec rect =
      MustParse("noc mesh 2 3 1\ntraffic transpose");
  EXPECT_FALSE(ExpandPattern(rect, rect.traffic[0], rng).ok());

  const ScenarioSpec oob = MustParse("noc star 4\ntraffic hotspot 9");
  EXPECT_FALSE(ExpandPattern(oob, oob.traffic[0], rng).ok());

  const ScenarioSpec self = MustParse("noc star 4\ntraffic pairs 1 1");
  EXPECT_FALSE(ExpandPattern(self, self.traffic[0], rng).ok());

  const ScenarioSpec mem = MustParse("noc star 4\ntraffic memory 2 2");
  EXPECT_FALSE(ExpandPattern(mem, mem.traffic[0], rng).ok());

  // Programmatically built specs (bypassing the parser) must also hit the
  // structural-requirement errors, never UB.
  ScenarioSpec raw = MustParse("noc star 4\ntraffic uniform");
  TrafficSpec empty_memory;
  empty_memory.pattern = PatternKind::kMemory;
  EXPECT_FALSE(ExpandPattern(raw, empty_memory, rng).ok());
  TrafficSpec short_video;
  short_video.pattern = PatternKind::kVideo;
  short_video.nis = {1};
  EXPECT_FALSE(ExpandPattern(raw, short_video, rng).ok());
}

// ---------------------------------------------------------------------------
// Runner
// ---------------------------------------------------------------------------

TEST(ScenarioRunnerTest, RunsAMixedScenarioAndDeliversWords) {
  const ScenarioSpec spec = MustParse(R"(
    scenario smoke
    noc star 4
    warmup 200
    duration 3000
    traffic pairs 0 1 inject periodic 6 qos gt 2
    traffic uniform inject bernoulli 0.02 qos be
    traffic memory 2 3 inject periodic 40 burst 2
  )");
  ScenarioRunner runner(spec);
  auto result = runner.Run();
  ASSERT_TRUE(result.ok()) << result.status();
  ASSERT_EQ(result->flows.size(), 6u);  // 1 pair + 4 uniform + 1 memory
  // The GT pair sustains its injected rate: one word per 6 cycles.
  const FlowResult& gt = result->flows[0];
  EXPECT_TRUE(gt.gt);
  EXPECT_GT(gt.words_in_window, 3000 / 6 - 20);
  EXPECT_GT(gt.latency.count, 0);
  // The memory master completes transactions round trip.
  const FlowResult& mem = result->flows.back();
  EXPECT_EQ(mem.pattern, "memory");
  EXPECT_GT(mem.transactions_completed, 0);
  EXPECT_GT(mem.latency.mean, 0);
  // Every flow delivered something and the aggregate adds up.
  std::int64_t sum = 0;
  for (const FlowResult& flow : result->flows) {
    EXPECT_GT(flow.words_total, 0) << flow.pattern;
    sum += flow.words_in_window;
  }
  EXPECT_EQ(sum, result->words_in_window);
  EXPECT_GT(result->slot_utilization, 0.0);
  EXPECT_LT(result->slot_utilization, 1.0);
}

TEST(ScenarioRunnerTest, VideoChainPreservesEndToEndLatency) {
  const ScenarioSpec spec = MustParse(R"(
    scenario chain
    noc mesh 2 2 1
    warmup 300
    duration 3000
    traffic video 0 1 3 2 inject periodic 4 qos gt 2
  )");
  ScenarioRunner runner(spec);
  auto result = runner.Run();
  ASSERT_TRUE(result.ok()) << result.status();
  ASSERT_EQ(result->flows.size(), 1u);
  const FlowResult& chain = result->flows[0];
  EXPECT_EQ(chain.src, 0);
  EXPECT_EQ(chain.dst, 2);
  // The chain is injection-saturated: 2 GT slots sustain ~0.167 w/cyc.
  EXPECT_GT(chain.words_in_window, 450);
  // End-to-end latency spans all three hops: well above a single hop.
  EXPECT_GT(chain.latency.mean, 20);
  EXPECT_GT(chain.latency.count, 0);
}

TEST(ScenarioRunnerTest, IpPortsRunOnTheIpClock) {
  const std::string body =
      "noc star 4\nwarmup 100\nduration 1500\n"
      "traffic pairs 0 1 inject periodic 6 qos gt 2\n"
      "traffic memory 2 3 inject periodic 40 burst 2\n";
  // An ipmhz equal to netmhz is the default: same clock, same bytes, and
  // no ip_mhz key in the result.
  ScenarioRunner plain(MustParse(body));
  ScenarioRunner same(MustParse("ipmhz 500\n" + body));
  auto plain_result = plain.Run();
  auto same_result = same.Run();
  ASSERT_TRUE(plain_result.ok()) << plain_result.status();
  ASSERT_TRUE(same_result.ok()) << same_result.status();
  EXPECT_EQ(same.soc()->port_clock(0, 0), same.soc()->net_clock());
  EXPECT_EQ(plain_result->ToJson(), same_result->ToJson());
  EXPECT_EQ(plain_result->ToJson().find("ip_mhz"), std::string::npos);

  // A slower IP clock drives every port; the result records it.
  ScenarioRunner slow(MustParse("ipmhz 200\nverify on\n" + body));
  auto slow_result = slow.Run();
  ASSERT_TRUE(slow_result.ok()) << slow_result.status();
  for (NiId ni = 0; ni < 4; ++ni) {
    EXPECT_EQ(slow.soc()->port_clock(ni, 0)->period_ps(), 5000);
  }
  EXPECT_NE(slow_result->ToJson().find("\"ip_mhz\": 200"), std::string::npos);
  for (const FlowResult& flow : slow_result->flows) {
    EXPECT_GT(flow.words_total, 0) << flow.pattern;
  }
}

TEST(ScenarioRunnerTest, BuildFailsOnSlotExhaustion) {
  // 7 GT slots per flow: the second flow sharing the 8-slot injection
  // link table cannot fit.
  const ScenarioSpec spec = MustParse(R"(
    noc star 3
    traffic pairs 0 1 0 2 inject periodic 4 qos gt 7
  )");
  ScenarioRunner runner(spec);
  EXPECT_FALSE(runner.Build().ok());
}

TEST(ScenarioRunnerTest, BuildFailsOnChannelOversubscription) {
  // Regression (found by the verification fuzzing work): 35 hotspot
  // senders need 35 destination channels at NI 0, beyond the packet
  // header's 5-bit qid field. This used to abort inside the NI-kernel
  // constructor — even under noc_sim --validate — instead of failing the
  // build with a diagnostic.
  const ScenarioSpec spec = MustParse(R"(
    noc ring 3 12
    traffic hotspot 0 inject periodic 50
  )");
  ScenarioRunner runner(spec);
  const Status status = runner.Build();
  ASSERT_FALSE(status.ok());
  EXPECT_EQ(status.code(), StatusCode::kInvalidArgument);
  EXPECT_NE(status.message().find("qid"), std::string::npos) << status;
}

// ---------------------------------------------------------------------------
// Determinism
// ---------------------------------------------------------------------------

std::string RunToJson(ScenarioSpec spec, sim::EngineKind engine) {
  spec.engine = engine;
  ScenarioRunner runner(std::move(spec));
  auto result = runner.Run();
  EXPECT_TRUE(result.ok()) << result.status();
  return result->ToJson();
}

TEST(ScenarioDeterminismTest, SameSpecAndSeedGiveIdenticalJson) {
  const ScenarioSpec spec = MustParse(R"(
    scenario det
    noc mesh 2 2 1
    seed 11
    warmup 200
    duration 2500
    traffic uniform inject bernoulli 0.05 qos be
    traffic pairs 0 3 inject bursty 5 30 qos gt 2
  )");
  EXPECT_EQ(RunToJson(spec, sim::EngineKind::kSoa),
            RunToJson(spec, sim::EngineKind::kSoa));
}

TEST(ScenarioDeterminismTest, SeedChangesTheResult) {
  ScenarioSpec spec = MustParse(R"(
    noc star 4
    warmup 200
    duration 2500
    traffic uniform inject bernoulli 0.05 qos be
  )");
  spec.seed = 1;
  const std::string a = RunToJson(spec, sim::EngineKind::kSoa);
  spec.seed = 2;
  const std::string b = RunToJson(spec, sim::EngineKind::kSoa);
  EXPECT_NE(a, b);
}

// The canonical specs must produce the byte-identical result JSON on the
// soa and the naive engine — the scenario-level restatement of the
// engine bit-exactness contract.
TEST(ScenarioDeterminismTest, SoaAndNaiveEnginesAgreeOnCanonicalSpecs) {
  const std::vector<std::string> names = {
      "uniform_star", "bursty_ring", "video_mesh", "memory_star"};
  for (const std::string& name : names) {
    const std::string path =
        std::string(AETHEREAL_SCENARIO_DIR) + "/" + name + ".scn";
    auto spec = LoadScenarioFile(path);
    ASSERT_TRUE(spec.ok()) << spec.status();
    // Shorten: the full duration is the golden test's job.
    spec->duration = 2000;
    EXPECT_EQ(RunToJson(*spec, sim::EngineKind::kSoa),
              RunToJson(*spec, sim::EngineKind::kNaive))
        << name;
  }
}

}  // namespace
}  // namespace aethereal::scenario
