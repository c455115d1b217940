// Phased scenarios: runtime reconfiguration (use-case switching) end to
// end. The spec grammar, the per-phase statistics and reconfiguration
// metrics, the undisturbed-survivor guarantee, byte-identity of verified
// runs across engines, and the negative proof that the verification
// monitor still catches a slot-table corruption injected mid-phase.
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "core/ni_kernel.h"
#include "core/registers.h"
#include "scenario/runner.h"
#include "scenario/spec.h"
#include "sim/engine.h"
#include "sim/kernel.h"
#include "util/status.h"

namespace aethereal::scenario {
namespace {

namespace regs = core::regs;

// ---------------------------------------------------------------------------
// Grammar
// ---------------------------------------------------------------------------

constexpr char kSwitchSpec[] = R"(
scenario switch_test
noc star 4
stu 8
queues 16
seed 3
warmup 200
phase first duration 2000
traffic pairs 1 2 inject periodic 8 qos gt 2
phase second duration 2000 warmup 100
traffic pairs 2 3 inject periodic 8 qos gt 2
traffic pairs 1 3 inject bernoulli 0.02 qos be
)";

constexpr char kPersistSpec[] = R"(
scenario persist_test
noc star 4
stu 8
queues 16
seed 5
warmup 200
phase first duration 3000
traffic pairs 1 2 inject periodic 8 qos gt 2 persist
phase second duration 3000
traffic pairs 3 2 inject bursty 4 32 qos be
)";

TEST(PhaseSpecTest, ParsesPhaseBlocks) {
  auto spec = ParseScenario(kSwitchSpec);
  ASSERT_TRUE(spec.ok()) << spec.status();
  ASSERT_TRUE(spec->Phased());
  ASSERT_EQ(spec->phases.size(), 2u);
  EXPECT_EQ(spec->phases[0].name, "first");
  EXPECT_EQ(spec->phases[0].duration, 2000);
  EXPECT_EQ(spec->phases[0].warmup, 0);
  EXPECT_EQ(spec->phases[1].warmup, 100);
  ASSERT_EQ(spec->traffic.size(), 3u);
  EXPECT_EQ(spec->traffic[0].phase, 0);
  EXPECT_EQ(spec->traffic[1].phase, 1);
  EXPECT_EQ(spec->traffic[2].phase, 1);
  EXPECT_FALSE(spec->traffic[0].persist);
  EXPECT_EQ(spec->TotalDuration(), 4000);
  EXPECT_EQ(spec->cfg_ni, 0);

  auto persist = ParseScenario(kPersistSpec);
  ASSERT_TRUE(persist.ok()) << persist.status();
  EXPECT_TRUE(persist->traffic[0].persist);
}

TEST(PhaseSpecTest, RejectsMalformedPhasedSpecs) {
  // Every error names the offending line ("noc" is line 1).
  auto expect_error = [](const std::string& text, const std::string& what,
                         int line) {
    auto spec = ParseScenario(text);
    ASSERT_FALSE(spec.ok()) << "accepted: " << text;
    EXPECT_NE(spec.status().message().find(what), std::string::npos)
        << spec.status() << "\nexpected: " << what;
    EXPECT_NE(spec.status().message().find("line " + std::to_string(line)),
              std::string::npos)
        << spec.status() << "\nexpected line " << line;
  };
  const std::string head = "noc star 4\n";
  // Traffic outside any phase while phases exist.
  expect_error(head +
                   "traffic neighbor\n"
                   "phase p duration 100\ntraffic neighbor\n",
               "before the first 'phase'", 2);
  // Scenario-level duration conflicts with phases, in either order.
  expect_error(head + "duration 500\nphase p duration 100\ntraffic neighbor\n",
               "per-phase durations", 3);
  expect_error(head + "phase p duration 100\ntraffic neighbor\nduration 500\n",
               "per-phase durations", 4);
  // persist outside a phase.
  expect_error(head + "traffic neighbor persist\n", "needs a phase block", 2);
  // Thresholds must stay 1 inside phases (drainability).
  expect_error(head +
                   "phase p duration 100\n"
                   "traffic neighbor data_threshold 4\n",
               "data_threshold 1", 3);
  // Duplicate phase names.
  expect_error(head +
                   "phase p duration 100\ntraffic neighbor\n"
                   "phase p duration 100\ntraffic neighbor\n",
               "duplicate phase name", 4);
  // A phase with nothing active.
  expect_error(head +
                   "phase a duration 100\ntraffic pairs 1 2\n"
                   "phase b duration 100\n",
               "no active traffic directive", 4);
  // cfgni off the topology / cfgni or drain without phases.
  expect_error(head + "cfgni 9\nphase p duration 100\ntraffic neighbor\n",
               "off the topology", 2);
  expect_error(head + "cfgni 1\ntraffic neighbor\n",
               "'cfgni' applies to phased scenarios only", 2);
  expect_error(head + "traffic neighbor\ndrain 100\n",
               "'drain' applies to phased scenarios only", 3);
  // Malformed phase lines.
  expect_error(head + "phase p 100\ntraffic neighbor\n", "phase <name>", 2);
  expect_error(head + "phase p duration 0\ntraffic neighbor\n",
               "out of range", 2);
  expect_error(head + "phase p duration 100 settle 5\ntraffic neighbor\n",
               "expected 'warmup <cycles>'", 2);
}

// ---------------------------------------------------------------------------
// The implicit phase: a static spec runs the same loop, as one window
// ---------------------------------------------------------------------------

// The memory directive comes first, so directive order (the result's)
// differs from the runner's measurement order (streams first).
constexpr char kStaticSpec[] = R"(
scenario static_test
noc star 4
stu 8
queues 16
seed 3
warmup 200
duration 2000
traffic memory 3 0 inject closed
traffic pairs 1 2 inject periodic 8 qos gt 2
)";

TEST(PhaseSpecTest, StaticSpecIsOneImplicitPhase) {
  auto spec = ParseScenario(kStaticSpec);
  ASSERT_TRUE(spec.ok()) << spec.status();
  EXPECT_FALSE(spec->Phased());
  const std::vector<PhaseSpec> windows = spec->Windows();
  ASSERT_EQ(windows.size(), 1u);
  EXPECT_EQ(windows[0].duration, 2000);
  EXPECT_EQ(windows[0].warmup, 0);  // the scenario-level warmup precedes it
  EXPECT_EQ(spec->TotalDuration(), 2000);
  for (const TrafficSpec& traffic : spec->traffic) {
    EXPECT_EQ(traffic.phase, -1);
    EXPECT_TRUE(traffic.ActiveIn(0));
  }
  // A phased spec's windows are exactly its declared phases.
  auto phased = ParseScenario(kSwitchSpec);
  ASSERT_TRUE(phased.ok()) << phased.status();
  ASSERT_EQ(phased->Windows().size(), 2u);
  EXPECT_EQ(phased->Windows()[1].warmup, 100);
  EXPECT_FALSE(phased->traffic[0].ActiveIn(1));
}

TEST(PhasedRunTest, StaticRunReportsNoPhaseSections) {
  auto spec = ParseScenario(kStaticSpec);
  ASSERT_TRUE(spec.ok()) << spec.status();
  ScenarioRunner runner(*spec);
  auto result = runner.Run();
  ASSERT_TRUE(result.ok()) << result.status();
  EXPECT_EQ(result->cycles_run, 2200);
  EXPECT_TRUE(result->phases.empty());
  EXPECT_TRUE(result->transitions.empty());
  ASSERT_EQ(result->flows.size(), 2u);
  EXPECT_EQ(result->flows[0].pattern, "memory");
  EXPECT_EQ(result->flows[1].pattern, "pairs");
  for (const FlowResult& flow : result->flows) {
    EXPECT_EQ(flow.phase, -1);
    EXPECT_TRUE(flow.phase_stats.empty());
    EXPECT_GT(flow.words_in_window, 0) << flow.pattern;
    EXPECT_LT(flow.words_in_window, flow.words_total) << flow.pattern;
  }
  const std::string json = result->ToJson();
  EXPECT_EQ(json.find("\"phases\":"), std::string::npos);
  EXPECT_EQ(json.find("\"phase_stats\":"), std::string::npos);
}

// ---------------------------------------------------------------------------
// End to end
// ---------------------------------------------------------------------------

TEST(PhasedRunTest, SwitchesUseCasesWithReconfigurationMetrics) {
  auto spec = ParseScenario(kSwitchSpec);
  ASSERT_TRUE(spec.ok()) << spec.status();
  ScenarioRunner runner(*spec);
  auto result = runner.Run();
  ASSERT_TRUE(result.ok()) << result.status();

  ASSERT_EQ(result->phases.size(), 2u);
  ASSERT_EQ(result->transitions.size(), 2u);
  // Phase 0: two opens (the pair + nothing else), no closes.
  const auto& t0 = result->transitions[0];
  EXPECT_EQ(t0.opens, 1);
  EXPECT_EQ(t0.closes, 0);
  EXPECT_GT(t0.setup_latency_max, 0);
  EXPECT_GT(t0.config_messages, 0);
  EXPECT_EQ(t0.slots_allocated, 2);
  // Phase 1: the GT pair closes (reclaiming its 2 slots), two opens.
  const auto& t1 = result->transitions[1];
  EXPECT_EQ(t1.opens, 2);
  EXPECT_EQ(t1.closes, 1);
  EXPECT_GT(t1.teardown_latency_max, 0);
  EXPECT_EQ(t1.slots_reclaimed, 2);
  EXPECT_EQ(t1.slots_allocated, 2);
  EXPECT_GE(t1.drain_cycles, 0);
  EXPECT_GT(t1.config_cycles, 0);

  // Every phase delivered traffic, and the per-flow windows add up.
  for (const auto& phase : result->phases) {
    EXPECT_GT(phase.words_in_window, 0) << phase.name;
  }
  ASSERT_EQ(result->flows.size(), 3u);
  EXPECT_EQ(result->flows[0].phase, 0);
  EXPECT_EQ(result->flows[1].phase, 1);
  // The phase-0 flow was active only in its own window.
  ASSERT_EQ(result->flows[0].phase_stats.size(), 1u);
  EXPECT_EQ(result->flows[0].phase_stats[0].phase, 0);
  EXPECT_EQ(result->flows[0].phase_stats[0].words,
            result->flows[0].words_in_window);
  EXPECT_GT(result->flows[0].phase_stats[0].latency_count, 0);
  // The spec's JSON carries the phased sections.
  const std::string json = result->ToJson();
  EXPECT_NE(json.find("\"phases\":"), std::string::npos);
  EXPECT_NE(json.find("\"transitions\":"), std::string::npos);
  EXPECT_NE(json.find("\"slots_reclaimed\": 2"), std::string::npos);
}

TEST(PhasedRunTest, PersistentFlowSurvivesTransitionsUndisturbed) {
  auto spec = ParseScenario(kPersistSpec);
  ASSERT_TRUE(spec.ok()) << spec.status();
  ScenarioRunner runner(*spec);
  auto result = runner.Run();
  ASSERT_TRUE(result.ok()) << result.status();

  // The persistent GT flow is measured in BOTH windows and is never closed.
  const FlowResult& survivor = result->flows[0];
  EXPECT_TRUE(survivor.persist);
  ASSERT_EQ(survivor.phase_stats.size(), 2u);
  // Periodic injection at a guaranteed rate: the second window (equal
  // duration, transition in between) must deliver essentially the same
  // word count — the transition did not disturb the surviving connection.
  const auto& w0 = survivor.phase_stats[0];
  const auto& w1 = survivor.phase_stats[1];
  EXPECT_GT(w0.words, 0);
  EXPECT_NEAR(static_cast<double>(w1.words), static_cast<double>(w0.words),
              2.0);
  // No teardown happened for it: transition 1 closes nothing.
  EXPECT_EQ(result->transitions[1].closes, 0);
}

TEST(PhasedRunTest, VerifiedRunIsByteIdenticalAcrossEnginesAndVerify) {
  auto spec = ParseScenario(kSwitchSpec);
  ASSERT_TRUE(spec.ok()) << spec.status();

  auto run = [&](sim::EngineKind engine, bool verify) {
    ScenarioSpec variant = *spec;
    variant.engine = engine;
    variant.verify = verify;
    ScenarioRunner runner(variant);
    auto result = runner.Run();
    EXPECT_TRUE(result.ok()) << result.status();
    return result.ok() ? result->ToJson() : std::string();
  };
  const std::string baseline = run(sim::EngineKind::kSoa, false);
  ASSERT_FALSE(baseline.empty());
  for (sim::EngineKind engine :
       {sim::EngineKind::kNaive, sim::EngineKind::kSoa}) {
    SCOPED_TRACE(sim::EngineKindName(engine));
    EXPECT_EQ(run(engine, false), baseline) << "engine diverged";
    EXPECT_EQ(run(engine, true), baseline)
        << "verification perturbed the run";
  }
}

TEST(PhasedRunTest, GtBoundsAreRejectedForPhasedScenarios) {
  auto spec = ParseScenario(kSwitchSpec);
  ASSERT_TRUE(spec.ok()) << spec.status();
  ScenarioRunner runner(*spec);
  auto bounds = runner.ComputeGtBounds();
  ASSERT_FALSE(bounds.ok());
  EXPECT_EQ(bounds.status().code(), StatusCode::kFailedPrecondition);
}

// NI 24 sits 9 hops from the Cfg NI, more than a source path encodes, so
// the configuration connection to it cannot be set up. The open queued
// behind that set-up must fail with the route's own status; it once wrote
// over the never-enabled configuration channel and the phase timed out.
TEST(PhasedRunTest, FailedConfigSetUpFailsTheOpenBehindIt) {
  auto spec = ParseScenario(R"(
scenario far_config
noc mesh 5 5 1
cfgni 0
phase a duration 1000
traffic pairs 23 24 inject periodic 20 qos be
)");
  ASSERT_TRUE(spec.ok()) << spec.status();
  ScenarioRunner runner(*spec);
  auto result = runner.Run();
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kResourceExhausted)
      << result.status();
  EXPECT_NE(result.status().message().find(
                "route exceeds max source-path hops"),
            std::string::npos)
      << result.status();
}

// ---------------------------------------------------------------------------
// Negative: a slot-table corruption injected MID-PHASE is still caught
// ---------------------------------------------------------------------------

/// At a scheduled cycle, grants an enabled GT channel one STU slot the
/// allocator never reserved — exactly what a buggy runtime-reconfiguration
/// flow would do to a live NI.
class SlotThief : public sim::Module {
 public:
  SlotThief(core::NiKernel* kernel, ChannelId channel, Cycle at)
      : sim::Module("slot_thief"), kernel_(kernel), channel_(channel),
        at_(at) {}

  bool stole() const { return stole_; }

  void Evaluate() override {
    if (stole_ || CycleCount() < at_) return;
    const Word addr =
        regs::ChannelRegAddr(channel_, regs::ChannelReg::kSlots);
    auto mask = kernel_->ReadRegister(addr);
    if (!mask.ok() || *mask == 0 || !kernel_->ChannelEnabled(channel_)) {
      return;  // connection not (yet) open at this cycle; retry next
    }
    for (SlotIndex s = 0; s < kernel_->params().stu_slots; ++s) {
      if ((*mask & (1u << s)) == 0 && kernel_->SlotOwner(s) == kInvalidId) {
        ASSERT_TRUE(kernel_->WriteRegister(addr, *mask | (1u << s)).ok());
        stole_ = true;
        return;
      }
    }
  }

 private:
  core::NiKernel* kernel_;
  ChannelId channel_;
  Cycle at_;
  bool stole_ = false;
};

TEST(PhasedRunTest, MidPhaseSlotTableCorruptionIsCaught) {
  auto spec = ParseScenario(kPersistSpec);
  ASSERT_TRUE(spec.ok()) << spec.status();
  spec->verify = true;
  ScenarioRunner runner(*spec);
  ASSERT_TRUE(runner.Build().ok());

  // The persistent GT flow's master channel lives at NI 1 (CNIP is connid
  // 0, the flow channel is connid 1). Steal a slot for it deep inside
  // phase 2's window — long after the phase-boundary re-snapshot.
  SlotThief thief(runner.soc()->ni(1), /*channel=*/1, /*at=*/5000);
  runner.soc()->RegisterOnNet(&thief);

  auto result = runner.Run();
  EXPECT_TRUE(thief.stole());
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kVerificationFailed);
  EXPECT_NE(result.status().message().find("slot"), std::string::npos)
      << result.status();
}

}  // namespace
}  // namespace aethereal::scenario
