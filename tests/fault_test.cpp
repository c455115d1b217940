// Fault-injection & resilience coverage (DESIGN.md §12).
//
// With retries disabled, every fault kind must be *detected* and
// *correctly classified*: the armed fault model explains the violation
// (fault_induced, demoted to a degradation) and nothing is left
// unexplained — an unexplained violation under fault injection would mean
// the fault models are corrupting state they claim not to touch. With the
// retry policy enabled, the same seed must recover: config writes are
// re-issued until acknowledged and the run completes with nonzero retry
// counters. Fixed seeds keep every assertion deterministic on every
// engine.
#include <string>

#include <gtest/gtest.h>

#include "fault/spec.h"
#include "scenario/runner.h"
#include "scenario/spec.h"
#include "sim/engine.h"
#include "util/status.h"

namespace aethereal::scenario {
namespace {

Result<ScenarioResult> RunText(const std::string& text) {
  auto spec = ParseScenario(text);
  if (!spec.ok()) return spec.status();
  ScenarioRunner runner(*spec);
  return runner.Run();
}

/// Static stream-only workload: a GT neighbor ring plus a BE bernoulli
/// blanket on a 4-NI star, verification armed. Stream-only on purpose —
/// fault-injected corruption inside a transaction message would break its
/// framing, a documented §12 limitation.
constexpr char kStreamBase[] = R"(
scenario faulttest
noc star 4
stu 8
queues 32
seed 3
warmup 300
duration 4000
verify on
traffic neighbor inject periodic 8 qos gt 1
traffic uniform inject bernoulli 0.02
)";

/// Two-phase runtime-reconfiguration workload: every transition opens and
/// closes GT connections over the NoC, so CNIP faults have config
/// messages to hit.
constexpr char kPhasedBase[] = R"(
scenario faultswitch
noc star 4
stu 8
queues 16
seed 5
warmup 200
drain 15000
phase a duration 1500
traffic pairs 1 2 inject periodic 8 qos gt 1
phase b duration 1500
traffic pairs 2 3 inject periodic 8 qos gt 1
)";

TEST(FaultTest, ZeroRateFaultBlockIsByteIdentical) {
  // The kill switch: a present-but-inert fault block installs the taps but
  // must not perturb a single bit of the result — no fault section, no
  // behaviour change.
  auto plain = RunText(kStreamBase);
  ASSERT_TRUE(plain.ok()) << plain.status();
  EXPECT_FALSE(plain->fault.has_value());

  auto armed = RunText(std::string(kStreamBase) + "fault\nseed 99\nend\n");
  ASSERT_TRUE(armed.ok()) << armed.status();
  EXPECT_FALSE(armed->fault.has_value());
  EXPECT_EQ(plain->ToJson(), armed->ToJson());
}

TEST(FaultTest, LinkCorruptionDetectedAndClassified) {
  auto result = RunText(std::string(kStreamBase) +
                        "fault\nseed 11\nlink corrupt 0.01\nend\n");
  ASSERT_TRUE(result.ok()) << result.status();
  ASSERT_TRUE(result->fault.has_value());
  const FaultResult& f = *result->fault;
  EXPECT_GT(f.flits_corrupted, 0);
  EXPECT_EQ(f.monitor_corrupted_flits, f.flits_corrupted);
  EXPECT_GT(f.monitor_fault_violations, 0);
  EXPECT_EQ(f.monitor_unexplained_violations, 0);
  EXPECT_FALSE(f.degradations.empty());
  // Corruption flips bits but loses nothing: the monitor records no lost
  // traffic, and delivery only trails the offer by the in-flight tail cut
  // off at end of run (present even fault-free).
  EXPECT_EQ(f.monitor_lost_flits, 0);
  EXPECT_EQ(f.monitor_lost_words, 0);
  EXPECT_GE(f.gt_recovery_ratio, 0.99);
  EXPECT_GT(f.events_total, 0);
  ASSERT_FALSE(f.events.empty());
  EXPECT_EQ(f.events[0].kind, "link-corrupt");
}

TEST(FaultTest, LinkDropsAreCountedAndStayExplained) {
  auto result = RunText(std::string(kStreamBase) +
                        "fault\nseed 7\nlink drop 0.01\nend\n");
  ASSERT_TRUE(result.ok()) << result.status();
  ASSERT_TRUE(result->fault.has_value());
  const FaultResult& f = *result->fault;
  EXPECT_GT(f.link_packets_dropped, 0);
  EXPECT_GT(f.link_words_dropped, 0);
  EXPECT_GT(f.monitor_lost_words, 0);
  EXPECT_GT(f.monitor_fault_violations, 0);
  EXPECT_EQ(f.monitor_unexplained_violations, 0);
  // Dropped GT packets are gone for good (resilience here is detection +
  // accounting, not retransmission), so delivery dips below offered — but
  // the low rate keeps the loss small.
  EXPECT_LT(f.gt_words_delivered, f.gt_words_offered);
  EXPECT_GT(f.gt_recovery_ratio, 0.9);
}

TEST(FaultTest, RouterStallDiscardsWholePackets) {
  auto result = RunText(std::string(kStreamBase) +
                        "fault\nseed 2\nrouter 0 stall 1000 120\nend\n");
  ASSERT_TRUE(result.ok()) << result.status();
  ASSERT_TRUE(result->fault.has_value());
  const FaultResult& f = *result->fault;
  // The star's single router carries every flow, so a 120-cycle freeze
  // under periodic GT traffic must discard something.
  EXPECT_GT(f.router_stall_packets_dropped, 0);
  EXPECT_GT(f.router_stall_words_dropped, 0);
  EXPECT_EQ(f.monitor_unexplained_violations, 0);
}

// A long router stall on a 2-NI star drops hundreds of BE flits back to
// back toward one queue. The monitor matches each delivered flit by its
// identity, however many flits ahead of it were lost, and counts exactly
// what the injector dropped (a bounded forward scan once failed this with
// 63 unexplained problems beyond 64 lost flits).
TEST(FaultTest, LongRouterStallLosesExactlyWhatWasDropped) {
  auto spec = ParseScenario(R"(
scenario longstall
noc star 2
stu 8
queues 1024
seed 3
warmup 100
duration 3000
verify on
traffic neighbor inject periodic 3 qos be
fault
seed 1
router 0 stall 300 900
end
)");
  ASSERT_TRUE(spec.ok()) << spec.status();
  for (sim::EngineKind engine :
       {sim::EngineKind::kNaive, sim::EngineKind::kSoa}) {
    SCOPED_TRACE(sim::EngineKindName(engine));
    spec->engine = engine;
    ScenarioRunner runner(*spec);
    auto result = runner.Run();
    ASSERT_TRUE(result.ok()) << result.status();
    ASSERT_TRUE(result->fault.has_value());
    const FaultResult& f = *result->fault;
    EXPECT_EQ(f.monitor_unexplained_violations, 0);
    EXPECT_GT(f.router_stall_packets_dropped, 64);
    EXPECT_EQ(f.monitor_lost_flits, f.router_stall_packets_dropped);
    EXPECT_EQ(f.monitor_lost_words, f.router_stall_words_dropped);
  }
}

TEST(FaultTest, NiStallOnlyDelays) {
  auto result = RunText(std::string(kStreamBase) +
                        "fault\nseed 4\nni 1 stall 500 64\nend\n");
  ASSERT_TRUE(result.ok()) << result.status();
  ASSERT_TRUE(result->fault.has_value());
  // A scheduler stall postpones injection; it corrupts and loses nothing,
  // so the monitor has nothing to explain away.
  EXPECT_EQ(result->fault->monitor_fault_violations, 0);
  EXPECT_EQ(result->fault->monitor_unexplained_violations, 0);
  EXPECT_EQ(result->fault->monitor_lost_words, 0);
}

TEST(FaultTest, ConfigDropWithoutRetryTimesOut) {
  auto spec = ParseScenario(std::string(kPhasedBase) +
                            "fault\nconfig drop 1.0\nend\n");
  ASSERT_TRUE(spec.ok()) << spec.status();
  ScenarioRunner runner(*spec);
  auto result = runner.Run();
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kTimeout);
  EXPECT_NE(result.status().message().find("retry policy"),
            std::string::npos)
      << "the timeout should hint at the armed-but-unrecovered config "
         "faults: "
      << result.status();
}

TEST(FaultTest, ConfigRetryRecoversSameSeed) {
  // The same workload and fault seed, now with the ack-timeout / bounded
  // retry / exponential backoff policy armed — the run must complete, and
  // must have needed the machinery (nonzero timeout + retry counters).
  auto result = RunText(std::string(kPhasedBase) +
                        "fault\nconfig drop 0.25\nconfig delay 0.2 40\n"
                        "retry timeout 200 max 6 backoff 2\nend\n");
  ASSERT_TRUE(result.ok()) << result.status();
  ASSERT_TRUE(result->fault.has_value());
  const FaultResult& f = *result->fault;
  EXPECT_GT(f.config_requests_dropped, 0);
  EXPECT_GT(f.config_requests_delayed, 0);
  EXPECT_GT(f.config_ack_timeouts, 0);
  EXPECT_GT(f.config_write_retries, 0);
  EXPECT_EQ(f.monitor_unexplained_violations, 0);
  // Both phases ran to completion behind the recovered configuration.
  EXPECT_EQ(result->phases.size(), 2u);
  EXPECT_EQ(result->transitions.size(), 2u);
}

TEST(FaultTest, RetryBudgetExhaustionSurfaces) {
  // Every request lost and only two re-issues allowed: the op must fail
  // with the dedicated code, not a generic timeout.
  auto spec = ParseScenario(std::string(kPhasedBase) +
                            "fault\nconfig drop 1.0\n"
                            "retry timeout 50 max 2 backoff 1\nend\n");
  ASSERT_TRUE(spec.ok()) << spec.status();
  ScenarioRunner runner(*spec);
  auto result = runner.Run();
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kRetriesExhausted)
      << result.status();
}

TEST(FaultTest, FixedSeedFaultsAreEngineInvariant) {
  const std::string text = std::string(kStreamBase) +
                           "fault\nseed 6\nlink corrupt 0.005\n"
                           "link drop 0.005\nrouter 0 stall 900 80\n"
                           "ni 2 stall 600 48\nend\n";
  auto spec = ParseScenario(text);
  ASSERT_TRUE(spec.ok()) << spec.status();

  spec->engine = sim::EngineKind::kNaive;
  ScenarioRunner naive(*spec);
  auto ref = naive.Run();
  ASSERT_TRUE(ref.ok()) << ref.status();
  ASSERT_TRUE(ref->fault.has_value());
  EXPECT_EQ(ref->fault->monitor_unexplained_violations, 0);

  spec->engine = sim::EngineKind::kSoa;
  ScenarioRunner gated(*spec);
  auto run = gated.Run();
  ASSERT_TRUE(run.ok()) << run.status();
  EXPECT_EQ(run->ToJson(), ref->ToJson());
}

TEST(FaultTest, FaultFileRejectsNonFiniteRates) {
  // Regression: NaN passed the [0, 1] rate check and armed nothing.
  for (const char* text : {"link corrupt nan\n", "link drop inf\n",
                           "config delay nan 40\n"}) {
    auto spec = fault::ParseFaultText(text);
    ASSERT_FALSE(spec.ok()) << text;
    EXPECT_NE(spec.status().message().find("line 1: "), std::string::npos)
        << spec.status();
    EXPECT_NE(spec.status().message().find("rate must be a number in [0, 1]"),
              std::string::npos)
        << spec.status();
  }
}

TEST(FaultTest, FaultFileBoundsCyclesAndIds) {
  // Regression: each of these parsed, then stalled the wrong router, or
  // fed a wrapping sum (start + length, now + delay, issued + timeout).
  for (const char* text :
       {"router 4294967297 stall 100 400\n",
        "router 1 stall 100 9223372036854775807\n",
        "ni 0 stall 9223372036854775807 1\n",
        "config delay 0.5 1099511627777\n",
        "retry timeout 9223372036854775807 max 4 backoff 2\n"}) {
    auto spec = fault::ParseFaultText(text);
    ASSERT_FALSE(spec.ok()) << text;
    EXPECT_NE(spec.status().message().find("line 1: "), std::string::npos)
        << spec.status();
    EXPECT_NE(spec.status().message().find("2^"), std::string::npos)
        << spec.status();
  }
  auto limit = fault::ParseFaultText(
      "config delay 0.5 1099511627776\n"
      "retry timeout 1099511627776 max 4 backoff 8\n");
  ASSERT_TRUE(limit.ok()) << limit.status();
  EXPECT_EQ(limit->config_delay_cycles, kMaxCycles);
  EXPECT_EQ(limit->retry.timeout, kMaxCycles);
}

TEST(FaultTest, StallOutsideTheNocIsRejectedBeforeTheRun) {
  // Regression: router 999 on a one-router star was accepted and stalled
  // nothing. The 4-NI star has router 0 and NIs 0..3.
  for (const char* block :
       {"router 1 stall 100 400\n", "ni 4 stall 100 400\n"}) {
    auto result = RunText(std::string(kStreamBase) + "fault\n" + block +
                          "end\n");
    ASSERT_FALSE(result.ok()) << block;
    EXPECT_EQ(result.status().code(), StatusCode::kInvalidArgument);
    EXPECT_NE(result.status().message().find("targets no"),
              std::string::npos)
        << result.status();
  }
  auto inside = RunText(std::string(kStreamBase) +
                        "fault\nrouter 0 stall 100 400\nni 3 stall 100 "
                        "400\nend\n");
  EXPECT_TRUE(inside.ok()) << inside.status();
}

TEST(FaultTest, FaultSectionAppearsInJson) {
  auto result = RunText(std::string(kStreamBase) +
                        "fault\nseed 11\nlink corrupt 0.01\nend\n");
  ASSERT_TRUE(result.ok()) << result.status();
  const std::string json = result->ToJson();
  EXPECT_NE(json.find("\"fault\""), std::string::npos);
  EXPECT_NE(json.find("\"gt_recovery_ratio\""), std::string::npos);
  EXPECT_NE(json.find("\"degradations\""), std::string::npos);
  EXPECT_NE(json.find("\"events\""), std::string::npos);
}

}  // namespace
}  // namespace aethereal::scenario
