// Error-path coverage for the scenario spec parser: malformed keys,
// out-of-range values, and duplicate directives must produce clear
// diagnostics with line numbers — never silent defaults. A scenario file
// is the experiment record; a typo that parses is a corrupted experiment.
#include <cstdint>
#include <limits>
#include <string>

#include <gtest/gtest.h>

#include "scenario/spec.h"

namespace aethereal::scenario {
namespace {

/// Asserts `text` fails to parse and the message carries `needle` (and a
/// line number when `line` >= 0).
void ExpectError(const std::string& text, const std::string& needle,
                 int line = -1) {
  auto spec = ParseScenario(text);
  ASSERT_FALSE(spec.ok()) << "expected failure containing '" << needle
                          << "' for:\n"
                          << text;
  EXPECT_NE(spec.status().message().find(needle), std::string::npos)
      << spec.status();
  if (line >= 0) {
    EXPECT_NE(spec.status().message().find("line " + std::to_string(line)),
              std::string::npos)
        << spec.status();
  }
}

constexpr char kValid[] = R"(
scenario ok
noc star 4
traffic neighbor inject periodic 8 qos be
)";

TEST(SpecErrorsTest, ValidBaselineParses) {
  auto spec = ParseScenario(kValid);
  ASSERT_TRUE(spec.ok()) << spec.status();
  EXPECT_EQ(spec->name, "ok");
  EXPECT_EQ(spec->traffic.size(), 1u);
}

TEST(SpecErrorsTest, UnknownDirective) {
  ExpectError("scenario x\nnock star 4\n", "unknown directive 'nock'", 2);
}

TEST(SpecErrorsTest, UnknownPatternAndClause) {
  ExpectError("noc star 4\ntraffic uniformm\n", "unknown pattern", 2);
  ExpectError("noc star 4\ntraffic uniform qis be\n", "unknown clause", 2);
}

TEST(SpecErrorsTest, MissingStructure) {
  ExpectError("scenario x\n", "no 'noc' line");
  ExpectError("noc star 4\n", "no 'traffic' directives");
  ExpectError("traffic uniform\n", "'noc' must come before 'traffic'", 1);
}

TEST(SpecErrorsTest, DuplicateDirectives) {
  ExpectError("noc star 4\nnoc star 5\ntraffic uniform\n", "duplicate 'noc'",
              2);
  ExpectError("scenario a\nscenario b\nnoc star 4\ntraffic uniform\n",
              "duplicate 'scenario' directive", 2);
  ExpectError("seed 1\nnoc star 4\nseed 2\ntraffic uniform\n",
              "duplicate 'seed' directive", 3);
  ExpectError("stu 8\nstu 16\nnoc star 4\ntraffic uniform\n",
              "duplicate 'stu' directive", 2);
  ExpectError("duration 100\nnoc star 4\nduration 200\ntraffic uniform\n",
              "duplicate 'duration' directive", 3);
}

TEST(SpecErrorsTest, MalformedNumbers) {
  ExpectError("noc star four\ntraffic uniform\n", "expected a number", 1);
  ExpectError("noc star 4\nseed 12x\ntraffic uniform\n", "expected a number",
              2);
  ExpectError("noc star 4\ntraffic uniform inject bernoulli fast\n",
              "expected a number", 2);
}

TEST(SpecErrorsTest, OutOfRangeScalars) {
  ExpectError("noc star 0\ntraffic uniform\n", "star needs 1..", 1);
  ExpectError("noc star 9999\ntraffic uniform\n", "star needs 1..", 1);
  ExpectError("noc mesh 100 100 100\ntraffic uniform\n", "at most", 1);
  ExpectError("noc ring 2 1\ntraffic neighbor\n", "out of range", 1);
  ExpectError("stu 0\nnoc star 4\ntraffic uniform\n", "stu must be in", 1);
  ExpectError("stu 2048\nnoc star 4\ntraffic uniform\n", "stu must be in", 1);
  // Regression (found by the verification fuzzing work): 33..1024 used to
  // parse, then abort on the NI kernel's 32-bit SLOTS-mask CHECK — a crash
  // reachable from any spec file, even under --validate.
  ExpectError("stu 64\nnoc star 4\ntraffic uniform\n", "stu must be in", 1);
  ExpectError("stu 33\nnoc star 4\ntraffic uniform\n", "stu must be in", 1);
  ExpectError("queues 0\nnoc star 4\ntraffic uniform\n", "queues must be in",
              1);
  ExpectError("seed -1\nnoc star 4\ntraffic uniform\n", "seed must be >= 0",
              1);
  ExpectError("warmup -5\nnoc star 4\ntraffic uniform\n", "warmup must be in",
              1);
  ExpectError("duration 0\nnoc star 4\ntraffic uniform\n",
              "duration must be in", 1);
  ExpectError("duration 1099511627777\nnoc star 4\ntraffic uniform\n",
              "duration must be in", 1);
  ExpectError("netmhz 0\nnoc star 4\ntraffic uniform\n", "netmhz must be in",
              1);
}

// Seeds span the whole uint64 range: the conformance fuzzer draws them as
// full 64-bit values (verify/fuzz.cpp), and each case must replay from a
// spec. Negative and overflowing seeds still fail.
TEST(SpecErrorsTest, SeedsSpanTheWholeUint64Range) {
  const std::string tail = "noc star 4\ntraffic uniform\n";
  for (const std::uint64_t seed :
       {std::uint64_t{0}, std::uint64_t{9223372036854775807u},
        std::uint64_t{9223372036854775808u},
        std::uint64_t{17181368232381819650u},
        std::numeric_limits<std::uint64_t>::max()}) {
    auto spec = ParseScenario("seed " + std::to_string(seed) + "\n" + tail);
    ASSERT_TRUE(spec.ok()) << spec.status();
    EXPECT_EQ(spec->seed, seed);
    auto fault = ParseScenario(tail + "fault\nseed " + std::to_string(seed) +
                               "\nend\n");
    ASSERT_TRUE(fault.ok()) << fault.status();
    EXPECT_EQ(fault->fault->seed, seed);
  }
  ExpectError("seed 18446744073709551616\n" + tail,
              "expected a number in [0, 2^64), got '18446744073709551616'",
              1);
  ExpectError("seed 99999999999999999999999\n" + tail, "[0, 2^64)", 1);
  ExpectError("seed +5\n" + tail, "expected a number in [0, 2^64)", 1);
  ExpectError("seed -9223372036854775809\n" + tail, "seed must be >= 0", 1);
  ExpectError("seed -18446744073709551615\n" + tail, "seed must be >= 0", 1);
  ExpectError("seed 1e3\n" + tail, "expected a number", 1);
  ExpectError("seed +\n" + tail, "expected a number", 1);
  ExpectError(tail + "fault\nseed 18446744073709551616\nend\n",
              "expected 'seed N' with a non-negative integer", 4);
  ExpectError(tail + "fault\nseed -1\nend\n",
              "expected 'seed N' with a non-negative integer", 4);
}

TEST(SpecErrorsTest, OutOfRangeClauses) {
  ExpectError("noc star 4\ntraffic uniform inject periodic 0\n",
              "period must be >= 1", 2);
  ExpectError("noc star 4\ntraffic uniform inject bernoulli 0\n",
              "rate must be in (0, 1]", 2);
  ExpectError("noc star 4\ntraffic uniform inject bernoulli 1.5\n",
              "rate must be in (0, 1]", 2);
  ExpectError("noc star 4\ntraffic uniform inject bursty 0 10\n",
              "bursty needs WORDS >= 1", 2);
  ExpectError("noc star 4\ntraffic uniform qos gt 0\n", "out of range", 2);
  ExpectError("noc star 4\ntraffic uniform data_threshold 0\n",
              "out of range", 2);
  ExpectError("noc star 4\ntraffic memory 0 1 burst 63\n", "out of range", 2);
  ExpectError("noc star 4\ntraffic memory 0 1 read_fraction 1.5\n",
              "read_fraction must be in [0, 1]", 2);
}

// Regression: thresholds above 255 parsed, then aborted the run when the
// NI packed them into the 8-bit fields of its THRESHOLDS register.
TEST(SpecErrorsTest, ThresholdsFitTheirRegisterFields) {
  ExpectError("noc star 4\ntraffic uniform inject bernoulli 1.0 qos be "
              "data_threshold 256\n",
              "out of range", 2);
  ExpectError("noc star 4\ntraffic uniform credit_threshold 256\n",
              "out of range", 2);
  ExpectError("noc star 4\ntraffic memory 0 1 data_threshold 300\n",
              "out of range", 2);
  auto spec = ParseScenario(
      "noc star 4\ntraffic uniform data_threshold 255 credit_threshold 255\n");
  ASSERT_TRUE(spec.ok()) << spec.status();
  EXPECT_EQ(spec->traffic.at(0).data_threshold, 255);
  EXPECT_EQ(spec->traffic.at(0).credit_threshold, 255);
}

TEST(SpecErrorsTest, InjectionBoundsMatchTheSweepParams) {
  // Regression: an unbounded burst length parsed, then overflowed
  // `burst_words + gap_cycles` when the source was built (UBSan: signed
  // integer overflow). The limits are the ones the sweep params enforce.
  ExpectError(
      "noc star 4\ntraffic neighbor inject bursty 9223372036854775807 1\n",
      "bursty needs WORDS <= 2^20, GAP <= 2^30", 2);
  ExpectError("noc star 4\ntraffic neighbor inject bursty 4 1073741825\n",
              "bursty needs WORDS <= 2^20, GAP <= 2^30", 2);
  ExpectError("noc star 4\ntraffic neighbor inject periodic 1073741825\n",
              "period must be <= 2^30", 2);
  // The limits themselves parse.
  EXPECT_TRUE(ParseScenario("noc star 4\ntraffic neighbor inject bursty "
                            "1048576 1073741824\n")
                  .ok());
  EXPECT_TRUE(
      ParseScenario("noc star 4\ntraffic neighbor inject periodic 1073741824\n")
          .ok());
}

TEST(SpecErrorsTest, NonFiniteNumbersAreRejected) {
  // Regression: NaN passed every `v <= lo || v > hi` range check; a NaN
  // Bernoulli rate then aborted in the RNG when the source was built.
  ExpectError("noc star 4\ntraffic neighbor inject bernoulli nan\n",
              "expected a number, got 'nan'", 2);
  ExpectError("noc star 4\ntraffic memory 0 1 read_fraction nan\n",
              "expected a number, got 'nan'", 2);
  ExpectError("noc star 4\ntraffic neighbor\nconverge rel_err nan\n",
              "expected a number, got 'nan'", 3);
  ExpectError("noc star 4\ntraffic neighbor inject bernoulli inf\n",
              "expected a number, got 'inf'", 2);
  ExpectError("noc star 4\ntraffic neighbor\nfault\nlink corrupt nan\nend\n",
              "link corrupt rate must be a number in [0, 1], got 'nan'", 4);
}

TEST(SpecErrorsTest, IpClockDirective) {
  ExpectError("ipmhz 0\nnoc star 4\ntraffic uniform\n",
              "ipmhz must be in [1, 1000000]", 1);
  ExpectError("ipmhz 1000001\nnoc star 4\ntraffic uniform\n",
              "ipmhz must be in [1, 1000000]", 1);
  ExpectError("ipmhz 200\nnoc star 4\nipmhz 250\ntraffic uniform\n",
              "duplicate 'ipmhz' directive", 3);
  ExpectError("ipmhz 200 250\nnoc star 4\ntraffic uniform\n",
              "'ipmhz' takes one argument", 1);
  ExpectError("ipmhz fast\nnoc star 4\ntraffic uniform\n",
              "expected a number", 1);
}

TEST(SpecErrorsTest, MissingClauseArguments) {
  ExpectError("noc star 4\ntraffic uniform inject\n", "missing arguments", 2);
  ExpectError("noc star 4\ntraffic uniform inject periodic\n",
              "missing arguments", 2);
  ExpectError("noc star 4\ntraffic uniform qos\n", "missing arguments", 2);
  ExpectError("noc star 4\ntraffic uniform qos gt\n", "missing arguments", 2);
}

TEST(SpecErrorsTest, PatternArgumentConstraints) {
  ExpectError("noc star 4\ntraffic hotspot\n", "exactly one target NI", 2);
  ExpectError("noc star 4\ntraffic hotspot 1 2\n", "exactly one target NI",
              2);
  ExpectError("noc star 4\ntraffic pairs 0 1 2\n", "even NI-id list", 2);
  ExpectError("noc star 4\ntraffic video 0\n", "chain of >= 2 NIs", 2);
  ExpectError("noc star 4\ntraffic memory 0\n", "<master_ni> <slave_ni>", 2);
}

TEST(SpecErrorsTest, PatternClauseMismatches) {
  ExpectError("noc star 4\ntraffic uniform inject closed\n",
              "memory-pattern only", 2);
  ExpectError("noc star 4\ntraffic memory 0 1 inject bursty 4 64\n",
              "memory traffic supports", 2);
  ExpectError("noc star 4\ntraffic uniform read_fraction 0.5\n",
              "memory-only", 2);
  ExpectError("noc star 4\ntraffic uniform burst 4\n", "memory-only", 2);
}

TEST(SpecErrorsTest, FaultBlockErrors) {
  const std::string head = "noc star 4\ntraffic uniform\n";
  // Unknown directives and malformed clauses inside the block carry the
  // offending line's number, not the block's.
  ExpectError(head + "fault\nzap 0.1\nend\n",
              "unknown fault directive 'zap'", 4);
  ExpectError(head + "fault\nlink corrupt 1.5\nend\n",
              "link corrupt rate must be a number in [0, 1]", 4);
  ExpectError(head + "fault\nlink melt 0.5\nend\n",
              "expected 'link corrupt RATE' or 'link drop RATE'", 4);
  ExpectError(head + "fault\nrouter 0 stall 10 0\nend\n",
              "stall length must be a positive cycle", 4);
  ExpectError(head + "fault\nretry timeout 0 max 4 backoff 2\nend\n",
              "retry timeout must be a positive cycle", 4);
  ExpectError(head + "fault\nconfig drop 0.1 extra\nend\n",
              "expected 'config drop RATE' or 'config delay RATE CYCLES'",
              4);
  // Block-structure errors point at the structural line.
  ExpectError(head + "fault now\n",
              "'fault' opens a block", 3);
  ExpectError(head + "fault\nseed 7\n",
              "'fault' block is never closed with 'end'", 3);
  ExpectError(head + "fault\nend\nfault\nend\n", "duplicate 'fault'", 5);
  ExpectError(head + "fault\nend extra\n", "'end' takes no arguments", 4);
  // Config faults and the retry policy need a phased scenario.
  ExpectError(head + "fault\nconfig drop 0.1\nend\n",
              "only phased scenarios", 3);
  ExpectError(head + "fault\nretry timeout 512 max 4 backoff 2\nend\n",
              "only phased scenarios", 3);
}

TEST(SpecErrorsTest, FaultCyclesAndIdsAreBounded) {
  const std::string head = "noc star 4\ntraffic uniform\n";
  // Regression: an id past int32 was truncated (2^32 + 1 stalled router
  // 1), and start + length wrapped in int64 so the window stalled nothing.
  ExpectError(head + "fault\nrouter 4294967297 stall 100 400\nend\n",
              "router id must be an integer in [0, 2^31)", 4);
  ExpectError(head + "fault\nni 2147483648 stall 100 400\nend\n",
              "ni id must be an integer in [0, 2^31)", 4);
  ExpectError(head + "fault\nrouter 0 stall 100 9223372036854775807\nend\n",
              "stall length must be a positive cycle count <= 2^40", 4);
  ExpectError(head + "fault\nrouter 0 stall 1099511627777 10\nend\n",
              "stall start must be a non-negative cycle <= 2^40", 4);
  // The limit itself is a valid window.
  auto spec = ParseScenario(
      head + "fault\nrouter 0 stall 1099511627776 1099511627776\nend\n");
  ASSERT_TRUE(spec.ok()) << spec.status();
  ASSERT_EQ(spec->fault->router_stalls.size(), 1u);
  EXPECT_EQ(spec->fault->router_stalls[0].length, kMaxCycles);
}

TEST(SpecErrorsTest, FaultBlockParses) {
  auto spec = ParseScenario(
      "noc star 4\ntraffic neighbor qos gt 1\n"
      "fault\n"
      "seed 7\n"
      "link corrupt 0.001\n"
      "link drop 0.0005\n"
      "router 0 stall 1000 64\n"
      "ni 2 stall 500 32\n"
      "end\n");
  ASSERT_TRUE(spec.ok()) << spec.status();
  ASSERT_TRUE(spec->fault.has_value());
  EXPECT_EQ(spec->fault->seed, 7u);
  EXPECT_DOUBLE_EQ(spec->fault->link_corrupt_rate, 0.001);
  EXPECT_DOUBLE_EQ(spec->fault->link_drop_rate, 0.0005);
  ASSERT_EQ(spec->fault->router_stalls.size(), 1u);
  EXPECT_EQ(spec->fault->router_stalls[0].id, 0);
  ASSERT_EQ(spec->fault->ni_stalls.size(), 1u);
  EXPECT_EQ(spec->fault->ni_stalls[0].start, 500);
  EXPECT_TRUE(spec->fault->Enabled());
}

TEST(SpecErrorsTest, FileErrorsCarryPath) {
  auto spec = LoadScenarioFile("/nonexistent/missing.scn");
  ASSERT_FALSE(spec.ok());
  EXPECT_EQ(spec.status().code(), StatusCode::kNotFound);
  EXPECT_NE(spec.status().message().find("missing.scn"), std::string::npos);
}

TEST(SpecErrorsTest, MalformedStatsDirective) {
  ExpectError("noc star 4\nstats\ntraffic uniform\n",
              "stats sample_every <cycles>", 2);
  ExpectError("noc star 4\nstats every 10\ntraffic uniform\n",
              "stats sample_every <cycles>", 2);
  // Windows shorter than one slot (kFlitWords cycles) cannot close on a
  // slot boundary.
  ExpectError("noc star 4\nstats sample_every 1\ntraffic uniform\n",
              "out of range", 2);
  ExpectError("noc star 4\nstats sample_every ten\ntraffic uniform\n",
              "expected a number", 2);
  ExpectError(
      "noc star 4\nstats sample_every 30\nstats sample_every 60\n"
      "traffic uniform\n",
      "duplicate 'stats' directive", 3);
}

TEST(SpecErrorsTest, MalformedTraceDirective) {
  ExpectError("noc star 4\ntrace\ntraffic uniform\n",
              "trace <file> [cap <events>]", 2);
  ExpectError("noc star 4\ntrace t.json cap\ntraffic uniform\n",
              "trace <file> [cap <events>]", 2);
  ExpectError("noc star 4\ntrace t.json limit 10\ntraffic uniform\n",
              "expected 'cap <events>'", 2);
  ExpectError("noc star 4\ntrace t.json cap 0\ntraffic uniform\n",
              "out of range", 2);
  ExpectError(
      "noc star 4\ntrace a.json\ntrace b.json\ntraffic uniform\n",
      "duplicate 'trace' directive", 3);
}

TEST(SpecErrorsTest, StatsAndTraceParse) {
  auto spec = ParseScenario(
      "noc star 4\nstats sample_every 30\ntrace t.json cap 512\n"
      "traffic uniform\n");
  ASSERT_TRUE(spec.ok()) << spec.status();
  EXPECT_EQ(spec->obs.sample_every, 30);
  EXPECT_EQ(spec->obs.trace_path, "t.json");
  EXPECT_EQ(spec->obs.trace_cap, 512);
  EXPECT_TRUE(spec->obs.SamplingEnabled());
  EXPECT_TRUE(spec->obs.TracingEnabled());
  EXPECT_TRUE(spec->obs.Enabled());
  // The kill switch: no stats/trace lines -> fully disabled.
  auto off = ParseScenario("noc star 4\ntraffic uniform\n");
  ASSERT_TRUE(off.ok()) << off.status();
  EXPECT_FALSE(off->obs.Enabled());
}

TEST(SpecErrorsTest, EngineDirectiveParses) {
  auto naive = ParseScenario("noc star 4\nengine naive\ntraffic uniform\n");
  ASSERT_TRUE(naive.ok()) << naive.status();
  EXPECT_EQ(naive->engine, sim::EngineKind::kNaive);

  auto soa = ParseScenario("noc star 4\nengine soa\ntraffic uniform\n");
  ASSERT_TRUE(soa.ok()) << soa.status();
  EXPECT_EQ(soa->engine, sim::EngineKind::kSoa);

  auto absent = ParseScenario("noc star 4\ntraffic uniform\n");
  ASSERT_TRUE(absent.ok()) << absent.status();
  EXPECT_EQ(absent->engine, sim::EngineKind::kSoa) << "soa is the default";
}

TEST(SpecErrorsTest, EngineDirectiveErrors) {
  ExpectError("noc star 4\nengine warp\ntraffic uniform\n",
              "engine <naive|soa>", 2);
  ExpectError("noc star 4\nengine soa 4\ntraffic uniform\n",
              "engine <naive|soa>", 2);
  // The removed engine and the removed thread-count argument.
  ExpectError("noc star 4\nengine optimized\ntraffic uniform\n",
              "engine <naive|soa>", 2);
  ExpectError("noc star 4\nengine soa threads 4\ntraffic uniform\n",
              "engine <naive|soa>", 2);
  ExpectError("noc star 4\nengine naive threads 1\ntraffic uniform\n",
              "engine <naive|soa>", 2);
}

}  // namespace
}  // namespace aethereal::scenario
