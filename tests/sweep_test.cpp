// Sweep subsystem unit tests: parameter references and overrides, .swp
// parsing with line-numbered diagnostics, cartesian grid expansion, the
// CSV writer, the work-stealing pool, the saturation bisection, and the
// determinism contract — jobs=1 and jobs=N produce byte-identical
// JSON/CSV output.
#include <algorithm>
#include <atomic>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "sweep/pool.h"
#include "sweep/runner.h"
#include "sweep/spec.h"
#include "util/csv.h"

namespace aethereal::sweep {
namespace {

constexpr char kBaseScenario[] = R"(
scenario sweep_base
noc star 4
stu 8
queues 32
seed 3
warmup 200
duration 1200
traffic pairs 0 1 inject periodic 6 qos gt 2
traffic uniform inject bernoulli 0.02 qos be
)";

/// Parses a .swp body against the in-memory base above.
Result<SweepSpec> Parse(const std::string& text) {
  return ParseSweep(text, [](const std::string&) {
    return scenario::ParseScenario(kBaseScenario);
  });
}

scenario::ScenarioSpec BaseSpec() {
  auto spec = scenario::ParseScenario(kBaseScenario);
  EXPECT_TRUE(spec.ok()) << spec.status();
  return *spec;
}

TEST(ParamRefTest, ParsesScopedAndUnscoped) {
  auto rate = ParseParamRef("rate");
  ASSERT_TRUE(rate.ok());
  EXPECT_EQ(rate->key, ParamRef::Key::kRate);
  EXPECT_EQ(rate->group, -1);
  EXPECT_EQ(rate->Name(), "rate");

  auto scoped = ParseParamRef("g1.qos");
  ASSERT_TRUE(scoped.ok());
  EXPECT_EQ(scoped->key, ParamRef::Key::kQos);
  EXPECT_EQ(scoped->group, 1);
  EXPECT_EQ(scoped->Name(), "g1.qos");

  EXPECT_FALSE(ParseParamRef("bogus").ok());
  EXPECT_FALSE(ParseParamRef("g0.stu").ok()) << "scenario keys are unscoped";
}

TEST(ApplyParamTest, ScenarioLevelKeys) {
  auto spec = BaseSpec();
  ASSERT_TRUE(ApplyParam(*ParseParamRef("stu"), "16", &spec).ok());
  EXPECT_EQ(spec.stu_slots, 16);
  ASSERT_TRUE(ApplyParam(*ParseParamRef("seed"), "99", &spec).ok());
  EXPECT_EQ(spec.seed, 99u);
  // Seed axes take the whole uint64 range, as spec seeds do.
  ASSERT_TRUE(
      ApplyParam(*ParseParamRef("seed"), "17181368232381819650", &spec).ok());
  EXPECT_EQ(spec.seed, 17181368232381819650u);
  EXPECT_FALSE(
      ApplyParam(*ParseParamRef("seed"), "18446744073709551616", &spec).ok());
  EXPECT_FALSE(ApplyParam(*ParseParamRef("seed"), "-1", &spec).ok());
  EXPECT_EQ(spec.seed, 17181368232381819650u);
  ASSERT_TRUE(ApplyParam(*ParseParamRef("noc"), "mesh2x2x1", &spec).ok());
  EXPECT_EQ(spec.topology, scenario::TopologyKind::kMesh);
  EXPECT_EQ(spec.NumNis(), 4);
  ASSERT_TRUE(ApplyParam(*ParseParamRef("noc"), "ring3x2", &spec).ok());
  EXPECT_EQ(spec.topology, scenario::TopologyKind::kRing);
  EXPECT_EQ(spec.NumNis(), 6);

  EXPECT_FALSE(ApplyParam(*ParseParamRef("stu"), "0", &spec).ok());
  // Regression: a stu axis value above the 32-bit SLOTS-mask limit used
  // to pass validation and abort inside the NI kernel at run time.
  EXPECT_FALSE(ApplyParam(*ParseParamRef("stu"), "64", &spec).ok());
  EXPECT_FALSE(ApplyParam(*ParseParamRef("noc"), "torus4", &spec).ok());
  EXPECT_FALSE(ApplyParam(*ParseParamRef("noc"), "ring2x1", &spec).ok());
}

TEST(ApplyParamTest, EngineKey) {
  auto spec = BaseSpec();
  ASSERT_TRUE(ApplyParam(*ParseParamRef("engine"), "naive", &spec).ok());
  EXPECT_EQ(spec.engine, sim::EngineKind::kNaive);
  ASSERT_TRUE(ApplyParam(*ParseParamRef("engine"), "soa", &spec).ok());
  EXPECT_EQ(spec.engine, sim::EngineKind::kSoa);

  EXPECT_FALSE(ApplyParam(*ParseParamRef("engine"), "warp", &spec).ok());
  EXPECT_FALSE(ApplyParam(*ParseParamRef("engine"), "optimized", &spec).ok());
  // Scenario-level keys reject a traffic scope.
  EXPECT_FALSE(ParseParamRef("g0.engine").ok());
  // The thread-count axis is gone.
  EXPECT_FALSE(ParseParamRef("threads").ok());
}

TEST(ApplyParamTest, TrafficKeysTargetMatchingDirectives) {
  auto spec = BaseSpec();
  // Unscoped rate hits the bernoulli directive (g1) only.
  ASSERT_TRUE(ApplyParam(*ParseParamRef("rate"), "0.25", &spec).ok());
  EXPECT_EQ(spec.traffic[0].rate, 0.05);  // untouched default
  EXPECT_EQ(spec.traffic[1].rate, 0.25);
  // Unscoped period hits the periodic directive (g0) only.
  ASSERT_TRUE(ApplyParam(*ParseParamRef("period"), "12", &spec).ok());
  EXPECT_EQ(spec.traffic[0].period, 12);
  // gtslots hits the GT directive.
  ASSERT_TRUE(ApplyParam(*ParseParamRef("gtslots"), "3", &spec).ok());
  EXPECT_EQ(spec.traffic[0].gt_slots, 3);
  // Scoped qos flips one directive.
  ASSERT_TRUE(ApplyParam(*ParseParamRef("g1.qos"), "gt1", &spec).ok());
  EXPECT_TRUE(spec.traffic[1].gt);
  EXPECT_EQ(spec.traffic[1].gt_slots, 1);

  // A scoped key must match the directive's injection kind.
  EXPECT_FALSE(ApplyParam(*ParseParamRef("g0.rate"), "0.1", &spec).ok());
  // Out-of-range group.
  EXPECT_FALSE(ApplyParam(*ParseParamRef("g7.rate"), "0.1", &spec).ok());
  // No bursty directive to target.
  EXPECT_FALSE(ApplyParam(*ParseParamRef("burst"), "4/64", &spec).ok());
}

TEST(ApplyParamTest, RateRejectsNonFiniteValues) {
  // Regression: NaN slipped through the (0, 1] check and reached the RNG.
  auto spec = BaseSpec();
  for (const char* value : {"nan", "inf", "-nan"}) {
    const Status s = ApplyParam(*ParseParamRef("rate"), value, &spec);
    ASSERT_FALSE(s.ok()) << value;
    EXPECT_NE(s.message().find("expected a number"), std::string::npos) << s;
  }
  auto axis = Parse("base b\naxis rate 0.1 nan\n");
  ASSERT_FALSE(axis.ok());
  EXPECT_NE(axis.status().message().find("line 2"), std::string::npos);
  EXPECT_NE(axis.status().message().find("expected a number, got 'nan'"),
            std::string::npos);
  auto saturate = Parse("base b\nsaturate rate 0.01 0.3 p99 inf\n");
  ASSERT_FALSE(saturate.ok());
  EXPECT_NE(saturate.status().message().find("expected a number, got 'inf'"),
            std::string::npos);
}

TEST(ApplyParamTest, InjectionBoundsMatchTheScenarioGrammar) {
  auto spec = BaseSpec();
  const auto period = ParseParamRef("period");
  EXPECT_TRUE(ApplyParam(*period, "1073741824", &spec).ok());
  EXPECT_FALSE(ApplyParam(*period, "1073741825", &spec).ok());
  EXPECT_TRUE(scenario::ParseScenario(
                  "noc star 4\ntraffic neighbor inject periodic 1073741824\n")
                  .ok());
  EXPECT_FALSE(scenario::ParseScenario(
                   "noc star 4\ntraffic neighbor inject periodic 1073741825\n")
                   .ok());
}

TEST(SweepParseTest, FullSpecRoundTrips) {
  auto spec = Parse(
      "sweep demo\n"
      "base base.scn\n"
      "set duration 800\n"
      "axis rate 0.01 0.02\n"
      "axis seed 1 2 3\n");
  ASSERT_TRUE(spec.ok()) << spec.status();
  EXPECT_EQ(spec->name, "demo");
  EXPECT_EQ(spec->base.duration, 800);
  ASSERT_EQ(spec->axes.size(), 2u);
  EXPECT_EQ(spec->NumPoints(), 6u);
}

TEST(SweepParseTest, Diagnostics) {
  auto no_base = Parse("axis rate 0.1\n");
  ASSERT_FALSE(no_base.ok());
  EXPECT_NE(no_base.status().message().find("'base' must come before"),
            std::string::npos);

  auto bad_param = Parse("base b\naxis warp 1 2\n");
  ASSERT_FALSE(bad_param.ok());
  EXPECT_NE(bad_param.status().message().find("line 2"), std::string::npos);
  EXPECT_NE(bad_param.status().message().find("unknown sweep parameter"),
            std::string::npos);

  auto bad_value = Parse("base b\naxis rate 0.1 2.0\n");
  ASSERT_FALSE(bad_value.ok());
  EXPECT_NE(bad_value.status().message().find("rate must be in"),
            std::string::npos);

  auto dup_axis = Parse("base b\naxis rate 0.1\naxis rate 0.2\n");
  ASSERT_FALSE(dup_axis.ok());
  EXPECT_NE(dup_axis.status().message().find("duplicate axis"),
            std::string::npos);

  auto dup_set = Parse("base b\nset duration 3000\nset duration 500\n");
  ASSERT_FALSE(dup_set.ok());
  EXPECT_NE(dup_set.status().message().find("duplicate 'set duration'"),
            std::string::npos);
  EXPECT_NE(dup_set.status().message().find("line 3"), std::string::npos);

  // The removed engine grammar: a threads axis and the optimized engine.
  auto threads_axis = Parse("base b\naxis threads 1 4\n");
  ASSERT_FALSE(threads_axis.ok());
  EXPECT_NE(threads_axis.status().message().find("line 2"), std::string::npos);
  EXPECT_NE(threads_axis.status().message().find("unknown sweep parameter"),
            std::string::npos);

  auto optimized = Parse("base b\naxis engine naive optimized\n");
  ASSERT_FALSE(optimized.ok());
  EXPECT_NE(optimized.status().message().find("line 2"), std::string::npos);
  EXPECT_NE(optimized.status().message().find("engine value must be"),
            std::string::npos);
}

TEST(SweepParseTest, ValidateAxisValueDryRunsPatterns) {
  // The same gate file axes get at parse time, exposed for the CLI's
  // --axis overrides: a structurally impossible value must fail here.
  auto base = scenario::ParseScenario(
      "scenario t\nnoc mesh 2 2 1\ntraffic transpose\n");
  ASSERT_TRUE(base.ok());
  auto noc = ParseParamRef("noc");
  ASSERT_TRUE(noc.ok());
  EXPECT_TRUE(ValidateAxisValue(*noc, "mesh3x3x1", *base).ok());
  EXPECT_FALSE(ValidateAxisValue(*noc, "mesh2x3x1", *base).ok())
      << "transpose needs a square mesh";
  EXPECT_FALSE(ValidateAxisValue(*noc, "torus4", *base).ok());
}

TEST(SweepParseTest, StructurallyBadAxisValueFailsAtParse) {
  // transpose needs a square mesh; a mesh axis value that breaks the
  // pattern must fail at parse time, with the axis named.
  auto spec = ParseSweep(
      "base b\naxis noc mesh2x3x1\n", [](const std::string&) {
        return scenario::ParseScenario(
            "scenario t\nnoc mesh 2 2 1\ntraffic transpose\n");
      });
  ASSERT_FALSE(spec.ok());
  EXPECT_NE(spec.status().message().find("axis noc"), std::string::npos);
}

TEST(SweepParseTest, SaturateDirective) {
  auto spec = Parse("base b\nsaturate rate 0.01 0.5 p99 100 iters 4\n");
  ASSERT_TRUE(spec.ok()) << spec.status();
  EXPECT_TRUE(spec->saturation.enabled);
  EXPECT_EQ(spec->saturation.metric, "p99");
  EXPECT_EQ(spec->saturation.iters, 4);

  EXPECT_FALSE(Parse("base b\nsaturate rate 0.5 0.1 p99 100\n").ok())
      << "LO < HI required";
  EXPECT_FALSE(Parse("base b\nsaturate stu 1 8 p99 100\n").ok())
      << "only continuous parameters bisect";
  EXPECT_FALSE(Parse("base b\nsaturate rate 0.1 0.5 p50 100\n").ok());
  EXPECT_FALSE(
      Parse("base b\naxis rate 0.1\nsaturate rate 0.01 0.5 p99 100\n").ok())
      << "axis and saturate on the same parameter conflict";
}

TEST(GridTest, OdometerOrderLastAxisFastest) {
  auto spec = Parse("base b\naxis rate 0.01 0.02\naxis seed 1 2 3\n");
  ASSERT_TRUE(spec.ok()) << spec.status();
  const auto grid = ExpandGrid(*spec);
  ASSERT_EQ(grid.size(), 6u);
  std::vector<std::vector<std::string>> expect = {
      {"0.01", "1"}, {"0.01", "2"}, {"0.01", "3"},
      {"0.02", "1"}, {"0.02", "2"}, {"0.02", "3"},
  };
  for (std::size_t i = 0; i < grid.size(); ++i) {
    EXPECT_EQ(grid[i].index, i);
    EXPECT_EQ(grid[i].Values(*spec), expect[i]);
  }
  auto materialized = MaterializePoint(*spec, grid[4]);
  ASSERT_TRUE(materialized.ok());
  EXPECT_EQ(materialized->traffic[1].rate, 0.02);
  EXPECT_EQ(materialized->seed, 2u);
}

TEST(CsvWriterTest, FormatsAndEscapes) {
  CsvWriter w({"name", "count", "ratio"});
  w.Cell("plain").Cell(std::int64_t{7}).Double(0.25).EndRow();
  w.Cell("com,ma").Cell(std::int64_t{-1}).Double(3.0).EndRow();
  w.Cell("qu\"ote").Cell(std::int64_t{0}).Double(1.0 / 3.0).EndRow();
  EXPECT_EQ(w.Take(),
            "name,count,ratio\n"
            "plain,7,0.25\n"
            "\"com,ma\",-1,3\n"
            "\"qu\"\"ote\",0,0.333333\n");
}

TEST(PoolTest, RunsEveryJobExactlyOnce) {
  for (int workers : {1, 2, 5, 16}) {
    constexpr std::size_t kJobs = 97;
    std::vector<std::atomic<int>> hits(kJobs);
    RunJobs(kJobs, workers, [&](std::size_t i) { hits[i].fetch_add(1); });
    for (std::size_t i = 0; i < kJobs; ++i) {
      EXPECT_EQ(hits[i].load(), 1) << "job " << i << ", " << workers
                                   << " workers";
    }
  }
  RunJobs(0, 4, [](std::size_t) { FAIL() << "no jobs to run"; });
}

TEST(OfferedWpcTest, PerInjectionKind) {
  scenario::TrafficSpec t;
  t.inject = scenario::InjectKind::kPeriodic;
  t.period = 8;
  EXPECT_DOUBLE_EQ(OfferedWpc(t), 0.125);
  t.inject = scenario::InjectKind::kBernoulli;
  t.rate = 0.05;
  EXPECT_DOUBLE_EQ(OfferedWpc(t), 0.05);
  t.inject = scenario::InjectKind::kBursty;
  t.burst_words = 6;
  t.gap_cycles = 42;
  EXPECT_DOUBLE_EQ(OfferedWpc(t), 0.125);
  t.pattern = scenario::PatternKind::kMemory;
  t.inject = scenario::InjectKind::kClosedLoop;
  EXPECT_DOUBLE_EQ(OfferedWpc(t), 0.0);
  t.inject = scenario::InjectKind::kPeriodic;
  t.period = 16;
  t.mem_burst_words = 4;
  EXPECT_DOUBLE_EQ(OfferedWpc(t), 0.25);
}

/// The tentpole contract: the aggregated output is byte-identical for any
/// worker count. (CI re-checks this through the noc_sweep binary.)
TEST(SweepDeterminismTest, Jobs1AndJobsNAreByteIdentical) {
  const char kSweep[] =
      "sweep determinism\n"
      "base b\n"
      "set duration 600\n"
      "set warmup 150\n"
      "axis rate 0.01 0.03\n"
      "axis seed 1 2\n";
  auto spec = Parse(kSweep);
  ASSERT_TRUE(spec.ok()) << spec.status();

  auto run = [&](int jobs) {
    SweepRunner runner(*Parse(kSweep));
    auto result = runner.Run(jobs);
    EXPECT_TRUE(result.ok()) << result.status();
    return std::pair{result->ToJson(), result->ToCsv()};
  };
  const auto [json1, csv1] = run(1);
  for (int jobs : {2, 4, 8}) {
    const auto [jsonN, csvN] = run(jobs);
    EXPECT_EQ(json1, jsonN) << "JSON diverged at jobs=" << jobs;
    EXPECT_EQ(csv1, csvN) << "CSV diverged at jobs=" << jobs;
  }
  EXPECT_NE(json1.find("\"points\""), std::string::npos);
}

TEST(SweepRunnerTest, ClassSummariesSplitGtAndBe) {
  auto spec = Parse(
      "sweep classes\n"
      "base b\n"
      "set duration 600\n"
      "set warmup 150\n"
      "axis rate 0.02\n");
  ASSERT_TRUE(spec.ok()) << spec.status();
  SweepRunner runner(*spec);
  auto result = runner.Run(2);
  ASSERT_TRUE(result.ok()) << result.status();
  ASSERT_EQ(result->points.size(), 1u);
  const PointResult& point = result->points[0];
  EXPECT_EQ(point.gt.flows, 1);  // pairs 0 1 qos gt
  EXPECT_EQ(point.be.flows, 4);  // uniform on 4 NIs
  EXPECT_EQ(point.all.flows, point.gt.flows + point.be.flows);
  EXPECT_EQ(point.all.words_in_window,
            point.gt.words_in_window + point.be.words_in_window);
  EXPECT_GT(point.gt.words_in_window, 0);
  EXPECT_DOUBLE_EQ(point.gt.offered_wpc, 1.0 / 6.0);
  // Curve emitter covers both classes plus the union.
  auto curve = result->ToCurveCsv("rate");
  ASSERT_TRUE(curve.ok()) << curve.status();
  EXPECT_NE(curve->find(",gt,"), std::string::npos);
  EXPECT_NE(curve->find(",be,"), std::string::npos);
  EXPECT_NE(curve->find(",all,"), std::string::npos);
  EXPECT_FALSE(result->ToCurveCsv("stu").ok()) << "not an axis";
}

TEST(SweepRunnerTest, OfferedLoadCountsNetworkCycles) {
  // Injection periods count IP cycles; with the IP ports at half the
  // network clock, the GT pair's period 6 offers 1/12 word per network
  // cycle, the unit its delivered throughput is measured in.
  auto spec = scenario::ParseScenario(std::string(kBaseScenario) +
                                      "ipmhz 250\n");
  ASSERT_TRUE(spec.ok()) << spec.status();
  scenario::ScenarioRunner runner(*spec);
  auto result = runner.Run();
  ASSERT_TRUE(result.ok()) << result.status();
  PointResult point;
  SummarizePoint(*result, &point);
  EXPECT_DOUBLE_EQ(point.gt.offered_wpc, 1.0 / 12.0);
  EXPECT_NEAR(point.gt.throughput_wpc, point.gt.offered_wpc, 0.01);
}

TEST(SweepRunnerTest, SaturationBisectionFindsTheBoundary) {
  // On the 4-NI star, low bernoulli rates keep p99 latency flat and high
  // rates saturate the BE queues, so a generous-but-finite bound has a
  // crossing in [0.01, 0.9].
  auto spec = Parse(
      "sweep sat\n"
      "base b\n"
      "set duration 600\n"
      "set warmup 150\n"
      "saturate rate 0.01 0.9 p99 80 iters 4\n");
  ASSERT_TRUE(spec.ok()) << spec.status();
  SweepRunner runner(*spec);
  auto result = runner.Run(3);
  ASSERT_TRUE(result.ok()) << result.status();
  ASSERT_EQ(result->points.size(), 1u);
  const SaturationResult& sat = result->points[0].saturation;
  ASSERT_GE(sat.probes.size(), 2u);
  EXPECT_GE(sat.value, 0.01);
  EXPECT_LE(sat.value, 0.9);
  if (sat.feasible) {
    // The reported value is the largest probe that met the bound.
    double best = 0;
    for (const ProbeResult& probe : sat.probes) {
      if (probe.meets) best = std::max(best, probe.x);
    }
    EXPECT_DOUBLE_EQ(sat.value, best);
  }
  // Deterministic under re-run and any job count.
  SweepRunner again(*spec);
  auto result2 = again.Run(1);
  ASSERT_TRUE(result2.ok());
  EXPECT_EQ(result->ToJson(), result2->ToJson());
  EXPECT_EQ(result->ToCsv(), result2->ToCsv());
}

}  // namespace
}  // namespace aethereal::sweep
