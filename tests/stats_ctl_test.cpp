// Stop-on-convergence statistics (DESIGN.md §14): the t-quantile and
// batch-means estimators, MSER-5 / online warmup detection, the `converge`
// spec grammar, and the runner integration — a converged run stops at the
// byte-identical cycle on both engines, earlier than the fixed run,
// with a CI that covers the fixed run's mean.
#include <gtest/gtest.h>

#include <cmath>
#include <string>
#include <vector>

#include "scenario/runner.h"
#include "scenario/spec.h"
#include "sim/engine.h"
#include "stats_ctl/convergence.h"
#include "util/rng.h"

namespace aethereal {
namespace {

using scenario::ParseScenario;
using scenario::ScenarioResult;
using scenario::ScenarioRunner;
using scenario::ScenarioSpec;
using stats_ctl::BatchMeansCi;
using stats_ctl::BatchMeansResult;
using stats_ctl::ConvergeSpec;
using stats_ctl::Mser5Truncation;
using stats_ctl::NormalQuantile;
using stats_ctl::StudentTQuantile;
using stats_ctl::WarmupDetector;

// --- quantiles -------------------------------------------------------------

TEST(Quantile, NormalMatchesTables) {
  EXPECT_NEAR(NormalQuantile(0.975), 1.959964, 1e-5);
  EXPECT_NEAR(NormalQuantile(0.995), 2.575829, 1e-5);
  EXPECT_NEAR(NormalQuantile(0.5), 0.0, 1e-9);
  EXPECT_NEAR(NormalQuantile(0.025), -1.959964, 1e-5);
}

TEST(Quantile, StudentTMatchesTables) {
  // Two-sided critical values from standard t tables.
  EXPECT_NEAR(StudentTQuantile(0.95, 1), 12.7062, 1e-3);    // exact (Cauchy)
  EXPECT_NEAR(StudentTQuantile(0.95, 2), 4.30265, 1e-4);    // exact
  EXPECT_NEAR(StudentTQuantile(0.95, 10), 2.22814, 2e-3);   // Hill expansion
  EXPECT_NEAR(StudentTQuantile(0.95, 19), 2.09302, 1e-3);   // default batches
  EXPECT_NEAR(StudentTQuantile(0.99, 5), 4.03214, 2e-2);
  EXPECT_NEAR(StudentTQuantile(0.95, 1000), 1.96234, 1e-3);
}

TEST(Quantile, StudentTDecreasesTowardNormal) {
  double prev = StudentTQuantile(0.95, 3);
  for (int dof = 4; dof <= 200; ++dof) {
    const double t = StudentTQuantile(0.95, dof);
    EXPECT_LT(t, prev) << "dof " << dof;
    prev = t;
  }
  EXPECT_GT(prev, NormalQuantile(0.975));
}

// --- batch means -----------------------------------------------------------

// AR(1) stream with the repo's deterministic Rng: x_t = mu + phi (x_{t-1}
// - mu) + noise, noise uniform in [-1, 1).
std::vector<double> Ar1(std::size_t n, double mu, double phi,
                        std::uint64_t seed) {
  Rng rng(seed);
  std::vector<double> xs(n);
  double x = mu;
  for (std::size_t i = 0; i < n; ++i) {
    const double noise =
        static_cast<double>(rng.NextBelow(2000)) / 1000.0 - 1.0;
    x = mu + phi * (x - mu) + noise;
    xs[i] = x;
  }
  return xs;
}

TEST(BatchMeans, InvalidBelowTwoSamplesPerBatch) {
  std::vector<double> xs(39, 1.0);
  const BatchMeansResult r = BatchMeansCi(xs, 0, xs.size(), 20, 0.95);
  EXPECT_FALSE(r.valid);  // 39 / 20 batches -> batch_size 1
  EXPECT_TRUE(BatchMeansCi(xs, 0, xs.size(), 19, 0.95).valid);
}

TEST(BatchMeans, CoversTrueMeanOfAr1Stream) {
  // Strongly autocorrelated stream; with long batches the CI must still
  // cover the true mean, and the grand mean must equal the plain mean of
  // the covered samples.
  const double mu = 40.0;
  const auto xs = Ar1(20000, mu, 0.9, 7);
  const BatchMeansResult r = BatchMeansCi(xs, 0, xs.size(), 20, 0.95);
  ASSERT_TRUE(r.valid);
  EXPECT_EQ(r.batch_size, 1000);
  EXPECT_EQ(r.samples, 20000);
  double plain = 0;
  for (double x : xs) plain += x;
  plain /= static_cast<double>(xs.size());
  // Summation order differs (per-batch vs straight pass), so compare to
  // a tolerance rather than bitwise.
  EXPECT_NEAR(r.mean, plain, 1e-9);
  EXPECT_LE(r.ci_low, mu);
  EXPECT_GE(r.ci_high, mu);
  EXPECT_NEAR(r.ci_high - r.ci_low, 2 * r.half_width, 1e-9);
  EXPECT_NEAR(r.rel_err, r.half_width / r.mean, 1e-12);
}

TEST(BatchMeans, Lag1FlagsUndersizedBatches) {
  // The same AR(1) stream split into many tiny batches leaves the batch
  // means visibly correlated; long batches wash the correlation out. This
  // is exactly the sanity check the runner's stopping rule applies.
  const auto xs = Ar1(20000, 40.0, 0.95, 11);
  const BatchMeansResult tiny = BatchMeansCi(xs, 0, xs.size(), 2000, 0.95);
  const BatchMeansResult wide = BatchMeansCi(xs, 0, xs.size(), 10, 0.95);
  ASSERT_TRUE(tiny.valid);
  ASSERT_TRUE(wide.valid);
  EXPECT_GT(tiny.lag1, 0.5);
  EXPECT_LT(std::fabs(wide.lag1), 0.5);
}

TEST(BatchMeans, IidStreamHasTightInterval) {
  Rng rng(3);
  std::vector<double> xs(10000);
  for (double& x : xs) {
    x = 100.0 + static_cast<double>(rng.NextBelow(2000)) / 1000.0 - 1.0;
  }
  const BatchMeansResult r = BatchMeansCi(xs, 0, xs.size(), 20, 0.95);
  ASSERT_TRUE(r.valid);
  EXPECT_LT(r.rel_err, 0.001);  // sigma ~ 0.58, n = 10000, mean 100
  EXPECT_LT(std::fabs(r.lag1), 0.5);
}

TEST(BatchMeans, RangeRespectsBounds) {
  std::vector<double> xs(100, 5.0);
  xs[0] = 1e9;  // outside [1, 99) — must not contaminate the estimate
  xs[99] = 1e9;
  const BatchMeansResult r = BatchMeansCi(xs, 1, 99, 7, 0.95);
  ASSERT_TRUE(r.valid);
  EXPECT_DOUBLE_EQ(r.mean, 5.0);
  EXPECT_DOUBLE_EQ(r.half_width, 0.0);
}

// --- warmup detection ------------------------------------------------------

TEST(Warmup, Mser5TruncatesStepChange) {
  // 100 transient samples at 50, then 900 stationary at 10: the optimal
  // truncation removes (about) the transient prefix, never more than half.
  std::vector<double> xs(1000, 10.0);
  for (std::size_t i = 0; i < 100; ++i) xs[i] = 50.0;
  const std::size_t d = Mser5Truncation(xs);
  EXPECT_GE(d, 100u);
  EXPECT_LE(d, 500u);
  EXPECT_EQ(d % 5, 0u);
}

TEST(Warmup, Mser5KeepsStationarySeries) {
  EXPECT_EQ(Mser5Truncation(std::vector<double>(500, 42.0)), 0u);
  EXPECT_EQ(Mser5Truncation(std::vector<double>(7, 1.0)), 0u);  // too short
}

TEST(Warmup, DetectorFiresAfterStepSettles) {
  WarmupDetector det(5, 0.05);
  int fired_at = -1;
  // Decaying transient, then flat at 10. The drift test compares the
  // older five observations against the newer five, so warmth needs the
  // OLDER half fully settled too: ramp indices 0..4 leave the ring at
  // observation 14 (ring = indices 5..14, both halves all-10).
  for (int i = 0; i < 16; ++i) {
    const double lat[] = {100, 80, 60, 40, 20};
    det.Observe(i < 5 ? lat[i] : 10.0, 5.0);
    if (det.warm() && fired_at < 0) fired_at = i;
  }
  EXPECT_TRUE(det.warm());
  EXPECT_EQ(fired_at, 14);
  EXPECT_EQ(det.observed(), 15);  // observations stop counting once warm
}

TEST(Warmup, DetectorToleratesStationaryNoise) {
  // A settled-but-noisy series: each interval swings 10% around the mean,
  // twice the 5% tolerance. A per-interval bound would never fire; the
  // half-vs-half drift test averages the noise out and fires as soon as
  // the ring fills.
  WarmupDetector det(5, 0.05);
  for (int i = 0; i < 10; ++i) {
    det.Observe(i % 2 == 0 ? 9.0 : 11.0, i % 2 == 0 ? 4.5 : 5.5);
  }
  EXPECT_TRUE(det.warm());
  EXPECT_EQ(det.observed(), 10);
}

TEST(Warmup, DetectorRequiresBothSeriesStable) {
  WarmupDetector det(3, 0.05);
  // Latency flat, throughput still ramping: not warm.
  for (double thr : {10.0, 20.0, 30.0, 40.0}) det.Observe(5.0, thr);
  EXPECT_FALSE(det.warm());
  // The ramp's tail stays in the older half for a while.
  for (int i = 0; i < 4; ++i) det.Observe(5.0, 40.0);
  EXPECT_FALSE(det.warm());
  det.Observe(5.0, 40.0);  // ring is now all steady-state
  EXPECT_TRUE(det.warm());
}

TEST(Warmup, DetectorIgnoresDeadSeries) {
  WarmupDetector det(3, 0.05);
  for (int i = 0; i < 10; ++i) det.Observe(0.0, 0.0);
  EXPECT_FALSE(det.warm());  // an idle network is not "converged"
}

// --- spec grammar ----------------------------------------------------------

// Light load on purpose: the runner tests below compare a converged CI
// against an independent fixed-duration mean, which is only meaningful
// when the workload is genuinely stationary (no queue buildup drift).
constexpr char kBase[] = R"(scenario conv
noc mesh 2 2 1
seed 3
warmup 300
duration 6000
traffic uniform inject bernoulli 0.05
)";

TEST(ConvergeSpecParse, DirectiveRoundTrips) {
  auto spec = ParseScenario(std::string(kBase) +
                            "converge rel_err 0.02 conf 0.99 max_duration "
                            "50000 interval 600 batches 10\n");
  ASSERT_TRUE(spec.ok()) << spec.status();
  EXPECT_TRUE(spec->converge.enabled);
  EXPECT_DOUBLE_EQ(spec->converge.rel_err, 0.02);
  EXPECT_DOUBLE_EQ(spec->converge.conf, 0.99);
  EXPECT_EQ(spec->converge.max_duration, 50000);
  EXPECT_EQ(spec->converge.interval, 600);
  EXPECT_EQ(spec->converge.batches, 10);
}

TEST(ConvergeSpecParse, DefaultsAndErrors) {
  auto off = ParseScenario(std::string(kBase));
  ASSERT_TRUE(off.ok());
  EXPECT_FALSE(off->converge.enabled);
  // Derived defaults: interval = duration / 10 (floored at 300), cap 10x.
  auto on = ParseScenario(std::string(kBase) + "converge rel_err 0.05\n");
  ASSERT_TRUE(on.ok());
  EXPECT_EQ(on->converge.IntervalFor(6000), 600);
  EXPECT_EQ(on->converge.IntervalFor(100), 300);
  EXPECT_EQ(on->converge.MaxDurationFor(6000), 60000);

  EXPECT_FALSE(ParseScenario(std::string(kBase) + "converge\n").ok());
  EXPECT_FALSE(
      ParseScenario(std::string(kBase) + "converge conf 0.9\n").ok());
  EXPECT_FALSE(
      ParseScenario(std::string(kBase) + "converge rel_err 1.5\n").ok());
  EXPECT_FALSE(
      ParseScenario(std::string(kBase) + "converge rel_err 0.05 conf 0.4\n")
          .ok());
  EXPECT_FALSE(
      ParseScenario(std::string(kBase) + "converge rel_err 0.05 batches 1\n")
          .ok());
  EXPECT_FALSE(
      ParseScenario(std::string(kBase) + "converge rel_err 0.05 bogus 1\n")
          .ok());
  EXPECT_FALSE(ParseScenario(std::string(kBase) +
                             "converge rel_err 0.05\nconverge rel_err 0.1\n")
                   .ok());
}

// --- runner integration ----------------------------------------------------

ScenarioResult MustRun(ScenarioSpec spec) {
  ScenarioRunner runner(std::move(spec));
  auto result = runner.Run();
  EXPECT_TRUE(result.ok()) << result.status();
  return *result;
}

TEST(ConvergeRun, StopsEarlyAndCoversFixedMean) {
  auto spec = ParseScenario(std::string(kBase) + "converge rel_err 0.05\n");
  ASSERT_TRUE(spec.ok()) << spec.status();
  const ScenarioResult conv = MustRun(*spec);
  ASSERT_TRUE(conv.convergence.has_value());
  EXPECT_TRUE(conv.convergence->converged);
  EXPECT_LT(conv.convergence->measured_cycles, spec->duration);
  EXPECT_GE(conv.convergence->warmup_cycles, spec->warmup);
  ASSERT_TRUE(conv.convergence->ci.valid);
  EXPECT_LE(conv.convergence->ci.rel_err, 0.05);
  EXPECT_LE(std::fabs(conv.convergence->ci.lag1), 0.5);

  // The fixed-duration equivalent: its aggregate latency mean must agree
  // with the converged run's interval. The fixed mean is itself a noisy
  // estimate over a partly different sample window, so it gets one extra
  // half-width of slack — strict 95% coverage of a *point* holds only in
  // distribution, not for every single seed.
  auto fixed_spec = ParseScenario(std::string(kBase));
  ASSERT_TRUE(fixed_spec.ok());
  const ScenarioResult fixed = MustRun(*fixed_spec);
  EXPECT_FALSE(fixed.convergence.has_value());
  double sum = 0;
  std::int64_t count = 0;
  for (const auto& flow : fixed.flows) {
    sum += flow.latency.mean * static_cast<double>(flow.latency.count);
    count += flow.latency.count;
  }
  ASSERT_GT(count, 0);
  const double fixed_mean = sum / static_cast<double>(count);
  const double slack = conv.convergence->ci.half_width;
  EXPECT_LE(conv.convergence->ci.ci_low - slack, fixed_mean);
  EXPECT_GE(conv.convergence->ci.ci_high + slack, fixed_mean);
}

TEST(ConvergeRun, DeterministicAcrossEngines) {
  auto parsed = ParseScenario(std::string(kBase) + "converge rel_err 0.05\n");
  ASSERT_TRUE(parsed.ok()) << parsed.status();
  std::string first_json;
  Cycle first_stop = 0;
  for (sim::EngineKind engine :
       {sim::EngineKind::kNaive, sim::EngineKind::kSoa}) {
    ScenarioSpec spec = *parsed;
    spec.engine = engine;
    const ScenarioResult result = MustRun(std::move(spec));
    ASSERT_TRUE(result.convergence.has_value());
    ScenarioResult canonical = result;
    canonical.spec.engine = sim::EngineKind::kSoa;
    if (first_json.empty()) {
      first_json = canonical.ToJson();
      first_stop = result.convergence->measured_cycles;
      EXPECT_NE(first_json.find("\"schema_version\": 3"), std::string::npos);
    } else {
      EXPECT_EQ(canonical.ToJson(), first_json)
          << "engine " << sim::EngineKindName(engine);
      EXPECT_EQ(result.convergence->measured_cycles, first_stop);
    }
  }
}

TEST(ConvergeRun, MaxDurationCapsAnUnconvergedRun) {
  // An impossible target: the run must stop at the cap, unconverged, and
  // still report the CI it reached.
  auto spec = ParseScenario(std::string(kBase) +
                            "converge rel_err 0.001 max_duration 1200 "
                            "interval 400\n");
  ASSERT_TRUE(spec.ok()) << spec.status();
  const ScenarioResult result = MustRun(*spec);
  ASSERT_TRUE(result.convergence.has_value());
  EXPECT_FALSE(result.convergence->converged);
  EXPECT_EQ(result.convergence->measured_cycles, 1200);
}

TEST(ConvergeRun, PhasedWindowsConvergeIndependently) {
  constexpr char kPhased[] = R"(scenario conv_phased
noc mesh 2 2 1
seed 5
warmup 200
converge rel_err 0.08
phase a duration 4000 warmup 100
traffic uniform inject bernoulli 0.08
phase b duration 4000 warmup 100
traffic neighbor inject bernoulli 0.08
)";
  auto spec = ParseScenario(kPhased);
  ASSERT_TRUE(spec.ok()) << spec.status();
  const ScenarioResult result = MustRun(*spec);
  ASSERT_TRUE(result.convergence.has_value());
  ASSERT_EQ(result.phases.size(), 2u);
  Cycle total = 0;
  for (const auto& phase : result.phases) {
    ASSERT_TRUE(phase.convergence.has_value());
    EXPECT_EQ(phase.convergence->measured_cycles, phase.duration);
    if (phase.convergence->converged) {
      EXPECT_LE(phase.convergence->ci.rel_err, 0.08);
    }
    total += phase.duration;
  }
  EXPECT_EQ(result.convergence->measured_cycles, total);
  EXPECT_EQ(result.convergence->converged,
            result.phases[0].convergence->converged &&
                result.phases[1].convergence->converged);
}

}  // namespace
}  // namespace aethereal
