// SweepRunner: executes the job grid of a SweepSpec on the work-stealing
// pool and folds per-point scenario results into sweep-level artifacts —
// per-flow-class (GT / BE) latency and throughput summaries, a bisection
// saturation search, and latency–throughput curve emitters.
//
// Determinism contract: every grid point (and every saturation probe) is
// an independent, single-threaded ScenarioRunner constructed from its own
// materialized spec; results land in per-point slots and are aggregated
// in index order after the pool drains. The JSON/CSV output is therefore
// byte-identical for any --jobs value (tests/sweep_test.cpp, CI).
#ifndef AETHEREAL_SWEEP_RUNNER_H
#define AETHEREAL_SWEEP_RUNNER_H

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "scenario/runner.h"
#include "stats_ctl/convergence.h"
#include "sweep/spec.h"
#include "util/status.h"

namespace aethereal::sweep {

/// Latency/throughput summary of one service class (all / GT / BE) at one
/// grid point. Latency counts the flows' raw sample populations
/// (FlowResult::latency_samples) into one CycleCounts, so min/max AND the
/// percentiles are exact class-level values (nearest-rank, the same
/// formula as every other percentile in the result JSON); the mean is the
/// count-weighted mean of the flows' means.
struct ClassSummary {
  std::int64_t flows = 0;
  double offered_wpc = 0;  // sum of per-flow injected words/cycle
  std::int64_t words_in_window = 0;
  double throughput_wpc = 0;
  std::int64_t latency_count = 0;
  double latency_min = 0;
  double latency_mean = 0;
  double latency_p50 = 0;
  double latency_p95 = 0;
  double latency_p99 = 0;
  double latency_max = 0;
};

/// One saturation-search probe: a full scenario run at parameter value
/// `x` (printed exactly as applied — the value round-trips through
/// FormatDouble).
struct ProbeResult {
  std::string x_label;
  double x = 0;
  double latency = 0;       // the configured metric, cycles (0: no samples)
  double throughput_wpc = 0;
  bool meets = false;       // latency <= bound (vacuously true, no samples)
};

struct SaturationResult {
  bool feasible = false;  // even LO violates the bound when false
  std::string value_label;
  double value = 0;       // largest probed value meeting the bound
  std::vector<ProbeResult> probes;  // in evaluation order: HI, LO, bisections
};

struct PointResult {
  std::size_t index = 0;
  std::vector<std::string> values;  // chosen raw axis values, axis order

  // Plain grid points: one scenario run. `duration` is the cycles the
  // point actually measured — the spec's TotalDuration(), or the
  // stop-on-convergence window when the base spec enables `converge`.
  Cycle duration = 0;
  std::int64_t words_in_window = 0;
  double throughput_wpc = 0;
  double slot_utilization = 0;
  std::int64_t gt_flits = 0;
  std::int64_t be_flits = 0;
  ClassSummary all;
  ClassSummary gt;
  ClassSummary be;

  /// Stop-on-convergence outcome of the point's run (the merged-latency
  /// CI); present exactly when the base spec enables `converge`. The
  /// JSON/CSV emitters add ci_low/ci_high/rel_err/... columns from it.
  std::optional<stats_ctl::ConvergenceOutcome> convergence;

  // Saturation sweeps: the bisection result instead.
  SaturationResult saturation;
};

struct SweepResult {
  SweepSpec spec;
  std::vector<PointResult> points;

  /// Deterministic JSON encoding (the sweep golden-test format).
  std::string ToJson() const;

  /// Per-point CSV: one row per point and service class (saturation
  /// sweeps: one row per probe plus a result row).
  std::string ToCsv() const;

  /// Latency–throughput curve keyed on one axis: rows of
  /// (series, x, class, offered, delivered, latency). `axis_param` must
  /// name an axis of the sweep; the remaining axes form the series label.
  /// Unavailable for saturation sweeps (the probe list is the curve).
  Result<std::string> ToCurveCsv(const std::string& axis_param) const;
};

/// Computes the injected words/cycle one flow of `traffic` offers (the
/// x-axis of offered-vs-delivered curves). Closed-loop memory traffic is
/// self-regulating and offers 0.
double OfferedWpc(const scenario::TrafficSpec& traffic);

/// Summarizes one scenario result into per-class summaries (exposed for
/// testing).
void SummarizePoint(const scenario::ScenarioResult& result,
                    PointResult* point);

class SweepRunner {
 public:
  explicit SweepRunner(SweepSpec spec);

  /// Expands the grid and runs every point on `jobs` workers. Fails with
  /// the first failing point (in index order).
  Result<SweepResult> Run(int jobs);

 private:
  Status RunPoint(const GridPoint& grid_point, PointResult* out);
  Status RunSaturation(const scenario::ScenarioSpec& materialized,
                       PointResult* out);

  SweepSpec spec_;
};

}  // namespace aethereal::sweep

#endif  // AETHEREAL_SWEEP_RUNNER_H
