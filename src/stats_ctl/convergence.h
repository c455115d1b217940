// Stop-on-convergence statistics (DESIGN.md §14): batch-means confidence
// intervals, automatic warmup detection, and the ConvergeSpec runtime
// policy shared by the scenario runner, the phased runner, and sweeps.
//
// The discipline is booksim2's trafficmanager sampling loop, adapted to
// this codebase's determinism contract: every decision below is computed
// from committed simulation state at deterministic cycle boundaries using
// integer cycle counts and closed-form approximations — no wall clock, no
// host randomness — so a converged run stops at the byte-identical cycle
// on both engines.
//
// Estimators:
//  * BatchMeansCi — splits a sample stream into B equal batches, takes the
//    unbiased (n-1) variance of the batch means, and forms a Student-t
//    interval at confidence C. Batching absorbs the serial correlation of
//    queueing samples; the lag-1 autocorrelation of the batch means is
//    reported as the sanity check (high lag1 = batches still too small =
//    the CI is not yet trustworthy).
//  * StudentTQuantile — two-sided t critical value via the Acklam inverse
//    normal and the Cornish–Fisher (Hill) tail expansion; exact closed
//    forms for 1 and 2 degrees of freedom. Deterministic, no tables, no
//    external dependencies.
//  * Mser5Truncation — classic MSER-5 warmup truncation for offline
//    series (tests, post-hoc analysis).
//  * WarmupDetector — the online Welch-style rule the runner uses: the
//    run is warm once the last `windows` per-interval means (latency and
//    throughput both) each sit within `tol` of their own average.
#ifndef AETHEREAL_STATS_CTL_CONVERGENCE_H
#define AETHEREAL_STATS_CTL_CONVERGENCE_H

#include <cstddef>
#include <cstdint>
#include <vector>

#include "util/types.h"

namespace aethereal {
class JsonWriter;
}

namespace aethereal::stats_ctl {

/// Runtime policy of a stop-on-convergence run. Parsed from the scenario
/// `converge` directive / --converge CLI flags; default-disabled so every
/// fixed-duration run (and every committed golden) is untouched.
struct ConvergeSpec {
  bool enabled = false;

  /// Stop once the CI half-width falls to rel_err * |mean| (required).
  double rel_err = 0.05;
  /// Two-sided confidence level of the interval.
  double conf = 0.95;
  /// Hard cap on measured cycles (per phase window for phased scenarios);
  /// 0 = 10x the spec's fixed duration.
  Cycle max_duration = 0;
  /// Cycles between convergence checks (also the warmup-detection window
  /// length); 0 = fixed duration / 10, floored at 300 cycles.
  Cycle interval = 0;
  /// Number of batches the measured samples are split into.
  int batches = 20;
  /// Batch means whose |lag-1 autocorrelation| exceeds this are not
  /// accepted as converged (the batches are still too correlated).
  double lag1_limit = 0.5;

  /// Automatic warmup extension past the spec's fixed `warmup` (static
  /// scenarios only; phases keep their declared warmups).
  bool auto_warmup = true;
  /// Consecutive per-interval windows that must agree for warmth.
  int warmup_windows = 5;
  /// Relative tolerance of the warmth rule.
  double warmup_tol = 0.05;

  /// Effective check interval for a run whose fixed duration is `d`.
  Cycle IntervalFor(Cycle d) const;
  /// Effective measured-cycle cap for a run whose fixed duration is `d`.
  Cycle MaxDurationFor(Cycle d) const;
};

/// One batch-means estimate over a sample stream.
struct BatchMeansResult {
  /// False until the stream holds at least 2 samples per batch (below
  /// that, the t interval over batch means is meaningless).
  bool valid = false;
  int batches = 0;            // full batches used
  std::int64_t batch_size = 0;
  std::int64_t samples = 0;   // samples covered (batches * batch_size)
  double mean = 0;            // grand mean of the covered samples
  double half_width = 0;      // t * s_batch / sqrt(batches)
  double ci_low = 0;
  double ci_high = 0;
  /// half_width / |mean|; infinity when the mean is 0.
  double rel_err = 0;
  /// Lag-1 autocorrelation of the batch means (0 when undefined).
  double lag1 = 0;
};

/// Inverse standard normal CDF (Acklam's rational approximation,
/// |relative error| < 1.2e-9 over (0, 1)).
double NormalQuantile(double p);

/// Two-sided Student-t critical value: the t with `dof` degrees of
/// freedom such that P(|T| <= t) = conf. Exact for dof 1 and 2,
/// Cornish–Fisher (Hill) expansion above.
double StudentTQuantile(double conf, int dof);

/// Batch-means CI over samples[first, last) split into `batches` equal
/// batches (trailing remainder discarded). `conf` is the two-sided
/// confidence level.
BatchMeansResult BatchMeansCi(const std::vector<double>& samples,
                              std::size_t first, std::size_t last,
                              int batches, double conf);

/// MSER-5 truncation point of an offline series: the sample index (a
/// multiple of 5) whose removal minimizes the half-width statistic
/// sum((x - mean)^2) / n^2 over the retained suffix. Capped at half the
/// series, per the standard rule.
std::size_t Mser5Truncation(const std::vector<double>& series);

/// Online Welch-style warmup detector. Feed one (latency mean, delivered
/// words) observation per interval; warm() turns true once, for BOTH
/// series, the mean of the last `windows` observations is within `tol`
/// relative of the mean of the `windows` before them. Comparing two
/// window-averages (noise shrinks with sqrt(windows)) detects the
/// warmup *trend* without being fooled by per-interval sampling noise —
/// a per-interval bound would keep a perfectly stationary noisy series
/// "unstable" almost forever. A dead series (all-zero halves — no
/// samples, no delivery) never counts as stable.
class WarmupDetector {
 public:
  WarmupDetector(int windows, double tol);

  void Observe(double latency_mean, double throughput);
  bool warm() const { return warm_; }
  /// Intervals observed so far.
  int observed() const { return observed_; }

 private:
  static bool Stable(const std::vector<double>& ring, double tol);

  int windows_;
  double tol_;
  int observed_ = 0;
  bool warm_ = false;
  std::vector<double> lat_ring_;   // last 2 * `windows` latency means
  std::vector<double> thr_ring_;   // last 2 * `windows` throughputs
};

/// Outcome of a stop-on-convergence measurement (one run, or one phase
/// window). Serialized into the result JSON `convergence` section.
struct ConvergenceOutcome {
  bool converged = false;
  bool warmup_detected = false;   // auto-warmup rule fired (vs cap)
  Cycle warmup_cycles = 0;        // total settle cycles before measuring
  Cycle measured_cycles = 0;      // measured window actually run
  BatchMeansResult ci;            // the estimate at stop time
};

/// Deterministic JSON encoding of an outcome (the `convergence` sections
/// of schema_version 3 scenario and sweep documents). The CI fields
/// appear once the batch-means estimate is valid; rel_err is suppressed
/// for a zero mean, where it is undefined.
void WriteConvergenceJson(JsonWriter& w, const ConvergenceOutcome& c);

}  // namespace aethereal::stats_ctl

#endif  // AETHEREAL_STATS_CTL_CONVERGENCE_H
