#include "sweep/runner.h"

#include <algorithm>
#include <cmath>
#include <utility>

#include "sweep/pool.h"
#include "util/check.h"
#include "util/csv.h"
#include "util/json.h"
#include "util/parse.h"
#include "util/stats.h"

namespace aethereal::sweep {

using scenario::InjectKind;
using scenario::PatternKind;
using scenario::ScenarioResult;
using scenario::ScenarioSpec;
using scenario::TrafficSpec;

/// Fraction of the measured cycles a directive's flows are actually
/// injecting: its active windows (its own phase, plus every later phase if
/// persistent; a static spec's one implicit phase) over the total measured
/// duration. Offered load must be weighted by this, or a flow active in
/// one of N phases looks like it lost (N-1)/N of its traffic.
double ActiveFraction(const ScenarioSpec& spec, const TrafficSpec& traffic) {
  const std::vector<scenario::PhaseSpec> windows = spec.Windows();
  Cycle active = 0;
  for (std::size_t k = 0; k < windows.size(); ++k) {
    if (traffic.ActiveIn(static_cast<int>(k))) active += windows[k].duration;
  }
  return static_cast<double>(active) /
         static_cast<double>(spec.TotalDuration());
}

double OfferedWpc(const TrafficSpec& traffic) {
  double words_per_event = 1.0;
  if (traffic.pattern == PatternKind::kMemory) {
    words_per_event = static_cast<double>(traffic.mem_burst_words);
  }
  switch (traffic.inject) {
    case InjectKind::kPeriodic:
      return words_per_event / static_cast<double>(traffic.period);
    case InjectKind::kBernoulli:
      return words_per_event * traffic.rate;
    case InjectKind::kBursty:
      return static_cast<double>(traffic.burst_words) /
             static_cast<double>(traffic.burst_words + traffic.gap_cycles);
    case InjectKind::kClosedLoop:
      return 0.0;
  }
  return 0.0;
}

namespace {

void AddFlow(ClassSummary* summary, const scenario::FlowResult& flow,
             double offered) {
  ++summary->flows;
  summary->offered_wpc += offered;
  summary->words_in_window += flow.words_in_window;
  // Weighted-mean accumulation: stash count x mean in `latency_mean` until
  // FinishClass() divides by the total count.
  summary->latency_mean +=
      static_cast<double>(flow.latency.count) * flow.latency.mean;
}

void FinishClass(ClassSummary* summary, const CycleCounts& latency,
                 Cycle duration) {
  summary->throughput_wpc =
      static_cast<double>(summary->words_in_window) /
      static_cast<double>(duration);
  summary->latency_count = latency.count();
  if (!latency.empty()) {
    summary->latency_min = latency.Min();
    summary->latency_max = latency.Max();
    summary->latency_mean /= static_cast<double>(latency.count());
    const TailPercentiles tail = latency.Tail();
    summary->latency_p50 = tail.p50;
    summary->latency_p95 = tail.p95;
    summary->latency_p99 = tail.p99;
  }
}

double MetricOf(const ClassSummary& all, const std::string& metric) {
  if (metric == "mean") return all.latency_mean;
  if (metric == "p99") return all.latency_p99;
  return all.latency_max;
}

void WriteClass(JsonWriter& w, const ClassSummary& s) {
  w.BeginObject();
  w.Key("flows").Int(s.flows);
  w.Key("offered_wpc").Double(s.offered_wpc);
  w.Key("words_in_window").Int(s.words_in_window);
  w.Key("throughput_wpc").Double(s.throughput_wpc);
  w.Key("latency").BeginObject();
  w.Key("count").Int(s.latency_count);
  if (s.latency_count > 0) {
    w.Key("min").Double(s.latency_min);
    w.Key("mean").Double(s.latency_mean);
    w.Key("p50").Double(s.latency_p50);
    w.Key("p95").Double(s.latency_p95);
    w.Key("p99").Double(s.latency_p99);
    w.Key("max").Double(s.latency_max);
  }
  w.EndObject();
  w.EndObject();
}

}  // namespace

void SummarizePoint(const ScenarioResult& result, PointResult* point) {
  // Cycles actually measured: the stop-on-convergence window when the run
  // converged early (or hit its cap), otherwise the spec's TotalDuration()
  // (phased scenarios measure the sum of their phase windows; spec.duration
  // is not meaningful there).
  const Cycle measured = result.convergence.has_value()
                             ? result.convergence->measured_cycles
                             : result.spec.TotalDuration();
  point->duration = measured;
  point->convergence = result.convergence;
  point->words_in_window = result.words_in_window;
  point->throughput_wpc = result.throughput_wpc;
  point->slot_utilization = result.slot_utilization;
  point->gt_flits = result.gt_flits;
  point->be_flits = result.be_flits;
  CycleCounts gt_latency;
  CycleCounts be_latency;
  for (const scenario::FlowResult& flow : result.flows) {
    const auto group = static_cast<std::size_t>(flow.group);
    AETHEREAL_CHECK(group < result.spec.traffic.size());
    // Injection counts IP cycles, throughput network cycles.
    const double offered =
        OfferedWpc(result.spec.traffic[group]) *
        ActiveFraction(result.spec, result.spec.traffic[group]) *
        (result.spec.IpMhz() / result.spec.net_mhz);
    AddFlow(&point->all, flow, offered);
    AddFlow(flow.gt ? &point->gt : &point->be, flow, offered);
    (flow.gt ? gt_latency : be_latency).AddSamples(flow.latency_samples);
  }
  CycleCounts all_latency = gt_latency;
  all_latency.Merge(be_latency);
  FinishClass(&point->all, all_latency, measured);
  FinishClass(&point->gt, gt_latency, measured);
  FinishClass(&point->be, be_latency, measured);
}

SweepRunner::SweepRunner(SweepSpec spec) : spec_(std::move(spec)) {}

Status SweepRunner::RunSaturation(const ScenarioSpec& materialized,
                                  PointResult* out) {
  const SaturationSpec& sat = spec_.saturation;
  SaturationResult result;

  // One probe = one full scenario run at parameter value x. The value is
  // round-tripped through FormatDouble so the recorded label is exactly
  // what was applied (and stays byte-stable in the output).
  auto probe = [&](double x) -> Result<ProbeResult> {
    ProbeResult p;
    p.x_label = FormatDouble(x);
    p.x = ParseDouble(p.x_label).value();
    ScenarioSpec probe_spec = materialized;
    if (Status s = ApplyParam(sat.param, p.x_label, &probe_spec); !s.ok()) {
      return s;
    }
    scenario::ScenarioRunner runner(std::move(probe_spec));
    auto run = runner.Run();
    if (!run.ok()) return run.status();
    PointResult summary;
    SummarizePoint(*run, &summary);
    p.latency = MetricOf(summary.all, sat.metric);
    p.throughput_wpc = summary.all.throughput_wpc;
    p.meets = summary.all.latency_count == 0 || p.latency <= sat.bound;
    result.probes.push_back(p);
    return p;
  };

  // Endpoints first: HI already meeting the bound, or LO already violating
  // it, ends the search without bisection.
  auto hi_probe = probe(sat.hi);
  if (!hi_probe.ok()) return hi_probe.status();
  if (hi_probe->meets) {
    result.feasible = true;
    result.value_label = hi_probe->x_label;
    result.value = hi_probe->x;
    out->saturation = std::move(result);
    return OkStatus();
  }
  auto lo_probe = probe(sat.lo);
  if (!lo_probe.ok()) return lo_probe.status();
  if (!lo_probe->meets) {
    result.feasible = false;
    result.value_label = lo_probe->x_label;
    result.value = lo_probe->x;
    out->saturation = std::move(result);
    return OkStatus();
  }

  // Invariant: lo meets the bound, hi does not.
  double lo = lo_probe->x;
  double hi = hi_probe->x;
  std::string lo_label = lo_probe->x_label;
  for (int i = 0; i < sat.iters; ++i) {
    auto mid = probe((lo + hi) / 2.0);
    if (!mid.ok()) return mid.status();
    if (mid->x <= lo || mid->x >= hi) break;  // interval below print precision
    if (mid->meets) {
      lo = mid->x;
      lo_label = mid->x_label;
    } else {
      hi = mid->x;
    }
  }
  result.feasible = true;
  result.value_label = lo_label;
  result.value = lo;
  out->saturation = std::move(result);
  return OkStatus();
}

Status SweepRunner::RunPoint(const GridPoint& grid_point, PointResult* out) {
  out->index = grid_point.index;
  out->values = grid_point.Values(spec_);
  auto materialized = MaterializePoint(spec_, grid_point);
  if (!materialized.ok()) return materialized.status();
  if (spec_.saturation.enabled) {
    out->duration = materialized->duration;
    return RunSaturation(*materialized, out);
  }
  scenario::ScenarioRunner runner(std::move(*materialized));
  auto run = runner.Run();
  if (!run.ok()) {
    return Status(run.status().code(), "point " +
                                           std::to_string(grid_point.index) +
                                           ": " + run.status().message());
  }
  SummarizePoint(*run, out);
  return OkStatus();
}

Result<SweepResult> SweepRunner::Run(int jobs) {
  const std::vector<GridPoint> grid = ExpandGrid(spec_);
  std::vector<PointResult> points(grid.size());
  std::vector<Status> statuses(grid.size());

  // Every point is an independent single-threaded simulation writing to
  // its own slot; the pool only schedules.
  RunJobs(grid.size(), jobs,
          [&](std::size_t i) { statuses[i] = RunPoint(grid[i], &points[i]); });

  for (const Status& status : statuses) {
    if (!status.ok()) return status;
  }

  SweepResult result;
  result.spec = spec_;
  result.points = std::move(points);
  return result;
}

std::string SweepResult::ToJson() const {
  JsonWriter w;
  w.BeginObject();
  // Fixed-duration sweeps keep schema_version 2 byte-for-byte; the version
  // moves to 3 exactly when the per-point `convergence` sections are
  // present (base spec / --converge opt-in).
  w.Key("schema_version").Int(spec.base.converge.enabled ? 3 : 2);
  w.Key("sweep").String(spec.name);
  w.Key("base").BeginObject();
  w.Key("scenario").String(spec.base.name);
  w.Key("path").String(spec.base_path);
  w.EndObject();
  w.Key("axes").BeginArray();
  for (const Axis& axis : spec.axes) {
    w.BeginObject();
    w.Key("param").String(axis.param.Name());
    w.Key("values").BeginArray();
    for (const std::string& value : axis.values) w.String(value);
    w.EndArray();
    w.EndObject();
  }
  w.EndArray();
  if (spec.saturation.enabled) {
    w.Key("saturate").BeginObject();
    w.Key("param").String(spec.saturation.param.Name());
    w.Key("lo").Double(spec.saturation.lo);
    w.Key("hi").Double(spec.saturation.hi);
    w.Key("metric").String(spec.saturation.metric);
    w.Key("bound").Double(spec.saturation.bound);
    w.Key("iters").Int(spec.saturation.iters);
    w.EndObject();
  }
  w.Key("points").BeginArray();
  for (const PointResult& point : points) {
    w.BeginObject();
    w.Key("index").Int(static_cast<std::int64_t>(point.index));
    w.Key("params").BeginObject();
    for (std::size_t a = 0; a < spec.axes.size(); ++a) {
      w.Key(spec.axes[a].param.Name()).String(point.values[a]);
    }
    w.EndObject();
    w.Key("duration").Int(point.duration);
    if (spec.saturation.enabled) {
      const SaturationResult& sat = point.saturation;
      w.Key("saturation").BeginObject();
      w.Key("feasible").Bool(sat.feasible);
      w.Key("value").Double(sat.value);
      w.Key("probes").BeginArray();
      for (const ProbeResult& probe : sat.probes) {
        w.BeginObject();
        w.Key("x").Double(probe.x);
        w.Key("latency").Double(probe.latency);
        w.Key("throughput_wpc").Double(probe.throughput_wpc);
        w.Key("meets").Bool(probe.meets);
        w.EndObject();
      }
      w.EndArray();
      w.EndObject();
    } else {
      w.Key("aggregate").BeginObject();
      w.Key("words_in_window").Int(point.words_in_window);
      w.Key("throughput_wpc").Double(point.throughput_wpc);
      w.Key("gt_flits").Int(point.gt_flits);
      w.Key("be_flits").Int(point.be_flits);
      w.Key("slot_utilization").Double(point.slot_utilization);
      w.EndObject();
      w.Key("classes").BeginObject();
      w.Key("all");
      WriteClass(w, point.all);
      if (point.gt.flows > 0) {
        w.Key("gt");
        WriteClass(w, point.gt);
      }
      if (point.be.flows > 0) {
        w.Key("be");
        WriteClass(w, point.be);
      }
      w.EndObject();
      if (point.convergence.has_value()) {
        w.Key("convergence");
        stats_ctl::WriteConvergenceJson(w, *point.convergence);
      }
    }
    w.EndObject();
  }
  w.EndArray();
  w.EndObject();
  return w.Take();
}

namespace {

std::vector<std::string> CsvHeader(const SweepSpec& spec) {
  std::vector<std::string> header{"point"};
  for (const Axis& axis : spec.axes) header.push_back(axis.param.Name());
  if (spec.saturation.enabled) {
    for (const char* col :
         {"kind", "x", "latency", "throughput_wpc", "meets"}) {
      header.push_back(col);
    }
  } else {
    for (const char* col :
         {"class", "flows", "offered_wpc", "words_in_window",
          "throughput_wpc", "lat_count", "lat_min", "lat_mean", "lat_p50",
          "lat_p95", "lat_p99", "lat_max", "slot_utilization"}) {
      header.push_back(col);
    }
    if (spec.base.converge.enabled) {
      // Point-level CI of the run's merged latency (identical on every
      // class row of the point). Only converged runs grow these columns,
      // so fixed-duration CSVs stay byte-identical.
      for (const char* col : {"converged", "warmup_detected",
                              "measured_cycles", "batches", "ci_low",
                              "ci_high", "rel_err"}) {
        header.push_back(col);
      }
    }
  }
  return header;
}

void ConvergenceCells(CsvWriter& w, const PointResult& point) {
  if (!point.convergence.has_value()) {
    for (int i = 0; i < 7; ++i) w.Cell("");
    return;
  }
  const stats_ctl::ConvergenceOutcome& c = *point.convergence;
  w.Cell(c.converged ? "true" : "false");
  w.Cell(c.warmup_detected ? "true" : "false");
  w.Cell(c.measured_cycles);
  if (c.ci.valid) {
    w.Cell(static_cast<std::int64_t>(c.ci.batches));
    w.Double(c.ci.ci_low);
    w.Double(c.ci.ci_high);
    if (std::isfinite(c.ci.rel_err)) {
      w.Double(c.ci.rel_err);
    } else {
      w.Cell("");
    }
  } else {
    for (int i = 0; i < 4; ++i) w.Cell("");
  }
}

void ClassRow(CsvWriter& w, const PointResult& point, const char* name,
              const ClassSummary& s) {
  w.Cell(static_cast<std::int64_t>(point.index));
  for (const std::string& value : point.values) w.Cell(value);
  w.Cell(name);
  w.Cell(s.flows);
  w.Double(s.offered_wpc);
  w.Cell(s.words_in_window);
  w.Double(s.throughput_wpc);
  w.Cell(s.latency_count);
  w.Double(s.latency_min);
  w.Double(s.latency_mean);
  w.Double(s.latency_p50);
  w.Double(s.latency_p95);
  w.Double(s.latency_p99);
  w.Double(s.latency_max);
  w.Double(point.slot_utilization);
  if (point.convergence.has_value()) ConvergenceCells(w, point);
  w.EndRow();
}

}  // namespace

std::string SweepResult::ToCsv() const {
  CsvWriter w(CsvHeader(spec));
  for (const PointResult& point : points) {
    if (spec.saturation.enabled) {
      for (const ProbeResult& probe : point.saturation.probes) {
        w.Cell(static_cast<std::int64_t>(point.index));
        for (const std::string& value : point.values) w.Cell(value);
        w.Cell("probe");
        w.Cell(probe.x_label);
        w.Double(probe.latency);
        w.Double(probe.throughput_wpc);
        w.Cell(probe.meets ? "true" : "false");
        w.EndRow();
      }
      w.Cell(static_cast<std::int64_t>(point.index));
      for (const std::string& value : point.values) w.Cell(value);
      w.Cell("saturation");
      w.Cell(point.saturation.value_label);
      w.Cell("");
      w.Cell("");
      w.Cell(point.saturation.feasible ? "true" : "false");
      w.EndRow();
    } else {
      ClassRow(w, point, "all", point.all);
      if (point.gt.flows > 0) ClassRow(w, point, "gt", point.gt);
      if (point.be.flows > 0) ClassRow(w, point, "be", point.be);
    }
  }
  return w.Take();
}

Result<std::string> SweepResult::ToCurveCsv(
    const std::string& axis_param) const {
  if (spec.saturation.enabled) {
    return FailedPreconditionError(
        "saturation sweeps have no curve axis (the probe list is the "
        "latency-throughput curve; see the CSV output)");
  }
  std::size_t curve_axis = spec.axes.size();
  for (std::size_t a = 0; a < spec.axes.size(); ++a) {
    if (spec.axes[a].param.Name() == axis_param) curve_axis = a;
  }
  if (curve_axis == spec.axes.size()) {
    return InvalidArgumentError("'" + axis_param +
                                "' is not an axis of this sweep");
  }
  std::vector<std::string> header{"series",   axis_param, "class",
                                  "offered_wpc", "throughput_wpc", "lat_mean",
                                  "lat_p50",  "lat_p95",  "lat_p99",
                                  "lat_max"};
  if (spec.base.converge.enabled) {
    // Error bars for the curve: the point-level CI of the merged latency
    // (identical on every class row of the point).
    for (const char* col : {"converged", "warmup_detected", "measured_cycles",
                            "batches", "ci_low", "ci_high", "rel_err"}) {
      header.push_back(col);
    }
  }
  CsvWriter w(header);
  for (const PointResult& point : points) {
    // The non-curve axes label the series this point belongs to.
    std::string series;
    for (std::size_t a = 0; a < spec.axes.size(); ++a) {
      if (a == curve_axis) continue;
      if (!series.empty()) series += ";";
      series += spec.axes[a].param.Name() + "=" + point.values[a];
    }
    if (series.empty()) series = "-";
    auto row = [&](const char* name, const ClassSummary& s) {
      w.Cell(series);
      w.Cell(point.values[curve_axis]);
      w.Cell(name);
      w.Double(s.offered_wpc);
      w.Double(s.throughput_wpc);
      w.Double(s.latency_mean);
      w.Double(s.latency_p50);
      w.Double(s.latency_p95);
      w.Double(s.latency_p99);
      w.Double(s.latency_max);
      if (point.convergence.has_value()) ConvergenceCells(w, point);
      w.EndRow();
    };
    if (point.gt.flows > 0) row("gt", point.gt);
    if (point.be.flows > 0) row("be", point.be);
    if (point.gt.flows > 0 && point.be.flows > 0) row("all", point.all);
  }
  return w.Take();
}

}  // namespace aethereal::sweep
