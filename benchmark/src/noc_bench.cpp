// noc_bench — the measuring binary of the repository benchmark (README.md).
//
// One process measures one thing and prints one JSON object on stdout;
// benchmark/run.py spawns a fresh process per rep, so every rep starts on
// a fresh heap and reports its own peak RSS. All timing is taken from
// outside the library, around its public calls, as nested spans (name,
// start, end, parent; steady_clock nanoseconds) that run.py merges into
// one Chrome trace.
//
//   noc_bench --workload W --seed N [--scale X] --mode rep
//       one untraced rep: spec text -> parse -> build -> run -> emit, then
//       more set-ups (parse -> build) for the median set-up time.
//   noc_bench --workload W --seed N [--scale X] --mode crosscheck
//       correctness at 1/10 length: the default engine against the naive
//       reference (scenarios), jobs=1 against jobs=N (the sweep); the
//       result JSON must match byte for byte.
//   noc_bench --workload W --seed N [--scale X] --mode trace --base-run-s S
//       the traced pass: engine profiling armed after Build(), per-layer
//       metrics from public counters, and the workload's variant pairings.
//       S is the best untraced `run` time, the base of the host-cost ratios.
//   noc_bench --write-specs DIR --seed N
//       writes every generated spec, so noc_sim / noc_sweep can replay it.
//   noc_bench --check-seeds A-B
//       generates and builds (without running) every workload, and every
//       sweep grid point, for seeds A..B; exits 1 on any failure.
//
// An op is one scenario run or one sweep probe; "ops" and "failed" in the
// output feed the benchmark's error accounting.
#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <iterator>
#include <map>
#include <memory>
#include <numeric>
#include <optional>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "scenario/runner.h"
#include "scenario/spec.h"
#include "sweep/runner.h"
#include "sweep/spec.h"
#include "util/check.h"
#include "util/json.h"
#include "util/stats.h"
#include "workloads.h"

namespace {

using namespace aethereal;
using noc_bench::GenOptions;
using noc_bench::Workload;

/// Worker threads of the sweep pool and of the threaded engine variant.
int Jobs() {
  return static_cast<int>(
      std::clamp(std::thread::hardware_concurrency(), 1u, 4u));
}

std::int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

double Ratio(double a, double b) { return b != 0 ? a / b : 0; }

/// The spans of this process, kept in memory and printed at exit.
class Spans {
 public:
  /// Opens a span as a child of the innermost open one.
  void Open(const std::string& name) {
    const int parent = open_.empty() ? -1 : open_.back();
    open_.push_back(static_cast<int>(spans_.size()));
    spans_.push_back(Span{name, NowNs(), 0, parent});
  }
  /// Closes the innermost open span; returns its duration in seconds.
  double Close() {
    Span& span = spans_[static_cast<std::size_t>(open_.back())];
    open_.pop_back();
    span.end_ns = NowNs();
    return static_cast<double>(span.end_ns - span.start_ns) * 1e-9;
  }
  /// [[name, start_ns, end_ns, parent index], ...]
  std::string Json() const {
    std::string out = "[";
    for (const Span& s : spans_) {
      if (out.size() > 1) out += ',';
      out += "[\"" + JsonWriter::Escape(s.name) + "\"," +
             std::to_string(s.start_ns) + ',' + std::to_string(s.end_ns) +
             ',' + std::to_string(s.parent) + ']';
    }
    return out + ']';
  }

 private:
  struct Span {
    std::string name;
    std::int64_t start_ns;
    std::int64_t end_ns;
    int parent;
  };
  std::vector<Span> spans_;
  std::vector<int> open_;
};

/// One flat JSON object with full-precision numbers (the library's
/// JsonWriter rounds to six significant digits).
class JsonLine {
 public:
  JsonLine& Num(const std::string& key, double value) {
    char buf[32] = "null";
    if (std::isfinite(value)) std::snprintf(buf, sizeof buf, "%.17g", value);
    return Raw(key, buf);
  }
  JsonLine& Str(const std::string& key, const std::string& value) {
    return Raw(key, '"' + JsonWriter::Escape(value) + '"');
  }
  JsonLine& Raw(const std::string& key, const std::string& json) {
    if (!text_.empty()) text_ += ',';
    text_ += '"' + key + "\":" + json;
    return *this;
  }
  std::string Take() const { return '{' + text_ + '}'; }

 private:
  std::string text_;
};

/// Every per-layer metric (name, unit), in emission order. Each workload
/// reports the whole set, with 0 where it does not exercise a layer.
constexpr std::pair<const char*, const char*> kLayerMetrics[] = {
    {"scenario.parse_s", "s"}, {"scenario.build_s", "s"},
    {"scenario.run_s", "s"}, {"scenario.emit_s", "s"},
    {"sim.steps", "count"}, {"sim.evaluate_s", "s"}, {"sim.commit_s", "s"},
    {"sim.park_wake_s", "s"}, {"sim.other_s", "s"},
    {"sim.host_ns_per_step", "ns"}, {"sim.profile_overhead", "ratio"},
    {"sim.soa_ratio", "ratio"}, {"sim.soa_threads4_ratio", "ratio"},
    {"core.gt_flits", "flits"}, {"core.be_flits", "flits"},
    {"core.credit_only_packets", "packets"},
    {"core.credits_piggybacked", "credits"}, {"core.idle_slots", "slots"},
    {"core.gt_slots_unused", "slots"}, {"core.be_link_stalls", "slots"},
    {"core.slot_utilization", "fraction"}, {"core.host_ns_per_flit", "ns"},
    {"router.flit_hops", "flits"}, {"router.be_blocked_credit", "slots"},
    {"router.be_blocked_gt", "slots"}, {"router.be_max_occupancy", "flits"},
    {"router.host_ns_per_hop", "ns"}, {"tdm.slots_reserved", "slots"},
    {"config.transitions", "count"}, {"config.opens", "count"},
    {"config.closes", "count"}, {"config.messages", "count"},
    {"config.cycles", "cycles"}, {"config.drain_cycles", "cycles"},
    {"config.setup_latency_max_cyc", "cycles"},
    {"config.teardown_latency_max_cyc", "cycles"},
    {"config.slots_reclaimed", "slots"}, {"config.slots_allocated", "slots"},
    {"memory.transactions_issued", "count"},
    {"memory.transactions_completed", "count"},
    {"memory.completion_ratio", "fraction"},
    {"memory.lat_p50_cyc", "cycles"}, {"memory.lat_p99_cyc", "cycles"},
    {"verify.self_s", "s"}, {"verify.overhead_ratio", "ratio"},
    {"obs.self_s", "s"}, {"obs.overhead_ratio", "ratio"},
    {"obs.windows", "count"}, {"sweep.points", "count"},
    {"sweep.probes", "count"}, {"sweep.jobs", "count"},
    {"sweep.serial_s", "s"}, {"sweep.parallel_efficiency", "ratio"},
    {"sweep.probe_host_s", "s"}, {"sweep.emit_s", "s"},
    {"flow.gt_lat_p50_cyc", "cycles"}, {"flow.gt_lat_p99_cyc", "cycles"},
    {"flow.be_lat_p50_cyc", "cycles"}, {"flow.be_lat_p99_cyc", "cycles"},
    {"flow.words_in_window", "words"},
    {"flow.throughput_wpc", "words/cycle"},
    {"flow.be_sat_rate", "words/cycle"},
};

/// Values of the per-layer metrics; all start at 0.
class Metrics {
 public:
  void Set(const std::string& name, double value) {
    for (std::size_t i = 0; i < std::size(kLayerMetrics); ++i) {
      if (name == kLayerMetrics[i].first) {
        values_[i] = value;
        return;
      }
    }
    AETHEREAL_CHECK_MSG(false, "unknown per-layer metric " << name);
  }
  std::string Json() const {
    JsonLine line;
    for (std::size_t i = 0; i < std::size(kLayerMetrics); ++i) {
      const auto& [name, unit] = kLayerMetrics[i];
      line.Raw(name, JsonLine().Num("value", values_[i]).Str("unit", unit)
                         .Take());
    }
    return line.Take();
  }

 private:
  double values_[std::size(kLayerMetrics)] = {};
};

/// FNV-1a digest of a result document.
std::string Digest(const std::string& text) {
  std::uint64_t h = 0xcbf29ce484222325ull;
  for (unsigned char c : text) {
    h ^= c;
    h *= 0x100000001b3ull;
  }
  char buf[17];
  std::snprintf(buf, sizeof buf, "%016llx", static_cast<unsigned long long>(h));
  return buf;
}

/// VmHWM of this process, MiB.
double PeakRssMib() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::stod(line.substr(6)) / 1024.0;
    }
  }
  return 0;
}

/// Best of `samples` timings of the host-speed reference: a dependent
/// random walk over a 64 KiB table. It is the benchmark's own code, so no
/// change to the library moves it, and on a shared host its slowdowns track
/// the simulator's: over the same 10 s windows the best simulator time and
/// the best walk time kept their ratio within 5.6% while each drifted by
/// 17%. run.py divides host times by it.
double CalibrationSeconds(Spans& spans, int samples) {
  constexpr std::uint32_t kWords = 1u << 14;
  constexpr int kSteps = 1 << 20;
  static const std::vector<std::uint32_t> next = [] {
    std::vector<std::uint32_t> cycle(kWords);
    std::iota(cycle.begin(), cycle.end(), 0u);
    std::uint64_t x = 1;
    for (std::uint32_t i = kWords - 1; i > 0; --i) {  // Sattolo: one cycle
      x = x * 6364136223846793005ull + 1442695040888963407ull;
      std::swap(cycle[i], cycle[(x >> 33) % i]);
    }
    return cycle;
  }();
  spans.Open("calibrate");
  double best = 0;
  for (int s = 0; s < samples; ++s) {
    const std::int64_t start = NowNs();
    std::uint32_t i = 0;
    for (int k = 0; k < kSteps; ++k) i = next[i];
    const double seconds = static_cast<double>(NowNs() - start) * 1e-9;
    AETHEREAL_CHECK(i < kWords);  // uses the walk, so it is not optimized out
    if (s == 0 || seconds < best) best = seconds;
  }
  spans.Close();
  return best;
}

/// Seconds spent in each runner call of one run (the spans of the same
/// names).
struct CallTimes {
  double parse_s = 0;
  double build_s = 0;
  double run_s = 0;
  double emit_s = 0;

  double SetupS() const { return parse_s + build_s; }
  /// From spec text to result JSON.
  double WallS() const { return parse_s + build_s + run_s + emit_s; }
};

struct ScenarioRun : CallTimes {
  Status status;
  std::string json;
  std::unique_ptr<scenario::ScenarioRunner> runner;
  std::optional<scenario::ScenarioResult> result;
};

/// A runner built from a parsed spec.
ScenarioRun BuildSpec(scenario::ScenarioSpec spec, Spans& spans) {
  ScenarioRun out;
  out.runner = std::make_unique<scenario::ScenarioRunner>(std::move(spec));
  spans.Open("build");
  out.status = out.runner->Build();
  out.build_s = spans.Close();
  return out;
}

/// Spec text to a built runner: parse, then build.
ScenarioRun SetUpScenario(const std::string& text, Spans& spans) {
  spans.Open("parse");
  auto spec = scenario::ParseScenario(text);
  const double parse_s = spans.Close();
  ScenarioRun out;
  if (spec.ok()) {
    out = BuildSpec(std::move(*spec), spans);
  } else {
    out.status = spec.status();
  }
  out.parse_s = parse_s;
  return out;
}

/// (profiling) -> run -> emit of a built runner; no-op after a failure.
void FinishScenario(ScenarioRun& run, Spans& spans, bool profile) {
  if (!run.status.ok()) return;
  if (profile) run.runner->soc()->sim().EnableProfiling();
  spans.Open("run");
  auto result = run.runner->Run();
  run.run_s = spans.Close();
  if (!result.ok()) {
    run.status = result.status();
    return;
  }
  spans.Open("emit");
  run.json = result->ToJson();
  run.emit_s = spans.Close();
  run.result = std::move(*result);
}

ScenarioRun RunScenario(const std::string& text, Spans& spans,
                        bool profile = false) {
  ScenarioRun run = SetUpScenario(text, spans);
  FinishScenario(run, spans, profile);
  return run;
}

struct SweepRun : CallTimes {
  Status status;
  std::string json;
  std::optional<sweep::SweepSpec> spec;
  std::optional<sweep::SweepResult> result;
  std::vector<Cycle> point_cycles;  // warmup + duration of each grid point
  std::int64_t probes = 0;  // run; planned when the sweep failed
  std::int64_t cycles = 0;  // warmup + duration, summed over the probes
};

/// Sweep text to runnable per-point specs: parse, then `build`, the grid
/// expansion.
SweepRun SetUpSweep(const Workload& workload, Spans& spans) {
  SweepRun out;
  spans.Open("parse");
  auto spec = noc_bench::ParseWorkloadSweep(workload);
  out.parse_s = spans.Close();
  if (!spec.ok()) {
    out.status = spec.status();
    return out;
  }
  spans.Open("build");
  const std::vector<sweep::GridPoint> grid = sweep::ExpandGrid(*spec);
  for (const sweep::GridPoint& point : grid) {
    auto materialized = sweep::MaterializePoint(*spec, point);
    if (!materialized.ok()) {
      out.status = materialized.status();
      break;
    }
    out.point_cycles.push_back(materialized->warmup +
                               materialized->TotalDuration());
  }
  out.build_s = spans.Close();
  out.probes = static_cast<std::int64_t>(grid.size()) *
               (2 + spec->saturation.iters);
  out.spec = std::move(*spec);
  return out;
}

/// run -> emit of a set-up sweep on `jobs` workers; no-op after a failure.
void FinishSweep(SweepRun& run, int jobs, Spans& spans) {
  if (!run.status.ok()) return;
  spans.Open("run");
  auto result = sweep::SweepRunner(*run.spec).Run(jobs);
  run.run_s = spans.Close();
  if (!result.ok()) {
    run.status = result.status();
    return;
  }
  spans.Open("emit");
  run.json = result->ToJson();
  run.emit_s = spans.Close();
  run.probes = 0;
  for (std::size_t i = 0; i < result->points.size(); ++i) {
    const auto n =
        static_cast<std::int64_t>(result->points[i].saturation.probes.size());
    run.probes += n;
    run.cycles += n * run.point_cycles[i];
  }
  run.result = std::move(*result);
}

SweepRun RunSweep(const Workload& workload, int jobs, Spans& spans) {
  SweepRun run = SetUpSweep(workload, spans);
  FinishSweep(run, jobs, spans);
  return run;
}

/// Op accounting shared by every mode.
struct Ops {
  std::int64_t attempted = 0;
  std::int64_t failed = 0;
  std::string error;

  void Add(std::int64_t n, const Status& status) {
    attempted += n;
    if (!status.ok()) Fail(n, status.ToString());
  }
  void Fail(std::int64_t n, const std::string& why) {
    failed += n;
    if (error.empty()) error = why;
  }
  JsonLine& Into(JsonLine& line) const {
    return line.Num("ops", static_cast<double>(attempted))
        .Num("failed", static_cast<double>(failed))
        .Str("error", error);
  }
};

int Emit(JsonLine& line, const Spans& spans) {
  line.Raw("spans", spans.Json());
  std::cout << line.Take() << std::endl;
  return 0;
}

Result<Workload> GenerateSpan(const std::string& name, std::uint64_t seed,
                              const GenOptions& options, Spans& spans) {
  spans.Open("generate");
  auto w = noc_bench::Generate(name, seed, options);
  spans.Close();
  return w;
}

/// The sweep's determinism contract: the same JSON for any worker count.
void CheckSameSweep(const SweepRun& serial, const SweepRun& parallel,
                    Ops& ops) {
  if (serial.result && parallel.result && serial.json != parallel.json) {
    ops.Fail(parallel.probes, "sweep JSON differs between jobs=1 and jobs=" +
                                  std::to_string(Jobs()));
  }
}

// --- rep --------------------------------------------------------------------

/// Set-ups per rep; `setup_s` is their median.
constexpr int kSetups = 5;

/// One untraced rep: spec text to result JSON, then kSetups - 1 more
/// set-ups (after the runner is gone, so they change neither the run nor
/// its peak RSS).
int Rep(const std::string& name, std::uint64_t seed, double scale) {
  Spans spans;
  spans.Open("process");
  auto w = GenerateSpan(name, seed, GenOptions(scale), spans);
  if (!w.ok()) {
    std::cerr << w.status() << '\n';
    return 1;
  }
  double calibration_s = CalibrationSeconds(spans, 5);
  Ops ops;
  std::string digest;
  std::int64_t cycles = 0;
  CallTimes times;
  if (w->IsSweep()) {
    // Serial, like every other rep: a pool's wall time follows whichever
    // core is busiest, which made the reps far noisier.
    const SweepRun run = RunSweep(*w, 1, spans);
    ops.Add(run.probes, run.status);
    digest = Digest(run.json);
    cycles = run.cycles;
    times = run;
  } else {
    const ScenarioRun run = RunScenario(w->scn, spans);
    ops.Add(1, run.status);
    digest = Digest(run.json);
    if (run.result) cycles = run.result->cycles_run;
    times = run;
  }
  const double rss_mb = PeakRssMib();
  calibration_s = std::min(calibration_s, CalibrationSeconds(spans, 5));
  std::vector<double> setups = {times.SetupS()};
  for (int k = 1; k < kSetups; ++k) {
    spans.Open("setup again");
    setups.push_back(w->IsSweep() ? SetUpSweep(*w, spans).SetupS()
                                  : SetUpScenario(w->scn, spans).SetupS());
    spans.Close();
  }
  std::sort(setups.begin(), setups.end());
  spans.Close();
  JsonLine line;
  ops.Into(line)
      .Str("digest", digest)
      .Num("wall_s", times.WallS())
      .Num("setup_s", setups[kSetups / 2])
      .Num("run_s", times.run_s)
      .Num("cycles", static_cast<double>(cycles))
      .Num("rss_mb", rss_mb)
      .Num("calibration_s", calibration_s);
  return Emit(line, spans);
}

// --- crosscheck -------------------------------------------------------------

int Crosscheck(const std::string& name, std::uint64_t seed, double scale) {
  Spans spans;
  spans.Open("process");
  GenOptions options(scale / 10);
  auto w = GenerateSpan(name, seed, options, spans);
  if (!w.ok()) {
    std::cerr << w.status() << '\n';
    return 1;
  }
  Ops ops;
  if (w->IsSweep()) {
    spans.Open("jobs 1");
    const SweepRun serial = RunSweep(*w, 1, spans);
    spans.Close();
    spans.Open("jobs " + std::to_string(Jobs()));
    const SweepRun parallel = RunSweep(*w, Jobs(), spans);
    spans.Close();
    ops.Add(serial.probes, serial.status);
    ops.Add(parallel.probes, parallel.status);
    CheckSameSweep(serial, parallel, ops);
  } else {
    options.engine = "naive";
    auto naive = GenerateSpan(name, seed, options, spans);
    if (!naive.ok()) {
      std::cerr << naive.status() << '\n';
      return 1;
    }
    spans.Open("engine default");
    const ScenarioRun a = RunScenario(w->scn, spans);
    spans.Close();
    spans.Open("engine naive");
    const ScenarioRun b = RunScenario(naive->scn, spans);
    spans.Close();
    ops.Add(1, a.status);
    ops.Add(1, b.status);
    if (a.status.ok() && b.status.ok() && a.json != b.json) {
      ops.Fail(1, "default and naive engines produce different results");
    }
  }
  spans.Close();
  JsonLine line;
  ops.Into(line);
  return Emit(line, spans);
}

// --- trace ------------------------------------------------------------------

/// The layers below the scenario runner, read from one traced run's
/// engine profile, public counters and result. `base_run_s` is the
/// untraced run time of the same work.
void SetLayers(const ScenarioRun& run, double base_run_s, Metrics& m) {
  soc::Soc& soc = *run.runner->soc();
  const scenario::ScenarioResult& r = *run.result;

  const sim::EngineProfile& p = soc.sim().profile();
  const double steps = static_cast<double>(p.steps);
  m.Set("sim.steps", steps);
  m.Set("sim.evaluate_s", p.evaluate_sec);
  m.Set("sim.commit_s", p.commit_sec);
  m.Set("sim.park_wake_s", p.park_wake_sec);
  m.Set("sim.other_s",
        run.run_s - p.evaluate_sec - p.commit_sec - p.park_wake_sec);
  m.Set("sim.host_ns_per_step", Ratio(base_run_s * 1e9, steps));
  m.Set("sim.profile_overhead", Ratio(run.run_s, base_run_s));

  std::int64_t be_link_stalls = 0;
  for (NiId ni = 0; ni < soc.topology().NumNis(); ++ni) {
    be_link_stalls += soc.ni(ni)->stats().be_link_stalls;
  }
  const double flits = static_cast<double>(r.gt_flits + r.be_flits);
  m.Set("core.gt_flits", static_cast<double>(r.gt_flits));
  m.Set("core.be_flits", static_cast<double>(r.be_flits));
  m.Set("core.credit_only_packets",
        static_cast<double>(r.credit_only_packets));
  m.Set("core.credits_piggybacked",
        static_cast<double>(r.credits_piggybacked));
  m.Set("core.idle_slots", static_cast<double>(r.idle_slots));
  m.Set("core.gt_slots_unused", static_cast<double>(r.gt_slots_unused));
  m.Set("core.be_link_stalls", static_cast<double>(be_link_stalls));
  m.Set("core.slot_utilization", r.slot_utilization);
  m.Set("core.host_ns_per_flit", Ratio(base_run_s * 1e9, flits));

  router::RouterStats sum;
  for (RouterId id = 0; id < soc.topology().NumRouters(); ++id) {
    const router::RouterStats& s = soc.router(id)->stats();
    sum.gt_flits += s.gt_flits;
    sum.be_flits += s.be_flits;
    sum.be_blocked_credit += s.be_blocked_credit;
    sum.be_blocked_gt += s.be_blocked_gt;
    sum.be_max_occupancy = std::max(sum.be_max_occupancy, s.be_max_occupancy);
  }
  const double hops = static_cast<double>(sum.gt_flits + sum.be_flits);
  m.Set("router.flit_hops", hops);
  m.Set("router.be_blocked_credit",
        static_cast<double>(sum.be_blocked_credit));
  m.Set("router.be_blocked_gt", static_cast<double>(sum.be_blocked_gt));
  m.Set("router.be_max_occupancy", static_cast<double>(sum.be_max_occupancy));
  m.Set("router.host_ns_per_hop", Ratio(base_run_s * 1e9, hops));

  m.Set("tdm.slots_reserved",
        static_cast<double>(soc.allocator().TotalReserved()));

  scenario::TransitionResult total;
  for (const scenario::TransitionResult& t : r.transitions) {
    total.opens += t.opens;
    total.closes += t.closes;
    total.config_messages += t.config_messages;
    total.config_cycles += t.config_cycles;
    total.drain_cycles += t.drain_cycles;
    total.setup_latency_max =
        std::max(total.setup_latency_max, t.setup_latency_max);
    total.teardown_latency_max =
        std::max(total.teardown_latency_max, t.teardown_latency_max);
    total.slots_reclaimed += t.slots_reclaimed;
    total.slots_allocated += t.slots_allocated;
  }
  m.Set("config.transitions", static_cast<double>(r.transitions.size()));
  m.Set("config.opens", total.opens);
  m.Set("config.closes", total.closes);
  m.Set("config.messages", static_cast<double>(total.config_messages));
  m.Set("config.cycles", static_cast<double>(total.config_cycles));
  m.Set("config.drain_cycles", static_cast<double>(total.drain_cycles));
  m.Set("config.setup_latency_max_cyc",
        static_cast<double>(total.setup_latency_max));
  m.Set("config.teardown_latency_max_cyc",
        static_cast<double>(total.teardown_latency_max));
  m.Set("config.slots_reclaimed", total.slots_reclaimed);
  m.Set("config.slots_allocated", total.slots_allocated);

  std::int64_t issued = 0;
  std::int64_t completed = 0;
  std::vector<double> mem_latency;
  for (const scenario::FlowResult& flow : r.flows) {
    if (flow.pattern != "memory") continue;
    issued += flow.transactions_issued;
    completed += flow.transactions_completed;
    mem_latency.insert(mem_latency.end(), flow.latency_samples.begin(),
                       flow.latency_samples.end());
  }
  std::sort(mem_latency.begin(), mem_latency.end());
  if (issued > 0) {
    m.Set("memory.transactions_issued", static_cast<double>(issued));
    m.Set("memory.transactions_completed", static_cast<double>(completed));
    m.Set("memory.completion_ratio",
          Ratio(static_cast<double>(completed), static_cast<double>(issued)));
  }
  if (!mem_latency.empty()) {
    m.Set("memory.lat_p50_cyc", SortedPercentile(mem_latency, 50));
    m.Set("memory.lat_p99_cyc", SortedPercentile(mem_latency, 99));
  }

  if (r.obs_stats) {
    m.Set("obs.windows", static_cast<double>(r.obs_stats->windows.size()));
  }

  sweep::PointResult point;
  sweep::SummarizePoint(r, &point);
  m.Set("flow.gt_lat_p50_cyc", point.gt.latency_p50);
  m.Set("flow.gt_lat_p99_cyc", point.gt.latency_p99);
  m.Set("flow.be_lat_p50_cyc", point.be.latency_p50);
  m.Set("flow.be_lat_p99_cyc", point.be.latency_p99);
  m.Set("flow.words_in_window", static_cast<double>(r.words_in_window));
  m.Set("flow.throughput_wpc", r.throughput_wpc);
}

void SetCallTimes(const CallTimes& t, Metrics& m) {
  m.Set("scenario.parse_s", t.parse_s);
  m.Set("scenario.build_s", t.build_s);
  m.Set("scenario.run_s", t.run_s);
  m.Set("scenario.emit_s", t.emit_s);
}

/// One side of a pairing: a label and the options generating it.
using Variant = std::pair<std::string, GenOptions>;

/// Runs the variants round-robin and returns each one's best `run` time
/// over `reps` runs (0 when none succeeded). Every run counts as an op; a
/// run whose result differs from its variant's earlier runs, or from the
/// variant it is paired with in `same_as`, fails. A variant the library
/// rejects at generation time (an engine or option it no longer has) is
/// skipped and stays at 0.
std::vector<double> RunPairing(const std::string& name, std::uint64_t seed,
                               const std::vector<Variant>& variants,
                               const std::vector<std::pair<int, int>>& same_as,
                               int reps, Spans& spans, Ops& ops) {
  const std::size_t n = variants.size();
  std::vector<std::optional<Workload>> texts(n);
  for (std::size_t i = 0; i < n; ++i) {
    auto w = noc_bench::Generate(name, seed, variants[i].second);
    if (w.ok()) texts[i] = std::move(*w);
  }
  std::vector<double> best(n, 0);
  std::vector<std::string> digests(n);
  for (int rep = 0; rep < reps; ++rep) {
    for (std::size_t i = 0; i < n; ++i) {
      if (!texts[i]) continue;
      spans.Open("variant " + variants[i].first);
      const ScenarioRun run = RunScenario(texts[i]->scn, spans);
      spans.Close();
      ops.Add(1, run.status);
      if (!run.status.ok()) continue;
      const std::string digest = Digest(run.json);
      if (digests[i].empty()) digests[i] = digest;
      if (digest != digests[i]) {
        ops.Fail(1, variants[i].first + " is not deterministic");
      }
      if (best[i] == 0 || run.run_s < best[i]) best[i] = run.run_s;
    }
  }
  for (const auto& [a, b] : same_as) {
    if (!digests[a].empty() && !digests[b].empty() &&
        digests[a] != digests[b]) {
      ops.Fail(1, variants[a].first + " and " + variants[b].first +
                      " produce different results");
    }
  }
  return best;
}

/// The variant pairings of the traced pass, at a quarter of the workload's
/// length, best of 7 interleaved: the SoA engine (sequential and threaded)
/// against the default engine on mesh16_mixed, and verify-only and bare
/// runs against the armed one on mesh8_observed.
void SetScenarioPairings(const std::string& name, std::uint64_t seed,
                         double scale, Spans& spans, Ops& ops, Metrics& m) {
  // Best of 3 let the verify/obs differences, a few percent of a 0.3 s
  // run, swing from -2% to +24% between runs; best of 7 held them within
  // 7-18% over five seeds.
  constexpr int kReps = 7;
  const GenOptions quarter(scale / 4);
  if (name == "mesh16_mixed") {
    const std::string threaded = "soa threads " + std::to_string(Jobs());
    std::vector<Variant> v = {{"default", quarter}, {"soa", quarter},
                              {threaded, quarter}};
    v[1].second.engine = "soa";
    v[2].second.engine = threaded;
    const std::vector<double> best =
        RunPairing(name, seed, v, {{0, 1}, {0, 2}}, kReps, spans, ops);
    // Same simulated cycles in every variant, so the kc/s ratio is the
    // inverse run-time ratio.
    m.Set("sim.soa_ratio", Ratio(best[0], best[1]));
    m.Set("sim.soa_threads4_ratio", Ratio(best[0], best[2]));
  } else if (name == "mesh8_observed") {
    std::vector<Variant> v = {{"armed", quarter}, {"verify-only", quarter},
                              {"bare", quarter}};
    v[1].second.sample = false;
    v[2].second.sample = false;
    v[2].second.verify = false;
    const std::vector<double> best =
        RunPairing(name, seed, v, {{1, 2}}, kReps, spans, ops);
    const double armed = best[0];
    const double verify_only = best[1];
    const double bare = best[2];
    m.Set("verify.self_s", verify_only - bare);
    m.Set("verify.overhead_ratio", Ratio(verify_only - bare, bare));
    m.Set("obs.self_s", armed - verify_only);
    m.Set("obs.overhead_ratio", Ratio(armed - verify_only, bare));
  }
}

int Trace(const std::string& name, std::uint64_t seed, double scale,
          double base_run_s) {
  Spans spans;
  spans.Open("process");
  auto w = GenerateSpan(name, seed, GenOptions(scale), spans);
  if (!w.ok()) {
    std::cerr << w.status() << '\n';
    return 1;
  }
  Metrics m;
  Ops ops;
  std::string digest;

  if (w->IsSweep()) {
    // The traced rep: the serial sweep, as in the untraced reps (its calls
    // are the `scenario.*` metrics here), then the pool's run.
    const SweepRun serial = RunSweep(*w, 1, spans);
    ops.Add(serial.probes, serial.status);
    SetCallTimes(serial, m);
    m.Set("sweep.emit_s", serial.emit_s);
    spans.Open("jobs " + std::to_string(Jobs()));
    const SweepRun par = RunSweep(*w, Jobs(), spans);
    spans.Close();
    ops.Add(par.probes, par.status);
    CheckSameSweep(serial, par, ops);
    digest = Digest(serial.json);
    if (par.result && serial.result) {
      const sweep::SweepResult& r = *serial.result;
      std::vector<double> sat;
      for (const sweep::PointResult& p : r.points) {
        sat.push_back(p.saturation.value);
      }
      std::sort(sat.begin(), sat.end());
      m.Set("sweep.points", static_cast<double>(r.points.size()));
      m.Set("sweep.probes", static_cast<double>(serial.probes));
      m.Set("sweep.jobs", Jobs());
      m.Set("sweep.serial_s", serial.run_s);
      m.Set("sweep.parallel_efficiency",
            Ratio(serial.run_s, Jobs() * par.run_s));
      m.Set("sweep.probe_host_s",
            Ratio(serial.run_s, static_cast<double>(serial.probes)));
      m.Set("flow.be_sat_rate", SortedPercentile(sat, 50));

      // The lower layers, from the first grid point re-run at its
      // saturation rate: once untraced (the base), once traced.
      const sweep::SweepSpec& spec = *serial.spec;
      auto point = sweep::MaterializePoint(spec, sweep::ExpandGrid(spec)[0]);
      Status s = point.status();
      if (s.ok()) {
        s = sweep::ApplyParam(spec.saturation.param,
                              r.points[0].saturation.value_label, &*point);
      }
      if (!s.ok()) {
        ops.Fail(1, s.ToString());
      } else {
        spans.Open("saturation point");
        ScenarioRun base = BuildSpec(*point, spans);
        FinishScenario(base, spans, /*profile=*/false);
        ScenarioRun traced = BuildSpec(*point, spans);
        FinishScenario(traced, spans, /*profile=*/true);
        spans.Close();
        ops.Add(1, base.status);
        ops.Add(1, traced.status);
        if (base.result && traced.result) {
          if (base.json != traced.json) {
            ops.Fail(1, "profiling changed the saturation point's result");
          }
          SetLayers(traced, base.run_s, m);
        }
      }
    }
  } else {
    const ScenarioRun run = RunScenario(w->scn, spans, /*profile=*/true);
    ops.Add(1, run.status);
    digest = Digest(run.json);
    SetCallTimes(run, m);
    if (run.result) SetLayers(run, base_run_s, m);
    SetScenarioPairings(name, seed, scale, spans, ops, m);
  }
  spans.Close();
  JsonLine line;
  ops.Into(line).Str("digest", digest).Raw("metrics", m.Json());
  return Emit(line, spans);
}

// --- specs / seeds ----------------------------------------------------------

int WriteSpecs(const std::string& dir, std::uint64_t seed) {
  std::filesystem::create_directories(dir);
  for (const std::string& name : noc_bench::WorkloadNames()) {
    auto w = noc_bench::Generate(name, seed);
    if (!w.ok()) {
      std::cerr << w.status() << '\n';
      return 1;
    }
    std::ofstream(dir + "/" + w->ScnFile()) << w->scn;
    if (w->IsSweep()) std::ofstream(dir + "/" + w->SwpFile()) << w->swp;
  }
  return 0;
}

Status CheckSeed(std::uint64_t seed) {
  for (const std::string& name : noc_bench::WorkloadNames()) {
    auto w = noc_bench::Generate(name, seed);
    if (!w.ok()) return w.status();
    if (!w->IsSweep()) continue;
    auto spec = noc_bench::ParseWorkloadSweep(*w);
    if (!spec.ok()) return spec.status();
    for (const sweep::GridPoint& point : sweep::ExpandGrid(*spec)) {
      auto materialized = sweep::MaterializePoint(*spec, point);
      if (!materialized.ok()) return materialized.status();
      if (Status s = scenario::ScenarioRunner(*materialized).Build();
          !s.ok()) {
        return s;
      }
    }
  }
  return OkStatus();
}

int CheckSeeds(const std::string& range) {
  const std::size_t dash = range.find('-');
  const std::uint64_t first = std::stoull(range.substr(0, dash));
  const std::uint64_t last =
      dash == std::string::npos ? first : std::stoull(range.substr(dash + 1));
  int failures = 0;
  for (std::uint64_t seed = first; seed <= last; ++seed) {
    const Status s = CheckSeed(seed);
    std::cout << "seed " << seed << ": " << s << '\n';
    if (!s.ok()) ++failures;
  }
  return failures == 0 ? 0 : 1;
}

int Usage() {
  std::cerr << "usage: noc_bench --workload W --seed N [--scale X] "
               "--mode rep|crosscheck|trace [--base-run-s S]\n"
               "       noc_bench --write-specs DIR --seed N\n"
               "       noc_bench --check-seeds A-B\n";
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  std::map<std::string, std::string> args;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string key = argv[i];
    if (key.rfind("--", 0) != 0) return Usage();
    args[key.substr(2)] = argv[i + 1];
  }
  if (argc % 2 == 0) return Usage();
  try {
    if (args.count("check-seeds")) return CheckSeeds(args["check-seeds"]);
    if (!args.count("seed")) return Usage();
    const std::uint64_t seed = std::stoull(args["seed"]);
    if (args.count("write-specs")) return WriteSpecs(args["write-specs"], seed);
    const std::string name = args["workload"];
    const double scale = args.count("scale") ? std::stod(args["scale"]) : 1.0;
    const std::string mode = args["mode"];
    if (mode == "rep") return Rep(name, seed, scale);
    if (mode == "crosscheck") return Crosscheck(name, seed, scale);
    if (mode == "trace" && args.count("base-run-s")) {
      return Trace(name, seed, scale, std::stod(args["base-run-s"]));
    }
  } catch (const std::exception& e) {
    std::cerr << "noc_bench: bad argument: " << e.what() << '\n';
  }
  return Usage();
}
