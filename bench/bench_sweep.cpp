// Parallel-speedup benchmark for the sweep subsystem: runs one canonical
// injection-rate grid (uniform bernoulli traffic on the 7-NI star, 16
// points) at increasing --jobs counts and reports wall-clock, points/sec,
// and the jobs=1 -> jobs=8 speedup ratio. Writes BENCH_sweep.json (path
// overridable via argv[1]); scripts/ci.sh gates on the ratio when the
// runner has enough cores for it to mean anything.
//
// The ratio is the median over kPairs pairs of one jobs=1 and one jobs=8
// sweep, run back to back in alternating order, so a slow spell of the
// host weighs on both sides of a pair and on few pairs. Each point runs
// long enough that one serial sweep takes about 0.7 s on a 4-vCPU x86-64
// VM: a ratio of walls measured in tens of milliseconds is decided by
// host noise.
//
// The grid result itself is also cross-checked between the serial and the
// parallel runs — the byte-identity contract, re-proven where the speedup
// is measured.
#include <algorithm>
#include <chrono>
#include <fstream>
#include <iostream>
#include <string>
#include <thread>
#include <vector>

#include "sweep/runner.h"
#include "sweep/spec.h"
#include "util/check.h"
#include "util/json.h"
#include "util/table.h"

using namespace aethereal;

namespace {

constexpr char kBaseScenario[] = R"(
scenario bench_sweep_base
noc star 7
stu 8
queues 32
seed 1
warmup 500
duration 72000
traffic uniform inject bernoulli 0.03 qos be
)";

constexpr char kSweepSpec[] = R"(
sweep bench_sweep_grid
base inline
axis rate 0.01 0.02 0.03 0.04 0.05 0.06 0.07 0.08
axis seed 1 2
)";

struct JobsResult {
  int jobs = 0;
  double wall_ms = 0;
  double points_per_sec = 0;
};

// jobs=1 / jobs=8 pairs behind the gated ratio.
constexpr int kPairs = 7;
constexpr int kWideJobs = 8;

double Median(std::vector<double> values) {
  std::sort(values.begin(), values.end());
  const std::size_t n = values.size();
  return n % 2 == 1 ? values[n / 2] : (values[n / 2 - 1] + values[n / 2]) / 2;
}

}  // namespace

int main(int argc, char** argv) {
  const std::string out_path = argc > 1 ? argv[1] : "BENCH_sweep.json";
  const int cores =
      static_cast<int>(std::max(1u, std::thread::hardware_concurrency()));

  auto spec = sweep::ParseSweep(kSweepSpec, [](const std::string&) {
    return scenario::ParseScenario(kBaseScenario);
  });
  AETHEREAL_CHECK_MSG(spec.ok(), "bench sweep spec must parse");
  const auto num_points = spec->NumPoints();

  // Runs the grid on `jobs` workers; returns the wall time in ms. The
  // result JSON of every run must equal the first serial run's.
  std::string serial_json;
  const auto run_ms = [&](int jobs) {
    sweep::SweepRunner runner(*spec);
    const auto start = std::chrono::steady_clock::now();
    auto result = runner.Run(jobs);
    const auto end = std::chrono::steady_clock::now();
    AETHEREAL_CHECK_MSG(result.ok(), "bench sweep run failed");
    const std::string json = result->ToJson();
    if (serial_json.empty()) serial_json = json;
    AETHEREAL_CHECK_MSG(json == serial_json,
                        "jobs=1 and jobs=" << jobs << " sweep output diverged");
    return std::chrono::duration<double, std::milli>(end - start).count();
  };

  // Always measure 8 jobs (the acceptance point) even on smaller hosts —
  // oversubscription costs little and keeps the serial-vs-parallel
  // byte-identity crosscheck meaningful everywhere. The pairs come first;
  // the other rows are one run each. Hosts with more cores get an extra
  // all-cores row.
  std::vector<double> serial_ms, wide_ms, pair_ratios;
  (void)run_ms(1);  // warm the page cache and allocator
  for (int pair = 0; pair < kPairs; ++pair) {
    const bool serial_first = pair % 2 == 0;
    const double first = run_ms(serial_first ? 1 : kWideJobs);
    const double second = run_ms(serial_first ? kWideJobs : 1);
    serial_ms.push_back(serial_first ? first : second);
    wide_ms.push_back(serial_first ? second : first);
    pair_ratios.push_back(serial_ms.back() / wide_ms.back());
  }
  const double ratio = Median(pair_ratios);

  std::vector<int> jobs_list{1, 2, 4, kWideJobs};
  if (cores > kWideJobs) jobs_list.push_back(cores);
  Table table({"jobs", "wall ms", "points/s"});
  std::vector<JobsResult> results;
  for (int jobs : jobs_list) {
    JobsResult r;
    r.jobs = jobs;
    r.wall_ms = jobs == 1           ? Median(serial_ms)
                : jobs == kWideJobs ? Median(wide_ms)
                                    : run_ms(jobs);
    r.points_per_sec = 1000.0 * static_cast<double>(num_points) / r.wall_ms;
    results.push_back(r);
    table.AddRow({std::to_string(jobs), Table::Fmt(r.wall_ms, 1),
                  Table::Fmt(r.points_per_sec, 1)});
  }
  table.Print(std::cout);
  std::cout << "speedup jobs=1 -> jobs=" << kWideJobs << ": "
            << Table::Fmt(ratio, 2) << "x on " << cores
            << " cores (median of " << kPairs << " pairs:";
  for (double r : pair_ratios) std::cout << " " << Table::Fmt(r, 2);
  std::cout << ")\n";

  JsonWriter w;
  w.BeginObject();
  w.Key("benchmark").String("bench_sweep");
  w.Key("workload")
      .String("16-point bernoulli-rate x seed grid on the 7-NI uniform "
              "star (72.5k cycles per point), independent ScenarioRunners "
              "on the work-stealing pool");
  w.Key("cores").Int(cores);
  w.Key("grid_points").Int(static_cast<std::int64_t>(num_points));
  w.Key("deterministic").Bool(true);  // serial vs parallel JSON compared
  w.Key("results").BeginArray();
  for (const JobsResult& r : results) {
    w.BeginObject();
    w.Key("jobs").Int(r.jobs);
    w.Key("wall_ms").Double(r.wall_ms);
    w.Key("points_per_sec").Double(r.points_per_sec);
    w.EndObject();
  }
  w.EndArray();
  w.Key("speedup").BeginObject();
  w.Key("jobs").Int(kWideJobs);
  w.Key("pairs").Int(kPairs);
  w.Key("serial_wall_ms").Double(Median(serial_ms));
  w.Key("parallel_wall_ms").Double(Median(wide_ms));
  w.Key("pair_ratios").BeginArray();
  for (double r : pair_ratios) w.Double(r);
  w.EndArray();
  // The median of the per-pair ratios, not the ratio of the median walls.
  w.Key("ratio").Double(ratio);
  // The acceptance bar applies where the hardware can express it: >= 3x
  // at 8 jobs needs >= 8 cores. scripts/ci.sh scales the gate to the
  // runner's core count.
  w.Key("target_at_8_cores").Double(3.0);
  w.EndObject();
  w.EndObject();

  std::ofstream out(out_path);
  out << w.Take();
  out.flush();
  if (!out.good()) {
    std::cerr << "bench_sweep: failed writing " << out_path << "\n";
    return 1;
  }
  std::cout << "wrote " << out_path << "\n";
  return 0;
}
