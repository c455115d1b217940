// Host-side performance of the cycle engine: simulated flits/sec and
// kcycles/sec across mesh sizes and traffic classes for the soa engine
// (DESIGN.md §7), plus the speedup of the soa engine over the naïve
// reference path on the 4x4 mixed GT/BE workload and on a sparse 16x16 GT
// pairing (the same bursty streams on one adjacent pair in eight, the rest
// of the mesh idle). Writes BENCH_speed.json (path overridable on the
// command line) as a recorded trajectory; CI gates only the in-process
// paired ratios, never the absolute numbers: the sparse pairing's speedup
// (which only idle-module gating can deliver) and the obs overhead.
//
//   bench_speed [--full] [--profile] [json_path]
//
// --full adds the 32x32 tier (nightly CI); the default set tops out at
// 16x16 so the pre-merge perf smoke stays fast. --profile additionally
// attributes host wall time to the engine stages (evaluate /
// park-wake) per engine on the 8x8 mixed workload.
//
// The JSON also carries an `obs_overhead` block: a paired 8x8 mixed
// measurement with the observability taps armed vs off (the taps must not
// perturb the simulation, and CI gates their cost).
#include <chrono>
#include <fstream>
#include <iostream>
#include <memory>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "bench/common.h"
#include "ip/stream.h"
#include "obs/spec.h"
#include "soc/soc.h"
#include "topology/builders.h"
#include "util/check.h"
#include "util/table.h"

using namespace aethereal;

namespace {

enum class Traffic { kGtOnly, kBeOnly, kMixed, kGtSparse };

const char* TrafficName(Traffic t) {
  switch (t) {
    case Traffic::kGtOnly: return "gt";
    case Traffic::kBeOnly: return "be";
    case Traffic::kMixed: return "mixed";
    case Traffic::kGtSparse: return "gt_sparse";
  }
  return "?";
}

using soc::EngineKind;

struct RunResult {
  std::string mesh;
  std::string traffic;
  std::string engine;
  Cycle cycles = 0;
  double wall_ms = 0;
  std::int64_t flits = 0;          // flits injected by all NIs
  std::int64_t payload_words = 0;  // payload words delivered end to end
  double flits_per_sec = 0;
  double kcycles_per_sec = 0;
};

/// A rows x cols mesh (1 NI per router) with full-duplex streams between
/// horizontally adjacent NI pairs. Bursty sources (a kBurstWords burst
/// every kBurstPeriod cycles per direction) model DMA-style SoC traffic:
/// the network alternates between busy and idle slots, which is the regime
/// the TDM NoC is provisioned for.
struct SpeedWorkload {
  std::unique_ptr<soc::Soc> soc;
  std::vector<std::unique_ptr<ip::StreamSource>> producers;
  std::vector<std::unique_ptr<ip::StreamConsumer>> consumers;
};

constexpr int kBurstWords = 6;
constexpr Cycle kBurstPeriod = 48;
/// kGtSparse streams on one adjacent pair in this many.
constexpr int kSparsePairs = 8;
/// The soa/naive ratio on the sparse 16x16 pairing scripts/ci.sh gates.
constexpr double kSparseSpeedupFloor = 2.0;

SpeedWorkload MakeWorkload(int rows, int cols, Traffic traffic,
                           EngineKind engine,
                           const obs::ObsSpec* obs = nullptr) {
  SpeedWorkload w;
  auto mesh = topology::BuildMesh(rows, cols, /*nis_per_router=*/1);
  std::vector<core::NiKernelParams> params(
      static_cast<std::size_t>(rows * cols),
      bench::NiWithChannels(/*channels=*/1, /*queue_words=*/32));
  soc::SocOptions options;
  options.engine = engine;
  options.obs = obs;
  w.soc = std::make_unique<soc::Soc>(std::move(mesh.topology),
                                     std::move(params), options);

  int pair_index = 0;
  for (int r = 0; r < rows; ++r) {
    for (int c = 0; c + 1 < cols; c += 2) {
      const NiId a = static_cast<NiId>(r * cols + c);
      const NiId b = a + 1;
      bool gt = false;
      switch (traffic) {
        case Traffic::kGtOnly:
        case Traffic::kGtSparse: gt = true; break;
        case Traffic::kBeOnly: gt = false; break;
        case Traffic::kMixed: gt = (pair_index % 2 == 0); break;
      }
      if (traffic == Traffic::kGtSparse && pair_index % kSparsePairs != 0) {
        ++pair_index;
        continue;  // an idle pair: its NIs and routers have nothing to do
      }
      config::ChannelQos qos;
      // Let credits piggyback on the reverse data stream (the traffic is
      // full duplex) instead of spawning a dedicated credit packet per
      // consumed word — the configuration regime the paper's credit
      // threshold exists for (§4.1).
      qos.credit_threshold = 10;
      if (gt) {
        qos.gt = true;
        qos.gt_slots = 2;
      }
      AETHEREAL_CHECK(w.soc
                          ->OpenConnection(tdm::GlobalChannel{a, 0},
                                           tdm::GlobalChannel{b, 0}, qos, qos)
                          .ok());
      for (const auto& [src, dst] : {std::pair{a, b}, std::pair{b, a}}) {
        w.producers.push_back(std::make_unique<ip::StreamSource>(
            "p" + std::to_string(src), w.soc->port(src, 0), 0,
            ip::Injection{.period = kBurstPeriod, .words = kBurstWords}));
        w.soc->RegisterOnPort(w.producers.back().get(), src, 0);
        w.consumers.push_back(std::make_unique<ip::StreamConsumer>(
            "c" + std::to_string(dst), w.soc->port(dst, 0), 0,
            /*drain_per_cycle=*/kFlitWords));
        w.soc->RegisterOnPort(w.consumers.back().get(), dst, 0);
      }
      ++pair_index;
    }
  }
  return w;
}

std::int64_t TotalFlits(SpeedWorkload& w) {
  std::int64_t flits = 0;
  const auto n = static_cast<NiId>(w.soc->topology().NumNis());
  for (NiId i = 0; i < n; ++i) {
    const auto& stats = w.soc->ni(i)->stats();
    flits += stats.gt_flits + stats.be_flits;
  }
  return flits;
}

RunResult MeasureOnce(int rows, int cols, Traffic traffic, EngineKind engine,
                      Cycle cycles, const obs::ObsSpec* obs = nullptr) {
  SpeedWorkload w = MakeWorkload(rows, cols, traffic, engine, obs);
  w.soc->RunCycles(200);  // warm up: fill pipelines, settle credits
  const std::int64_t flits0 = TotalFlits(w);
  std::int64_t words0 = 0;
  for (const auto& consumer : w.consumers) words0 += consumer->words_read();

  const auto start = std::chrono::steady_clock::now();
  w.soc->RunCycles(cycles);
  const auto stop = std::chrono::steady_clock::now();

  RunResult result;
  result.mesh = std::to_string(rows) + "x" + std::to_string(cols);
  result.traffic = TrafficName(traffic);
  result.engine = sim::EngineKindName(engine);
  result.cycles = cycles;
  result.wall_ms =
      std::chrono::duration<double, std::milli>(stop - start).count();
  result.flits = TotalFlits(w) - flits0;
  std::int64_t words = 0;
  for (const auto& consumer : w.consumers) words += consumer->words_read();
  result.payload_words = words - words0;
  const double wall_sec = result.wall_ms / 1e3;
  result.flits_per_sec =
      wall_sec > 0 ? static_cast<double>(result.flits) / wall_sec : 0;
  result.kcycles_per_sec =
      wall_sec > 0 ? static_cast<double>(cycles) / wall_sec / 1e3 : 0;
  return result;
}

/// Best-of-N wall clock (the simulation is deterministic, so the fastest
/// repetition is the least noise-distorted estimate on a shared host).
RunResult Measure(int rows, int cols, Traffic traffic, EngineKind engine,
                  Cycle cycles, int reps = 5) {
  RunResult best = MeasureOnce(rows, cols, traffic, engine, cycles);
  for (int i = 1; i < reps; ++i) {
    RunResult r = MeasureOnce(rows, cols, traffic, engine, cycles);
    AETHEREAL_CHECK_MSG(r.flits == best.flits,
                        "non-deterministic flit count across repetitions");
    if (r.wall_ms < best.wall_ms) best = r;
  }
  return best;
}

/// Paired soa vs naive measurement on one workload. Repetitions interleave
/// the two engines so both sample the same host conditions (frequency
/// scaling, noisy neighbours); best-of wall clock is the least distorted
/// estimate of each. `ratio` is soa/naive throughput.
struct Speedup {
  RunResult soa;
  RunResult naive;
  double ratio = 0;
};

Speedup MeasureSpeedup(int rows, int cols, Traffic traffic, Cycle cycles) {
  Speedup s;
  s.soa = MeasureOnce(rows, cols, traffic, EngineKind::kSoa, cycles);
  s.naive = MeasureOnce(rows, cols, traffic, EngineKind::kNaive, cycles);
  for (int rep = 1; rep < 3; ++rep) {
    RunResult soa = MeasureOnce(rows, cols, traffic, EngineKind::kSoa, cycles);
    RunResult naive =
        MeasureOnce(rows, cols, traffic, EngineKind::kNaive, cycles);
    if (soa.wall_ms < s.soa.wall_ms) s.soa = soa;
    if (naive.wall_ms < s.naive.wall_ms) s.naive = naive;
  }
  // The two engines must have simulated the identical workload.
  AETHEREAL_CHECK_MSG(s.soa.flits == s.naive.flits,
                      "soa and naive engines disagree on flit count: "
                          << s.soa.flits << " vs " << s.naive.flits);
  s.ratio = s.naive.flits_per_sec > 0
                ? s.soa.flits_per_sec / s.naive.flits_per_sec
                : 0;
  return s;
}

std::string FmtNum(double v) {
  std::ostringstream oss;
  oss << v;
  return oss.str();
}

/// Paired obs-armed vs obs-off measurement on the same workload. `ratio`
/// is armed/off throughput (1.0 = free; CI gates it from below).
struct ObsOverhead {
  RunResult off;
  RunResult armed;
  double ratio = 0;
};

/// Host wall time per engine stage: `--profile` runs each engine once per
/// traffic class on the 8x8 workload with kernel profiling armed and
/// prints where the host cycles go. "other" is wall time outside the
/// instrumented stages (edge scheduling, the loop itself).
void ProfileEngines(Traffic traffic, Cycle cycles) {
  std::cout << "\nengine profile (8x8 " << TrafficName(traffic) << ", "
            << cycles << " cycles):\n";
  Table table({"engine", "steps", "wall ms", "evaluate ms", "park/wake ms",
               "other ms"});
  for (EngineKind engine : {EngineKind::kSoa, EngineKind::kNaive}) {
    SpeedWorkload w = MakeWorkload(8, 8, traffic, engine);
    w.soc->RunCycles(200);  // same warm-up as the throughput runs
    w.soc->sim().EnableProfiling();
    const auto start = std::chrono::steady_clock::now();
    w.soc->RunCycles(cycles);
    const auto stop = std::chrono::steady_clock::now();
    const double wall_ms =
        std::chrono::duration<double, std::milli>(stop - start).count();
    const sim::EngineProfile& p = w.soc->sim().profile();
    const double evaluate_ms = p.evaluate_sec * 1e3;
    const double park_wake_ms = p.park_wake_sec * 1e3;
    table.AddRow({sim::EngineKindName(engine), Table::Fmt(p.steps),
                  Table::Fmt(wall_ms), Table::Fmt(evaluate_ms),
                  Table::Fmt(park_wake_ms),
                  Table::Fmt(wall_ms - evaluate_ms - park_wake_ms)});
  }
  table.Print(std::cout);
}

void WriteSpeedup(std::ostream& out, const char* key, const Speedup& s) {
  out << "  \"" << key << "\": {\n"
      << "    \"soa_flits_per_sec\": " << FmtNum(s.soa.flits_per_sec) << ",\n"
      << "    \"naive_flits_per_sec\": " << FmtNum(s.naive.flits_per_sec)
      << ",\n"
      << "    \"soa_kcycles_per_sec\": " << FmtNum(s.soa.kcycles_per_sec)
      << ",\n"
      << "    \"naive_kcycles_per_sec\": " << FmtNum(s.naive.kcycles_per_sec)
      << ",\n"
      << "    \"ratio\": " << FmtNum(s.ratio);
}

void WriteJson(const std::string& path, const std::vector<RunResult>& results,
               const Speedup& mixed, const Speedup& sparse,
               const ObsOverhead& obs) {
  std::ofstream out(path);
  AETHEREAL_CHECK_MSG(out.good(), "cannot open " << path);
  out << "{\n"
      << "  \"benchmark\": \"bench_speed\",\n"
      << "  \"workload\": \"full-duplex bursty streams between adjacent NI "
         "pairs (" << kBurstWords << " words every " << kBurstPeriod
      << " cycles per direction)\",\n"
      << "  \"units\": {\n"
      << "    \"flits_per_sec\": \"simulated flits per host second\",\n"
      << "    \"kcycles_per_sec\": \"simulated net-clock kilocycles per host "
         "second\"\n"
      << "  },\n"
      << "  \"results\": [\n";
  for (std::size_t i = 0; i < results.size(); ++i) {
    const RunResult& r = results[i];
    out << "    {\"mesh\": \"" << r.mesh << "\", \"traffic\": \"" << r.traffic
        << "\", \"engine\": \"" << r.engine << "\", \"cycles\": " << r.cycles
        << ", \"wall_ms\": " << FmtNum(r.wall_ms)
        << ", \"flits\": " << r.flits
        << ", \"payload_words\": " << r.payload_words
        << ", \"flits_per_sec\": " << FmtNum(r.flits_per_sec)
        << ", \"kcycles_per_sec\": " << FmtNum(r.kcycles_per_sec) << "}"
        << (i + 1 < results.size() ? "," : "") << "\n";
  }
  out << "  ],\n"
      << "  \"obs_overhead_8x8_mixed\": {\n"
      << "    \"off_flits_per_sec\": " << FmtNum(obs.off.flits_per_sec)
      << ",\n"
      << "    \"armed_flits_per_sec\": " << FmtNum(obs.armed.flits_per_sec)
      << ",\n"
      << "    \"ratio\": " << FmtNum(obs.ratio) << ",\n"
      << "    \"note\": \"armed = counters + windowed sampling; the taps "
         "must not change the simulated workload\"\n"
      << "  },\n";
  WriteSpeedup(out, "speedup_4x4_mixed", mixed);
  out << "\n  },\n";
  WriteSpeedup(out, "speedup_16x16_gt_sparse", sparse);
  out << ",\n    \"target\": " << kSparseSpeedupFloor  // the floor ci.sh gates
      << "\n  }\n"
      << "}\n";
}

}  // namespace

int main(int argc, char** argv) {
  bool full = false;
  bool profile = false;
  std::string json_path = "BENCH_speed.json";
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--full") {
      full = true;
    } else if (arg == "--profile") {
      profile = true;
    } else {
      json_path = arg;
    }
  }
  bench::PrintHeader(
      "Engine speed (flits/sec, kcycles/sec)",
      "Host-side throughput of the zero-allocation cycle engine across mesh "
      "sizes and traffic classes; soa vs naive.");

  struct MeshSize {
    int rows, cols;
    Cycle cycles;
  };
  // Cycle counts shrink with mesh size so every tier stays a sub-second
  // measurement; the 32x32 tier (--full) is the nightly large-mesh guard.
  std::vector<MeshSize> sizes = {
      {2, 2, 60000}, {4, 4, 30000}, {8, 8, 10000}, {16, 16, 4000}};
  if (full) sizes.push_back({32, 32, 1500});
  const Traffic classes[] = {Traffic::kGtOnly, Traffic::kBeOnly,
                             Traffic::kMixed};

  std::vector<RunResult> results;
  Table table({"mesh", "traffic", "engine", "cycles", "wall ms", "flits",
               "Mflits/s", "kcycles/s"});
  for (const MeshSize& size : sizes) {
    for (Traffic traffic : classes) {
      RunResult r = Measure(size.rows, size.cols, traffic, EngineKind::kSoa,
                            size.cycles);
      table.AddRow({r.mesh, r.traffic, r.engine, Table::Fmt(r.cycles),
                    Table::Fmt(r.wall_ms), Table::Fmt(r.flits),
                    Table::Fmt(r.flits_per_sec / 1e6, 3),
                    Table::Fmt(r.kcycles_per_sec)});
      results.push_back(r);
    }
  }

  // Soa vs naïve, interleaved: on 4x4 mixed GT/BE (recorded), and on the
  // sparse 16x16 GT pairing CI gates. Dense traffic keeps most modules
  // awake, so its ratio sits too close to the no-gating ratio to gate on;
  // seven pairs in eight idle make the gap wide.
  const Speedup mixed = MeasureSpeedup(4, 4, Traffic::kMixed, 30000);
  const Speedup sparse = MeasureSpeedup(16, 16, Traffic::kGtSparse, 12000);
  for (const RunResult& r : {mixed.naive, sparse.soa, sparse.naive}) {
    results.push_back(r);
    table.AddRow({r.mesh, r.traffic, r.engine, Table::Fmt(r.cycles),
                  Table::Fmt(r.wall_ms), Table::Fmt(r.flits),
                  Table::Fmt(r.flits_per_sec / 1e6, 3),
                  Table::Fmt(r.kcycles_per_sec)});
  }
  table.Print(std::cout);
  std::cout << "\n4x4 mixed speedup (soa vs naive): "
            << Table::Fmt(mixed.ratio, 2) << "x\n"
            << "16x16 gt_sparse speedup (soa vs naive): "
            << Table::Fmt(sparse.ratio, 2) << "x (CI gate >= "
            << kSparseSpeedupFloor << "x)\n";

  // Observability overhead: the same 8x8 mixed workload with the taps
  // armed (counters + windowed sampling) vs off, interleaved like the
  // speedup pairing. The taps observe committed state only, so the
  // simulated workload must be bit-identical either way.
  obs::ObsSpec obs_spec;
  obs_spec.sample_every = 300;
  ObsOverhead obs;
  obs.off = MeasureOnce(8, 8, Traffic::kMixed, EngineKind::kSoa, 10000);
  obs.armed = MeasureOnce(8, 8, Traffic::kMixed, EngineKind::kSoa, 10000,
                          &obs_spec);
  for (int rep = 1; rep < 3; ++rep) {
    RunResult off =
        MeasureOnce(8, 8, Traffic::kMixed, EngineKind::kSoa, 10000);
    RunResult armed = MeasureOnce(8, 8, Traffic::kMixed, EngineKind::kSoa,
                                  10000, &obs_spec);
    if (off.wall_ms < obs.off.wall_ms) obs.off = off;
    if (armed.wall_ms < obs.armed.wall_ms) obs.armed = armed;
  }
  AETHEREAL_CHECK_MSG(obs.armed.flits == obs.off.flits,
                      "observability taps perturbed the workload: "
                          << obs.armed.flits << " vs " << obs.off.flits
                          << " flits");
  obs.ratio = obs.off.flits_per_sec > 0
                  ? obs.armed.flits_per_sec / obs.off.flits_per_sec
                  : 0;
  std::cout << "8x8 mixed obs overhead (armed vs off): "
            << Table::Fmt(100.0 * (1.0 - obs.ratio), 1) << "% ("
            << Table::Fmt(obs.ratio, 3) << "x)\n";

  if (profile) {
    for (Traffic traffic : classes) ProfileEngines(traffic, 10000);
  }

  WriteJson(json_path, results, mixed, sparse, obs);
  std::cout << "wrote " << json_path << "\n";
  return 0;
}
