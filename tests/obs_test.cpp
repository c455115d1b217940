// Observability subsystem tests (DESIGN.md §13).
//
// The contract under test has two halves. Off: a run with no `stats` /
// `trace` directive constructs no hub and no tap, so every canonical
// golden stays byte-identical on both engines (scenario_golden_test pins
// each canonical spec, observability off, on both). On: the taps observe
// committed state only, so enabling them changes NOTHING about the
// simulation (same flit counts, same latencies, same result fields) while
// the stats section itself is deterministic and engine-invariant, the
// trace file accounts for every recorded event, and percentiles follow
// the one nearest-rank formula everywhere.
#include <algorithm>
#include <cstdint>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "core/ni_kernel.h"
#include "obs/hub.h"
#include "obs/spec.h"
#include "obs/trace.h"
#include "scenario/runner.h"
#include "scenario/spec.h"
#include "sim/engine.h"
#include "sim/kernel.h"
#include "soc/soc.h"
#include "util/stats.h"

namespace aethereal::scenario {
namespace {

namespace fs = std::filesystem;

std::string ReadFile(const fs::path& path) {
  std::ifstream in(path);
  EXPECT_TRUE(in.good()) << "cannot open " << path;
  std::ostringstream text;
  text << in.rdbuf();
  return text.str();
}

std::string TempPath(const std::string& name) {
  return (fs::path(::testing::TempDir()) / name).string();
}

ScenarioResult MustRun(ScenarioSpec spec) {
  ScenarioRunner runner(std::move(spec));
  auto result = runner.Run();
  EXPECT_TRUE(result.ok()) << result.status();
  return result.ok() ? std::move(*result) : ScenarioResult{};
}

// --- non-perturbation and engine invariance when on ------------------------

// Arming sampling + tracing must not change the simulation: every
// simulation-semantic result field matches the obs-off run exactly.
TEST(ObsOnTest, ArmedRunDoesNotPerturbTheSimulation) {
  auto spec = LoadScenarioFile(std::string(AETHEREAL_SCENARIO_DIR) +
                               "/mixed_star.scn");
  ASSERT_TRUE(spec.ok()) << spec.status();
  const ScenarioResult off = MustRun(*spec);

  ScenarioSpec armed = *spec;
  armed.obs.sample_every = 300;
  armed.obs.trace_path = TempPath("obs_perturb_trace.json");
  const ScenarioResult on = MustRun(armed);

  EXPECT_EQ(on.words_in_window, off.words_in_window);
  EXPECT_EQ(on.gt_flits, off.gt_flits);
  EXPECT_EQ(on.be_flits, off.be_flits);
  EXPECT_EQ(on.idle_slots, off.idle_slots);
  EXPECT_EQ(on.slot_utilization, off.slot_utilization);
  ASSERT_EQ(on.flows.size(), off.flows.size());
  for (std::size_t i = 0; i < on.flows.size(); ++i) {
    EXPECT_EQ(on.flows[i].words_in_window, off.flows[i].words_in_window);
    EXPECT_EQ(on.flows[i].latency.count, off.flows[i].latency.count);
    EXPECT_EQ(on.flows[i].latency.mean, off.flows[i].latency.mean);
    EXPECT_EQ(on.flows[i].latency.p99, off.flows[i].latency.p99);
  }
  ASSERT_TRUE(on.obs_stats.has_value());
  EXPECT_FALSE(off.obs_stats.has_value());
}

// The stats section derives from committed state only, so the armed
// result JSON — stats included — is byte-identical across both engines,
// and across repeated runs of the same engine.
TEST(ObsOnTest, StatsJsonIsEngineInvariantAndDeterministic) {
  auto spec = LoadScenarioFile(std::string(AETHEREAL_SCENARIO_DIR) +
                               "/mixed_star.scn");
  ASSERT_TRUE(spec.ok()) << spec.status();
  spec->obs.sample_every = 300;

  std::vector<std::string> jsons;
  for (sim::EngineKind engine :
       {sim::EngineKind::kNaive, sim::EngineKind::kSoa}) {
    ScenarioSpec armed = *spec;
    armed.engine = engine;
    jsons.push_back(MustRun(armed).ToJson());
  }
  EXPECT_EQ(jsons[0], jsons[1]) << "naive vs soa stats diverged";
  EXPECT_NE(jsons[0].find("\"stats\""), std::string::npos);
  EXPECT_EQ(MustRun(*spec).ToJson(), jsons[1]) << "rerun not deterministic";
}

// --- the stats content ----------------------------------------------------

TEST(ObsOnTest, WindowsAndCountersAreConsistent) {
  auto spec = LoadScenarioFile(std::string(AETHEREAL_SCENARIO_DIR) +
                               "/uniform_star.scn");
  ASSERT_TRUE(spec.ok()) << spec.status();
  spec->obs.sample_every = 600;
  const ScenarioResult result = MustRun(*spec);

  ASSERT_TRUE(result.obs_stats.has_value());
  const obs::ObsStatsSnapshot& stats = *result.obs_stats;
  EXPECT_EQ(stats.sample_every, 600);
  ASSERT_FALSE(stats.windows.empty());
  ASSERT_FALSE(stats.links.empty());
  ASSERT_EQ(stats.link_sites.size(), stats.links.size());
  ASSERT_EQ(stats.link_kinds.size(), stats.links.size());

  // Windows tile the run: increasing starts, positive lengths, and the
  // per-link busy vectors always span the full link set.
  Cycle prev_start = -1;
  std::int64_t windowed_busy = 0;
  for (const obs::SampleWindow& win : stats.windows) {
    EXPECT_GT(win.start, prev_start);
    EXPECT_GT(win.length, 0);
    prev_start = win.start;
    ASSERT_EQ(win.link_busy.size(), stats.links.size());
    std::int64_t busy = 0;
    for (std::int32_t b : win.link_busy) busy += b;
    EXPECT_EQ(busy, win.busy_link_slots);
    EXPECT_LE(win.busy_link_slots, win.link_slots);
    windowed_busy += win.busy_link_slots;
  }

  // The whole-run link counters account every slot as exactly one of
  // GT / BE / idle, and the windowed series covers the same traffic.
  std::int64_t counter_busy = 0;
  std::int64_t injected = 0;
  std::int64_t delivered = 0;
  for (std::size_t i = 0; i < stats.links.size(); ++i) {
    const obs::LinkCounters& c = stats.links[i];
    EXPECT_GE(c.gt_flits, 0);
    EXPECT_GE(c.be_flits, 0);
    EXPECT_GE(c.idle_slots, 0);
    EXPECT_LE(c.header_flits, c.gt_flits + c.be_flits);
    counter_busy += c.gt_flits + c.be_flits;
    if (stats.link_kinds[i] == obs::LinkKind::kInjection) {
      injected += c.gt_flits + c.be_flits;
    }
    if (stats.link_kinds[i] == obs::LinkKind::kDelivery) {
      delivered += c.gt_flits + c.be_flits;
    }
    EXPECT_FALSE(stats.link_sites[i].empty());
  }
  EXPECT_EQ(counter_busy, windowed_busy)
      << "windowed series disagrees with the whole-run counters";
  EXPECT_GT(injected, 0);
  EXPECT_GT(delivered, 0);

  // NI observations: one entry per NI, queue HWMs and utilization sane.
  ASSERT_EQ(stats.nis.size(), static_cast<std::size_t>(spec->NumNis()));
  bool any_queue_seen = false;
  for (const obs::NiObservation& o : stats.nis) {
    EXPECT_GE(o.source_queue_hwm, 0);
    EXPECT_GE(o.dest_queue_hwm, 0);
    if (o.source_queue_hwm > 0 || o.dest_queue_hwm > 0) any_queue_seen = true;
    EXPECT_GE(o.slot_utilization, 0.0);
    EXPECT_LE(o.slot_utilization, 1.0);
  }
  EXPECT_TRUE(any_queue_seen);

  bool any_router_traffic = false;
  for (const obs::RouterObservation& o : stats.routers) {
    if (o.gt_flits + o.be_flits > 0) any_router_traffic = true;
  }
  EXPECT_TRUE(any_router_traffic);

  // The heatmap CSV derives from the same windows: one row per (window,
  // link) with the documented header.
  const std::string csv = obs::SeriesCsv(stats);
  EXPECT_EQ(csv.find("window_start,site,kind,busy_slots,window_slots,"
                     "utilization"),
            0u);
  const std::size_t rows = std::count(csv.begin(), csv.end(), '\n');
  EXPECT_EQ(rows, 1 + stats.windows.size() * stats.links.size());
}

// --- per-slot attribution -------------------------------------------------

// FNV-1a over every window field (the per-link busy vector included) and
// every per-link counter, in order. A change that moves one link
// observation into a neighbouring slot or window changes it.
std::uint64_t AttributionDigest(const obs::ObsStatsSnapshot& stats) {
  std::uint64_t h = 0xCBF29CE484222325ull;
  const auto mix = [&h](std::int64_t value) {
    for (int byte = 0; byte < 8; ++byte) {
      h = (h ^ ((static_cast<std::uint64_t>(value) >> (8 * byte)) & 0xFFu)) *
          0x100000001B3ull;
    }
  };
  for (const obs::SampleWindow& win : stats.windows) {
    mix(win.start);
    mix(win.length);
    mix(win.gt_injected);
    mix(win.be_injected);
    mix(win.gt_delivered);
    mix(win.be_delivered);
    mix(win.busy_link_slots);
    mix(win.link_slots);
    mix(win.max_queue_words);
    for (std::int32_t busy : win.link_busy) mix(busy);
  }
  for (const obs::LinkCounters& c : stats.links) {
    mix(c.gt_flits);
    mix(c.be_flits);
    mix(c.header_flits);
    mix(c.idle_slots);
    mix(c.credit_slots);
    mix(c.credits_returned);
  }
  return h;
}

// Pins which slot and which window every link observation is counted in,
// on both engines. Sample periods 7 and 301 close windows off the slot
// grid, and fault_stream_star drops and corrupts flits on its links.
TEST(ObsOnTest, PerSlotAttributionIsPinned) {
  struct Case {
    const char* scenario;
    Cycle sample_every;
    std::uint64_t digest;
  };
  const Case cases[] = {
      {"uniform_star", 7, 0x55f19ec9144a02baull},
      {"uniform_star", 301, 0x0d82cf4e7b75b0fcull},
      {"fault_stream_star", 7, 0x32a310edce35317full},
      {"fault_stream_star", 301, 0x899cd0dd3bf79c54ull},
  };
  for (const Case& c : cases) {
    auto spec = LoadScenarioFile(std::string(AETHEREAL_SCENARIO_DIR) + "/" +
                                 c.scenario + ".scn");
    ASSERT_TRUE(spec.ok()) << spec.status();
    spec->obs.sample_every = c.sample_every;
    for (sim::EngineKind engine :
         {sim::EngineKind::kNaive, sim::EngineKind::kSoa}) {
      SCOPED_TRACE(std::string(c.scenario) + " sample_every " +
                   std::to_string(c.sample_every) + " " +
                   sim::EngineKindName(engine));
      ScenarioSpec armed = *spec;
      armed.engine = engine;
      const ScenarioResult result = MustRun(armed);
      ASSERT_TRUE(result.obs_stats.has_value());
      const std::uint64_t digest = AttributionDigest(*result.obs_stats);
      EXPECT_EQ(digest, c.digest)
          << "attribution changed: digest 0x" << std::hex << digest;
    }
  }
}

// --- queue fills against a brute-force walk -----------------------------

// The oracle of the tap's queue-fill marks: at every slot boundary it
// closes the sampling window once the window's end has passed, then sums
// every channel's committed source and destination queue words of every
// NI into per-NI high-water marks and the window's deepest fill. Committed
// fills are the same whichever module reads them within an edge, so it
// may run after the NoC hardware.
class QueueFillOracle : public sim::Module {
 public:
  QueueFillOracle(std::vector<core::NiKernel*> nis, Cycle sample_every)
      : sim::Module("queue_fill_oracle"),
        nis_(std::move(nis)),
        sample_every_(sample_every),
        source_hwm_(nis_.size(), 0),
        dest_hwm_(nis_.size(), 0) {
    SetEvaluateStride(kFlitWords);
  }

  void Evaluate() override {
    const Cycle now = CycleCount();
    if (now % kFlitWords != 0) return;
    if (now >= static_cast<Cycle>(window_max_.size()) * sample_every_) {
      window_max_.push_back(0);
    }
    for (std::size_t n = 0; n < nis_.size(); ++n) {
      int source = 0;
      int dest = 0;
      for (ChannelId ch = 0; ch < nis_[n]->NumChannels(); ++ch) {
        source += nis_[n]->SourceQueueWords(ch);
        dest += nis_[n]->DestQueueWords(ch);
      }
      source_hwm_[n] = std::max(source_hwm_[n], source);
      dest_hwm_[n] = std::max(dest_hwm_[n], dest);
      window_max_.back() = std::max(window_max_.back(), std::max(source, dest));
    }
  }

  const std::vector<int>& source_hwm() const { return source_hwm_; }
  const std::vector<int>& dest_hwm() const { return dest_hwm_; }
  const std::vector<int>& window_max() const { return window_max_; }

 private:
  std::vector<core::NiKernel*> nis_;
  Cycle sample_every_;
  std::vector<int> source_hwm_;
  std::vector<int> dest_hwm_;
  std::vector<int> window_max_;  // per window, deepest fill
};

// The tap's queue-fill marks must equal the brute-force walk's on both
// engines, for every NI and every window.
void ExpectOracleMarks(const ScenarioSpec& spec, Cycle sample_every) {
  for (sim::EngineKind engine :
       {sim::EngineKind::kNaive, sim::EngineKind::kSoa}) {
    SCOPED_TRACE(spec.name + " sample_every " + std::to_string(sample_every) +
                 " " + sim::EngineKindName(engine));
    ScenarioSpec armed = spec;
    armed.obs.sample_every = sample_every;
    armed.engine = engine;
    ScenarioRunner runner(armed);
    ASSERT_TRUE(runner.Build().ok());
    soc::Soc* soc = runner.soc();
    std::vector<core::NiKernel*> nis;
    for (NiId n = 0; n < armed.NumNis(); ++n) nis.push_back(soc->ni(n));
    QueueFillOracle oracle(nis, sample_every);
    soc->RegisterOnNet(&oracle);
    auto result = runner.Run();
    ASSERT_TRUE(result.ok()) << result.status();

    const obs::ObsHub& hub = *soc->obs_hub();
    ASSERT_EQ(hub.ni_obs().size(), nis.size());
    int deepest = 0;
    for (std::size_t n = 0; n < nis.size(); ++n) {
      EXPECT_EQ(hub.ni_obs()[n].source_queue_hwm, oracle.source_hwm()[n])
          << "ni" << n;
      EXPECT_EQ(hub.ni_obs()[n].dest_queue_hwm, oracle.dest_hwm()[n])
          << "ni" << n;
      deepest = std::max(deepest, oracle.dest_hwm()[n]);
    }
    EXPECT_GT(deepest, 0);
    ASSERT_EQ(hub.windows().size(), oracle.window_max().size());
    for (std::size_t w = 0; w < hub.windows().size(); ++w) {
      EXPECT_EQ(hub.windows()[w].max_queue_words, oracle.window_max()[w])
          << "window " << w;
    }
  }
}

// The tap re-sums an NI's fills only where a hand-off into its queues
// becomes readable, and every NI at each window's first slot. Checked on
// ipclock_mesh, whose destination queues are read on a slower IP clock;
// on wide_ni_churn, whose NIs carry many channels and are reconfigured at
// run time; and on a one-way stream into an NI whose IP clock runs at a
// tenth of the network's, where each word is a lone hand-off that alone
// moves its destination's fill (with one window for the whole run, so
// only the marks can see it). Sample periods on and off the slot grid.
TEST(ObsOnTest, QueueFillMarksMatchABruteForceWalk) {
  const struct {
    const char* scenario;
    Cycle sample_every;
  } cases[] = {{"ipclock_mesh", 64}, {"ipclock_mesh", 301},
               {"wide_ni_churn", 7}, {"wide_ni_churn", 300}};
  for (const auto& c : cases) {
    auto spec = LoadScenarioFile(std::string(AETHEREAL_SCENARIO_DIR) + "/" +
                                 c.scenario + ".scn");
    ASSERT_TRUE(spec.ok()) << spec.status();
    ExpectOracleMarks(*spec, c.sample_every);
  }
  auto slow_reader = ParseScenario(
      "scenario slow_reader\n"
      "noc star 2\n"
      "netmhz 500\n"
      "ipmhz 50\n"
      "queues 16\n"
      "duration 3000\n"
      "traffic pairs 0 1 inject periodic 200 qos gt 1\n");
  ASSERT_TRUE(slow_reader.ok()) << slow_reader.status();
  ExpectOracleMarks(*slow_reader, 1000000);
}

// --- histograms & percentiles ---------------------------------------------

TEST(ObsOnTest, HistogramsAlwaysPresentWithExactPercentiles) {
  auto spec = LoadScenarioFile(std::string(AETHEREAL_SCENARIO_DIR) +
                               "/mixed_star.scn");
  ASSERT_TRUE(spec.ok()) << spec.status();
  const ScenarioResult result = MustRun(*spec);

  const std::string json = result.ToJson();
  EXPECT_NE(json.find("\"schema_version\": 2"), std::string::npos);
  EXPECT_NE(json.find("\"histograms\""), std::string::npos);
  EXPECT_NE(json.find("\"flit_latency\""), std::string::npos);
  EXPECT_NE(json.find("\"buckets\""), std::string::npos);

  for (const FlowResult& flow : result.flows) {
    if (flow.latency.count == 0) continue;
    // The summary percentiles are nearest-rank over the raw samples.
    ASSERT_EQ(static_cast<std::int64_t>(flow.latency_samples.size()),
              flow.latency.count);
    std::vector<double> sorted = flow.latency_samples;
    std::sort(sorted.begin(), sorted.end());
    EXPECT_EQ(flow.latency.p50, SortedPercentile(sorted, 50.0));
    EXPECT_EQ(flow.latency.p95, SortedPercentile(sorted, 95.0));
    EXPECT_EQ(flow.latency.p99, SortedPercentile(sorted, 99.0));
    EXPECT_LE(flow.latency.min, flow.latency.p50);
    EXPECT_LE(flow.latency.p50, flow.latency.p95);
    EXPECT_LE(flow.latency.p95, flow.latency.p99);
    EXPECT_LE(flow.latency.p99, flow.latency.max);
  }
}

TEST(ObsOnTest, PhasedRunsCarryExactPerPhasePercentiles) {
  auto spec = LoadScenarioFile(std::string(AETHEREAL_SCENARIO_DIR) +
                               "/video_to_memory_switch.scn");
  ASSERT_TRUE(spec.ok()) << spec.status();
  const ScenarioResult result = MustRun(*spec);

  ASSERT_FALSE(result.phases.empty());
  bool any_phase_latency = false;
  for (const PhaseResult& phase : result.phases) {
    if (phase.latency_count == 0) continue;
    any_phase_latency = true;
    EXPECT_LE(phase.latency_p50, phase.latency_p95);
    EXPECT_LE(phase.latency_p95, phase.latency_p99);
    EXPECT_GT(phase.latency_mean, 0.0);
  }
  EXPECT_TRUE(any_phase_latency);

  for (const FlowResult& flow : result.flows) {
    for (const PhaseFlowStats& ps : flow.phase_stats) {
      if (ps.latency_count == 0) continue;
      EXPECT_LE(ps.latency_p50, ps.latency_p95);
      EXPECT_LE(ps.latency_p95, ps.latency_p99);
      EXPECT_GE(ps.latency_p50, flow.latency.min);
      EXPECT_LE(ps.latency_p99, flow.latency.max);
    }
  }
}

// --- tracing --------------------------------------------------------------

TEST(ObsOnTest, TraceFileAtDefaultCapHasZeroDrops) {
  auto spec = LoadScenarioFile(std::string(AETHEREAL_SCENARIO_DIR) +
                               "/mixed_star.scn");
  ASSERT_TRUE(spec.ok()) << spec.status();
  spec->obs.trace_path = TempPath("obs_trace_default_cap.json");
  MustRun(*spec);

  const std::string trace = ReadFile(spec->obs.trace_path);
  EXPECT_NE(trace.find("\"traceEvents\""), std::string::npos);
  EXPECT_NE(trace.find("\"drop_accounting\""), std::string::npos);
  EXPECT_NE(trace.find("\"name\":\"inject\""), std::string::npos);
  EXPECT_NE(trace.find("\"name\":\"eject\""), std::string::npos);
  EXPECT_NE(trace.find("\"name\":\"gt_fire\""), std::string::npos);
  for (int c = 0; c < obs::kNumTraceCats; ++c) {
    const std::string key =
        std::string("\"") +
        obs::TraceCatName(static_cast<obs::TraceCat>(c)) + "_dropped\":0";
    EXPECT_NE(trace.find(key), std::string::npos)
        << "nonzero drops for " << key << " at the default cap";
  }
}

TEST(ObsOnTest, TinyCapAccountsItsDrops) {
  auto spec = LoadScenarioFile(std::string(AETHEREAL_SCENARIO_DIR) +
                               "/mixed_star.scn");
  ASSERT_TRUE(spec.ok()) << spec.status();
  spec->obs.trace_path = TempPath("obs_trace_tiny_cap.json");
  spec->obs.trace_cap = 8;
  MustRun(*spec);

  const std::string trace = ReadFile(spec->obs.trace_path);
  // The flit ring overflows by orders of magnitude at cap 8; the
  // accounting event must say so (flit_dropped > 0).
  const std::string key = "\"flit_dropped\":";
  const std::size_t at = trace.find(key);
  ASSERT_NE(at, std::string::npos);
  EXPECT_NE(trace[at + key.size()], '0');
  // And the held events per category stay within the cap: count the
  // flit-category event lines.
  std::int64_t flit_lines = 0;
  for (std::size_t pos = trace.find("\"cat\":\"flit\"");
       pos != std::string::npos;
       pos = trace.find("\"cat\":\"flit\"", pos + 1)) {
    ++flit_lines;
  }
  EXPECT_LE(flit_lines, 8);
  EXPECT_GT(flit_lines, 0);
}

TEST(ObsOnTest, PhasedTraceRecordsConfigAndPhaseEvents) {
  auto spec = LoadScenarioFile(std::string(AETHEREAL_SCENARIO_DIR) +
                               "/video_to_memory_switch.scn");
  ASSERT_TRUE(spec.ok()) << spec.status();
  spec->obs.trace_path = TempPath("obs_trace_phased.json");
  MustRun(*spec);

  const std::string trace = ReadFile(spec->obs.trace_path);
  for (const char* needle :
       {"\"name\":\"begin\"", "\"name\":\"end\"", "\"name\":\"drain_begin\"",
        "\"name\":\"drain_end\"", "\"name\":\"open\"",
        "\"name\":\"close\""}) {
    EXPECT_NE(trace.find(needle), std::string::npos)
        << "phased trace misses " << needle;
  }
}

// --- the shared percentile formula ----------------------------------------

TEST(StatsPercentileTest, PercentileKeepsInsertionOrder) {
  Stats stats;
  // Two "phases": 50 samples descending, then 30 ascending — insertion
  // order deliberately unsorted.
  for (int i = 50; i >= 1; --i) stats.Add(i);
  for (int i = 101; i <= 130; ++i) stats.Add(i);

  // Whole-population percentile agrees with the free-function formula.
  std::vector<double> all = stats.samples();
  std::sort(all.begin(), all.end());
  EXPECT_EQ(stats.Percentile(95.0), SortedPercentile(all, 95.0));

  // Percentile() must not disturb insertion order (it selects from a
  // copy), which the per-phase windows rely on.
  EXPECT_EQ(stats.samples().front(), 50.0);
  EXPECT_EQ(stats.samples().back(), 130.0);
}

}  // namespace
}  // namespace aethereal::scenario
