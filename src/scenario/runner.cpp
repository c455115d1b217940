#include "scenario/runner.h"

#include <algorithm>
#include <array>
#include <cmath>
#include <sstream>
#include <tuple>

#include "fault/injector.h"
#include "link/header.h"
#include "scenario/wiring.h"
#include "topology/builders.h"
#include "util/check.h"
#include "util/json.h"
#include "util/stats.h"
#include "verify/monitor.h"

namespace aethereal::scenario {

namespace {

/// The summary of a finished flow's `stats`, whose samples it moves into
/// `samples` (the result's one copy): min, mean and max are taken before
/// the move, the percentiles selected in place after it, so `samples`
/// ends reordered.
LatencySummary Summarize(Stats* stats, std::vector<double>* samples) {
  LatencySummary s;
  s.count = stats->count();
  if (!stats->empty()) {
    s.min = stats->Min();
    s.mean = stats->Mean();
    s.max = stats->Max();
  }
  *samples = stats->TakeSamples();
  if (!samples->empty()) {
    const TailPercentiles tail = SelectTailPercentiles(*samples);
    s.p50 = tail.p50;
    s.p95 = tail.p95;
    s.p99 = tail.p99;
  }
  return s;
}

void WriteLatency(JsonWriter& w, const LatencySummary& latency) {
  w.BeginObject();
  w.Key("count").Int(latency.count);
  if (latency.count > 0) {
    w.Key("min").Double(latency.min);
    w.Key("mean").Double(latency.mean);
    w.Key("p50").Double(latency.p50);
    w.Key("p95").Double(latency.p95);
    w.Key("p99").Double(latency.p99);
    w.Key("max").Double(latency.max);
  }
  w.EndObject();
}

/// One histogram summary of the `histograms` result section: exact
/// nearest-rank percentiles over the merged population plus power-of-two
/// latency buckets ([2^k, 2^(k+1)) cycles; a latency below one cycle lands
/// in a [0, 1) bucket). Only non-empty buckets are emitted.
void WriteHistogram(JsonWriter& w, const CycleCounts& counts) {
  w.BeginObject();
  w.Key("count").Int(counts.count());
  if (!counts.empty()) {
    const TailPercentiles tail = counts.Tail();
    w.Key("min").Double(counts.Min());
    w.Key("mean").Double(counts.Mean());
    w.Key("p50").Double(tail.p50);
    w.Key("p95").Double(tail.p95);
    w.Key("p99").Double(tail.p99);
    w.Key("max").Double(counts.Max());
    // Bucket k + 1 counts [2^k, 2^(k+1)); bucket 0 is the sub-cycle one.
    const std::array<std::int64_t, CycleCounts::kBuckets> buckets =
        counts.Buckets();
    w.Key("buckets").BeginArray();
    for (int k = -1; k < 64; ++k) {
      const std::int64_t count = buckets[static_cast<std::size_t>(k + 1)];
      if (count == 0) continue;
      w.BeginObject();
      w.Key("lo").Double(k < 0 ? 0.0
                               : static_cast<double>(std::int64_t{1} << k));
      w.Key("hi").Double(static_cast<double>(std::int64_t{1} << (k + 1)));
      w.Key("count").Int(count);
      w.EndObject();
    }
    w.EndArray();
  }
  w.EndObject();
}

/// Fills the latency fields PhaseResult and PhaseFlowStats share from
/// one window's latency counts.
template <typename Window>
void SummarizeWindowLatency(const CycleCounts& counts, Window* window) {
  window->latency_count = counts.count();
  if (counts.empty()) return;
  window->latency_mean = counts.Mean();
  const TailPercentiles tail = counts.Tail();
  window->latency_p50 = tail.p50;
  window->latency_p95 = tail.p95;
  window->latency_p99 = tail.p99;
}

template <typename Window>
void WriteWindowLatency(JsonWriter& w, const Window& window) {
  w.Key("latency_count").Int(window.latency_count);
  if (window.latency_count == 0) return;
  w.Key("latency_mean").Double(window.latency_mean);
  w.Key("latency_p50").Double(window.latency_p50);
  w.Key("latency_p95").Double(window.latency_p95);
  w.Key("latency_p99").Double(window.latency_p99);
}

/// Memory traffic uses the general transaction generator; translate the
/// scenario injection clauses into its pattern.
ip::TrafficPattern MemoryPattern(const TrafficSpec& traffic) {
  ip::TrafficPattern pattern;
  switch (traffic.inject) {
    case InjectKind::kPeriodic:
      pattern.kind = ip::TrafficPattern::Kind::kFixedPeriod;
      pattern.period = traffic.period;
      break;
    case InjectKind::kBernoulli:
      pattern.kind = ip::TrafficPattern::Kind::kBernoulli;
      pattern.rate = traffic.rate;
      break;
    case InjectKind::kClosedLoop:
      pattern.kind = ip::TrafficPattern::Kind::kClosedLoop;
      break;
    case InjectKind::kBursty:
      AETHEREAL_CHECK_MSG(false, "bursty memory traffic rejected at parse");
  }
  pattern.read_fraction = traffic.read_fraction;
  pattern.burst_words = traffic.mem_burst_words;
  return pattern;
}

/// Collects the monitor's recorded violations, plus the beyond-cap notes.
/// Violations the monitor classified as fault-induced land in
/// `degradations` when it is non-null (network faults armed), in
/// `problems` otherwise.
void AppendMonitorProblems(verify::Monitor* monitor,
                           std::vector<std::string>* problems,
                           std::vector<std::string>* degradations) {
  monitor->Finalize();
  std::int64_t recorded_unexplained = 0;
  std::int64_t recorded_fault = 0;
  for (const verify::Violation& v : monitor->violations()) {
    std::ostringstream oss;
    oss << "[cycle " << v.cycle << "] " << v.check << ": " << v.message;
    if (v.fault_induced && degradations != nullptr) {
      ++recorded_fault;
      degradations->push_back(oss.str());
    } else {
      if (!v.fault_induced) ++recorded_unexplained;
      problems->push_back(oss.str());
    }
  }
  // The recorded list is capped; the per-class counters are not. Surface
  // any overflow on the side it belongs to.
  if (monitor->unexplained_violations() > recorded_unexplained) {
    std::ostringstream oss;
    oss << "monitor recorded "
        << monitor->unexplained_violations() - recorded_unexplained
        << " further unexplained violation(s) beyond the cap";
    problems->push_back(oss.str());
  }
  if (degradations != nullptr &&
      monitor->fault_violations() > recorded_fault) {
    std::ostringstream oss;
    oss << "monitor recorded "
        << monitor->fault_violations() - recorded_fault
        << " further fault-induced violation(s) beyond the cap";
    degradations->push_back(oss.str());
  }
}

/// Whole-run NI-level aggregates and slot utilization. The NI kernel
/// accounts a slot at every cycle divisible by kFlitWords starting at
/// cycle 0, hence the ceiling division.
void AggregateNiStats(soc::Soc* soc, int num_nis, ScenarioResult* result) {
  for (NiId ni = 0; ni < static_cast<NiId>(num_nis); ++ni) {
    const core::NiKernelStats& stats = soc->ni(ni)->stats();
    result->gt_flits += stats.gt_flits;
    result->be_flits += stats.be_flits;
    result->payload_words_sent += stats.payload_words_sent;
    result->credit_only_packets += stats.credit_only_packets;
    result->credits_piggybacked += stats.credits_piggybacked;
    result->idle_slots += stats.idle_slots;
    result->gt_slots_unused += stats.gt_slots_unused;
  }
  const std::int64_t slot_opportunities =
      static_cast<std::int64_t>(num_nis) *
      ((result->cycles_run + kFlitWords - 1) / kFlitWords);
  result->slot_utilization =
      slot_opportunities > 0
          ? 1.0 -
                static_cast<double>(result->idle_slots) / slot_opportunities
          : 0.0;
}

/// In-flight allowance for the throughput floor of one GT hop: words
/// legitimately parked in the source and destination queues, the network
/// pipeline, and the current (partial) table rotation at either window
/// boundary.
std::int64_t HopSlackWords(const verify::GtBound& bound, int queue_words) {
  return 2 * static_cast<std::int64_t>(queue_words) +
         static_cast<std::int64_t>(bound.hops + 2) * kFlitWords +
         2 * bound.words_per_rotation + 2 * kFlitWords;
}

/// Formats the verify-mode problem list into the run error.
Status VerificationError(const std::string& name,
                         const std::vector<std::string>& problems) {
  std::ostringstream oss;
  oss << "verification failed for scenario '" << name << "' ("
      << problems.size() << " problem(s)):";
  const std::size_t shown = std::min<std::size_t>(problems.size(), 8);
  for (std::size_t i = 0; i < shown; ++i) {
    oss << "\n  " << problems[i];
  }
  if (problems.size() > shown) {
    oss << "\n  ... and " << problems.size() - shown << " more";
  }
  return VerificationFailedError(oss.str());
}

}  // namespace

ScenarioRunner::ScenarioRunner(ScenarioSpec spec) : spec_(std::move(spec)) {}
ScenarioRunner::~ScenarioRunner() = default;

Status ScenarioRunner::BuildTopologyAndSoc(
    const std::vector<std::vector<Flow>>& flows_by_group) {
  // Channels per NI: one per flow endpoint, assigned in directive order
  // (this ordering is part of the scenario's deterministic identity).
  // Phased scenarios additionally provision the configuration plumbing
  // FIRST (lowest connids): one channel per remote NI at the Cfg NI, and
  // one CNIP channel (connid 0) at every other NI.
  std::vector<int> channels(static_cast<std::size_t>(spec_.NumNis()), 0);
  for (std::size_t n = 0; n < channels.size(); ++n) {
    channels[n] = spec_.ConfigChannelsOf(static_cast<NiId>(n));
  }
  for (const auto& flows : flows_by_group) {
    for (const Flow& flow : flows) {
      ++channels[static_cast<std::size_t>(flow.src)];
      ++channels[static_cast<std::size_t>(flow.dst)];
    }
  }
  // The packet header's qid field addresses at most kMaxQueueId + 1
  // channels per NI; over-subscribed NIs previously aborted inside the
  // NI-kernel constructor instead of failing the build.
  for (std::size_t n = 0; n < channels.size(); ++n) {
    if (channels[n] > link::kMaxQueueId + 1) {
      return InvalidArgumentError(
          "ni" + std::to_string(n) + " needs " +
          std::to_string(channels[n]) + " channels, but the header qid "
          "field addresses at most " +
          std::to_string(link::kMaxQueueId + 1) + " per NI");
    }
  }

  topology::Topology topo;
  switch (spec_.topology) {
    case TopologyKind::kStar:
      topo = topology::BuildStar(spec_.dim_a).topology;
      break;
    case TopologyKind::kMesh:
      topo = topology::BuildMesh(spec_.dim_a, spec_.dim_b,
                                 spec_.nis_per_router)
                 .topology;
      break;
    case TopologyKind::kRing:
      topo = topology::BuildRing(spec_.dim_a, spec_.nis_per_router).topology;
      break;
  }
  AETHEREAL_CHECK(topo.NumNis() == spec_.NumNis());
  if (spec_.fault.has_value()) {
    if (Status s = fault::CheckFaultTargets(*spec_.fault, topo.NumRouters(),
                                            topo.NumNis());
        !s.ok()) {
      return s;
    }
  }

  std::vector<core::NiKernelParams> ni_params;
  for (int count : channels) {
    // NIs no flow touches still get one (idle) channel: the NI kernel is
    // instantiated per NI regardless.
    ni_params.push_back(NiWithChannels(std::max(count, 1), spec_.queue_words,
                                       spec_.stu_slots, "ip"));
  }

  soc::SocOptions options;
  options.net_mhz = spec_.net_mhz;
  // One clock for every IP port, so a flow's source and sink count the
  // same edges and word latencies stay in one unit (IP cycles).
  for (std::size_t n = 0; n < ni_params.size(); ++n) {
    for (std::size_t p = 0; p < ni_params[n].ports.size(); ++p) {
      options.port_mhz[{static_cast<NiId>(n), static_cast<int>(p)}] =
          spec_.IpMhz();
    }
  }
  options.stu_slots = spec_.stu_slots;
  options.engine = spec_.engine;
  options.verify = spec_.verify;
  options.fault = spec_.fault.has_value() ? &*spec_.fault : nullptr;
  // The obs kill switch: a spec without `stats`/`trace` directives passes
  // null and the Soc builds no hub and registers no tap (DESIGN.md §13).
  options.obs = spec_.obs.Enabled() ? &spec_.obs : nullptr;
  soc_ = std::make_unique<soc::Soc>(std::move(topo), std::move(ni_params),
                                    options);
  return OkStatus();
}

config::ConnectionSpec ScenarioRunner::ConnSpecOf(const TrafficSpec& traffic,
                                                  const Hop& hop) const {
  config::ConnectionSpec conn;
  conn.master = tdm::GlobalChannel{hop.flow.src, hop.src_connid};
  conn.slave = tdm::GlobalChannel{hop.flow.dst, hop.dst_connid};
  conn.request.gt = traffic.gt;
  conn.request.gt_slots = traffic.gt_slots;
  conn.request.data_threshold = traffic.data_threshold;
  conn.request.credit_threshold = traffic.credit_threshold;
  // Stream flows send data one way; the reverse channel only returns
  // credits and stays best-effort. Memory flows carry responses back, so
  // a GT request direction gets a GT response direction too.
  if (traffic.pattern == PatternKind::kMemory) {
    conn.response = conn.request;
  }
  return conn;
}

Status ScenarioRunner::Build() {
  if (built_) return OkStatus();

  Rng rng(spec_.seed);
  std::vector<std::vector<Flow>> flows_by_group;
  for (std::size_t g = 0; g < spec_.traffic.size(); ++g) {
    const TrafficSpec& traffic = spec_.traffic[g];
    auto flows = ExpandPattern(spec_, traffic, rng);
    if (!flows.ok()) {
      return Status(flows.status().code(),
                    "traffic directive " + std::to_string(g) + " (" +
                        PatternKindName(traffic.pattern) +
                        "): " + flows.status().message());
    }
    flows_by_group.push_back(std::move(*flows));
  }

  if (Status s = BuildTopologyAndSoc(flows_by_group); !s.ok()) return s;

  const bool phased = spec_.Phased();
  if (phased) {
    // The configuration infrastructure of the Fig. 8/9 flow: config shell
    // + connection manager at the Cfg NI, CNIP slave at every other NI,
    // and the scripted driver that will sequence each transition's ops.
    soc::ConfigSetup setup;
    setup.cfg_ni = spec_.cfg_ni;
    setup.cfg_port = 0;
    int cfg_connid = 0;
    for (NiId n = 0; n < static_cast<NiId>(spec_.NumNis()); ++n) {
      if (n == spec_.cfg_ni) continue;
      setup.cfg_connid_of_ni[n] = cfg_connid++;
      setup.cnip_of_ni[n] = {0, 0};  // port 0, connid 0
    }
    config::ConnectionManager* manager = soc_->EnableConfig(setup);
    driver_ = std::make_unique<config::ScriptedConfigDriver>("config_driver",
                                                             manager);
    soc_->RegisterOnPort(driver_.get(), spec_.cfg_ni, 0);
  }

  // Assign connids in directive order (mirrors the channel counting; in a
  // phased scenario the config channels occupy the lowest connids, so
  // flow connids start above them).
  std::vector<int> next_connid(static_cast<std::size_t>(spec_.NumNis()), 0);
  for (std::size_t n = 0; n < next_connid.size(); ++n) {
    next_connid[n] = spec_.ConfigChannelsOf(static_cast<NiId>(n));
  }
  conns_by_group_.resize(flows_by_group.size());
  open_refs_by_group_.resize(flows_by_group.size());
  for (std::size_t g = 0; g < flows_by_group.size(); ++g) {
    const TrafficSpec& traffic = spec_.traffic[g];
    std::vector<Hop> wired;
    for (const Flow& flow : flows_by_group[g]) {
      Hop w{flow, next_connid[static_cast<std::size_t>(flow.src)]++,
            next_connid[static_cast<std::size_t>(flow.dst)]++,
            static_cast<int>(g)};
      wired.push_back(w);
      hops_.push_back(w);
      const config::ConnectionSpec conn = ConnSpecOf(traffic, w);
      if (phased) {
        // Connections of a phased run are opened at runtime, over the NoC,
        // when their phase begins.
        conns_by_group_[g].push_back(conn);
        continue;
      }
      auto handle = soc_->OpenConnection(conn.master, conn.slave,
                                         conn.request, conn.response);
      if (!handle.ok()) {
        return Status(handle.status().code(),
                      std::string(PatternKindName(traffic.pattern)) +
                          " flow " + std::to_string(flow.src) + "->" +
                          std::to_string(flow.dst) + ": " +
                          handle.status().message());
      }
    }

    // The group's workload IPs. Per-flow RNG seeds are drawn from the
    // master stream in directive order, after all pattern expansions.
    // One result flow per connection, except that a video chain is one
    // flow across all its hops, with relays at the intermediate NIs.
    const std::string tag = "g" + std::to_string(g);
    const bool video = traffic.pattern == PatternKind::kVideo;
    const std::size_t span = video ? wired.size() : 1;
    for (std::size_t first = 0; first < wired.size(); first += span) {
      const Hop& in = wired[first];
      const Hop& out = wired[first + span - 1];
      FlowIps f;
      f.group = g;
      f.hops.assign(wired.begin() + static_cast<std::ptrdiff_t>(first),
                    wired.begin() + static_cast<std::ptrdiff_t>(first + span));
      if (traffic.pattern == PatternKind::kMemory) {
        f.burst_words = traffic.mem_burst_words;
        f.master_shell = std::make_unique<shells::MasterShell>(
            tag + "_master_shell", soc_->port(in.flow.src, 0), in.src_connid);
        f.master = std::make_unique<ip::TrafficGenMaster>(
            tag + "_master", f.master_shell.get(), MemoryPattern(traffic),
            rng.Next());
        f.slave_shell = std::make_unique<shells::SlaveShell>(
            tag + "_slave_shell", soc_->port(in.flow.dst, 0), in.dst_connid);
        f.memory = std::make_unique<ip::MemorySlave>(
            tag + "_memory", f.slave_shell.get(), /*base=*/0,
            /*size_words=*/1024);
        soc_->RegisterOnPort(f.master_shell.get(), in.flow.src, 0);
        soc_->RegisterOnPort(f.master.get(), in.flow.src, 0);
        soc_->RegisterOnPort(f.slave_shell.get(), in.flow.dst, 0);
        soc_->RegisterOnPort(f.memory.get(), in.flow.dst, 0);
      } else {
        const std::string label =
            tag + (video ? "_video" : "f" + std::to_string(first));
        Rng flow_rng(rng.Next());
        const ip::Injection injection = StreamInjection(traffic, flow_rng);
        f.source = std::make_unique<ip::StreamSource>(
            label + "_src", soc_->port(in.flow.src, 0), in.src_connid,
            injection, flow_rng);
        soc_->RegisterOnPort(f.source.get(), in.flow.src, 0);
        for (std::size_t h = first; h + 1 < first + span; ++h) {
          const NiId at = wired[h].flow.dst;
          auto relay = std::make_unique<ip::Relay>(
              tag + "_relay" + std::to_string(h), soc_->port(at, 0),
              wired[h].dst_connid, wired[h + 1].src_connid);
          soc_->RegisterOnPort(relay.get(), at, 0);
          f.relays.push_back(std::move(relay));
        }
        f.consumer = std::make_unique<ip::StreamConsumer>(
            label + "_sink", soc_->port(out.flow.dst, 0), out.dst_connid,
            /*drain_per_cycle=*/video ? 1 : kFlitWords);
        soc_->RegisterOnPort(f.consumer.get(), out.flow.dst, 0);
      }
      // A phased flow stays silent until its phase begins.
      if (phased) f.SetActive(false, 0);
      flows_.push_back(std::move(f));
    }
  }
  // Measurement order: streams, then video chains, then memory flows,
  // each in directive order.
  auto rank = [&](const FlowIps& f) {
    const PatternKind pattern = spec_.traffic[f.group].pattern;
    return pattern == PatternKind::kMemory ? 2
           : pattern == PatternKind::kVideo ? 1
                                            : 0;
  };
  std::vector<FlowIps> measurement_order;
  for (int r = 0; r < 3; ++r) {
    for (FlowIps& f : flows_) {
      if (rank(f) == r) measurement_order.push_back(std::move(f));
    }
  }
  flows_ = std::move(measurement_order);

  built_ = true;
  return OkStatus();
}

std::int64_t ScenarioRunner::FlowIps::Delivered() const {
  return master != nullptr ? master->completed() * burst_words
                           : consumer->words_read();
}

std::int64_t ScenarioRunner::FlowIps::Admitted() const {
  return master != nullptr ? master->issued() : source->words_written();
}

const Stats& ScenarioRunner::FlowIps::Latency() const {
  return master != nullptr ? master->latency() : consumer->latency();
}

Stats* ScenarioRunner::FlowIps::MutableLatency() {
  return master != nullptr ? master->mutable_latency()
                           : consumer->mutable_latency();
}

void ScenarioRunner::FlowIps::SetActive(bool active, Cycle now) {
  if (master != nullptr && active) {
    master->Activate(now);
  } else if (master != nullptr) {
    master->Deactivate();
  } else if (active) {
    source->Activate(now);
  } else {
    source->Deactivate();
  }
}

bool ScenarioRunner::FlowIps::Drained() const {
  return master != nullptr
             ? master->outstanding() == 0
             : consumer->words_read() == source->words_written();
}

bool ScenarioRunner::SilenceAndDrain(Cycle max_cycles) {
  AETHEREAL_CHECK_MSG(ran_, "SilenceAndDrain follows Run()");
  for (FlowIps& f : flows_) f.SetActive(false, 0);
  auto drained = [&] {
    return std::all_of(flows_.begin(), flows_.end(),
                       [](const FlowIps& f) { return f.Drained(); });
  };
  for (Cycle spent = 0; !drained() && spent < max_cycles; ++spent) {
    soc_->RunCycles(1);
  }
  return drained();
}

std::vector<const sim::Module*> ScenarioRunner::TransactionModules() const {
  std::vector<const sim::Module*> modules;
  for (const FlowIps& f : flows_) {
    if (f.master == nullptr) continue;
    modules.insert(modules.end(), {f.master_shell.get(), f.master.get(),
                                   f.slave_shell.get(), f.memory.get()});
  }
  if (soc_ != nullptr) {
    const std::vector<const sim::Module*> config = soc_->ConfigModules();
    modules.insert(modules.end(), config.begin(), config.end());
  }
  return modules;
}

Result<ScenarioResult> ScenarioRunner::Run() {
  AETHEREAL_CHECK_MSG(!ran_, "ScenarioRunner::Run is single-shot");
  if (Status s = Build(); !s.ok()) return s;
  ran_ = true;
  auto now = [&] { return soc_->net_clock()->cycles(); };
  const bool phased = spec_.Phased();
  const std::vector<PhaseSpec> windows = spec_.Windows();
  const stats_ctl::ConvergeSpec& cv = spec_.converge;
  obs::ObsHub* obs_hub = soc_->obs_hub();
  const std::size_t n = flows_.size();

  ScenarioResult result;
  result.spec = spec_;
  std::vector<PhaseResult> window_results;
  // Per flow: delivered words summed over the windows it is active in,
  // and (phased only) its per-window slices.
  std::vector<std::int64_t> window_words(n, 0);
  std::vector<std::vector<PhaseFlowStats>> phase_stats(n);

  // Verify mode: the GT throughput floor of every active GT stream and
  // chain in every window, evaluated at the end. The guaranteed rate is
  // taken at window start, from the slot tables in force in the window.
  struct WindowCheck {
    std::size_t flow = 0;
    std::size_t window = 0;
    double guaranteed_wpc = 0;
    std::int64_t slack = 0;
    std::int64_t admitted = 0;
    std::int64_t delivered = 0;
    Cycle duration = 0;
  };
  std::vector<WindowCheck> window_checks;

  for (std::size_t k = 0; k < windows.size(); ++k) {
    const PhaseSpec& phase = windows[k];
    auto active = [&](const FlowIps& f) {
      return spec_.traffic[f.group].ActiveIn(static_cast<int>(k));
    };
    if (phased) {
      TransitionResult tr;
      if (Status s = EnterPhase(k, &tr); !s.ok()) return s;
      result.transitions.push_back(std::move(tr));
    }

    // Settle: the scenario-level warmup comes before the first window,
    // each declared phase's own warmup before its window.
    stats_ctl::ConvergenceOutcome conv;
    conv.warmup_cycles = (k == 0 ? spec_.warmup : Cycle{0}) + phase.warmup;
    soc_->RunCycles(conv.warmup_cycles);
    if (cv.enabled && cv.auto_warmup && !phased) {
      // Welch-style warmup extension of the implicit phase (declared
      // phases keep their declared warmups — reconfiguration transients
      // are what those are for): keep settling in short steps until the
      // trailing per-step latency means AND delivered-word counts stop
      // drifting (WarmupDetector's half-vs-half test), or the extension
      // budget (the measured-cycle cap) is spent. The settle step is a
      // quarter of the measurement interval: the detector needs
      // 2 * warmup_windows observations before it can fire at all, and at
      // full-interval steps that alone would exceed the declared duration.
      // All inputs are committed simulation state, so the extension stops
      // at the same cycle on every engine.
      const Cycle interval =
          std::max<Cycle>(cv.IntervalFor(phase.duration) / 4, 1);
      const Cycle extend_cap = cv.MaxDurationFor(phase.duration);
      stats_ctl::WarmupDetector det(cv.warmup_windows, cv.warmup_tol);
      auto totals = [&]() {
        std::int64_t count = 0;
        double sum = 0;
        std::int64_t words = 0;
        for (const FlowIps& f : flows_) {
          count += f.Latency().count();
          sum += f.Latency().Sum();
          words += f.Delivered();
        }
        return std::tuple<std::int64_t, double, std::int64_t>(count, sum,
                                                              words);
      };
      auto [pc, ps, pw] = totals();
      Cycle extended = 0;
      while (!det.warm() && extended < extend_cap) {
        soc_->RunCycles(interval);
        extended += interval;
        auto [cc, cs, w] = totals();
        const std::int64_t dn = cc - pc;
        det.Observe(dn > 0 ? (cs - ps) / static_cast<double>(dn) : 0.0,
                    static_cast<double>(w - pw));
        pc = cc;
        ps = cs;
        pw = w;
      }
      conv.warmup_detected = det.warm();
      conv.warmup_cycles += extended;
    }

    // Window baselines. The flows' Stats keep their samples in insertion
    // order, so [lat_count, count) is exactly this window's population.
    PhaseResult pr;
    pr.name = phase.name;
    pr.duration = phase.duration;
    pr.window_start = now();
    struct Snap {
      std::int64_t delivered = 0, admitted = 0, lat_count = 0;
    };
    std::vector<Snap> snap(n);
    for (std::size_t i = 0; i < n; ++i) {
      const FlowIps& f = flows_[i];
      snap[i] = Snap{f.Delivered(), f.Admitted(), f.Latency().count()};
    }
    const std::size_t first_check = window_checks.size();
    if (spec_.verify) {
      for (std::size_t i = 0; i < n; ++i) {
        const FlowIps& f = flows_[i];
        if (!spec_.traffic[f.group].gt || f.master != nullptr || !active(f)) {
          continue;
        }
        // A chain is as fast as its slowest hop and parks words in all.
        WindowCheck check;
        check.flow = i;
        check.window = k;
        for (std::size_t h = 0; h < f.hops.size(); ++h) {
          const verify::GtBound bound = BoundOfHop(f.group, f.hops[h]).bound;
          check.guaranteed_wpc =
              h == 0 ? bound.min_throughput_wpc
                     : std::min(check.guaranteed_wpc, bound.min_throughput_wpc);
          check.slack += HopSlackWords(bound, spec_.queue_words);
        }
        window_checks.push_back(check);
      }
    }

    if (obs_hub != nullptr) {
      obs_hub->NotePhase(obs::kPhaseBegin, now(), static_cast<int>(k));
    }
    if (!cv.enabled) {
      soc_->RunCycles(phase.duration);
    } else {
      // Stop-on-convergence window: run in check-interval steps; after
      // each, form the batch-means CI over the window's samples (every
      // active flow since its baseline, concatenated in measurement
      // order). Stop once the interval is trustworthy (valid batches,
      // batch means not strongly lag-1 correlated) AND tight enough, or
      // at the cycle cap. Phases converge independently: their traffic
      // mixes differ, so pooling samples across windows is meaningless.
      const Cycle interval = cv.IntervalFor(phase.duration);
      const Cycle cap = cv.MaxDurationFor(phase.duration);
      Cycle run = 0;
      std::vector<double> samples;
      while (true) {
        const Cycle step = std::min(interval, cap - run);
        soc_->RunCycles(step);
        run += step;
        samples.clear();
        for (std::size_t i = 0; i < n; ++i) {
          if (!active(flows_[i])) continue;
          const std::vector<double>& all = flows_[i].Latency().samples();
          samples.insert(samples.end(),
                         all.begin() +
                             static_cast<std::ptrdiff_t>(snap[i].lat_count),
                         all.end());
        }
        conv.ci = stats_ctl::BatchMeansCi(samples, 0, samples.size(),
                                          cv.batches, cv.conf);
        if (conv.ci.valid && conv.ci.rel_err <= cv.rel_err &&
            std::fabs(conv.ci.lag1) <= cv.lag1_limit) {
          conv.converged = true;
          break;
        }
        if (run >= cap) break;
      }
      conv.measured_cycles = run;
      pr.duration = run;
      pr.convergence = conv;
    }
    if (obs_hub != nullptr) {
      obs_hub->NotePhase(obs::kPhaseEnd, now(), static_cast<int>(k));
    }

    // Window accounting. The per-window latency summaries are reported for
    // declared phases only (the implicit phase's are the flows' own), so a
    // static run skips their counting.
    CycleCounts phase_latency;
    for (std::size_t i = 0; i < n; ++i) {
      const FlowIps& f = flows_[i];
      if (!active(f)) continue;
      const std::int64_t words = f.Delivered() - snap[i].delivered;
      window_words[i] += words;
      pr.words_in_window += words;
      if (!phased) continue;
      const Stats& lat = f.Latency();
      PhaseFlowStats ps;
      ps.phase = static_cast<int>(k);
      ps.words = words;
      ps.throughput_wpc =
          static_cast<double>(words) / static_cast<double>(pr.duration);
      CycleCounts window;
      window.AddSamples(lat.samples(),
                        static_cast<std::size_t>(snap[i].lat_count));
      SummarizeWindowLatency(window, &ps);
      phase_latency.Merge(window);
      phase_stats[i].push_back(ps);
    }
    for (std::size_t c = first_check; c < window_checks.size(); ++c) {
      WindowCheck& check = window_checks[c];
      const FlowIps& f = flows_[check.flow];
      check.admitted = f.Admitted() - snap[check.flow].admitted;
      check.delivered = f.Delivered() - snap[check.flow].delivered;
      check.duration = pr.duration;
    }
    pr.throughput_wpc = static_cast<double>(pr.words_in_window) /
                        static_cast<double>(pr.duration);
    SummarizeWindowLatency(phase_latency, &pr);
    window_results.push_back(std::move(pr));
  }

  // --- whole-run assembly ---------------------------------------------------
  result.cycles_run = now();
  // Cycles actually measured: the sum of the windows run, which is the
  // spec's TotalDuration() exactly in fixed-duration mode.
  Cycle measured = 0;
  for (const PhaseResult& w : window_results) measured += w.duration;
  if (cv.enabled && !phased) {
    result.convergence = window_results.front().convergence;
  } else if (cv.enabled) {
    // Roll-up: the run converged iff every window did; the per-window CIs
    // stay on their PhaseResults (phase 0's warmup_cycles already carries
    // the scenario-level warmup, so the sum is the total settle time).
    stats_ctl::ConvergenceOutcome conv;
    conv.converged = true;
    conv.measured_cycles = measured;
    for (const PhaseResult& p : window_results) {
      conv.converged = conv.converged && p.convergence->converged;
      conv.warmup_cycles += p.convergence->warmup_cycles;
    }
    result.convergence = conv;
  }
  if (phased) result.phases = std::move(window_results);

  // Flow results in directive order (flows_ is in measurement order);
  // result_of[i] is flow i's index among them.
  std::vector<std::size_t> result_of(n);
  for (std::size_t g = 0; g < spec_.traffic.size(); ++g) {
    for (std::size_t i = 0; i < n; ++i) {
      if (flows_[i].group != g) continue;
      FlowIps& f = flows_[i];
      const TrafficSpec& traffic = spec_.traffic[f.group];
      FlowResult r;
      r.pattern = PatternKindName(traffic.pattern);
      r.group = static_cast<int>(f.group);
      r.src = f.src();
      r.dst = f.dst();
      r.gt = traffic.gt;
      r.gt_slots = traffic.gt_slots;
      r.phase = traffic.phase;
      r.persist = traffic.persist;
      if (f.master != nullptr) {
        r.transactions_issued = f.master->issued();
        r.transactions_completed = f.master->completed();
      }
      r.words_total = f.Delivered();
      r.words_in_window = window_words[i];
      r.throughput_wpc = static_cast<double>(r.words_in_window) /
                         static_cast<double>(measured);
      r.latency = Summarize(f.MutableLatency(), &r.latency_samples);
      r.phase_stats = std::move(phase_stats[i]);
      result.words_in_window += r.words_in_window;
      result_of[i] = result.flows.size();
      result.flows.push_back(std::move(r));
    }
  }
  result.throughput_wpc = static_cast<double>(result.words_in_window) /
                          static_cast<double>(measured);

  AggregateNiStats(soc_.get(), spec_.NumNis(), &result);

  std::vector<std::string> degradations;
  std::vector<std::string> problems;
  if (spec_.verify) {
    const bool fault_aware =
        spec_.fault.has_value() && spec_.fault->AnyNetworkFaults();
    verify::Monitor* monitor = soc_->monitor();
    AETHEREAL_CHECK(monitor != nullptr);
    AppendMonitorProblems(monitor, &problems,
                          fault_aware ? &degradations : nullptr);
    // Armed network faults legitimately eat into the GT floors (and NI
    // stalls stretch word latency), so those shortfalls degrade instead of
    // fail.
    std::vector<std::string>* gt_sink =
        fault_aware ? &degradations : &problems;
    for (const WindowCheck& check : window_checks) {
      // The flow must deliver whatever it admitted, or at least the slot
      // tables' guaranteed rate, minus the in-flight allowance.
      const FlowIps& f = flows_[check.flow];
      const bool video = spec_.traffic[f.group].pattern == PatternKind::kVideo;
      const auto guaranteed_words = static_cast<std::int64_t>(
          check.guaranteed_wpc * static_cast<double>(check.duration));
      const std::int64_t floor =
          std::min(check.admitted, guaranteed_words) - check.slack;
      if (check.delivered < floor) {
        std::ostringstream oss;
        oss << "gt-throughput: " << (video ? "video" : "stream") << " g"
            << f.group << " " << f.src() << "->" << f.dst()
            << " delivered " << check.delivered
            << " words "
            << (phased ? "in phase '" + windows[check.window].name + "'"
                       : std::string("in the window"))
            << "; floor is min(admitted " << check.admitted
            << ", guaranteed " << guaranteed_words << ") - slack "
            << check.slack;
        gt_sink->push_back(oss.str());
      }
      if (!phased && !video) {
        CheckGtLatency(f, result.flows[result_of[check.flow]].latency,
                       gt_sink);
      }
    }
    // Sanity: a memory master never completes more than it issued, and a
    // consumer never reads more than its producer wrote (whole-run
    // totals; flit integrity is the monitor's job).
    for (const FlowIps& f : flows_) {
      std::ostringstream oss;
      if (f.master != nullptr && f.master->completed() > f.master->issued()) {
        oss << "transaction-ordering: memory g" << f.group << " completed "
            << f.master->completed() << " transactions but only issued "
            << f.master->issued();
      } else if (f.source != nullptr &&
                 f.consumer->words_read() > f.source->words_written()) {
        const bool video =
            spec_.traffic[f.group].pattern == PatternKind::kVideo;
        oss << "flit-integrity: " << (video ? "video" : "stream") << " g"
            << f.group << " " << f.src() << "->" << f.dst() << " read "
            << f.consumer->words_read()
            << " words but the source only wrote "
            << f.source->words_written();
      } else {
        continue;
      }
      problems.push_back(oss.str());
    }
  }
  FillFaultResult(std::move(degradations), &result, &problems);
  if (!problems.empty()) return VerificationError(spec_.name, problems);
  if (Status s = FinalizeObsIntoResult(&result); !s.ok()) return s;
  return result;
}

GtFlowBound ScenarioRunner::BoundOfHop(std::size_t group, const Hop& hop) {
  const Flow& flow = hop.flow;
  GtFlowBound report;
  report.group = static_cast<int>(group);
  report.src = flow.src;
  report.dst = flow.dst;
  const ChannelId flat =
      soc_->port(flow.src, 0)->GlobalChannelOf(hop.src_connid);
  const tdm::GlobalChannel channel{flow.src, flat};
  auto route = soc_->topology().Route(flow.src, flow.dst);
  AETHEREAL_CHECK(route.ok());  // the connection was opened over it
  const tdm::SlotTable& table = soc_->allocator().TableOf(route->links[0]);
  report.bound = verify::ComputeGtBound(
      table.SlotsOf(channel), spec_.stu_slots,
      static_cast<int>(route->hops.size()),
      soc_->ni(flow.src)->params().max_packet_flits);
  return report;
}

Result<std::vector<GtFlowBound>> ScenarioRunner::ComputeGtBounds() {
  if (spec_.Phased()) {
    return FailedPreconditionError(
        "GT bounds of a phased scenario are phase-dependent (connections "
        "open and close at runtime); run it with verify on instead — the "
        "verified run checks each phase window against the tables then in "
        "force");
  }
  if (Status s = Build(); !s.ok()) return s;
  std::vector<GtFlowBound> bounds;
  for (const FlowIps& f : flows_) {
    if (!spec_.traffic[f.group].gt) continue;
    for (const Hop& hop : f.hops) bounds.push_back(BoundOfHop(f.group, hop));
  }
  return bounds;
}

void ScenarioRunner::SetGroupActive(std::size_t group, bool active) {
  // The sources schedule in IP cycles, so activate them at the IP clock's
  // count (every IP port shares one clock).
  const Cycle now = soc_->port_clock(0, 0)->cycles();
  for (FlowIps& f : flows_) {
    if (f.group == group) f.SetActive(active, now);
  }
}

bool ScenarioRunner::GroupDrained(std::size_t group) const {
  // Every word the (now silent) sources ever wrote must have reached its
  // consumer...
  for (const FlowIps& f : flows_) {
    if (f.group == group && !f.Drained()) return false;
  }
  // ... and every credit must have returned: each channel's Space counter
  // reads full again (phased directives pin credit_threshold to 1, so no
  // credit can linger below a reporting threshold). Only then can the
  // close disable the channels with nothing of this connection in flight.
  for (const config::ConnectionSpec& conn : conns_by_group_[group]) {
    if (soc_->ni(conn.master.ni)->SpaceOf(conn.master.channel) !=
        soc_->DestQueueWordsOf(conn.slave)) {
      return false;
    }
    if (soc_->ni(conn.slave.ni)->SpaceOf(conn.slave.channel) !=
        soc_->DestQueueWordsOf(conn.master)) {
      return false;
    }
  }
  return true;
}

Status ScenarioRunner::EnterPhase(std::size_t k, TransitionResult* tr) {
  obs::ObsHub* obs_hub = soc_->obs_hub();
  shells::ConfigShell* shell = soc_->config_shell();
  AETHEREAL_CHECK(shell != nullptr && driver_ != nullptr);
  auto now = [&] { return soc_->net_clock()->cycles(); };
  auto note_config = [&](std::uint16_t code, std::size_t arg) {
    if (obs_hub != nullptr) {
      obs_hub->NoteConfig(code, now(), static_cast<std::int64_t>(arg));
    }
  };
  const PhaseSpec& phase = spec_.phases[k];
  tr->phase = static_cast<int>(k);
  tr->phase_name = phase.name;
  tr->start_cycle = now();

  // 1. Silence the outgoing phase's non-persistent sources and wait for
  // their traffic (words AND credits) to drain off the NoC.
  std::vector<std::size_t> closing;
  for (std::size_t g = 0; g < spec_.traffic.size(); ++g) {
    if (spec_.traffic[g].phase == static_cast<int>(k) - 1 &&
        !spec_.traffic[g].persist) {
      closing.push_back(g);
    }
  }
  if (!closing.empty()) {
    for (std::size_t g : closing) SetGroupActive(g, false);
    const Cycle drain_start = now();
    note_config(obs::kConfigDrainBegin, k);
    const Cycle deadline = drain_start + spec_.drain_cycles;
    auto drained = [&] {
      for (std::size_t g : closing) {
        if (!GroupDrained(g)) return false;
      }
      return true;
    };
    while (!drained() && now() < deadline) soc_->RunCycles(1);
    if (!drained()) {
      return TimeoutError(
          "phase transition into '" + phase.name +
          "': outgoing traffic failed to drain within " +
          std::to_string(spec_.drain_cycles) +
          " cycles (raise 'drain' or lower the offered load)");
    }
    tr->drain_cycles = now() - drain_start;
    note_config(obs::kConfigDrainEnd, k);
  }

  // 2. Reconfigure over the NoC itself: the outgoing phase's closes first,
  // then the incoming phase's opens — the manager serializes the Fig. 9
  // sequences, so slots freed by the closes are reusable by the opens of
  // the same transition.
  if (verify::Monitor* monitor = soc_->monitor()) monitor->NotePhaseBoundary();
  const Cycle config_start = now();
  const std::int64_t writes0 = shell->local_writes() + shell->remote_writes();
  std::vector<std::size_t> batch;
  for (std::size_t g : closing) {
    for (int ref : open_refs_by_group_[g]) {
      batch.push_back(static_cast<std::size_t>(driver_->PushClose(ref)));
      ++tr->closes;
      note_config(obs::kConfigClose, g);
    }
  }
  for (std::size_t g = 0; g < spec_.traffic.size(); ++g) {
    if (spec_.traffic[g].phase != static_cast<int>(k)) continue;
    for (const config::ConnectionSpec& conn : conns_by_group_[g]) {
      const int ref = driver_->PushOpen(conn);
      open_refs_by_group_[g].push_back(ref);
      batch.push_back(static_cast<std::size_t>(ref));
      ++tr->opens;
      note_config(obs::kConfigOpen, g);
    }
  }
  const Cycle config_deadline = now() + spec_.drain_cycles;
  while (!driver_->Done() && now() < config_deadline) soc_->RunCycles(1);
  if (!driver_->Done()) {
    return TimeoutError(
        "phase '" + phase.name +
        "': runtime configuration did not complete within " +
        std::to_string(spec_.drain_cycles) +
        " cycles (the 'drain' directive bounds each transition stage; "
        "raise it" +
        (spec_.fault.has_value() && spec_.fault->AnyConfigFaults() &&
                 !spec_.fault->retry.enabled
             ? ", or enable the fault block's retry policy — config "
               "faults are armed without recovery"
             : "") +
        ")");
  }
  for (std::size_t i : batch) {
    const config::ScriptedOp& op = driver_->op(i);
    if (!op.error.ok()) {
      return Status(op.error.code(),
                    "phase '" + phase.name + "': " +
                        (op.kind == config::ScriptedOp::Kind::kOpen ? "open"
                                                                    : "close") +
                        " failed: " + op.error.message());
    }
    if (op.kind == config::ScriptedOp::Kind::kOpen) {
      tr->setup_latency_max = std::max(tr->setup_latency_max, op.Latency());
      tr->slots_allocated += op.slots_delta;
    } else {
      tr->teardown_latency_max =
          std::max(tr->teardown_latency_max, op.Latency());
      tr->slots_reclaimed += op.slots_delta;
    }
  }
  tr->config_cycles = now() - config_start;
  tr->config_messages =
      shell->local_writes() + shell->remote_writes() - writes0;

  // 3. Switch the incoming phase's sources on; the run loop settles the
  // new use case before measuring.
  for (std::size_t g = 0; g < spec_.traffic.size(); ++g) {
    if (spec_.traffic[g].phase == static_cast<int>(k)) {
      SetGroupActive(g, true);
    }
  }
  return OkStatus();
}

void ScenarioRunner::CheckGtLatency(const FlowIps& f,
                                    const LatencySummary& latency,
                                    std::vector<std::string>* sink) {
  // The word latency counts IP cycles and the table bound network cycles,
  // so the comparison only holds when the two clocks are one.
  if (spec_.IpMhz() != spec_.net_mhz) return;
  // The end-to-end (Write-to-Read) latency bound is table-derivable only
  // when the credit loop provably cannot bind (DESIGN.md §10.3): stream
  // credits return as best-effort packets, so any BE directive in the
  // scenario can delay them arbitrarily and stretch end-to-end latency
  // without violating any GT guarantee (the per-flit network timing is
  // checked unconditionally by the monitor). The bound also needs one slot
  // table for the whole run: the samples are whole-run, and declared
  // phases reconfigure between windows.
  const bool all_gt =
      std::all_of(spec_.traffic.begin(), spec_.traffic.end(),
                  [](const TrafficSpec& t) { return t.gt; });
  // Beyond that, each word must provably find an empty source queue and
  // full credit: periodic injection at most once per table rotation,
  // unmodified thresholds...
  const TrafficSpec& traffic = spec_.traffic[f.group];
  const Cycle rotation_words = static_cast<Cycle>(spec_.stu_slots) * kFlitWords;
  if (!all_gt || traffic.inject != InjectKind::kPeriodic ||
      traffic.period < rotation_words || traffic.data_threshold != 1 ||
      traffic.credit_threshold != 1 || latency.count == 0) {
    return;
  }
  // ... credit-only packets that wait at most a rotation for a slot: on
  // each link back, those the flows may owe per rotation (a periodic stream
  // hop ceil(rotation / period), else one per slot, a memory flow both
  // ways) fit the slots no GT channel reserves...
  const topology::Topology& topo = soc_->topology();
  const auto links = [&](NiId from, NiId to) {
    auto route = topo.Route(from, to);
    AETHEREAL_CHECK(route.ok());  // the connection was opened over it
    return std::move(route->links);
  };
  if (credit_load_.empty()) {
    credit_load_.assign(static_cast<std::size_t>(topo.NumLinks()), 0);
    const auto add = [&](NiId from, NiId to, Cycle owed) {
      for (const topology::LinkId& link : links(from, to)) {
        credit_load_[static_cast<std::size_t>(topo.LinkIndex(link))] +=
            static_cast<int>(std::min<Cycle>(owed, spec_.stu_slots));
      }
    };
    for (const FlowIps& g : flows_) {
      const TrafficSpec& t = spec_.traffic[g.group];
      const bool memory = t.pattern == PatternKind::kMemory;
      const Cycle owed = t.inject == InjectKind::kPeriodic && !memory
                             ? (rotation_words + t.period - 1) / t.period
                             : spec_.stu_slots;
      for (const Hop& hop : g.hops) {
        add(hop.flow.dst, hop.flow.src, owed);
        if (memory) add(hop.flow.src, hop.flow.dst, owed);
      }
    }
  }
  const Flow& flow = f.hops.front().flow;
  const std::vector<topology::LinkId> back = links(flow.dst, flow.src);
  for (const topology::LinkId& link : back) {
    if (credit_load_[static_cast<std::size_t>(topo.LinkIndex(link))] >
        spec_.stu_slots - soc_->allocator().TableOf(link).Reserved()) {
      return;
    }
  }
  // ... and a queue that holds the words written within a credit round
  // trip: the word's latency bound, then its credit's (no reserved slot).
  const GtFlowBound hop = BoundOfHop(f.group, f.hops.front());
  const Cycle round_trip =
      hop.bound.worst_case_latency +
      verify::ComputeGtBound({}, spec_.stu_slots,
                             static_cast<int>(back.size()) - 1,
                             soc_->ni(flow.dst)->params().max_packet_flits)
          .worst_case_latency;
  if (spec_.queue_words * traffic.period < round_trip) return;
  // One rotation of margin absorbs credit-return and BE-arbitration jitter
  // among the (all-GT) companion flows.
  const Cycle bound = hop.bound.worst_case_latency + rotation_words;
  const double measured = latency.max;
  if (measured > static_cast<double>(bound)) {
    std::ostringstream oss;
    oss << "gt-latency: stream g" << f.group << " " << f.src() << "->"
        << f.dst() << " saw a word latency of " << measured
        << " cycles; the slot tables bound it by " << bound << " (max gap "
        << hop.bound.max_gap_slots << " slots, " << hop.bound.hops
        << " hops, one rotation of credit jitter)";
    sink->push_back(oss.str());
  }
}

void ScenarioRunner::FillFaultResult(std::vector<std::string> degradations,
                                     ScenarioResult* result,
                                     std::vector<std::string>* problems) {
  if (!spec_.fault.has_value() || !spec_.fault->Enabled()) return;
  const fault::FaultInjector* injector = soc_->fault_injector();
  AETHEREAL_CHECK(injector != nullptr);

  FaultResult fr;
  fr.seed = spec_.fault->seed;
  fr.flits_corrupted = injector->flits_corrupted();
  fr.link_packets_dropped = injector->link_packets_dropped();
  fr.link_words_dropped = injector->link_words_dropped();
  fr.router_stall_packets_dropped = injector->router_stall_packets_dropped();
  fr.router_stall_words_dropped = injector->router_stall_words_dropped();
  fr.config_requests_dropped = injector->config_requests_dropped();
  fr.config_requests_delayed = injector->config_requests_delayed();
  if (config::ConnectionManager* manager = soc_->manager()) {
    fr.config_ack_timeouts = manager->ack_timeouts();
    fr.config_write_retries = manager->writes_retried();
  }
  if (verify::Monitor* monitor = soc_->monitor()) {
    fr.monitor_fault_violations = monitor->fault_violations();
    fr.monitor_unexplained_violations = monitor->unexplained_violations();
    fr.monitor_corrupted_flits = monitor->fault_corrupted_flits();
    fr.monitor_lost_flits = monitor->fault_lost_flits();
    fr.monitor_lost_words = monitor->fault_lost_words();
    fr.gt_words_offered = monitor->gt_words_sent();
    fr.gt_words_delivered = monitor->gt_words_delivered();
    fr.gt_recovery_ratio =
        fr.gt_words_offered > 0
            ? static_cast<double>(fr.gt_words_delivered) /
                  static_cast<double>(fr.gt_words_offered)
            : 1.0;
    // Fault accounting: the monitor may attribute to faults no more than
    // the injector did.
    if (fr.monitor_corrupted_flits > fr.flits_corrupted) {
      std::ostringstream oss;
      oss << "fault-accounting: the monitor counted "
          << fr.monitor_corrupted_flits
          << " corrupted flit(s) but the injector flipped "
          << fr.flits_corrupted;
      problems->push_back(oss.str());
    }
    const std::int64_t words_dropped =
        fr.link_words_dropped + fr.router_stall_words_dropped;
    if (fr.monitor_lost_words > words_dropped) {
      std::ostringstream oss;
      oss << "fault-accounting: the monitor counted " << fr.monitor_lost_words
          << " lost word(s) but the injector dropped " << words_dropped;
      problems->push_back(oss.str());
    }
  }
  fr.degradations = std::move(degradations);
  for (const fault::FaultInjector::Event& event : injector->events()) {
    fr.events.push_back(FaultEventRecord{event.cycle, event.kind, event.site});
  }
  fr.events_total = injector->events_total();
  result->fault = std::move(fr);
}

namespace {

/// Maps the fault injector's event-kind strings onto trace event codes.
std::uint16_t FaultTraceCode(const std::string& kind) {
  if (kind == "link-corrupt") return obs::kFaultCorrupt;
  if (kind == "link-drop") return obs::kFaultDrop;
  if (kind == "router-stall-drop") return obs::kFaultRouterFreeze;
  if (kind == "config-drop") return obs::kFaultConfigDrop;
  if (kind == "config-delay") return obs::kFaultConfigDelay;
  return obs::kFaultNiStall;
}

}  // namespace

Status ScenarioRunner::FinalizeObsIntoResult(ScenarioResult* result) {
  obs::ObsHub* hub = soc_->obs_hub();
  if (hub == nullptr) return OkStatus();
  // Mirror the recorded fault events into the trace (their site strings
  // stay in the result's fault.events; the trace carries cycle + kind).
  if (result->fault.has_value()) {
    for (std::size_t i = 0; i < result->fault->events.size(); ++i) {
      const FaultEventRecord& event = result->fault->events[i];
      hub->NoteFault(FaultTraceCode(event.kind), event.cycle,
                     static_cast<std::int64_t>(i), 0);
    }
  }
  soc_->FinalizeObs();
  if (spec_.obs.SamplingEnabled()) {
    result->obs_stats = hub->StatsSnapshot();
  }
  if (!hub->WriteTraceFile()) {
    return FailedPreconditionError("cannot write trace file '" +
                                   spec_.obs.trace_path + "'");
  }
  return OkStatus();
}

std::string ScenarioResult::ToJson() const {
  JsonWriter w;
  w.BeginObject();
  // Fixed-duration documents keep schema_version 2 byte-for-byte; the
  // version moves to 3 exactly when the optional `convergence` sections
  // are present (opt-in `converge` runs).
  w.Key("schema_version").Int(convergence.has_value() ? 3 : 2);
  w.Key("scenario").String(spec.name);
  w.Key("topology").BeginObject();
  w.Key("kind").String(TopologyKindName(spec.topology));
  w.Key("dims").BeginArray();
  w.Int(spec.dim_a);
  if (spec.topology == TopologyKind::kMesh) w.Int(spec.dim_b);
  if (spec.topology != TopologyKind::kStar) w.Int(spec.nis_per_router);
  w.EndArray();
  w.Key("nis").Int(spec.NumNis());
  w.EndObject();
  w.Key("stu_slots").Int(spec.stu_slots);
  w.Key("net_mhz").Double(spec.net_mhz);
  if (spec.IpMhz() != spec.net_mhz) w.Key("ip_mhz").Double(spec.IpMhz());
  w.Key("queue_words").Int(spec.queue_words);
  w.Key("seed").Uint(spec.seed);
  w.Key("warmup").Int(spec.warmup);
  w.Key("duration").Int(spec.TotalDuration());
  w.Key("cycles_run").Int(cycles_run);
  if (spec.Phased()) {
    w.Key("cfg_ni").Int(spec.cfg_ni);
    w.Key("phases").BeginArray();
    for (std::size_t k = 0; k < phases.size(); ++k) {
      const PhaseResult& phase = phases[k];
      w.BeginObject();
      w.Key("phase").Int(static_cast<std::int64_t>(k));
      w.Key("name").String(phase.name);
      w.Key("window_start").Int(phase.window_start);
      w.Key("duration").Int(phase.duration);
      w.Key("words_in_window").Int(phase.words_in_window);
      w.Key("throughput_wpc").Double(phase.throughput_wpc);
      WriteWindowLatency(w, phase);
      if (phase.convergence.has_value()) {
        w.Key("convergence");
        stats_ctl::WriteConvergenceJson(w, *phase.convergence);
      }
      w.EndObject();
    }
    w.EndArray();
    w.Key("transitions").BeginArray();
    for (const TransitionResult& tr : transitions) {
      w.BeginObject();
      w.Key("into_phase").Int(tr.phase);
      w.Key("name").String(tr.phase_name);
      w.Key("start_cycle").Int(tr.start_cycle);
      w.Key("drain_cycles").Int(tr.drain_cycles);
      w.Key("config_cycles").Int(tr.config_cycles);
      w.Key("closes").Int(tr.closes);
      w.Key("opens").Int(tr.opens);
      w.Key("teardown_latency_max").Int(tr.teardown_latency_max);
      w.Key("setup_latency_max").Int(tr.setup_latency_max);
      w.Key("config_messages").Int(tr.config_messages);
      w.Key("slots_reclaimed").Int(tr.slots_reclaimed);
      w.Key("slots_allocated").Int(tr.slots_allocated);
      w.EndObject();
    }
    w.EndArray();
  }
  w.Key("flows").BeginArray();
  for (const FlowResult& flow : flows) {
    w.BeginObject();
    w.Key("pattern").String(flow.pattern);
    w.Key("group").Int(flow.group);
    w.Key("src").Int(flow.src);
    w.Key("dst").Int(flow.dst);
    w.Key("qos").String(flow.gt ? "gt" : "be");
    if (flow.gt) w.Key("gt_slots").Int(flow.gt_slots);
    w.Key("words_total").Int(flow.words_total);
    w.Key("words_in_window").Int(flow.words_in_window);
    w.Key("throughput_wpc").Double(flow.throughput_wpc);
    if (flow.pattern == PatternKindName(PatternKind::kMemory)) {
      w.Key("transactions").BeginObject();
      w.Key("issued").Int(flow.transactions_issued);
      w.Key("completed").Int(flow.transactions_completed);
      w.EndObject();
    }
    if (spec.Phased()) {
      w.Key("phase").Int(flow.phase);
      if (flow.persist) w.Key("persist").Bool(true);
      w.Key("phase_stats").BeginArray();
      for (const PhaseFlowStats& ps : flow.phase_stats) {
        w.BeginObject();
        w.Key("phase").Int(ps.phase);
        w.Key("words").Int(ps.words);
        w.Key("throughput_wpc").Double(ps.throughput_wpc);
        WriteWindowLatency(w, ps);
        w.EndObject();
      }
      w.EndArray();
    }
    w.Key("latency");
    WriteLatency(w, flow.latency);
    w.EndObject();
  }
  w.EndArray();
  w.Key("aggregate").BeginObject();
  w.Key("words_in_window").Int(words_in_window);
  w.Key("throughput_wpc").Double(throughput_wpc);
  w.Key("gt_flits").Int(gt_flits);
  w.Key("be_flits").Int(be_flits);
  w.Key("payload_words_sent").Int(payload_words_sent);
  w.Key("credit_only_packets").Int(credit_only_packets);
  w.Key("credits_piggybacked").Int(credits_piggybacked);
  w.Key("idle_slots").Int(idle_slots);
  w.Key("gt_slots_unused").Int(gt_slots_unused);
  w.Key("slot_utilization").Double(slot_utilization);
  w.EndObject();
  // Latency histograms (DESIGN.md §13): flit latency per traffic class
  // (stream + video flows) and transaction round-trip latency (memory
  // flows), merged over the whole run from the flows' exact samples.
  {
    CycleCounts gt, be, txn;
    for (const FlowResult& flow : flows) {
      CycleCounts& counts =
          flow.pattern == PatternKindName(PatternKind::kMemory) ? txn
          : flow.gt                                              ? gt
                                                                 : be;
      counts.AddSamples(flow.latency_samples);
    }
    CycleCounts all = gt;
    all.Merge(be);
    w.Key("histograms").BeginObject();
    w.Key("flit_latency").BeginObject();
    w.Key("all");
    WriteHistogram(w, all);
    w.Key("gt");
    WriteHistogram(w, gt);
    w.Key("be");
    WriteHistogram(w, be);
    w.EndObject();
    w.Key("transaction_latency");
    WriteHistogram(w, txn);
    w.EndObject();
  }
  if (obs_stats.has_value()) {
    w.Key("stats");
    obs::WriteStatsJson(w, *obs_stats);
  }
  if (convergence.has_value()) {
    w.Key("convergence");
    stats_ctl::WriteConvergenceJson(w, *convergence);
  }
  if (fault.has_value()) {
    const FaultResult& f = *fault;
    w.Key("fault").BeginObject();
    w.Key("seed").Uint(f.seed);
    w.Key("flits_corrupted").Int(f.flits_corrupted);
    w.Key("link_packets_dropped").Int(f.link_packets_dropped);
    w.Key("link_words_dropped").Int(f.link_words_dropped);
    w.Key("router_stall_packets_dropped").Int(f.router_stall_packets_dropped);
    w.Key("router_stall_words_dropped").Int(f.router_stall_words_dropped);
    w.Key("config_requests_dropped").Int(f.config_requests_dropped);
    w.Key("config_requests_delayed").Int(f.config_requests_delayed);
    w.Key("config_ack_timeouts").Int(f.config_ack_timeouts);
    w.Key("config_write_retries").Int(f.config_write_retries);
    if (spec.verify) {
      w.Key("monitor").BeginObject();
      w.Key("fault_violations").Int(f.monitor_fault_violations);
      w.Key("unexplained_violations").Int(f.monitor_unexplained_violations);
      w.Key("corrupted_flits").Int(f.monitor_corrupted_flits);
      w.Key("lost_flits").Int(f.monitor_lost_flits);
      w.Key("lost_words").Int(f.monitor_lost_words);
      w.EndObject();
      w.Key("gt_words_offered").Int(f.gt_words_offered);
      w.Key("gt_words_delivered").Int(f.gt_words_delivered);
      w.Key("gt_recovery_ratio").Double(f.gt_recovery_ratio);
    }
    w.Key("degradations").BeginArray();
    for (const std::string& d : f.degradations) w.String(d);
    w.EndArray();
    w.Key("events").BeginArray();
    for (const FaultEventRecord& event : f.events) {
      w.BeginObject();
      w.Key("cycle").Int(event.cycle);
      w.Key("kind").String(event.kind);
      w.Key("site").String(event.site);
      w.EndObject();
    }
    w.EndArray();
    w.Key("events_total").Int(f.events_total);
    w.EndObject();
  }
  w.EndObject();
  return w.Take();
}

}  // namespace aethereal::scenario
