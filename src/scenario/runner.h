// ScenarioRunner: turns a parsed ScenarioSpec into a fully wired SoC —
// topology, NI channel provisioning, per-connection QoS, workload IPs —
// runs it, and collects per-flow latency/throughput plus NI-level
// slot-utilization statistics into a deterministic result.
//
// The result JSON contains only simulation-semantic quantities (no wall
// clock, no engine identifier), so the same spec and seed produce the
// byte-identical document on the soa and the naive engine, on every
// compiler and build type — the property the golden-results regression
// test (tests/scenario_golden_test.cpp) locks down.
#ifndef AETHEREAL_SCENARIO_RUNNER_H
#define AETHEREAL_SCENARIO_RUNNER_H

#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "config/script.h"
#include "ip/memory_slave.h"
#include "obs/hub.h"
#include "ip/stream.h"
#include "ip/traffic_gen.h"
#include "scenario/patterns.h"
#include "scenario/spec.h"
#include "shells/master_shell.h"
#include "shells/slave_shell.h"
#include "soc/soc.h"
#include "stats_ctl/convergence.h"
#include "util/status.h"
#include "verify/bounds.h"

namespace aethereal::scenario {

/// Latency summary of one flow. All fields derive from exact integer
/// cycle samples through single IEEE operations, so they are reproducible
/// bit-for-bit across compilers (see util/json.h).
struct LatencySummary {
  std::int64_t count = 0;
  double min = 0;
  double mean = 0;
  double p50 = 0;
  double p95 = 0;
  double p99 = 0;
  double max = 0;
};

/// One phase window's slice of a flow's statistics (phased scenarios).
/// The Stats objects keep their samples in insertion order, so per-phase
/// percentiles are exact — computed from the counts of the samples
/// recorded between the window's start and end; the whole-run summary
/// stays on the owning FlowResult.
struct PhaseFlowStats {
  int phase = 0;
  std::int64_t words = 0;         // delivered inside the phase window
  double throughput_wpc = 0;      // words / phase duration
  std::int64_t latency_count = 0;
  double latency_mean = 0;
  double latency_p50 = 0;
  double latency_p95 = 0;
  double latency_p99 = 0;
};

/// Result of one flow (a stream, a whole video chain, or a memory
/// master/slave relationship).
struct FlowResult {
  std::string pattern;        // PatternKindName of the owning directive
  int group = 0;              // index of the owning traffic directive
  NiId src = kInvalidId;      // chain front for video
  NiId dst = kInvalidId;      // chain back for video
  bool gt = false;
  int gt_slots = 0;

  std::int64_t words_total = 0;      // delivered over the whole run
  std::int64_t words_in_window = 0;  // delivered during measured windows
  double throughput_wpc = 0;         // words_in_window / measured cycles

  /// Stream flows: per-word source->sink latency. Memory flows: per-
  /// transaction round-trip latency. Cumulative over the whole run.
  LatencySummary latency;

  /// The raw samples behind `latency`, in no particular order — the exact
  /// population the result's histograms and the sweep's merged class
  /// percentiles count (integer cycle counts stored as doubles). Moved
  /// out of the flow's consumer or master when the run ends: the one copy
  /// of each sample.
  std::vector<double> latency_samples;

  // Memory flows only.
  std::int64_t transactions_issued = 0;
  std::int64_t transactions_completed = 0;

  // Phased scenarios only.
  int phase = -1;       // owning phase index
  bool persist = false;
  std::vector<PhaseFlowStats> phase_stats;  // one entry per active window
};

/// Reconfiguration cost of entering one phase — the runtime-configuration
/// costs the paper reports (§3, Fig. 9), measured on the NoC itself.
struct TransitionResult {
  int phase = 0;                 // the phase being entered
  std::string phase_name;
  Cycle start_cycle = 0;         // cycle the transition began
  Cycle drain_cycles = 0;        // outgoing traffic drain (0 for phase 0)
  Cycle config_cycles = 0;       // Fig. 9 open/close sequencing
  int closes = 0;
  int opens = 0;
  Cycle teardown_latency_max = 0;  // worst single close, request->done
  Cycle setup_latency_max = 0;     // worst single open, request->done
  std::int64_t config_messages = 0;  // register writes (local + via NoC)
  int slots_reclaimed = 0;       // TDM slots freed by the closes
  int slots_allocated = 0;       // TDM slots reserved by the opens
};

/// One phase window of a phased run. The latency fields summarize the
/// samples of every flow active in the window, merged — exact, from the
/// counts of the flows' insertion-order sample ranges.
struct PhaseResult {
  std::string name;
  Cycle window_start = 0;        // first measured cycle of the window
  Cycle duration = 0;            // cycles actually measured (may exceed the
                                 // declared duration in convergence mode)
  std::int64_t words_in_window = 0;  // all flows, this window
  double throughput_wpc = 0;
  std::int64_t latency_count = 0;
  double latency_mean = 0;
  double latency_p50 = 0;
  double latency_p95 = 0;
  double latency_p99 = 0;

  /// Per-window stop-on-convergence outcome; present exactly when the spec
  /// enables convergence mode (phases converge independently — their
  /// traffic mixes differ, so their sample streams are never pooled).
  std::optional<stats_ctl::ConvergenceOutcome> convergence;
};

/// One recorded fault event (the injector caps the list; events_total
/// keeps counting).
struct FaultEventRecord {
  Cycle cycle = 0;
  std::string kind;
  std::string site;
};

/// Graceful-degradation accounting of a fault-injected run (DESIGN.md
/// §12): what was injected, what the resilience machinery recovered, and
/// which guarantee shortfalls are explained by the armed fault model.
/// Present in the result exactly when the spec carries an Enabled() fault
/// block.
struct FaultResult {
  std::uint64_t seed = 0;

  // Injection ledger (from the FaultInjector).
  std::int64_t flits_corrupted = 0;
  std::int64_t link_packets_dropped = 0;
  std::int64_t link_words_dropped = 0;
  std::int64_t router_stall_packets_dropped = 0;
  std::int64_t router_stall_words_dropped = 0;
  std::int64_t config_requests_dropped = 0;
  std::int64_t config_requests_delayed = 0;

  // Recovery ledger (connection manager retry machinery).
  std::int64_t config_ack_timeouts = 0;
  std::int64_t config_write_retries = 0;

  // Verification classification (zeros when verify is off).
  std::int64_t monitor_fault_violations = 0;
  std::int64_t monitor_unexplained_violations = 0;
  std::int64_t monitor_corrupted_flits = 0;
  std::int64_t monitor_lost_flits = 0;
  std::int64_t monitor_lost_words = 0;

  // Delivered-vs-offered GT words over the whole run (monitor-observed;
  // zeros when verify is off). recovery_ratio is 1 when nothing offered.
  std::int64_t gt_words_offered = 0;
  std::int64_t gt_words_delivered = 0;
  double gt_recovery_ratio = 1.0;

  /// Guarantee shortfalls demoted from hard failures because the armed
  /// fault model explains them (fault-induced monitor violations, GT
  /// floors missed under drop/stall faults).
  std::vector<std::string> degradations;

  std::vector<FaultEventRecord> events;
  std::int64_t events_total = 0;
};

struct ScenarioResult {
  ScenarioSpec spec;
  Cycle cycles_run = 0;
  std::vector<FlowResult> flows;

  // Phased scenarios only (empty otherwise).
  std::vector<PhaseResult> phases;
  std::vector<TransitionResult> transitions;

  // Aggregates over all flows / NIs, whole run.
  std::int64_t words_in_window = 0;
  double throughput_wpc = 0;
  std::int64_t gt_flits = 0;
  std::int64_t be_flits = 0;
  std::int64_t payload_words_sent = 0;
  std::int64_t credit_only_packets = 0;
  std::int64_t credits_piggybacked = 0;
  std::int64_t idle_slots = 0;
  std::int64_t gt_slots_unused = 0;
  /// Fraction of (NI, slot) opportunities that carried traffic.
  double slot_utilization = 0;

  /// Fault-injection accounting; present exactly when the spec has an
  /// Enabled() fault block (a zero-rate block stays invisible here so the
  /// byte-identity property of the kill switch holds).
  std::optional<FaultResult> fault;

  /// Time-series counters (DESIGN.md §13); present exactly when the spec
  /// enables sampling (`stats sample_every N`). Deterministic: derived
  /// entirely from committed simulation state, byte-identical across
  /// engines.
  std::optional<obs::ObsStatsSnapshot> obs_stats;

  /// Stop-on-convergence outcome (DESIGN.md §14); present exactly when the
  /// spec enables convergence mode. Static runs carry the run's CI here;
  /// phased runs carry the roll-up (converged = every window converged)
  /// with the per-window CIs on their PhaseResults.
  std::optional<stats_ctl::ConvergenceOutcome> convergence;

  /// Deterministic JSON encoding (the golden-test format). The document
  /// leads with `schema_version` (2 for fixed-duration runs: per-flow
  /// p50/p95, the always-present `histograms` section, per-phase
  /// percentiles, and the optional `stats` section; 3 when the optional
  /// `convergence` sections are present — fixed-duration documents never
  /// change shape, so every committed golden stays byte-identical).
  std::string ToJson() const;
};

/// Analytical guarantees of one GT flow hop, as wired by the runner
/// (streams and memory request directions are single hops; a video chain
/// contributes one entry per chain hop).
struct GtFlowBound {
  int group = 0;
  NiId src = kInvalidId;
  NiId dst = kInvalidId;
  verify::GtBound bound;
};

class ScenarioRunner {
 public:
  explicit ScenarioRunner(ScenarioSpec spec);
  ~ScenarioRunner();

  /// Instantiates the SoC, opens every connection, and creates the
  /// workload IPs. Idempotent; returns the first wiring error (pattern
  /// constraint violation, slot exhaustion, ...).
  Status Build();

  /// Build(), then one loop over spec().Windows() — a static spec is a
  /// single implicit phase with no reconfiguration. Per window: enter the
  /// phase (declared phases only), settle, measure (the fixed duration, or
  /// until convergence); then collects the result. Callable once per
  /// runner. With spec().verify set, a run that violates any runtime
  /// invariant or analytical GT bound fails with kVerificationFailed.
  Result<ScenarioResult> Run();

  /// Build() + the analytical bounds of every GT flow hop, derived from
  /// the allocator's slot tables (verify/bounds.h). Also the noc_verify
  /// --bounds table. Phased scenarios fail here: their slot tables are
  /// phase-dependent (bounds are checked per window by the verified run).
  Result<std::vector<GtFlowBound>> ComputeGtBounds();

  /// One NoC connection of a flow, with the connids at both ends.
  struct Hop {
    Flow flow;
    int src_connid = 0;
    int dst_connid = 0;
    int group = 0;  // owning traffic-directive index
  };

  soc::Soc* soc() { return soc_.get(); }
  const ScenarioSpec& spec() const { return spec_; }

  /// After Run(): silences every flow and runs until all have drained, at
  /// most `max_cycles` network cycles. False if one has not drained.
  bool SilenceAndDrain(Cycle max_cycles);

  /// The clocked modules of the transaction and configuration stack: every
  /// memory flow's master shell, master, slave shell and memory, then the
  /// Soc's configuration modules (Soc::ConfigModules).
  std::vector<const sim::Module*> TransactionModules() const;
  /// Every connection Build() wired, in directive order, then pattern
  /// order.
  const std::vector<Hop>& hops() const { return hops_; }

 private:
  /// The workload IPs behind one result flow — a stream, a whole video
  /// chain, or a memory master/slave pair — and the one view the run loop
  /// measures every kind through.
  struct FlowIps {
    std::size_t group = 0;
    /// The NoC connections the flow's words cross: one for streams and
    /// memory flows, one per chain hop for video.
    std::vector<Hop> hops;

    NiId src() const { return hops.front().flow.src; }
    NiId dst() const { return hops.back().flow.dst; }

    // Streams and video chains.
    std::unique_ptr<ip::StreamSource> source;
    std::vector<std::unique_ptr<ip::Relay>> relays;
    std::unique_ptr<ip::StreamConsumer> consumer;
    // Memory flows.
    int burst_words = 0;
    std::unique_ptr<shells::MasterShell> master_shell;
    std::unique_ptr<ip::TrafficGenMaster> master;
    std::unique_ptr<shells::SlaveShell> slave_shell;
    std::unique_ptr<ip::MemorySlave> memory;

    /// Words delivered so far (memory: completed transactions x burst).
    std::int64_t Delivered() const;
    /// Words admitted by the source so far (memory: transactions issued).
    std::int64_t Admitted() const;
    /// Per-word latency (memory: per-transaction round trip), samples in
    /// insertion order.
    const Stats& Latency() const;
    Stats* MutableLatency();
    void SetActive(bool active, Cycle now);
    /// True once every word the silenced source wrote has been consumed
    /// (memory: no transaction outstanding).
    bool Drained() const;
  };

  Status BuildTopologyAndSoc(
      const std::vector<std::vector<Flow>>& flows_by_group);
  config::ConnectionSpec ConnSpecOf(const TrafficSpec& traffic,
                                    const Hop& hop) const;
  GtFlowBound BoundOfHop(std::size_t group, const Hop& hop);

  /// Reconfigures the NoC into declared phase `k` (phased specs only; the
  /// implicit phase of a static spec opens its connections at build time):
  /// silences and drains the outgoing phase's non-persistent flows, closes
  /// their connections and opens phase k's through the configuration
  /// protocol over the NoC, then switches phase k's sources on.
  Status EnterPhase(std::size_t k, TransitionResult* transition);
  void SetGroupActive(std::size_t group, bool active);
  bool GroupDrained(std::size_t group) const;
  /// The static-only per-word GT latency check of one stream flow, whose
  /// result summary is `latency` (see the definition for when the table
  /// bound applies).
  void CheckGtLatency(const FlowIps& flow, const LatencySummary& latency,
                      std::vector<std::string>* sink);
  /// Fills result->fault from the injector / manager / monitor ledgers
  /// (no-op unless the spec's fault block is Enabled()). Appends a
  /// fault-accounting problem when the monitor attributes more corrupted
  /// flits or lost words to faults than the injector caused.
  void FillFaultResult(std::vector<std::string> degradations,
                       ScenarioResult* result,
                       std::vector<std::string>* problems);
  /// Observability epilogue (no-op without a hub): mirrors the recorded
  /// fault events into the trace, finalizes the tap, snapshots the stats
  /// section into the result, and writes the trace file. Call after
  /// FillFaultResult.
  Status FinalizeObsIntoResult(ScenarioResult* result);

  ScenarioSpec spec_;
  bool built_ = false;
  bool ran_ = false;
  std::unique_ptr<soc::Soc> soc_;
  std::vector<Hop> hops_;
  /// Streams, then video chains, then memory flows, each in directive
  /// order: the order convergence samples are concatenated in.
  std::vector<FlowIps> flows_;
  std::vector<int> credit_load_;  // per link, filled by CheckGtLatency

  // Phased scenarios: the runtime-configuration machinery. Connections are
  // NOT opened at build time; each phase's are opened (and the outgoing
  // phase's closed) through the scripted driver as the run reaches them.
  std::unique_ptr<config::ScriptedConfigDriver> driver_;
  /// One ConnectionSpec per flow, grouped by traffic directive.
  std::vector<std::vector<config::ConnectionSpec>> conns_by_group_;
  /// Driver op index of each group's opens (targets for the later closes).
  std::vector<std::vector<int>> open_refs_by_group_;
};

}  // namespace aethereal::scenario

#endif  // AETHEREAL_SCENARIO_RUNNER_H
