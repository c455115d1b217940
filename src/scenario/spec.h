// Declarative scenario specification — one small text file describes a
// complete workload: topology, clocking, per-connection QoS, traffic
// pattern, and duration. The scenario layer turns it into a fully wired
// SoC on the default engine (scenario/runner.h) so the same NI design
// can be exercised under the paper's wildly different use cases (GT video
// chains, BE shared-memory traffic, synthetic permutation suites) without
// writing wiring code.
//
// Line-based format ('#' starts a comment):
//
//   scenario NAME                 # result label (default "scenario")
//   noc star N                    # or: noc mesh ROWS COLS NIS_PER_ROUTER
//                                 # or: noc ring ROUTERS NIS_PER_ROUTER
//   stu 8                         # slot-table size        (default 8)
//   netmhz 500                    # network clock, MHz     (default 500)
//   ipmhz 200                     # clock of every IP port, MHz
//                                 # (default: netmhz). Injection periods
//                                 # and word latencies count IP cycles;
//                                 # durations, windows and throughput
//                                 # count network cycles (DESIGN.md §8.3)
//   queues 32                     # channel queue words    (default 32)
//   seed 1                        # RNG seed               (default 1)
//   warmup 500                    # settle cycles          (default 500)
//   duration 20000                # measured cycles        (default 20000)
//   engine soa                    # naive | soa            (default soa)
//   verify on                     # on | off               (default off)
//                                 # arm the guarantee-verification layer:
//                                 # runtime invariant checkers plus
//                                 # analytical GT bound checks; any
//                                 # violation fails the run
//   stats sample_every N          # windowed time-series sampling
//                                 # (DESIGN.md §13): close an observation
//                                 # window every N cycles (N >= the slot
//                                 # length) and emit per-window link
//                                 # utilisation / injected / delivered /
//                                 # queue-depth series into the result
//                                 # JSON. Off by default; enabling it
//                                 # never changes simulation results.
//   trace FILE [cap N]            # structured event trace (Chrome
//                                 # trace_event JSON) written to FILE
//                                 # after the run; per-category ring
//                                 # capacity N events (drops accounted).
//                                 # Off by default; observation only.
//
// followed by one or more traffic directives. Each directive names a
// pattern (which NIs talk to which), then optional clauses:
//
//   traffic uniform               # seeded random permutation (no self-loops)
//   traffic transpose             # mesh (r,c) -> (c,r); square mesh only
//   traffic bitcomp               # ni -> ~ni;      power-of-two NI count
//   traffic bitrev                # ni -> reverse(ni); power-of-two NI count
//   traffic neighbor              # ni -> ni+1 (mod N)
//   traffic hotspot T             # every NI except T sends to NI T
//   traffic pairs A B [C D ...]   # explicit src dst pairs
//   traffic video A B C ...       # chain of point-to-point streams with
//                                 # relay IPs at the intermediate NIs
//   traffic memory M S            # transaction master at NI M, memory
//                                 # slave at NI S (shared-memory traffic)
//
// Phased scenarios (runtime reconfiguration, paper §3/§4.3/Fig. 9): with
// `phase` blocks the run becomes a sequence of use cases. Each phase owns
// the traffic directives that follow it; at every phase transition the
// outgoing phase's connections are closed and the incoming phase's opened
// AT RUNTIME, through ConnectionManager transactions carried over the NoC
// itself (never a side channel), with per-transition setup/teardown
// metrics in the result. A directive marked `persist` stays open through
// every later phase (its in-flight GT traffic must be undisturbed by the
// transitions around it).
//
//   phase NAME duration D [warmup W]
//                                 # starts a phase block; following
//                                 # traffic directives belong to it. D =
//                                 # measured cycles of the phase window,
//                                 # W = settle cycles after the phase's
//                                 # reconfiguration completes (default 0;
//                                 # the scenario-level `warmup` applies
//                                 # before the first phase's window)
//   cfgni N                       # NI hosting the configuration master
//                                 # (default 0); every other NI gets a
//                                 # CNIP channel. Phased scenarios only.
//   drain N                       # per-transition cycle bound, applied
//                                 # separately to the outgoing-traffic
//                                 # drain and to the Fig. 9 configuration
//                                 # sequencing (default 20000). Phased
//                                 # only.
//
// Fault injection (DESIGN.md §12): an optional `fault` block arms the
// seeded fault models. Directives inside the block use the fault/spec.h
// grammar; the block must be closed with `end`:
//
//   fault
//     seed 7                      # fault-stream seed  (default 1)
//     link corrupt 0.001          # per-flit payload bit-flip probability
//     link drop 0.0005            # per-GT-packet whole-packet drop prob.
//     router 0 stall 1000 64      # router 0 freezes for cycles [1000,1064)
//     ni 2 stall 500 32           # NI 2 scheduler stalls for [500, 532)
//     config drop 0.01            # per-CNIP-request loss probability
//     config delay 0.02 40        # per-request 40-cycle hold probability
//     retry timeout 512 max 4 backoff 2
//                                 # arm ack timeout / bounded retry /
//                                 # exponential backoff on config writes
//   end
//
// Phased constraints: the scenario-level `duration` directive is replaced
// by the per-phase durations; every traffic directive must live inside a
// phase; and phased directives require data_threshold/credit_threshold 1
// (a closing channel must drain completely — words or credits parked
// below a threshold would never move again).
//
// Clauses (append after the pattern, any order):
//
//   inject periodic N             # one word / transaction every N cycles
//   inject bernoulli R            # issue with probability R per cycle
//   inject bursty W G             # W back-to-back words, then G idle cycles
//   inject closed                 # memory only: issue on response return
//   qos be                        # best-effort (default)
//   qos gt S                      # guaranteed throughput, S reserved slots
//   persist                       # phased only: keep the connection open
//                                 # through every later phase
//   data_threshold N              # NI send threshold (words, 1..255)
//   credit_threshold N            # credit-report threshold at the receiving
//                                 # NI (words, 1..255)
//   read_fraction P               # memory only: reads vs writes (default .5)
//   burst N                       # memory only: words per transaction
//
// Directive order defines connid assignment and is part of the scenario's
// deterministic identity: the same file and seed always produce the same
// result JSON, on either engine (tests/scenario_test.cpp).
#ifndef AETHEREAL_SCENARIO_SPEC_H
#define AETHEREAL_SCENARIO_SPEC_H

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "fault/spec.h"
#include "obs/spec.h"
#include "sim/engine.h"
#include "stats_ctl/convergence.h"
#include "util/status.h"
#include "util/types.h"

namespace aethereal::scenario {

/// Value ranges the scenario grammar and the sweep parameters both
/// enforce, so a value one front end accepts the other accepts too.
namespace limits {
/// Largest NI population: keeps design-time arithmetic far from integer
/// overflow and rejects un-simulatable specs at parse time instead of
/// hanging in allocation.
inline constexpr std::int64_t kMaxNis = 4096;
/// Clock frequencies (netmhz, ipmhz), MHz.
inline constexpr std::int64_t kMaxMhz = 1000000;
/// Channel queue depth, words.
inline constexpr std::int64_t kMaxQueueWords = std::int64_t{1} << 20;
/// GT slots one connection may reserve.
inline constexpr std::int64_t kMaxGtSlots = 1024;
/// `inject periodic N`: cycles between emissions.
inline constexpr std::int64_t kMaxPeriod = std::int64_t{1} << 30;
/// `inject bursty W G`: words per burst, idle cycles between bursts.
inline constexpr std::int64_t kMaxBurstWords = std::int64_t{1} << 20;
inline constexpr std::int64_t kMaxGapCycles = std::int64_t{1} << 30;
}  // namespace limits

enum class PatternKind {
  kUniform,
  kTranspose,
  kBitComplement,
  kBitReversal,
  kNeighbor,
  kHotspot,
  kPairs,
  kVideo,
  kMemory,
};

const char* PatternKindName(PatternKind kind);

enum class InjectKind {
  kPeriodic,
  kBernoulli,
  kBursty,
  kClosedLoop,  // memory flows only
};

const char* InjectKindName(InjectKind kind);

/// One traffic directive: a pattern plus injection process and QoS.
struct TrafficSpec {
  PatternKind pattern = PatternKind::kUniform;

  InjectKind inject = InjectKind::kPeriodic;
  std::int64_t period = 8;       // kPeriodic: cycles between emissions
  double rate = 0.05;            // kBernoulli: emission probability / cycle
  std::int64_t burst_words = 4;  // kBursty: words per burst
  std::int64_t gap_cycles = 64;  // kBursty: idle cycles between bursts

  bool gt = false;
  int gt_slots = 0;
  int data_threshold = 1;
  int credit_threshold = 1;

  NiId hotspot = 0;             // kHotspot target
  std::vector<NiId> nis;        // kPairs (flattened), kVideo chain,
                                // kMemory {master, slave}

  double read_fraction = 0.5;   // kMemory
  int mem_burst_words = 4;      // kMemory: words per transaction

  /// Phased scenarios: index of the owning phase (-1 = no phase blocks:
  /// the directive belongs to a static spec's one implicit phase), and
  /// whether the directive survives every later phase transition.
  int phase = -1;
  bool persist = false;

  /// Source line of the directive (diagnostics only; 0 when synthesized).
  int line = 0;

  /// True when the directive's flows inject during window `k` of
  /// ScenarioSpec::Windows(): its own phase, any later one if persistent,
  /// or the implicit phase of a static spec. The single source of the
  /// activity predicate shared by parse-time validation, the runner's
  /// windows, and the sweep's offered-load weighting.
  bool ActiveIn(int k) const {
    return phase < 0 || phase == k || (persist && phase < k);
  }
};

/// One use case of a phased scenario: a named measurement window whose
/// connections are opened (and, unless persisted, later closed) at runtime
/// over the NoC.
struct PhaseSpec {
  std::string name;
  Cycle duration = 0;  // measured cycles of the phase window
  Cycle warmup = 0;    // settle cycles between reconfiguration and window
  int line = 0;        // source line (diagnostics only)
};

enum class TopologyKind { kStar, kMesh, kRing };

const char* TopologyKindName(TopologyKind kind);

struct ScenarioSpec {
  std::string name = "scenario";
  TopologyKind topology = TopologyKind::kStar;
  int dim_a = 4;            // star: NIs; mesh: rows; ring: routers
  int dim_b = 1;            // mesh: cols
  int nis_per_router = 1;   // mesh / ring

  int stu_slots = 8;
  double net_mhz = 500.0;
  /// Clock of every IP port (`ipmhz`); unset, the ports run on the
  /// network clock. Read it through IpMhz().
  std::optional<double> ip_mhz;
  int queue_words = 32;
  std::uint64_t seed = 1;
  Cycle warmup = 500;
  Cycle duration = 20000;
  /// Engine selection (sim/engine.h); grammar `engine naive|soa`. Both
  /// engines produce byte-identical result JSON, so the directive is a
  /// speed knob that never forks goldens.
  sim::EngineKind engine = sim::EngineKind::kSoa;
  /// Arm the verification layer (verify/). Never affects the result JSON:
  /// a clean run is byte-identical, a violating run fails with an error.
  bool verify = false;

  std::vector<TrafficSpec> traffic;

  /// Phased scenarios only (empty otherwise). Directive order and phase
  /// order are both part of the scenario's deterministic identity.
  std::vector<PhaseSpec> phases;
  /// NI hosting the configuration master of a phased scenario.
  NiId cfg_ni = 0;
  /// Per-transition cycle bound, applied separately to the outgoing-
  /// traffic drain and to the Fig. 9 configuration sequencing.
  Cycle drain_cycles = 20000;

  /// Armed fault models (absent = fault subsystem not even instantiated;
  /// see SocOptions::fault for the kill-switch semantics).
  std::optional<fault::FaultSpec> fault;

  /// Observability configuration (`stats` / `trace` directives; the
  /// noc_sim --trace / --sample-every flags override it). Disabled by
  /// default — the runner passes SocOptions::obs = nullptr and not a
  /// single tap module exists (DESIGN.md §13).
  obs::ObsSpec obs;

  /// Stop-on-convergence policy (`converge` directive / --converge CLI
  /// flags; DESIGN.md §14). Disabled by default: fixed-duration runs are
  /// the determinism-golden contract, convergence mode is opt-in.
  stats_ctl::ConvergeSpec converge;

  bool Phased() const { return !phases.empty(); }

  double IpMhz() const { return ip_mhz.value_or(net_mhz); }

  /// The measured windows of the run: the declared phases, or — for a
  /// static spec — one implicit phase of `duration` cycles with no warmup
  /// of its own and no reconfiguration (its connections open at build
  /// time). The runner drives both shapes through this one list.
  std::vector<PhaseSpec> Windows() const;

  int NumNis() const;

  /// Configuration channels provisioned at NI `ni` BEFORE any flow
  /// channel (config connections at the Cfg NI, the CNIP channel at
  /// connid 0 everywhere else); zero for non-phased specs. The single
  /// source of the connid-offset rule shared by the runner's channel
  /// counting, its connid assignment, and the inspector — the three must
  /// agree bit-for-bit or connids lose their deterministic identity.
  int ConfigChannelsOf(NiId ni) const;

  /// Total measured cycles: the sum of the Windows() durations.
  Cycle TotalDuration() const;
};

/// Parses the text form above. Errors carry the offending line number.
Result<ScenarioSpec> ParseScenario(const std::string& text);

/// Reads and parses a spec file.
Result<ScenarioSpec> LoadScenarioFile(const std::string& path);

}  // namespace aethereal::scenario

#endif  // AETHEREAL_SCENARIO_SPEC_H
