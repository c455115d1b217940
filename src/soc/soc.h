// SoC assembly: instantiate a NoC (routers, NIs, links) from a topology and
// per-NI parameters, exactly like the paper's XML-driven design-time flow
// (but targeting the simulator instead of VHDL).
//
// The Soc owns the simulation kernel, the clocks, the network hardware and
// the configuration infrastructure. IP modules and shells are created by
// the application (examples/tests) and registered on port clocks via
// RegisterOnPort().
#ifndef AETHEREAL_SOC_SOC_H
#define AETHEREAL_SOC_SOC_H

#include <map>
#include <memory>
#include <memory_resource>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "config/cnip.h"
#include "config/connection_manager.h"
#include "config/connection_program.h"
#include "core/ni_kernel.h"
#include "fault/spec.h"
#include "link/wire.h"
#include "router/router.h"
#include "shells/config_shell.h"
#include "shells/slave_shell.h"
#include "sim/engine.h"
#include "sim/kernel.h"
#include "sim/soa_state.h"
#include "tdm/allocator.h"
#include "topology/topology.h"
#include "util/status.h"

namespace aethereal::verify {
class Monitor;
}

namespace aethereal::fault {
class FaultInjector;
}

namespace aethereal::obs {
struct ObsSpec;
class ObsHub;
class ObsTap;
}

namespace aethereal::soc {

/// EngineKind is the soc-level currency too; see sim/engine.h.
using sim::EngineKind;

struct SocOptions {
  double net_mhz = 500.0;  // network clock (paper prototype: 500 MHz)
  int router_be_buffer_flits = 8;
  int stu_slots = 8;
  /// Selects the simulation engine (sim/engine.h). The simulation results
  /// are bit-identical for both engines
  /// (tests/engine_determinism_test.cpp).
  EngineKind engine = EngineKind::kSoa;
  /// Per-(NI, port) clock override in MHz; unlisted ports run on the
  /// network clock. The channel queues implement the crossing.
  std::map<std::pair<NiId, int>, double> port_mhz;
  /// Arms the guarantee-verification monitor (verify/monitor.h): a
  /// read-only network tap registered before every other module that
  /// checks slot-table conformance, GT timing, flit integrity/ordering and
  /// credit conservation each slot. Observation only — simulation results
  /// are bit-identical with or without it.
  bool verify = false;
  /// Kill switch for fault injection (DESIGN.md §12): null (the default)
  /// builds the network without a single tap, pointer set builds the
  /// FaultInjector and installs wire taps, router/NI stall gates, CNIP
  /// judges and (when the spec's retry policy is enabled) the connection
  /// manager's ack-timeout machinery. A spec whose every rate is zero and
  /// window list empty is behaviorally inert: results are byte-identical
  /// to a run with fault == nullptr. The spec is copied; the pointer only
  /// needs to outlive the constructor.
  const fault::FaultSpec* fault = nullptr;
  /// Kill switch for the observability subsystem (DESIGN.md §13): null
  /// (the default) builds the network without an ObsHub or tap — zero
  /// per-cycle cost, results byte-identical to a build without the
  /// subsystem. Pointer set (and spec enabled) constructs the hub and
  /// registers the read-only ObsTap on the network clock: per-link /
  /// per-NI / per-router counters, time-series windows and event tracing,
  /// all observation-only like the verify monitor. The spec is copied;
  /// the pointer only needs to outlive the constructor.
  const obs::ObsSpec* obs = nullptr;

  /// Rejects incompatible or out-of-range combinations with a descriptive
  /// InvalidArgument status instead of a deep assert inside construction.
  /// The Soc constructor enforces this; callers that assemble options from
  /// user input (CLIs, scenario specs) should call it first and surface
  /// the message.
  Status Validate() const;
};

/// Description of the configuration infrastructure (paper Fig. 8).
struct ConfigSetup {
  NiId cfg_ni = 0;   // NI hosting the configuration master
  int cfg_port = 0;  // its port carrying the config connections
  /// connid on cfg_port per remote NI.
  std::map<NiId, int> cfg_connid_of_ni;
  /// (port, connid) of the CNIP channel at each remote NI.
  std::map<NiId, std::pair<int, int>> cnip_of_ni;
};

class Soc {
 public:
  Soc(topology::Topology topology,
      std::vector<core::NiKernelParams> ni_params, SocOptions options = {});
  ~Soc();

  sim::Kernel& sim() { return sim_; }
  sim::Clock* net_clock() { return net_clock_; }
  const topology::Topology& topology() const { return topology_; }
  tdm::CentralizedAllocator& allocator() { return *allocator_; }

  core::NiKernel* ni(NiId id);
  router::Router* router(RouterId id);
  core::NiPort* port(NiId id, int port_index);
  sim::Clock* port_clock(NiId id, int port_index);

  /// The verification monitor (null unless SocOptions::verify).
  verify::Monitor* monitor() { return monitor_.get(); }

  /// The fault injector (null unless SocOptions::fault was set).
  fault::FaultInjector* fault_injector() { return fault_injector_.get(); }

  /// The observability hub (null unless SocOptions::obs was set and
  /// enabled) — THE pointer check the zero-cost-when-off contract hangs
  /// on (DESIGN.md §13).
  obs::ObsHub* obs_hub() { return obs_hub_.get(); }

  /// Closes the trailing sampling window and snapshots end-of-run
  /// counters into the hub. Idempotent; no-op without a hub.
  void FinalizeObs();

  /// Endpoints of every open direct connection, for the monitor's credit
  /// pairing; `connections_version()` bumps on every open/close so the
  /// monitor re-queries only when the set changed.
  std::vector<std::pair<tdm::GlobalChannel, tdm::GlobalChannel>>
  OpenChannelPairs() const;
  std::int64_t connections_version() const { return connections_version_; }

  /// Registers an application module (shell or IP) on the clock of the
  /// given NI port.
  void RegisterOnPort(sim::Module* module, NiId id, int port_index);
  /// Registers a module on the network clock.
  void RegisterOnNet(sim::Module* module);

  void RunCycles(Cycle cycles) { sim_.RunCycles(net_clock_, cycles); }

  /// Destination-queue capacity (words) of a channel — the value a peer's
  /// SPACE register must be initialized with.
  int DestQueueWordsOf(const tdm::GlobalChannel& channel) const;

  // --- direct configuration: the Fig. 9 register program applied without
  // the NoC; every static scenario, bench and most tests open this way ----

  /// Opens a bidirectional connection between channel `a` (master) and
  /// channel `b` (slave): reserves its slots and writes both channels'
  /// registers straight into the NI kernels (config/connection_program.h;
  /// the response channel gets all five registers, THRESHOLDS included).
  /// Takes effect after the next cycle. Returns a handle for
  /// CloseConnection.
  Result<int> OpenConnection(const tdm::GlobalChannel& a,
                             const tdm::GlobalChannel& b,
                             const config::ChannelQos& qos_ab = {},
                             const config::ChannelQos& qos_ba = {});
  Status CloseConnection(int handle);

  // --- runtime configuration through the NoC itself ------------------------

  /// Builds the configuration infrastructure: config shell at the Cfg NI,
  /// CNIP slave + agent at every listed remote NI (their CNIP channels are
  /// enabled at reset), and the connection manager. Must be called before
  /// the simulation starts.
  config::ConnectionManager* EnableConfig(const ConfigSetup& setup);

  config::ConnectionManager* manager() { return manager_.get(); }
  shells::ConfigShell* config_shell() { return config_shell_.get(); }
  /// The CNIP agent serving NI `ni`, or null if it has none.
  const config::CnipAgent* cnip_agent(NiId ni) const;
  /// The configuration modules EnableConfig built: the config shell, each
  /// CNIP shell and agent, and the connection manager (none before).
  std::vector<const sim::Module*> ConfigModules() const;

 private:
  sim::Clock* ClockForMhz(double mhz);

  topology::Topology topology_;
  std::vector<core::NiKernelParams> ni_params_;
  SocOptions options_;

  // One block, sized at construction, holds the routers, NI kernels and
  // link wires, each one's ports, channels and queue rings, and the
  // allocator's slot tables: a build makes a few heap allocations instead
  // of several per router, NI and link. Nothing is freed before the Soc.
  std::pmr::monotonic_buffer_resource storage_;

  sim::Kernel sim_;
  sim::Clock* net_clock_ = nullptr;
  std::map<std::int64_t, sim::Clock*> clock_by_period_;

  // Hot hardware state lives in contiguous slabs (sim/soa_state.h) carved
  // from storage_: the kernel's evaluate sweep then walks consecutive
  // memory instead of one heap allocation per router/NI/link.
  sim::Slab<router::Router> routers_;
  sim::Slab<core::NiKernel> nis_;
  sim::Slab<link::LinkWires> links_;
  std::vector<const link::LinkWires*> injection_wires_;  // per NI
  std::vector<const link::LinkWires*> delivery_wires_;   // per NI
  std::unique_ptr<tdm::CentralizedAllocator> allocator_;
  // Connections opened by OpenConnection, by handle; empty once closed.
  std::vector<std::optional<config::Connection>> direct_connections_;
  std::int64_t connections_version_ = 0;
  std::unique_ptr<verify::Monitor> monitor_;
  std::unique_ptr<fault::FaultInjector> fault_injector_;
  std::unique_ptr<obs::ObsHub> obs_hub_;
  std::unique_ptr<obs::ObsTap> obs_tap_;

  // Configuration infrastructure (EnableConfig).
  std::unique_ptr<shells::ConfigShell> config_shell_;
  std::map<NiId, std::unique_ptr<shells::SlaveShell>> cnip_shells_;
  std::map<NiId, std::unique_ptr<config::CnipAgent>> cnip_agents_;
  std::unique_ptr<config::ConnectionManager> manager_;
};

}  // namespace aethereal::soc

#endif  // AETHEREAL_SOC_SOC_H
