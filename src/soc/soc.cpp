#include "soc/soc.h"

#include <cmath>

#include "core/registers.h"
#include "fault/injector.h"
#include "obs/hub.h"
#include "obs/spec.h"
#include "obs/tap.h"
#include "util/check.h"
#include "verify/monitor.h"

namespace aethereal::soc {

namespace regs = core::regs;
using topology::EndpointKind;

Status SocOptions::Validate() const {
  if (!(net_mhz > 0.0)) {
    return InvalidArgumentError("net_mhz must be positive");
  }
  if (router_be_buffer_flits <= 0) {
    return InvalidArgumentError("router_be_buffer_flits must be positive");
  }
  if (stu_slots <= 0 || stu_slots > regs::kMaxStuSlots) {
    return InvalidArgumentError(
        "stu_slots must be in [1, " + std::to_string(regs::kMaxStuSlots) +
        "] (the SLOTS register is a 32-bit mask)");
  }
  for (const auto& [port, mhz] : port_mhz) {
    if (!(mhz > 0.0)) {
      return InvalidArgumentError(
          "port clock for NI " + std::to_string(port.first) + " port " +
          std::to_string(port.second) + " must be a positive frequency");
    }
  }
  return OkStatus();
}

namespace {

/// Bytes the Soc's storage block needs for a network of `topology` with
/// `ni_params`: an upper bound, since Topology::NumLinks() counts every
/// router port and the Soc builds at most that many link wires.
std::size_t StorageBytes(const topology::Topology& topology,
                         const std::vector<core::NiKernelParams>& ni_params,
                         const SocOptions& options) {
  const auto links = static_cast<std::size_t>(topology.NumLinks());
  std::size_t bytes =
      sim::Slab<router::Router>::BytesFor(
          static_cast<std::size_t>(topology.NumRouters())) +
      sim::Slab<core::NiKernel>::BytesFor(ni_params.size()) +
      sim::Slab<link::LinkWires>::BytesFor(links) + 3 * sim::kAllocationPad +
      tdm::CentralizedAllocator::StorageBytes(topology.NumLinks(),
                                              options.stu_slots);
  for (RouterId r = 0; r < topology.NumRouters(); ++r) {
    bytes += router::Router::StorageBytes(
        {topology.RouterPorts(r), options.router_be_buffer_flits});
  }
  for (const core::NiKernelParams& params : ni_params) {
    bytes += core::NiKernel::StorageBytes(params);
  }
  return bytes;
}

}  // namespace

Soc::Soc(topology::Topology topology,
         std::vector<core::NiKernelParams> ni_params, SocOptions options)
    : topology_(std::move(topology)),
      ni_params_(std::move(ni_params)),
      options_(std::move(options)),
      storage_(StorageBytes(topology_, ni_params_, options_)) {
  AETHEREAL_CHECK_MSG(
      static_cast<int>(ni_params_.size()) == topology_.NumNis(),
      "one NiKernelParams per NI required");
  const Status options_status = options_.Validate();
  AETHEREAL_CHECK_MSG(options_status.ok(),
                      "invalid SocOptions: " << options_status.message());
  sim_.set_engine(options_.engine);
  net_clock_ = sim_.AddClockMhz("net", options_.net_mhz);
  clock_by_period_[net_clock_->period_ps()] = net_clock_;

  // Fault injection (DESIGN.md §12): built before the network so the taps
  // and stall gates can be installed during construction. The spec is
  // copied into the injector; options_.fault is not kept.
  if (options_.fault != nullptr) {
    fault_injector_ = std::make_unique<fault::FaultInjector>(*options_.fault);
  }

  // The verification monitor must be the FIRST module on the network
  // clock: modules evaluate in registration order, so running before every
  // NI and router lets it observe a consistent end-of-previous-slot
  // snapshot (see verify/monitor.h). It is attached after the network is
  // built, below.
  if (options_.verify) {
    monitor_ = std::make_unique<verify::Monitor>("verify_monitor");
    net_clock_->Register(monitor_.get());
  }

  // The observability tap follows the monitor's contract (read-only,
  // registered before the NoC hardware, observation at slot boundaries).
  // When options_.obs is null or disabled NOTHING is built and no wire
  // counts its drives — that absent module and one null check per wire
  // drive are the subsystem's entire cost when off (DESIGN.md §13).
  if (options_.obs != nullptr && options_.obs->Enabled()) {
    obs_hub_ = std::make_unique<obs::ObsHub>(*options_.obs);
    obs_tap_ = std::make_unique<obs::ObsTap>(obs_hub_.get());
    net_clock_->Register(obs_tap_.get());
  }
  std::vector<link::LinkWires*> obs_links;

  // All link wires live in one contiguous slab, bound to the network clock;
  // size it exactly: two NI links per NI plus every directed
  // router-to-router link. Wires are stamped registers, not clocked
  // modules, so nothing here is registered on the clock.
  int num_links = 2 * topology_.NumNis();
  for (RouterId r = 0; r < topology_.NumRouters(); ++r) {
    for (int p = 0; p < topology_.RouterPorts(r); ++p) {
      if (topology_.PortPeer(r, p).kind == EndpointKind::kRouter) ++num_links;
    }
  }
  links_.Reset(static_cast<std::size_t>(num_links), &storage_);

  // Routers.
  routers_.Reset(static_cast<std::size_t>(topology_.NumRouters()), &storage_);
  for (RouterId r = 0; r < topology_.NumRouters(); ++r) {
    router::RouterConfig config;
    config.num_ports = topology_.RouterPorts(r);
    config.be_buffer_flits = options_.router_be_buffer_flits;
    router::Router* router =
        routers_.Emplace("router" + std::to_string(r), r, config, &storage_);
    if (fault_injector_ != nullptr) {
      router->SetFaultInjector(fault_injector_.get());
    }
    net_clock_->Register(router);
  }

  // NIs and their links to the routers.
  nis_.Reset(ni_params_.size(), &storage_);
  for (NiId n = 0; n < topology_.NumNis(); ++n) {
    AETHEREAL_CHECK_MSG(ni_params_[static_cast<std::size_t>(n)].stu_slots ==
                            options_.stu_slots,
                        "NI stu_slots must match SocOptions.stu_slots");
    core::NiKernel* kernel =
        nis_.Emplace("ni" + std::to_string(n), n,
                     ni_params_[static_cast<std::size_t>(n)], &storage_);
    if (fault_injector_ != nullptr) {
      kernel->SetFaultInjector(fault_injector_.get());
    }
    net_clock_->Register(kernel);

    link::LinkWires* inj = links_.Emplace(net_clock_);
    link::LinkWires* del = links_.Emplace(net_clock_);
    // Fault taps go on delivery and router-to-router links only: injection
    // links (ni -> router) are where the verification monitor observes the
    // traffic it checks, so a fault there would be invisible by
    // construction (DESIGN.md §12).
    if (fault_injector_ != nullptr) {
      del->data.SetFaultTap(
          fault_injector_.get(),
          fault_injector_->RegisterLinkSite("router->ni" +
                                            std::to_string(n)));
    }

    injection_wires_.push_back(inj);
    delivery_wires_.push_back(del);

    const RouterId r = topology_.NiRouter(n);
    const int rp = topology_.NiRouterPort(n);
    if (obs_hub_ != nullptr) {
      obs_hub_->RegisterLink(obs::LinkKind::kInjection,
                             "ni" + std::to_string(n) + "->router" +
                                 std::to_string(r));
      obs_links.push_back(inj);
      obs_hub_->RegisterLink(obs::LinkKind::kDelivery,
                             "router" + std::to_string(r) + "->ni" +
                                 std::to_string(n));
      obs_links.push_back(del);
    }
    kernel->ConnectToRouter(inj, del, options_.router_be_buffer_flits);
    routers_[static_cast<std::size_t>(r)].ConnectInput(rp, inj);
    // The NI always sinks arriving BE flits (end-to-end flow control has
    // already guaranteed destination-queue space), so a small credit pool
    // only models the delivery pipelining.
    routers_[static_cast<std::size_t>(r)].ConnectOutput(
        rp, del, options_.router_be_buffer_flits);

    // Port clocks.
    for (int p = 0; p < kernel->NumPorts(); ++p) {
      auto it = options_.port_mhz.find({n, p});
      sim::Clock* clock =
          (it == options_.port_mhz.end()) ? net_clock_ : ClockForMhz(it->second);
      kernel->BindPortClock(p, clock);
    }
  }

  // Router-to-router links (each directed link once, from its source side).
  for (RouterId r = 0; r < topology_.NumRouters(); ++r) {
    for (int p = 0; p < topology_.RouterPorts(r); ++p) {
      const topology::Endpoint& peer = topology_.PortPeer(r, p);
      if (peer.kind != EndpointKind::kRouter) continue;
      link::LinkWires* l = links_.Emplace(net_clock_);
      if (fault_injector_ != nullptr) {
        l->data.SetFaultTap(
            fault_injector_.get(),
            fault_injector_->RegisterLinkSite(
                "router" + std::to_string(r) + ".p" + std::to_string(p) +
                "->router" + std::to_string(peer.id)));
      }
      routers_[static_cast<std::size_t>(r)].ConnectOutput(
          p, l, options_.router_be_buffer_flits);
      routers_[static_cast<std::size_t>(peer.id)].ConnectInput(peer.port, l);
      if (obs_hub_ != nullptr) {
        obs_hub_->RegisterLink(obs::LinkKind::kRouterRouter,
                               "router" + std::to_string(r) + ".p" +
                                   std::to_string(p) + "->router" +
                                   std::to_string(peer.id));
        obs_links.push_back(l);
      }
    }
  }

  allocator_ = std::make_unique<tdm::CentralizedAllocator>(
      &topology_, options_.stu_slots, &storage_);

  // Attaching the tap sets every link's wires counting their drives.
  if (obs_tap_ != nullptr) {
    obs::ObsHookup hookup;
    hookup.links = std::move(obs_links);
    for (core::NiKernel& ni : nis_) hookup.nis.push_back(&ni);
    for (router::Router& router : routers_) hookup.routers.push_back(&router);
    obs_tap_->Attach(std::move(hookup));
  }

  if (monitor_ != nullptr) {
    verify::MonitorHookup hookup;
    hookup.topology = &topology_;
    hookup.allocator = allocator_.get();
    for (core::NiKernel& ni : nis_) hookup.nis.push_back(&ni);
    hookup.injection = injection_wires_;
    hookup.delivery = delivery_wires_;
    hookup.dest_queue_words = [this](const tdm::GlobalChannel& channel) {
      return DestQueueWordsOf(channel);
    };
    hookup.channel_pairs = [this] { return OpenChannelPairs(); };
    hookup.pairs_version = [this] { return connections_version(); };
    monitor_->Attach(std::move(hookup));
    // The monitor checks an NI's slot tables per slot only after they
    // change, so every change is announced before it lands.
    verify::Monitor* monitor = monitor_.get();
    for (core::NiKernel& ni : nis_) {
      ni.SetTableWriteHook(
          [monitor, id = ni.id()] { monitor->NoteTableChange(id); });
    }
    allocator_->SetInjectionTableHook(
        [monitor](NiId ni) { monitor->NoteTableChange(ni); });
    if (fault_injector_ != nullptr) {
      const fault::FaultSpec& spec = fault_injector_->spec();
      verify::FaultContext context;
      // Wire drops and router stalls lose whole packets. NI stalls only
      // delay traffic, and each corrupted flit carries the injector's mark.
      context.drops_possible =
          spec.link_drop_rate > 0.0 || !spec.router_stalls.empty();
      monitor_->SetFaultContext(context);
    }
  }
}

Soc::~Soc() = default;

void Soc::FinalizeObs() {
  if (obs_tap_ != nullptr) obs_tap_->Finalize();
}

std::vector<std::pair<tdm::GlobalChannel, tdm::GlobalChannel>>
Soc::OpenChannelPairs() const {
  std::vector<std::pair<tdm::GlobalChannel, tdm::GlobalChannel>> pairs;
  for (const std::optional<config::Connection>& connection :
       direct_connections_) {
    if (connection.has_value()) {
      pairs.emplace_back(connection->spec.master, connection->spec.slave);
    }
  }
  // Connections opened at runtime over the NoC (the Fig. 9 path) count
  // too: the monitor's credit pairing must follow reconfiguration.
  if (manager_ != nullptr) {
    for (const auto& pair : manager_->OpenPairs()) pairs.push_back(pair);
  }
  return pairs;
}

sim::Clock* Soc::ClockForMhz(double mhz) {
  const auto period = static_cast<Picoseconds>(std::llround(1e6 / mhz));
  auto it = clock_by_period_.find(period);
  if (it != clock_by_period_.end()) return it->second;
  sim::Clock* clock =
      sim_.AddClock("port_clk_" + std::to_string(period) + "ps", period);
  clock_by_period_[period] = clock;
  return clock;
}

core::NiKernel* Soc::ni(NiId id) {
  AETHEREAL_CHECK(id >= 0 && id < static_cast<NiId>(nis_.size()));
  return &nis_[static_cast<std::size_t>(id)];
}

router::Router* Soc::router(RouterId id) {
  AETHEREAL_CHECK(id >= 0 && id < static_cast<RouterId>(routers_.size()));
  return &routers_[static_cast<std::size_t>(id)];
}

core::NiPort* Soc::port(NiId id, int port_index) {
  return ni(id)->port(port_index);
}

sim::Clock* Soc::port_clock(NiId id, int port_index) {
  return port(id, port_index)->clock();  // bound at construction
}

void Soc::RegisterOnPort(sim::Module* module, NiId id, int port_index) {
  port_clock(id, port_index)->Register(module);
}

void Soc::RegisterOnNet(sim::Module* module) { net_clock_->Register(module); }

int Soc::DestQueueWordsOf(const tdm::GlobalChannel& channel) const {
  AETHEREAL_CHECK(channel.ni >= 0 &&
                  channel.ni < static_cast<NiId>(ni_params_.size()));
  const auto& params = ni_params_[static_cast<std::size_t>(channel.ni)];
  ChannelId flat = 0;
  for (const auto& port : params.ports) {
    for (const auto& ch : port.channels) {
      if (flat == channel.channel) return ch.dest_queue_words;
      ++flat;
    }
  }
  AETHEREAL_CHECK_MSG(false, "channel " << channel.channel
                                        << " not found in NI " << channel.ni);
  return 0;
}

namespace {

// Applies a connection's register writes straight to the NI kernels,
// skipping every write after the first that fails.
struct DirectWriter {
  Soc* soc;
  Status status;
  void operator()(NiId ni, Word address, Word value) {
    if (status.ok()) status = soc->ni(ni)->WriteRegister(address, value);
  }
};

}  // namespace

Result<int> Soc::OpenConnection(const tdm::GlobalChannel& a,
                                const tdm::GlobalChannel& b,
                                const config::ChannelQos& qos_ab,
                                const config::ChannelQos& qos_ba) {
  auto connection = config::ReserveConnection(
      config::ConnectionSpec{a, b, qos_ab, qos_ba}, topology_, *allocator_);
  if (!connection.ok()) return connection.status();
  // Both channels get all five registers: unlike Fig. 9 step 3, the
  // response channel's THRESHOLDS are written too.
  DirectWriter write{this, OkStatus()};
  config::EmitOpenWrites(*connection, config::Direction::kRequest,
                         DestQueueWordsOf(b), /*full_set=*/true, write);
  // A failed write means `a` names no channel of its NI, and
  // DestQueueWordsOf(a) would abort on it.
  if (!write.status.ok()) return write.status;
  config::EmitOpenWrites(*connection, config::Direction::kResponse,
                         DestQueueWordsOf(a), /*full_set=*/true, write);
  if (!write.status.ok()) return write.status;
  direct_connections_.push_back(std::move(*connection));
  ++connections_version_;
  return static_cast<int>(direct_connections_.size() - 1);
}

Status Soc::CloseConnection(int handle) {
  if (handle < 0 ||
      handle >= static_cast<int>(direct_connections_.size())) {
    return InvalidArgumentError("unknown connection handle");
  }
  std::optional<config::Connection>& connection =
      direct_connections_[static_cast<std::size_t>(handle)];
  if (!connection.has_value()) {
    return FailedPreconditionError("connection not open");
  }
  DirectWriter write{this, OkStatus()};
  config::EmitCloseWrites(*connection, config::Direction::kRequest, write);
  config::EmitCloseWrites(*connection, config::Direction::kResponse, write);
  if (!write.status.ok()) return write.status;
  config::ReleaseConnection(*connection, *allocator_);
  connection.reset();
  ++connections_version_;
  return OkStatus();
}

const config::CnipAgent* Soc::cnip_agent(NiId ni) const {
  auto it = cnip_agents_.find(ni);
  return it == cnip_agents_.end() ? nullptr : it->second.get();
}

std::vector<const sim::Module*> Soc::ConfigModules() const {
  std::vector<const sim::Module*> modules;
  if (manager_ == nullptr) return modules;
  modules.push_back(config_shell_.get());
  for (const auto& [ni, shell] : cnip_shells_) {
    modules.push_back(shell.get());
    modules.push_back(cnip_agents_.at(ni).get());
  }
  modules.push_back(manager_.get());
  return modules;
}

config::ConnectionManager* Soc::EnableConfig(const ConfigSetup& setup) {
  AETHEREAL_CHECK_MSG(manager_ == nullptr, "config already enabled");
  std::map<NiId, int> remote_connids = setup.cfg_connid_of_ni;

  config_shell_ = std::make_unique<shells::ConfigShell>(
      "config_shell", ni(setup.cfg_ni), port(setup.cfg_ni, setup.cfg_port),
      remote_connids);
  RegisterOnPort(config_shell_.get(), setup.cfg_ni, setup.cfg_port);

  std::map<NiId, config::ConnectionManager::CnipInfo> cnip_info;
  for (const auto& [target, port_connid] : setup.cnip_of_ni) {
    const auto [cnip_port, cnip_connid] = port_connid;
    core::NiPort* p = port(target, cnip_port);
    auto& shell = cnip_shells_[target];
    shell = std::make_unique<shells::SlaveShell>(
        "cnip_shell_ni" + std::to_string(target), p, cnip_connid);
    RegisterOnPort(shell.get(), target, cnip_port);
    auto& agent = cnip_agents_[target];
    agent = std::make_unique<config::CnipAgent>(
        "cnip_agent_ni" + std::to_string(target), ni(target), shell.get());
    const ChannelId flat = p->GlobalChannelOf(cnip_connid);
    if (fault_injector_ != nullptr) {
      agent->SetFaultInjector(fault_injector_.get(), flat);
    }
    RegisterOnPort(agent.get(), target, cnip_port);

    cnip_info[target] = config::ConnectionManager::CnipInfo{
        flat, DestQueueWordsOf(tdm::GlobalChannel{target, flat})};
    // The CNIP channel is enabled at hardware reset so the NoC can
    // bootstrap its own configuration (Fig. 9 step 2 arrives through it).
    AETHEREAL_CHECK(ni(target)
                        ->WriteRegister(regs::ChannelRegAddr(
                                            flat, regs::ChannelReg::kCtrl),
                                        regs::kCtrlEnable)
                        .ok());
  }

  auto lookup = [this](const tdm::GlobalChannel& channel) {
    return DestQueueWordsOf(channel);
  };
  manager_ = std::make_unique<config::ConnectionManager>(
      "connection_manager", &topology_, allocator_.get(), config_shell_.get(),
      port(setup.cfg_ni, setup.cfg_port), setup.cfg_ni,
      setup.cfg_connid_of_ni, std::move(cnip_info), lookup);
  // Every runtime open/close changes the open-pair set the verification
  // monitor pairs credits over; bump the version so it re-queries.
  manager_->SetOnConnectionsChanged([this] { ++connections_version_; });
  if (fault_injector_ != nullptr &&
      fault_injector_->spec().retry.enabled) {
    manager_->SetRetryPolicy(fault_injector_->spec().retry);
  }
  RegisterOnPort(manager_.get(), setup.cfg_ni, setup.cfg_port);
  return manager_.get();
}

}  // namespace aethereal::soc
