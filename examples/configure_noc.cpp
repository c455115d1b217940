// Run-time NoC (re)configuration using the NoC itself (paper §3/§4.3,
// Figs. 8-9).
//
// A configuration master (Cfg) on NI0 opens a guaranteed-throughput
// connection between a producer on NI1 and a consumer on NI2 by writing
// their NI registers — remote ones via configuration messages routed over
// the network to each NI's CNIP, with no separate control interconnect.
// The connection is then reconfigured at run time (closed and reopened with
// a different slot reservation) while the system keeps running.
//
// Build & run:  ./example_configure_noc
#include <iostream>

#include "ip/stream.h"
#include "soc/soc.h"
#include "topology/builders.h"

using namespace aethereal;

namespace {

core::NiKernelParams NiWithChannels(int channels) {
  core::NiKernelParams params;
  core::PortParams port;
  port.channels.assign(static_cast<std::size_t>(channels),
                       core::ChannelParams{16, 16, 1});
  params.ports.push_back(port);
  return params;
}

void RunUntilIdle(soc::Soc& soc, config::ConnectionManager& manager) {
  while (!manager.Idle()) soc.RunCycles(10);
}

}  // namespace

int main() {
  auto star = topology::BuildStar(3);
  std::vector<core::NiKernelParams> params{
      NiWithChannels(2),  // NI0: Cfg, one config channel per remote NI
      NiWithChannels(2),  // NI1: CNIP + producer data channel
      NiWithChannels(2),  // NI2: CNIP + consumer data channel
  };
  soc::Soc soc(std::move(star.topology), std::move(params));

  soc::ConfigSetup setup;
  setup.cfg_ni = 0;
  setup.cfg_port = 0;
  setup.cfg_connid_of_ni = {{1, 0}, {2, 1}};
  setup.cnip_of_ni = {{1, {0, 0}}, {2, {0, 0}}};
  config::ConnectionManager* manager = soc.EnableConfig(setup);

  // Two traffic phases: producer1 before the reconfiguration, producer2
  // (held idle until Activate()) after it.
  constexpr int kPhaseWords = 400;
  const ip::Injection phase{.period = 4, .total_words = kPhaseWords};
  ip::StreamSource producer1("producer1", soc.port(1, 0), 1, phase);
  ip::StreamSource producer2("producer2", soc.port(1, 0), 1, phase);
  producer2.Deactivate();
  ip::StreamConsumer consumer("consumer", soc.port(2, 0), 1);
  soc.RegisterOnPort(&producer1, 1, 0);
  soc.RegisterOnPort(&producer2, 1, 0);
  soc.RegisterOnPort(&consumer, 2, 0);

  // --- Open a GT connection producer -> consumer at run time -------------
  config::ConnectionSpec spec;
  spec.master = tdm::GlobalChannel{1, 1};
  spec.slave = tdm::GlobalChannel{2, 1};
  spec.request.gt = true;
  spec.request.gt_slots = 2;

  const Cycle t0 = soc.net_clock()->cycles();
  const int handle = manager->RequestOpen(spec);
  RunUntilIdle(soc, *manager);
  std::cout << "open #" << handle << ": "
            << config::ConnectionStateName(manager->StateOf(handle)) << " in "
            << (manager->CompletionCycleOf(handle) - t0) << " cycles\n";
  std::cout << "  register writes so far: "
            << soc.config_shell()->local_writes() << " local, "
            << soc.config_shell()->remote_writes()
            << " remote (over the NoC)\n";

  // Phase 1: run traffic to completion on the new connection.
  while (consumer.words_read() < kPhaseWords) soc.RunCycles(10);
  std::cout << "  traffic: " << consumer.words_read()
            << " words delivered, latency max "
            << consumer.latency().Max() << " cycles (GT, 2/8 slots)\n";
  soc.RunCycles(200);  // let the final credits drain

  // --- Reconfigure at run time: close, reopen with more bandwidth --------
  if (auto s = manager->RequestClose(handle); !s.ok()) {
    std::cerr << "close failed: " << s << "\n";
    return 1;
  }
  RunUntilIdle(soc, *manager);
  std::cout << "closed #" << handle << " (slots released)\n";

  spec.request.gt_slots = 6;
  const int handle2 = manager->RequestOpen(spec);
  RunUntilIdle(soc, *manager);
  std::cout << "reopen #" << handle2 << ": "
            << config::ConnectionStateName(manager->StateOf(handle2))
            << " with 6/8 slots — config connections were reused\n";

  // Phase 2: new traffic on the reconfigured connection.
  producer2.Activate(soc.port_clock(1, 0)->cycles());
  while (consumer.words_read() < 2 * kPhaseWords) soc.RunCycles(10);
  std::cout << "  traffic after reconfig: " << kPhaseWords
            << " more words delivered\n";

  // --- The slot tables live in the Cfg module (centralized model) --------
  const auto& table =
      soc.allocator().TableOf(topology::LinkId{true, 1, 0});
  std::cout << "  injection link of NI1: " << table.Reserved()
            << "/8 slots reserved, jitter bound "
            << table.MaxGap(spec.master) << " slots\n";
  std::cout << "configure_noc done.\n";
  return 0;
}
