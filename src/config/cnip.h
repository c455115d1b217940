// CNIP agent: executes configuration transactions on an NI's register file.
//
// "NIs are configured via a configuration port (CNIP), which offers a
// memory-mapped view on all control registers in the NIs" (paper §4.3).
// The CNIP is an ordinary slave on the NoC: request messages arrive on a
// dedicated channel (enabled at reset so the NoC can bootstrap its own
// configuration), are executed one per cycle on the kernel's register file,
// and acknowledged / answered in order.
//
// The agent parks while it has no request, and until a fault's delay has
// passed; the shell wakes it for every request (DESIGN.md §7.4).
#ifndef AETHEREAL_CONFIG_CNIP_H
#define AETHEREAL_CONFIG_CNIP_H

#include <string>

#include "core/ni_kernel.h"
#include "shells/slave_shell.h"
#include "sim/kernel.h"

namespace aethereal::fault {
class FaultInjector;
}

namespace aethereal::config {

class CnipAgent : public sim::Module {
 public:
  /// `kernel`: the NI whose registers this agent serves. `shell`: a slave
  /// shell bound to the CNIP channel of that NI.
  CnipAgent(std::string name, core::NiKernel* kernel,
            shells::SlaveShell* shell);

  void Evaluate() override;

  std::int64_t writes_executed() const { return writes_executed_; }

  /// Arms fault injection (DESIGN.md §12): each arriving configuration
  /// request is judged once — pass, drop (discarded unexecuted, its ack
  /// never sent), or delay (held at the agent for a fixed number of
  /// cycles before executing). Requests addressing `cnip_channel`'s own
  /// register block (the Fig. 9 bootstrap writes that configure the CNIP
  /// response channel) are exempt: losing one wedges the config transport
  /// itself — request-channel credits return over the response channel —
  /// which no transaction-layer retry can recover, so the bootstrap is
  /// reliable by construction, as in the real design.
  void SetFaultInjector(fault::FaultInjector* injector,
                        ChannelId cnip_channel) {
    fault_ = injector;
    cnip_channel_ = cnip_channel;
  }

 private:
  /// True for register addresses inside the CNIP channel's own block.
  bool IsBootstrapAddress(Word address) const;

  core::NiKernel* kernel_;
  shells::SlaveShell* shell_;
  std::int64_t writes_executed_ = 0;
  fault::FaultInjector* fault_ = nullptr;
  ChannelId cnip_channel_ = kInvalidId;
  // Fault verdict for the request at the head of the queue; decided exactly
  // once per request (when it first reaches the head) and consumed when the
  // request is popped or discarded.
  bool verdict_valid_ = false;
  bool verdict_drop_ = false;
  Cycle release_at_ = 0;
};

}  // namespace aethereal::config

#endif  // AETHEREAL_CONFIG_CNIP_H
