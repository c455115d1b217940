// Configuration shell (paper Figs. 8-9): sits at the configuration master's
// NI and gives it a DTL-MMIO view of every NI register in the NoC.
//
// "At the configuration module Cfg's NI, we introduce a configuration
// shell, which, based on the address, configures the local NI (NI1), or
// sends configuration messages via the NoC to other NIs. The configuration
// shell optimizes away the need for an extra data port at NI1 to be
// connected to NI1's CNIP."
//
// An access names its target NI and register offset. Local accesses
// execute directly on the local NI kernel's register file (one cycle);
// remote accesses are sequentialized into request messages on the
// configuration connection toward the target NI's CNIP.
//
// Parks while no local access is pending, every staging buffer is empty and
// no response word is readable; issue calls and deliveries wake it
// (DESIGN.md §7.4).
#ifndef AETHEREAL_SHELLS_CONFIG_SHELL_H
#define AETHEREAL_SHELLS_CONFIG_SHELL_H

#include <deque>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "shells/streamer.h"
#include "sim/kernel.h"
#include "transaction/message.h"
#include "util/status.h"

namespace aethereal::shells {

/// Sequentialization latency of the configuration shell's remote accesses.
inline constexpr int kConfigShellPipelineCycles = 1;

class ConfigShell : public sim::Module {
 public:
  /// `local_kernel`: the NI this shell sits on. `port`: the kernel port
  /// whose channels carry configuration connections. `remote_connids`:
  /// connid on that port per reachable remote NI.
  ConfigShell(std::string name, core::NiKernel* local_kernel,
              core::NiPort* port, std::map<NiId, int> remote_connids);

  /// True if the configuration connection toward `ni` exists (the local NI
  /// needs none).
  bool CanReach(NiId ni) const;

  bool CanIssue() const;

  /// Writes `value` to `reg` of NI `ni`. With `acked`, an acknowledgment
  /// response is delivered through PopResponse(). Returns the transaction's
  /// assigned transaction id.
  int WriteRegister(NiId ni, Word reg, Word value, bool acked);

  /// Reads `reg` of NI `ni`; the value arrives as a response message.
  int ReadRegister(NiId ni, Word reg);

  bool HasResponse() const;
  transaction::ResponseMessage PopResponse();

  /// Binds the agent that issues through this shell and collects its
  /// responses (the connection manager), like Endpoint::BindIp: the shell
  /// wakes it on every edge on which it moves a word or still holds a
  /// local access, and it listens on every response queue.
  void BindAgent(sim::Module* agent);

  /// Removes and returns the first queued response whose transaction id is
  /// in `tids` (several agents can share the shell; each takes only its
  /// own responses).
  bool TakeResponseFor(const std::vector<int>& tids,
                       transaction::ResponseMessage* out);

  /// Register writes issued so far, split by destination (used by the
  /// configuration benches to reproduce the paper's register counts).
  std::int64_t local_writes() const { return local_writes_; }
  std::int64_t remote_writes() const { return remote_writes_; }

  void Evaluate() override;

 private:
  struct LocalOp {
    bool is_read;
    Word reg;
    Word value;
    bool acked;
    int transaction_id;
    Cycle ready;  // completes one cycle after issue
  };

  int NextTid();
  MessageStreamer* StreamerFor(NiId ni);

  core::NiKernel* local_kernel_;
  std::map<NiId, int> remote_connids_;
  std::vector<std::unique_ptr<MessageStreamer>> streamers_;
  std::vector<std::unique_ptr<ResponseCollector>> collectors_;
  std::map<NiId, std::size_t> streamer_index_;
  std::deque<LocalOp> local_ops_;
  std::deque<transaction::ResponseMessage> responses_;
  sim::Module* agent_ = nullptr;
  int tid_ = 0;
  std::int64_t local_writes_ = 0;
  std::int64_t remote_writes_ = 0;
};

}  // namespace aethereal::shells

#endif  // AETHEREAL_SHELLS_CONFIG_SHELL_H
