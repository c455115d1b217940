// Slave shell (paper Fig. 6): desequentializes request messages for a slave
// IP module and sequentializes its responses back into the NoC.
//
// Parks while its staging buffer is empty and no request word is readable;
// Respond() and deliveries wake it (DESIGN.md §7.4).
#ifndef AETHEREAL_SHELLS_SLAVE_SHELL_H
#define AETHEREAL_SHELLS_SLAVE_SHELL_H

#include <string>

#include "shells/endpoints.h"
#include "shells/streamer.h"
#include "sim/kernel.h"
#include "transaction/message.h"

namespace aethereal::shells {

/// Default sequentialization latency of the DTL-style slave shell (the
/// paper's slave shell is smaller and shallower than the master's).
inline constexpr int kSlaveShellPipelineCycles = 1;

class SlaveShell : public sim::Module, public SlaveEndpoint {
 public:
  SlaveShell(std::string name, core::NiPort* port, int connid,
             int pipeline_cycles = kSlaveShellPipelineCycles);

  bool HasRequest() const override { return collector_.HasMessage(); }
  const transaction::RequestMessage& PeekRequest() const {
    return collector_.Front();
  }
  transaction::RequestMessage PopRequest() override { return collector_.Pop(); }

  /// True if a response with `payload_words` data words can be queued.
  bool CanRespond(int payload_words = 0) const override;

  /// Queues a response message toward the master. Responses flush the NI
  /// channel: a master is typically blocked on them.
  void Respond(const transaction::ResponseMessage& msg) override;

  void BindIp(sim::Module* ip) override;

  void Evaluate() override;

 private:
  MessageStreamer streamer_;
  RequestCollector collector_;
  sim::Module* ip_ = nullptr;
};

}  // namespace aethereal::shells

#endif  // AETHEREAL_SHELLS_SLAVE_SHELL_H
