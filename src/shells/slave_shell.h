// Slave shell (paper Fig. 6): desequentializes request messages for a slave
// IP module and sequentializes its responses back into the NoC.
//
// One shell serves one or more connections. With several, it is the
// multi-connection shell of paper Fig. 4: a slave IP speaking a
// connectionless protocol (e.g. DTL) serves them all through one port. The
// request consumed next comes from the connection with the most complete
// requests queued (queue filling, as the paper suggests), ties broken
// round-robin, and a history of connections routes the IP's in-order
// responses back.
//
// Parks while every staging buffer is empty and no request word is
// readable; Respond() and deliveries wake it (DESIGN.md §7.4).
#ifndef AETHEREAL_SHELLS_SLAVE_SHELL_H
#define AETHEREAL_SHELLS_SLAVE_SHELL_H

#include <deque>
#include <string>
#include <vector>

#include "shells/endpoints.h"
#include "shells/streamer.h"
#include "sim/kernel.h"
#include "transaction/message.h"

namespace aethereal::shells {

/// Sequentialization latency of the DTL-style slave shell (the paper's
/// slave shell is smaller and shallower than the master's).
inline constexpr int kSlaveShellPipelineCycles = 1;

class SlaveShell : public sim::Module, public SlaveEndpoint {
 public:
  SlaveShell(std::string name, core::NiPort* port, int connid);
  SlaveShell(std::string name, core::NiPort* port, std::vector<int> connids);

  /// True if some connection has a complete request.
  bool HasRequest() const override { return SelectConnection() >= 0; }

  /// The request PopRequest() would return.
  const transaction::RequestMessage& PeekRequest() const;

  /// Pops the selected request. If it expects a response, its connection
  /// is recorded so the response is routed back to it.
  transaction::RequestMessage PopRequest() override;

  /// True if a response with `payload_words` data words can be queued on
  /// the connection the next Respond() goes to: the oldest popped request
  /// awaiting a response, else the request PopRequest() would return, else
  /// the first connection.
  bool CanRespond(int payload_words = 0) const override;

  /// Queues the response to the oldest popped-but-unanswered request.
  /// Responses flush the NI channel: a master is typically blocked on them.
  void Respond(const transaction::ResponseMessage& msg) override;

  void BindIp(sim::Module* ip) override;

  void Evaluate() override;

 private:
  struct Connection {
    MessageStreamer streamer;
    RequestCollector collector;
  };

  int NumConnections() const { return static_cast<int>(connections_.size()); }
  /// The connection holding the most complete requests, scanning from the
  /// round-robin pointer so equal fills rotate; -1 if none holds one.
  int SelectConnection() const;

  std::vector<Connection> connections_;
  // The connection of each popped request awaiting a response, oldest
  // first.
  std::deque<int> history_;
  int rr_pointer_ = 0;
  sim::Module* ip_ = nullptr;
};

}  // namespace aethereal::shells

#endif  // AETHEREAL_SHELLS_SLAVE_SHELL_H
