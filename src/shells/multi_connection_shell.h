// Multi-connection shell (paper Fig. 4): lets a slave IP speaking a
// connectionless protocol (e.g. DTL) serve several connections through one
// port. A scheduler selects which connection's request message is consumed
// next (based on queue filling, as the paper suggests, with round-robin
// tie-break), and a connection-id history routes the IP's in-order
// responses back to the right connection.
#ifndef AETHEREAL_SHELLS_MULTI_CONNECTION_SHELL_H
#define AETHEREAL_SHELLS_MULTI_CONNECTION_SHELL_H

#include <deque>
#include <memory>
#include <string>
#include <vector>

#include "shells/endpoints.h"
#include "shells/streamer.h"
#include "sim/kernel.h"
#include "transaction/message.h"

namespace aethereal::shells {

class MultiConnectionShell : public sim::Module, public SlaveEndpoint {
 public:
  enum class SelectPolicy { kQueueFill, kRoundRobin };

  MultiConnectionShell(std::string name, core::NiPort* port,
                       std::vector<int> connids,
                       SelectPolicy policy = SelectPolicy::kQueueFill,
                       int pipeline_cycles = 1);

  int NumConnections() const { return static_cast<int>(collectors_.size()); }

  /// True if some connection has a complete request.
  bool HasRequest() const override;

  /// Pops the scheduled request. If it expects a response, the connection
  /// is recorded so the next Respond() is routed back correctly.
  transaction::RequestMessage PopRequest() override;

  /// Connection index the *last popped* request arrived on (for IPs that
  /// care, e.g. for differentiated service).
  int LastRequestConnection() const { return last_connection_; }

  bool CanRespond(int payload_words = 0) const override;

  /// Responds to the oldest popped-but-unanswered request.
  void Respond(const transaction::ResponseMessage& msg) override;

  void BindIp(sim::Module* ip) override;

  void Evaluate() override;

 private:
  int SelectConnection() const;

  std::vector<std::unique_ptr<MessageStreamer>> streamers_;
  std::vector<std::unique_ptr<RequestCollector>> collectors_;
  sim::Module* ip_ = nullptr;  // runs every edge itself; wakes its IP
  SelectPolicy policy_;
  std::deque<int> response_history_;  // connection index per expected resp.
  mutable int rr_pointer_ = 0;
  int last_connection_ = -1;
};

}  // namespace aethereal::shells

#endif  // AETHEREAL_SHELLS_MULTI_CONNECTION_SHELL_H
