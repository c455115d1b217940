#include "shells/multi_connection_shell.h"

namespace aethereal::shells {

using transaction::RequestMessage;
using transaction::ResponseMessage;

MultiConnectionShell::MultiConnectionShell(std::string name,
                                           core::NiPort* port,
                                           std::vector<int> connids,
                                           SelectPolicy policy,
                                           int pipeline_cycles)
    : sim::Module(std::move(name)), policy_(policy) {
  AETHEREAL_CHECK_MSG(!connids.empty(),
                      "multi-connection shell needs a connection");
  for (int connid : connids) {
    streamers_.push_back(
        std::make_unique<MessageStreamer>(port, connid, pipeline_cycles));
    collectors_.push_back(std::make_unique<RequestCollector>(port, connid));
  }
}

int MultiConnectionShell::SelectConnection() const {
  const int n = NumConnections();
  switch (policy_) {
    case SelectPolicy::kQueueFill: {
      int best = -1;
      int best_fill = 0;
      for (int k = 0; k < n; ++k) {
        // Scan from the round-robin pointer so equal fills rotate fairly.
        const int i = (rr_pointer_ + k) % n;
        const int fill = collectors_[static_cast<std::size_t>(i)]->MessageCount();
        if (fill > best_fill) {
          best_fill = fill;
          best = i;
        }
      }
      return best;
    }
    case SelectPolicy::kRoundRobin: {
      for (int k = 0; k < n; ++k) {
        const int i = (rr_pointer_ + k) % n;
        if (collectors_[static_cast<std::size_t>(i)]->HasMessage()) return i;
      }
      return -1;
    }
  }
  return -1;
}

bool MultiConnectionShell::HasRequest() const {
  return SelectConnection() >= 0;
}

RequestMessage MultiConnectionShell::PopRequest() {
  const int selected = SelectConnection();
  AETHEREAL_CHECK_MSG(selected >= 0, name() << ": no request available");
  rr_pointer_ = (selected + 1) % NumConnections();
  last_connection_ = selected;
  RequestMessage msg = collectors_[static_cast<std::size_t>(selected)]->Pop();
  if (msg.ExpectsResponse()) response_history_.push_back(selected);
  return msg;
}

bool MultiConnectionShell::CanRespond(int payload_words) const {
  if (response_history_.empty()) return false;
  return streamers_[static_cast<std::size_t>(response_history_.front())]
      ->CanAccept(1 + payload_words);
}

void MultiConnectionShell::Respond(const ResponseMessage& msg) {
  AETHEREAL_CHECK_MSG(!response_history_.empty(),
                      name() << ": response with no outstanding request");
  const int connection = response_history_.front();
  response_history_.pop_front();
  streamers_[static_cast<std::size_t>(connection)]->Accept(
      msg.Encode(), CycleCount(), /*flush_after=*/true);
}

void MultiConnectionShell::BindIp(sim::Module* ip) {
  AETHEREAL_CHECK_MSG(ip_ == nullptr, name() << " already has an IP");
  ip_ = ip;
  for (auto& c : collectors_) c->AddListener(ip);
}

void MultiConnectionShell::Evaluate() {
  const Cycle now = CycleCount();
  bool moved = false;
  for (auto& s : streamers_) moved |= s->Tick(now);
  for (auto& c : collectors_) moved |= c->Tick();
  // The IP runs after this shell within an edge (see MasterShell).
  if (moved && ip_ != nullptr) ip_->Wake();
}

}  // namespace aethereal::shells
