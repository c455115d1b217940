#include "shells/slave_shell.h"

#include <algorithm>

namespace aethereal::shells {

using transaction::RequestMessage;
using transaction::ResponseMessage;

SlaveShell::SlaveShell(std::string name, core::NiPort* port, int connid)
    : SlaveShell(std::move(name), port, std::vector<int>{connid}) {}

SlaveShell::SlaveShell(std::string name, core::NiPort* port,
                       std::vector<int> connids)
    : sim::Module(std::move(name)) {
  AETHEREAL_CHECK_MSG(!connids.empty(), "a slave shell needs a connection");
  connections_.reserve(connids.size());
  for (int connid : connids) {
    connections_.push_back(
        Connection{MessageStreamer(port, connid, kSlaveShellPipelineCycles),
                   RequestCollector(port, connid)});
    connections_.back().collector.AddListener(this);
  }
}

void SlaveShell::BindIp(sim::Module* ip) {
  AETHEREAL_CHECK_MSG(ip_ == nullptr, name() << " already has an IP");
  ip_ = ip;
  for (Connection& c : connections_) c.collector.AddListener(ip);
}

int SlaveShell::SelectConnection() const {
  const int n = NumConnections();
  int best = -1;
  int best_fill = 0;
  for (int k = 0; k < n; ++k) {
    const int i = (rr_pointer_ + k) % n;
    const int fill =
        connections_[static_cast<std::size_t>(i)].collector.MessageCount();
    if (fill > best_fill) {
      best_fill = fill;
      best = i;
    }
  }
  return best;
}

const RequestMessage& SlaveShell::PeekRequest() const {
  const int selected = SelectConnection();
  AETHEREAL_CHECK_MSG(selected >= 0, name() << ": no request available");
  return connections_[static_cast<std::size_t>(selected)].collector.Front();
}

RequestMessage SlaveShell::PopRequest() {
  const int selected = SelectConnection();
  AETHEREAL_CHECK_MSG(selected >= 0, name() << ": no request available");
  rr_pointer_ = (selected + 1) % NumConnections();
  RequestMessage msg =
      connections_[static_cast<std::size_t>(selected)].collector.Pop();
  if (msg.ExpectsResponse()) history_.push_back(selected);
  return msg;
}

bool SlaveShell::CanRespond(int payload_words) const {
  const int target =
      history_.empty() ? std::max(SelectConnection(), 0) : history_.front();
  return connections_[static_cast<std::size_t>(target)].streamer.CanAccept(
      1 + payload_words);
}

void SlaveShell::Respond(const ResponseMessage& msg) {
  AETHEREAL_CHECK_MSG(!history_.empty(),
                      name() << ": response with no outstanding request");
  const int connection = history_.front();
  history_.pop_front();
  connections_[static_cast<std::size_t>(connection)].streamer.Accept(
      msg.Encode(), CycleCount(), /*flush_after=*/true);
  Wake();
}

void SlaveShell::Evaluate() {
  const Cycle now = CycleCount();
  bool moved = false;
  bool busy = false;
  for (Connection& c : connections_) moved |= c.collector.Tick();
  for (Connection& c : connections_) {
    moved |= c.streamer.Tick(now);
    busy |= !c.streamer.Empty() || c.collector.Readable();
  }
  // The IP runs after this shell within an edge (see MasterShell).
  if (moved && ip_ != nullptr) ip_->Wake();
  if (!busy) Park();
}

}  // namespace aethereal::shells
