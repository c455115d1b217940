#include "shells/slave_shell.h"

namespace aethereal::shells {

SlaveShell::SlaveShell(std::string name, core::NiPort* port, int connid,
                       int pipeline_cycles)
    : sim::Module(std::move(name)),
      streamer_(port, connid, pipeline_cycles),
      collector_(port, connid) {
  collector_.AddListener(this);
}

void SlaveShell::BindIp(sim::Module* ip) {
  AETHEREAL_CHECK_MSG(ip_ == nullptr, name() << " already has an IP");
  ip_ = ip;
  collector_.AddListener(ip);
}

bool SlaveShell::CanRespond(int payload_words) const {
  return streamer_.CanAccept(1 + payload_words);
}

void SlaveShell::Respond(const transaction::ResponseMessage& msg) {
  streamer_.Accept(msg.Encode(), CycleCount(), /*flush_after=*/true);
  Wake();
}

void SlaveShell::Evaluate() {
  const bool received = collector_.Tick();
  const bool sent = streamer_.Tick(CycleCount());
  // The IP runs after this shell within an edge (see MasterShell).
  if ((sent || received) && ip_ != nullptr) ip_->Wake();
  if (streamer_.Empty() && !collector_.Readable()) Park();
}

}  // namespace aethereal::shells
