#include "shells/config_shell.h"

#include "core/registers.h"

namespace aethereal::shells {

using transaction::Command;
using transaction::RequestMessage;
using transaction::ResponseError;
using transaction::ResponseMessage;

ConfigShell::ConfigShell(std::string name, core::NiKernel* local_kernel,
                         core::NiPort* port,
                         std::map<NiId, int> remote_connids)
    : sim::Module(std::move(name)),
      local_kernel_(local_kernel),
      remote_connids_(std::move(remote_connids)) {
  AETHEREAL_CHECK(local_kernel != nullptr);
  for (const auto& [ni, connid] : remote_connids_) {
    AETHEREAL_CHECK_MSG(ni != local_kernel->id(),
                        "local NI must not have a remote config connection");
    streamer_index_[ni] = streamers_.size();
    streamers_.push_back(
        std::make_unique<MessageStreamer>(port, connid,
                                          kConfigShellPipelineCycles));
    collectors_.push_back(std::make_unique<ResponseCollector>(port, connid));
    collectors_.back()->AddListener(this);
  }
}

void ConfigShell::BindAgent(sim::Module* agent) {
  AETHEREAL_CHECK_MSG(agent_ == nullptr, name() << " already has an agent");
  agent_ = agent;
  for (auto& c : collectors_) c->AddListener(agent);
}

bool ConfigShell::CanReach(NiId ni) const {
  return ni == local_kernel_->id() || remote_connids_.count(ni) > 0;
}

bool ConfigShell::CanIssue() const {
  for (const auto& s : streamers_) {
    if (!s->CanAccept(3)) return false;
  }
  return local_ops_.size() < 64;
}

int ConfigShell::NextTid() {
  const int tid = tid_;
  tid_ = (tid_ + 1) % (transaction::kMaxTransactionId + 1);
  return tid;
}

MessageStreamer* ConfigShell::StreamerFor(NiId ni) {
  auto it = streamer_index_.find(ni);
  AETHEREAL_CHECK_MSG(it != streamer_index_.end(),
                      name() << ": no config connection to NI " << ni);
  return streamers_[it->second].get();
}

int ConfigShell::WriteRegister(NiId ni, Word reg, Word value, bool acked) {
  const int tid = NextTid();
  if (ni == local_kernel_->id()) {
    local_ops_.push_back(
        LocalOp{false, reg, value, acked, tid, CycleCount() + 1});
    ++local_writes_;
    Wake();
    return tid;
  }
  RequestMessage msg;
  msg.cmd = Command::kWrite;
  msg.address = reg;
  msg.data = {value};
  msg.flags = acked ? transaction::kFlagNeedsAck : transaction::kFlagPosted;
  msg.transaction_id = tid;
  // Configuration messages are sparse and latency-critical: always flush.
  StreamerFor(ni)->Accept(msg.Encode(), CycleCount(), /*flush_after=*/true);
  ++remote_writes_;
  Wake();
  return tid;
}

int ConfigShell::ReadRegister(NiId ni, Word reg) {
  const int tid = NextTid();
  if (ni == local_kernel_->id()) {
    local_ops_.push_back(LocalOp{true, reg, 0, true, tid, CycleCount() + 1});
    Wake();
    return tid;
  }
  RequestMessage msg;
  msg.cmd = Command::kRead;
  msg.address = reg;
  msg.read_length = 1;
  msg.transaction_id = tid;
  StreamerFor(ni)->Accept(msg.Encode(), CycleCount(), /*flush_after=*/true);
  Wake();
  return tid;
}

bool ConfigShell::HasResponse() const { return !responses_.empty(); }

bool ConfigShell::TakeResponseFor(const std::vector<int>& tids,
                                  transaction::ResponseMessage* out) {
  for (auto it = responses_.begin(); it != responses_.end(); ++it) {
    for (int tid : tids) {
      if (it->transaction_id == tid) {
        *out = std::move(*it);
        responses_.erase(it);
        return true;
      }
    }
  }
  return false;
}

ResponseMessage ConfigShell::PopResponse() {
  AETHEREAL_CHECK(!responses_.empty());
  ResponseMessage msg = std::move(responses_.front());
  responses_.pop_front();
  return msg;
}

void ConfigShell::Evaluate() {
  const Cycle now = CycleCount();
  bool moved = false;
  bool idle = true;  // staging empty, no response word readable
  for (auto& s : streamers_) {
    moved |= s->Tick(now);
    idle &= s->Empty();
  }
  for (auto& c : collectors_) {
    moved |= c->Tick();
    idle &= !c->Readable();
    while (c->HasMessage()) responses_.push_back(c->Pop());
  }
  // Execute at most one local register access per cycle.
  if (!local_ops_.empty() && local_ops_.front().ready <= now) {
    const LocalOp op = local_ops_.front();
    local_ops_.pop_front();
    if (op.is_read) {
      ResponseMessage rsp;
      rsp.transaction_id = op.transaction_id;
      auto value = local_kernel_->ReadRegister(op.reg);
      if (value.ok()) {
        rsp.data = {*value};
      } else {
        rsp.error = ResponseError::kUnmappedAddress;
      }
      responses_.push_back(std::move(rsp));
    } else {
      const Status status = local_kernel_->WriteRegister(op.reg, op.value);
      if (op.acked) {
        ResponseMessage rsp;
        rsp.transaction_id = op.transaction_id;
        rsp.is_write_ack = true;
        rsp.error = status.ok() ? ResponseError::kOk
                                : ResponseError::kUnmappedAddress;
        responses_.push_back(std::move(rsp));
      }
    }
  }
  // The agent runs after this shell within an edge: waking it now keeps it
  // running on the next edge, when a response may complete. Pending local
  // accesses keep it awake too: they execute one per edge, so with several
  // callers one may answer later than the edge after its issue.
  if ((moved || !local_ops_.empty()) && agent_ != nullptr) agent_->Wake();
  if (idle && local_ops_.empty()) Park();
}

}  // namespace aethereal::shells
