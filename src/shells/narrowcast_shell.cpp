#include "shells/narrowcast_shell.h"

namespace aethereal::shells {

using transaction::Command;
using transaction::RequestMessage;
using transaction::ResponseError;
using transaction::ResponseMessage;

NarrowcastShell::NarrowcastShell(std::string name, core::NiPort* port,
                                 std::vector<int> connids, int pipeline_cycles)
    : sim::Module(std::move(name)) {
  AETHEREAL_CHECK_MSG(!connids.empty(), "narrowcast needs at least one slave");
  for (int connid : connids) {
    streamers_.push_back(
        std::make_unique<MessageStreamer>(port, connid, pipeline_cycles));
    collectors_.push_back(std::make_unique<ResponseCollector>(port, connid));
  }
}

Status NarrowcastShell::MapRange(Word base, Word size, int slave_index) {
  if (slave_index < 0 || slave_index >= NumSlaves()) {
    return InvalidArgumentError("slave index out of range");
  }
  if (size == 0) return InvalidArgumentError("empty range");
  for (const Range& r : ranges_) {
    const bool disjoint = base + size <= r.base || r.base + r.size <= base;
    if (!disjoint) return AlreadyExistsError("address ranges overlap");
  }
  ranges_.push_back(Range{base, size, slave_index});
  return OkStatus();
}

Result<int> NarrowcastShell::DecodeAddress(Word address) const {
  for (const Range& r : ranges_) {
    if (address >= r.base && address - r.base < r.size) return r.slave_index;
  }
  return NotFoundError("address not mapped to any slave");
}

bool NarrowcastShell::CanIssue(int payload_words) const {
  // Conservative: the target is known only at issue time, so require room
  // in every per-slave streamer.
  for (const auto& s : streamers_) {
    if (!s->CanAccept(2 + payload_words)) return false;
  }
  return true;
}

int NarrowcastShell::Issue(RequestMessage msg, bool flush) {
  msg.sequence_number = seqno_;
  seqno_ = (seqno_ + 1) % (transaction::kMaxSequenceNumber + 1);
  auto target = DecodeAddress(msg.address);
  if (!target.ok()) {
    // Synthesize an in-order error response if one is expected.
    if (msg.ExpectsResponse()) {
      ResponseMessage err;
      err.transaction_id = msg.transaction_id;
      err.sequence_number = msg.sequence_number;
      err.error = ResponseError::kUnmappedAddress;
      err.is_write_ack = msg.IsWrite();
      history_.push_back(HistoryEntry{-1, true, std::move(err)});
    }
    return msg.sequence_number;
  }
  history_.push_back(HistoryEntry{*target, msg.ExpectsResponse(), {}});
  streamers_[static_cast<std::size_t>(*target)]->Accept(msg.Encode(),
                                                        CycleCount(), flush);
  return msg.sequence_number;
}

int NarrowcastShell::IssueRead(Word address, int length, int transaction_id) {
  RequestMessage msg;
  msg.cmd = Command::kRead;
  msg.address = address;
  msg.read_length = length;
  msg.transaction_id = transaction_id;
  return Issue(std::move(msg), /*flush=*/true);
}

int NarrowcastShell::IssueWrite(Word address, const std::vector<Word>& data,
                                bool needs_ack, int transaction_id) {
  RequestMessage msg;
  msg.cmd = Command::kWrite;
  msg.address = address;
  msg.data = data;
  msg.flags = needs_ack ? transaction::kFlagNeedsAck : transaction::kFlagPosted;
  msg.transaction_id = transaction_id;
  return Issue(std::move(msg), /*flush=*/needs_ack);
}

bool NarrowcastShell::HasResponse() const {
  // Walk past history entries that expect no response; the next response
  // is visible only if it belongs to the oldest outstanding transaction.
  for (const HistoryEntry& entry : history_) {
    if (!entry.expects_response) continue;
    if (entry.slave_index < 0) return true;  // synthesized error
    return collectors_[static_cast<std::size_t>(entry.slave_index)]
        ->HasMessage();
  }
  return false;
}

ResponseMessage NarrowcastShell::PopResponse() {
  AETHEREAL_CHECK_MSG(HasResponse(), name() << ": no in-order response ready");
  while (!history_.front().expects_response) history_.pop_front();
  HistoryEntry entry = std::move(history_.front());
  history_.pop_front();
  if (entry.slave_index < 0) return entry.synthesized;
  return collectors_[static_cast<std::size_t>(entry.slave_index)]->Pop();
}

void NarrowcastShell::BindIp(sim::Module* ip) {
  AETHEREAL_CHECK_MSG(ip_ == nullptr, name() << " already has an IP");
  ip_ = ip;
  for (auto& c : collectors_) c->AddListener(ip);
}

void NarrowcastShell::Evaluate() {
  const Cycle now = CycleCount();
  bool moved = false;
  for (auto& s : streamers_) moved |= s->Tick(now);
  for (auto& c : collectors_) moved |= c->Tick();
  // The IP runs after this shell within an edge (see MasterShell).
  if (moved && ip_ != nullptr) ip_->Wake();
}

}  // namespace aethereal::shells
