#include "shells/multicast_shell.h"

namespace aethereal::shells {

using transaction::Command;
using transaction::RequestMessage;
using transaction::ResponseError;
using transaction::ResponseMessage;

MulticastShell::MulticastShell(std::string name, core::NiPort* port,
                               std::vector<int> connids)
    : sim::Module(std::move(name)) {
  AETHEREAL_CHECK_MSG(!connids.empty(), "multicast needs at least one slave");
  for (int connid : connids) {
    streamers_.push_back(
        std::make_unique<MessageStreamer>(port, connid,
                                          kMasterShellPipelineCycles));
    collectors_.push_back(std::make_unique<ResponseCollector>(port, connid));
  }
}

bool MulticastShell::CanIssue(int payload_words) const {
  for (const auto& s : streamers_) {
    if (!s->CanAccept(2 + payload_words)) return false;
  }
  return true;
}

int MulticastShell::IssueWrite(Word address, const std::vector<Word>& data,
                               bool needs_ack, int transaction_id) {
  AETHEREAL_CHECK_MSG(CanIssue(static_cast<int>(data.size())),
                      name() << ": issue while streamers full");
  RequestMessage msg;
  msg.cmd = Command::kWrite;
  msg.address = address;
  msg.data = data;
  msg.flags = needs_ack ? transaction::kFlagNeedsAck : transaction::kFlagPosted;
  msg.transaction_id = transaction_id;
  msg.sequence_number = seqno_;
  seqno_ = (seqno_ + 1) % (transaction::kMaxSequenceNumber + 1);
  const auto words = msg.Encode();
  for (auto& s : streamers_) {
    s->Accept(words, CycleCount(), /*flush_after=*/needs_ack);
  }
  if (needs_ack) {
    pending_.push_back(PendingAck{transaction_id, msg.sequence_number,
                                  NumSlaves(), ResponseError::kOk});
  }
  return msg.sequence_number;
}

Status MulticastShell::IssueRead(Word /*address*/, int /*length*/,
                                 int /*transaction_id*/) {
  return InvalidArgumentError(
      "reads are not defined on multicast connections");
}

bool MulticastShell::HasResponse() const {
  return !pending_.empty() && pending_.front().remaining == 0;
}

ResponseMessage MulticastShell::PopResponse() {
  AETHEREAL_CHECK(HasResponse());
  const PendingAck ack = pending_.front();
  pending_.pop_front();
  ResponseMessage msg;
  msg.transaction_id = ack.transaction_id;
  msg.sequence_number = ack.sequence_number;
  msg.is_write_ack = true;
  msg.error = ack.merged_error;
  return msg;
}

void MulticastShell::Evaluate() {
  const Cycle now = CycleCount();
  for (auto& s : streamers_) s->Tick(now);
  for (auto& c : collectors_) {
    c->Tick();
    // Merge arriving acknowledgments into the oldest incomplete entry for
    // the matching sequence number (per-slave channels are in order, so the
    // oldest unmatched entry is always the right one).
    while (c->HasMessage()) {
      const ResponseMessage ack = c->Pop();
      AETHEREAL_CHECK_MSG(ack.is_write_ack,
                          name() << ": data response on multicast connection");
      bool matched = false;
      for (auto& pending : pending_) {
        if (pending.sequence_number == ack.sequence_number &&
            pending.remaining > 0) {
          --pending.remaining;
          if (pending.merged_error == ResponseError::kOk &&
              ack.error != ResponseError::kOk) {
            pending.merged_error = ack.error;
          }
          matched = true;
          break;
        }
      }
      AETHEREAL_CHECK_MSG(matched, name() << ": unmatched acknowledgment");
    }
  }
}

}  // namespace aethereal::shells
