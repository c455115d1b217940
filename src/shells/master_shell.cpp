#include "shells/master_shell.h"

namespace aethereal::shells {

using transaction::Command;
using transaction::RequestMessage;

MasterShell::MasterShell(std::string name, core::NiPort* port, int connid,
                         int pipeline_cycles)
    : sim::Module(std::move(name)),
      streamer_(port, connid, pipeline_cycles),
      collector_(port, connid) {
  collector_.AddListener(this);
}

void MasterShell::BindIp(sim::Module* ip) {
  AETHEREAL_CHECK_MSG(ip_ == nullptr, name() << " already has an IP");
  ip_ = ip;
  collector_.AddListener(ip);
}

bool MasterShell::CanIssue(int payload_words) const {
  return streamer_.CanAccept(2 + payload_words);
}

int MasterShell::NextSeqno() {
  const int assigned = seqno_;
  seqno_ = (seqno_ + 1) % (transaction::kMaxSequenceNumber + 1);
  return assigned;
}

int MasterShell::Issue(RequestMessage msg, bool flush) {
  msg.sequence_number = NextSeqno();
  if (msg.ExpectsResponse()) ++outstanding_;
  streamer_.Accept(msg.Encode(), CycleCount(), flush);
  Wake();
  return msg.sequence_number;
}

int MasterShell::IssueRead(Word address, int length, int transaction_id) {
  RequestMessage msg;
  msg.cmd = Command::kRead;
  msg.address = address;
  msg.read_length = length;
  msg.transaction_id = transaction_id;
  // Reads block the IP on the response: flush so the request is never
  // parked under the send threshold.
  return Issue(std::move(msg), /*flush=*/true);
}

int MasterShell::IssueWrite(Word address, const std::vector<Word>& data,
                            bool needs_ack, int transaction_id) {
  RequestMessage msg;
  msg.cmd = Command::kWrite;
  msg.address = address;
  msg.data = data;
  msg.flags = needs_ack ? transaction::kFlagNeedsAck : transaction::kFlagPosted;
  msg.transaction_id = transaction_id;
  return Issue(std::move(msg), /*flush=*/needs_ack);
}

int MasterShell::IssueReadLinked(Word address, int length, int transaction_id) {
  RequestMessage msg;
  msg.cmd = Command::kReadLinked;
  msg.address = address;
  msg.read_length = length;
  msg.transaction_id = transaction_id;
  return Issue(std::move(msg), /*flush=*/true);
}

int MasterShell::IssueWriteConditional(Word address,
                                       const std::vector<Word>& data,
                                       int transaction_id) {
  RequestMessage msg;
  msg.cmd = Command::kWriteConditional;
  msg.address = address;
  msg.data = data;
  // Write-conditional always returns a status response.
  msg.flags = transaction::kFlagNeedsAck;
  msg.transaction_id = transaction_id;
  return Issue(std::move(msg), /*flush=*/true);
}

void MasterShell::Evaluate() {
  const bool sent = streamer_.Tick(CycleCount());
  const int before = collector_.MessageCount();
  const bool received = collector_.Tick();
  if (collector_.MessageCount() > before) --outstanding_;
  // The IP runs after this shell within an edge: waking it now keeps it
  // running on the next edge, when the message this word belongs to may
  // complete.
  if ((sent || received) && ip_ != nullptr) ip_->Wake();
  if (streamer_.Empty() && !collector_.Readable()) Park();
}

}  // namespace aethereal::shells
