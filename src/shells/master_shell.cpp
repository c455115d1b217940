#include "shells/master_shell.h"

namespace aethereal::shells {

using transaction::Command;
using transaction::RequestMessage;
using transaction::ResponseError;
using transaction::ResponseMessage;

MasterShell::MasterShell(std::string name, core::NiPort* port, int connid)
    : MasterShell(std::move(name), port, std::vector<int>{connid}) {}

MasterShell::MasterShell(std::string name, core::NiPort* port,
                         std::vector<int> connids, Decode decode)
    : sim::Module(std::move(name)), decode_(decode) {
  AETHEREAL_CHECK_MSG(!connids.empty(), "a master shell needs a connection");
  connections_.reserve(connids.size());
  for (int connid : connids) {
    connections_.push_back(
        Connection{MessageStreamer(port, connid, kMasterShellPipelineCycles),
                   ResponseCollector(port, connid)});
    connections_.back().collector.AddListener(this);
  }
}

void MasterShell::BindIp(sim::Module* ip) {
  AETHEREAL_CHECK_MSG(ip_ == nullptr, name() << " already has an IP");
  ip_ = ip;
  for (Connection& c : connections_) c.collector.AddListener(ip);
}

Status MasterShell::MapRange(Word base, Word size, int slave_index) {
  if (decode_ == Decode::kAll) {
    return FailedPreconditionError("a multicast shell has no address decode");
  }
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

int MasterShell::Route(const RequestMessage& msg,
                       ResponseError* local_error) const {
  if (decode_ == Decode::kAll) {
    if (msg.cmd == Command::kWrite) return kEveryConnection;
    *local_error = ResponseError::kBadCommand;
    return kLocal;
  }
  if (connections_.size() == 1) return 0;
  for (const Range& r : ranges_) {
    if (msg.address >= r.base && msg.address - r.base < r.size) {
      return r.slave_index;
    }
  }
  *local_error = ResponseError::kUnmappedAddress;
  return kLocal;
}

bool MasterShell::CanIssue(int payload_words) const {
  for (const Connection& c : connections_) {
    if (!c.streamer.CanAccept(2 + payload_words)) return false;
  }
  return true;
}

int MasterShell::Issue(RequestMessage msg, bool flush) {
  msg.sequence_number = seqno_;
  seqno_ = (seqno_ + 1) % (transaction::kMaxSequenceNumber + 1);
  ResponseError local_error = ResponseError::kOk;
  const int source = Route(msg, &local_error);
  if (msg.ExpectsResponse()) {
    history_.push_back(HistoryEntry{source, msg.transaction_id,
                                    msg.sequence_number, msg.IsWrite(),
                                    local_error});
  }
  if (source == kLocal) return msg.sequence_number;
  const std::vector<Word> words = msg.Encode();
  if (source == kEveryConnection) {
    for (Connection& c : connections_) {
      c.streamer.Accept(words, CycleCount(), flush);
    }
  } else {
    connections_[static_cast<std::size_t>(source)].streamer.Accept(
        words, CycleCount(), flush);
  }
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

bool MasterShell::HasResponse() const {
  if (history_.empty()) return false;
  const int source = history_.front().source;
  if (source >= 0) {
    return connections_[static_cast<std::size_t>(source)]
        .collector.HasMessage();
  }
  if (source == kLocal) return true;
  for (const Connection& c : connections_) {
    if (!c.collector.HasMessage()) return false;
  }
  return true;
}

ResponseMessage MasterShell::PopResponse() {
  AETHEREAL_CHECK_MSG(HasResponse(), name() << ": no in-order response ready");
  const HistoryEntry entry = history_.front();
  history_.pop_front();
  if (entry.source >= 0) {
    return connections_[static_cast<std::size_t>(entry.source)]
        .collector.Pop();
  }
  ResponseMessage rsp;
  rsp.transaction_id = entry.transaction_id;
  rsp.sequence_number = entry.sequence_number;
  rsp.error = entry.local_error;
  rsp.is_write_ack = entry.is_write;
  if (entry.source == kEveryConnection) {
    // One acknowledgment per slave; channels are in order, so each
    // collector's oldest message is this write's.
    for (Connection& c : connections_) {
      const ResponseMessage ack = c.collector.Pop();
      AETHEREAL_CHECK_MSG(ack.is_write_ack,
                          name() << ": data response on a multicast write");
      AETHEREAL_CHECK_MSG(ack.sequence_number == entry.sequence_number,
                          name() << ": unmatched acknowledgment");
      if (rsp.error == ResponseError::kOk) rsp.error = ack.error;
    }
  }
  return rsp;
}

void MasterShell::Evaluate() {
  const Cycle now = CycleCount();
  bool moved = false;
  bool busy = false;
  for (Connection& c : connections_) moved |= c.streamer.Tick(now);
  for (Connection& c : connections_) {
    moved |= c.collector.Tick();
    busy |= !c.streamer.Empty() || c.collector.Readable();
  }
  // The IP runs after this shell within an edge: waking it now keeps it
  // running on the next edge, when the message this word belongs to may
  // complete.
  if (moved && ip_ != nullptr) ip_->Wake();
  if (!busy) Park();
}

}  // namespace aethereal::shells
