// Multicast shell: one master, several slaves, every slave executes each
// transaction (paper §2). Implemented, like narrowcast, as a collection of
// point-to-point connections; write data is duplicated toward every slave.
//
// Reads are not meaningful on a multicast connection (several slaves would
// return colliding data) and are rejected; acknowledged writes gather one
// acknowledgment per slave and deliver a single merged acknowledgment to
// the master (the first non-OK error wins).
#ifndef AETHEREAL_SHELLS_MULTICAST_SHELL_H
#define AETHEREAL_SHELLS_MULTICAST_SHELL_H

#include <deque>
#include <memory>
#include <string>
#include <vector>

#include "shells/master_shell.h"
#include "shells/streamer.h"
#include "sim/kernel.h"
#include "transaction/message.h"
#include "util/status.h"

namespace aethereal::shells {

class MulticastShell : public sim::Module {
 public:
  MulticastShell(std::string name, core::NiPort* port,
                 std::vector<int> connids);

  int NumSlaves() const { return static_cast<int>(streamers_.size()); }

  bool CanIssue(int payload_words = 0) const;

  /// Issues a write executed by all slaves. With `needs_ack`, one merged
  /// acknowledgment is delivered once every slave has acknowledged.
  int IssueWrite(Word address, const std::vector<Word>& data, bool needs_ack,
                 int transaction_id);

  /// Reads are rejected on multicast connections.
  Status IssueRead(Word address, int length, int transaction_id);

  bool HasResponse() const;
  transaction::ResponseMessage PopResponse();

  void Evaluate() override;

 private:
  struct PendingAck {
    int transaction_id;
    int sequence_number;
    int remaining;  // acknowledgments still missing
    transaction::ResponseError merged_error;
  };

  std::vector<std::unique_ptr<MessageStreamer>> streamers_;
  std::vector<std::unique_ptr<ResponseCollector>> collectors_;
  std::deque<PendingAck> pending_;  // in issue order
  int seqno_ = 0;
};

}  // namespace aethereal::shells

#endif  // AETHEREAL_SHELLS_MULTICAST_SHELL_H
