// Master shell (paper Fig. 5): the point-to-point protocol adapter a master
// IP module uses. Sequentializes commands+flags, addresses and write data
// into request messages (2-cycle pipeline, as the simplified DTL master
// shell of paper §5) and desequentializes response messages into read data
// and write responses.
//
// Parks while its staging buffer is empty and no response word is readable;
// issue calls and deliveries wake it (DESIGN.md §7.4).
#ifndef AETHEREAL_SHELLS_MASTER_SHELL_H
#define AETHEREAL_SHELLS_MASTER_SHELL_H

#include <string>
#include <vector>

#include "shells/endpoints.h"
#include "shells/streamer.h"
#include "sim/kernel.h"
#include "transaction/message.h"

namespace aethereal::shells {

/// Default sequentialization latency of the DTL-style master shell.
inline constexpr int kMasterShellPipelineCycles = 2;

class MasterShell : public sim::Module, public MasterEndpoint {
 public:
  MasterShell(std::string name, core::NiPort* port, int connid,
              int pipeline_cycles = kMasterShellPipelineCycles);

  /// True if a transaction of `payload_words` data words can be issued now.
  bool CanIssue(int payload_words = 0) const override;

  /// Issues a read of `length` words at `address`. Returns the sequence
  /// number assigned to the transaction.
  int IssueRead(Word address, int length, int transaction_id) override;

  /// Issues a write. With `needs_ack`, the slave returns a write response
  /// and the shell flushes the NI channel so the IP is never starved
  /// waiting for the acknowledgment (paper §4.1).
  int IssueWrite(Word address, const std::vector<Word>& data, bool needs_ack,
                 int transaction_id) override;

  /// Issues a read-linked / write-conditional pair element (locked access).
  int IssueReadLinked(Word address, int length, int transaction_id);
  int IssueWriteConditional(Word address, const std::vector<Word>& data,
                            int transaction_id);

  bool HasResponse() const override { return collector_.HasMessage(); }
  transaction::ResponseMessage PopResponse() override { return collector_.Pop(); }

  /// Responses issued but not yet delivered.
  int OutstandingResponses() const { return outstanding_; }

  void BindIp(sim::Module* ip) override;

  void Evaluate() override;

 private:
  int NextSeqno();
  int Issue(transaction::RequestMessage msg, bool flush);

  MessageStreamer streamer_;
  ResponseCollector collector_;
  sim::Module* ip_ = nullptr;
  int seqno_ = 0;
  int outstanding_ = 0;
};

}  // namespace aethereal::shells

#endif  // AETHEREAL_SHELLS_MASTER_SHELL_H
