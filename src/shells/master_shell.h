// Master shell (paper Fig. 5): the protocol adapter a master IP module uses.
// Sequentializes commands+flags, addresses and write data into request
// messages (2-cycle pipeline, as the simplified DTL master shell of paper
// §5) and desequentializes response messages into read data and write
// responses.
//
// One shell serves one or more point-to-point connections behind one of two
// decodes, chosen at construction (paper §2 builds narrowcast and multicast
// alike, as point-to-point connections behind a decode):
//  * kAddress, the narrowcast shell of paper Fig. 3: each transaction goes
//    to exactly one slave, selected by decoding its address against the
//    mapped ranges. Unmapped addresses get a locally synthesized
//    kUnmappedAddress response. A shell with one connection maps every
//    address to it.
//  * kAll, the multicast shell: each write goes to every slave. An
//    acknowledged write completes once every slave has acknowledged it, and
//    its one response merges theirs: the first non-OK error in connection
//    order wins. Reads, read-linked and write-conditional would return the
//    slaves' colliding data, so they issue nothing and get a locally
//    synthesized kBadCommand response.
// Either way, a history of the transactions that expect a response
// delivers the responses to the IP in issue order, synthesized ones
// included, even when slaves answer out of order relative to each other.
//
// Parks while every staging buffer is empty and no response word is
// readable; issue calls and deliveries wake it (DESIGN.md §7.4).
#ifndef AETHEREAL_SHELLS_MASTER_SHELL_H
#define AETHEREAL_SHELLS_MASTER_SHELL_H

#include <deque>
#include <string>
#include <vector>

#include "shells/endpoints.h"
#include "shells/streamer.h"
#include "sim/kernel.h"
#include "transaction/message.h"
#include "util/status.h"

namespace aethereal::shells {

/// Sequentialization latency of the DTL-style master shell.
inline constexpr int kMasterShellPipelineCycles = 2;

class MasterShell : public sim::Module, public MasterEndpoint {
 public:
  /// Which connections a transaction goes to (see the file comment).
  enum class Decode { kAddress, kAll };

  MasterShell(std::string name, core::NiPort* port, int connid);
  /// `connids`: the port channels of the per-slave connections, in slave
  /// order.
  MasterShell(std::string name, core::NiPort* port, std::vector<int> connids,
              Decode decode = Decode::kAddress);

  /// Maps [base, base+size) to slave `slave_index` (an index into the
  /// connid list). Ranges must not overlap. A shell with one connection
  /// sends every address to it, mapped or not. Under kAll there is no
  /// address decode to map.
  Status MapRange(Word base, Word size, int slave_index);

  /// True if a transaction of `payload_words` data words can be issued now:
  /// the target is known only at issue time, so every connection's staging
  /// must have room.
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

  /// In-order response delivery: a response is visible only once every
  /// older transaction's response has been popped.
  bool HasResponse() const override;
  transaction::ResponseMessage PopResponse() override;

  /// Transactions issued whose response has not been popped yet.
  int OutstandingResponses() const { return static_cast<int>(history_.size()); }

  void BindIp(sim::Module* ip) override;

  void Evaluate() override;

 private:
  struct Connection {
    MessageStreamer streamer;
    ResponseCollector collector;
  };
  struct Range {
    Word base;
    Word size;
    int slave_index;
  };
  /// Where a transaction goes and its response comes from, besides a
  /// connection index: every connection (a multicast write), or none (the
  /// shell synthesizes a `local_error` response).
  static constexpr int kEveryConnection = -2;
  static constexpr int kLocal = -1;
  /// A transaction that expects a response.
  struct HistoryEntry {
    int source;
    int transaction_id;
    int sequence_number;
    bool is_write;
    transaction::ResponseError local_error;
  };

  int NumSlaves() const { return static_cast<int>(connections_.size()); }
  /// The decode: the source `msg` goes to, setting `local_error` when it is
  /// kLocal.
  int Route(const transaction::RequestMessage& msg,
            transaction::ResponseError* local_error) const;
  int Issue(transaction::RequestMessage msg, bool flush);

  Decode decode_;
  std::vector<Connection> connections_;
  std::vector<Range> ranges_;
  std::deque<HistoryEntry> history_;
  sim::Module* ip_ = nullptr;
  int seqno_ = 0;
};

}  // namespace aethereal::shells

#endif  // AETHEREAL_SHELLS_MASTER_SHELL_H
