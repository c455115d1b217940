// Narrowcast shell (paper Fig. 3): one master, several slaves, each
// transaction executed by exactly one slave selected by its address.
//
// "Narrowcast connections provide a simple, low-cost solution for a single
// shared address space mapped on multiple memories." The shell is a
// collection of point-to-point connections, one per master-slave pair; the
// Conn block decodes the address against configurable ranges, and a history
// of connection ids (with expected-response flags) provides in-order
// response delivery to the master even when slaves answer out of order
// relative to each other.
#ifndef AETHEREAL_SHELLS_NARROWCAST_SHELL_H
#define AETHEREAL_SHELLS_NARROWCAST_SHELL_H

#include <deque>
#include <memory>
#include <string>
#include <vector>

#include "shells/endpoints.h"
#include "shells/streamer.h"
#include "sim/kernel.h"
#include "transaction/message.h"
#include "util/status.h"

namespace aethereal::shells {

class NarrowcastShell : public sim::Module, public MasterEndpoint {
 public:
  /// `connids`: the port channels of the per-slave point-to-point
  /// connections, in slave order.
  NarrowcastShell(std::string name, core::NiPort* port,
                  std::vector<int> connids, int pipeline_cycles = 2);

  /// Maps [base, base+size) to slave `slave_index` (an index into the
  /// connid list). Ranges must not overlap.
  Status MapRange(Word base, Word size, int slave_index);

  int NumSlaves() const { return static_cast<int>(streamers_.size()); }

  /// Address decode: slave index owning `address`, or error if unmapped.
  Result<int> DecodeAddress(Word address) const;

  bool CanIssue(int payload_words = 0) const override;

  /// Issue transactions; unmapped addresses synthesize an immediate error
  /// response (kUnmappedAddress) that is delivered in order.
  int IssueRead(Word address, int length, int transaction_id) override;
  int IssueWrite(Word address, const std::vector<Word>& data, bool needs_ack,
                 int transaction_id) override;

  /// In-order response delivery (a response is only visible once all older
  /// transactions' responses have been delivered).
  bool HasResponse() const override;
  transaction::ResponseMessage PopResponse() override;

  void BindIp(sim::Module* ip) override;

  void Evaluate() override;

 private:
  struct Range {
    Word base;
    Word size;
    int slave_index;
  };
  struct HistoryEntry {
    int slave_index;       // -1: locally synthesized error response
    bool expects_response;
    transaction::ResponseMessage synthesized;
  };

  int Issue(transaction::RequestMessage msg, bool flush);

  std::vector<std::unique_ptr<MessageStreamer>> streamers_;
  std::vector<std::unique_ptr<ResponseCollector>> collectors_;
  sim::Module* ip_ = nullptr;  // runs every edge itself; wakes its IP
  std::vector<Range> ranges_;
  std::deque<HistoryEntry> history_;
  int seqno_ = 0;
};

}  // namespace aethereal::shells

#endif  // AETHEREAL_SHELLS_NARROWCAST_SHELL_H
