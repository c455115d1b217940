// Abstract transaction endpoints offered by shells to IP modules.
//
// IP models (traffic generators, memories) bind to these interfaces so the
// same IP works behind a master or slave shell over one connection or over
// several (the narrowcast and multi-connection shells of paper Figs. 3-4)
// — the decoupling of computation from communication the paper's
// transport-level services provide.
#ifndef AETHEREAL_SHELLS_ENDPOINTS_H
#define AETHEREAL_SHELLS_ENDPOINTS_H

#include <vector>

#include "transaction/message.h"
#include "util/types.h"

namespace aethereal::sim {
class Module;
}

namespace aethereal::shells {

/// The schedule side of an endpoint: the IP bound to it may park whenever
/// its next Evaluate would do nothing, because the endpoint wakes it for
/// every edge on which it could have work (DESIGN.md §7.4).
class Endpoint {
 public:
  virtual ~Endpoint() = default;

  /// Binds the IP module driving this endpoint; its constructor calls this
  /// once. The shell then Wake()s the IP on every edge on which it moves a
  /// word, and adds it as a read listener on its destination queues, so a
  /// parked IP runs on the edge a message for it completes. The IP must be
  /// registered on the port's clock.
  virtual void BindIp(sim::Module* ip) = 0;
};

/// What a master IP module sees: issue transactions, collect responses.
class MasterEndpoint : public Endpoint {
 public:
  virtual bool CanIssue(int payload_words) const = 0;
  virtual int IssueRead(Word address, int length, int transaction_id) = 0;
  virtual int IssueWrite(Word address, const std::vector<Word>& data,
                         bool needs_ack, int transaction_id) = 0;
  virtual bool HasResponse() const = 0;
  virtual transaction::ResponseMessage PopResponse() = 0;
};

/// What a slave IP module sees: receive requests, send responses.
class SlaveEndpoint : public Endpoint {
 public:
  virtual bool HasRequest() const = 0;
  virtual transaction::RequestMessage PopRequest() = 0;
  virtual bool CanRespond(int payload_words) const = 0;
  virtual void Respond(const transaction::ResponseMessage& msg) = 0;
};

}  // namespace aethereal::shells

#endif  // AETHEREAL_SHELLS_ENDPOINTS_H
