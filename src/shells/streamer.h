// Building blocks shared by all NI shells: sequentialization of messages
// into NI-port word streams (with a configurable pipeline latency, e.g. the
// 2-cycle DTL master sequentializer of paper §5) and desequentialization of
// word streams back into messages.
#ifndef AETHEREAL_SHELLS_STREAMER_H
#define AETHEREAL_SHELLS_STREAMER_H

#include <deque>

#include "core/ni_kernel.h"
#include "transaction/message.h"
#include "util/check.h"
#include "util/types.h"

namespace aethereal::shells {

/// Sequentializer (Seq in Figs. 5-6): accepts encoded message words and
/// streams them into an NI-port source queue at one word per cycle, after a
/// fixed pipeline delay. Owned by a shell; Tick() is called from the shell's
/// Evaluate, which keeps running while Empty() is false.
class MessageStreamer {
 public:
  /// Words the staging buffer holds.
  static constexpr int kStagingCapacity = 64;

  MessageStreamer(core::NiPort* port, int connid, int pipeline_cycles)
      : port_(port), connid_(connid), pipeline_cycles_(pipeline_cycles) {
    AETHEREAL_CHECK(port != nullptr);
    AETHEREAL_CHECK(pipeline_cycles >= 0);
  }

  /// True if `words` more words fit in the staging buffer.
  bool CanAccept(int words) const {
    return static_cast<int>(staging_.size()) + words <= kStagingCapacity;
  }

  /// Stages an encoded message. If `flush_after` is set, the NI data-flush
  /// signal is raised once the last word has entered the port (used for
  /// messages the IP blocks on, e.g. acknowledged writes — paper §4.1).
  void Accept(const std::vector<Word>& words, Cycle now, bool flush_after) {
    AETHEREAL_CHECK_MSG(CanAccept(static_cast<int>(words.size())),
                        "streamer staging overflow");
    for (std::size_t i = 0; i < words.size(); ++i) {
      staging_.push_back(Staged{words[i], now + pipeline_cycles_,
                                flush_after && i + 1 == words.size()});
    }
  }

  /// Moves at most one ready word into the port per cycle. Returns true if
  /// it moved one.
  bool Tick(Cycle now) {
    if (staging_.empty()) return false;
    const Staged& head = staging_.front();
    if (head.ready > now) return false;
    if (!port_->CanWrite(connid_)) return false;
    port_->Write(connid_, head.word);
    if (head.flush_after) port_->FlushData(connid_);
    staging_.pop_front();
    return true;
  }

  bool Empty() const { return staging_.empty(); }
  int connid() const { return connid_; }

 private:
  struct Staged {
    Word word;
    Cycle ready;
    bool flush_after;
  };
  core::NiPort* port_;
  int connid_;
  Cycle pipeline_cycles_;
  std::deque<Staged> staging_;
};

/// Desequentializer (Deseq): drains an NI-port destination queue one word
/// per cycle through a framer, yielding complete messages. The owning shell
/// keeps running while Readable() is true and listens on the queue for the
/// rest (AddListener).
template <typename MessageT>
class MessageCollector {
 public:
  MessageCollector(core::NiPort* port, int connid)
      : port_(port), connid_(connid) {
    AETHEREAL_CHECK(port != nullptr);
  }

  /// Drains at most one word per cycle. Returns true if it drained one.
  bool Tick() {
    if (!Readable()) return false;
    const Word word = port_->Read(connid_);
    if (framer_.Feed(word)) {
      auto decoded = framer_.Take();
      AETHEREAL_CHECK_MSG(decoded.ok(),
                          "malformed message on connid "
                              << connid_ << ": " << decoded.status());
      completed_.push_back(std::move(*decoded));
    }
    return true;
  }

  /// True if a word can be drained this cycle.
  bool Readable() const { return port_->ReadAvailable(connid_) > 0; }

  /// Wakes `module` at the edge each delivered word becomes readable.
  void AddListener(sim::Module* module) {
    port_->WakeOnDelivery(connid_, module);
  }

  bool HasMessage() const { return !completed_.empty(); }
  int MessageCount() const { return static_cast<int>(completed_.size()); }

  const MessageT& Front() const {
    AETHEREAL_CHECK(HasMessage());
    return completed_.front();
  }

  MessageT Pop() {
    AETHEREAL_CHECK(HasMessage());
    MessageT msg = std::move(completed_.front());
    completed_.pop_front();
    return msg;
  }

  int connid() const { return connid_; }

 private:
  core::NiPort* port_;
  int connid_;
  transaction::Framer<MessageT> framer_;
  std::deque<MessageT> completed_;
};

using RequestCollector = MessageCollector<transaction::RequestMessage>;
using ResponseCollector = MessageCollector<transaction::ResponseMessage>;

}  // namespace aethereal::shells

#endif  // AETHEREAL_SHELLS_STREAMER_H
