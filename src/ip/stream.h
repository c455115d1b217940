// Streaming IP models using raw point-to-point channels (no shells).
//
// Paper §4.2: point-to-point connections "are useful in systems involving
// chains of modules communicating point to point with one another (e.g.,
// video pixel processing)". The source stamps each word with its emission
// cycle so the consumer can measure end-to-end latency and jitter — the
// quantities the GT service bounds — and check in-order delivery. A relay
// is the intermediate stage of such a chain: it forwards words between two
// channels of one NI port with their stamps intact, so the chain's latency
// is measured end to end.
//
// Every module follows the park/wake discipline of sim/kernel.h, so runs
// are bit-identical on the soa and naive engines.
#ifndef AETHEREAL_IP_STREAM_H
#define AETHEREAL_IP_STREAM_H

#include <optional>
#include <string>

#include "core/ni_kernel.h"
#include "sim/kernel.h"
#include "util/rng.h"
#include "util/stats.h"
#include "util/types.h"

namespace aethereal::ip {

/// An injection process: an event every `period` cycles puts `words` words
/// in the source's backlog. With `rate` > 0 the events are Bernoulli
/// instead: each one is followed by `period` cycles plus a geometric(rate)
/// gap. The first event falls `phase` cycles after activation.
struct Injection {
  std::int64_t period = 1;
  std::int64_t words = 1;
  double rate = 0;
  Cycle phase = 0;
  std::int64_t total_words = -1;  // words to emit in all (-1: unbounded)
};

class StreamSource : public sim::Module {
 public:
  /// Writes the words of `injection` on `connid`, each stamped with its
  /// emission cycle. `rng` draws the Bernoulli gaps (unused at rate 0).
  StreamSource(std::string name, core::NiPort* port, int connid,
               const Injection& injection, Rng rng = Rng());

  /// Starts injecting: the first event happens at `now` plus the phase.
  /// Callable between cycles only.
  void Activate(Cycle now);

  /// Stops injecting immediately; pending backlog is discarded so
  /// words_written() is final as soon as this returns.
  void Deactivate();

  std::int64_t words_written() const { return words_written_; }
  bool Done() const {
    return injection_.total_words >= 0 &&
           words_written_ >= injection_.total_words;
  }

  void Evaluate() override;

 private:
  core::NiPort* port_;
  int connid_;
  Injection injection_;
  Rng rng_;
  std::optional<GeometricGap> gap_;  // the Bernoulli gaps (rate > 0 only)
  bool active_ = true;
  std::int64_t backlog_ = 0;  // words due but not yet accepted
  Cycle next_emit_ = 0;
  std::int64_t words_written_ = 0;
};

/// Forwards words from one channel to another on the same NI port, one
/// word per cycle (a pixel-processing stage whose transform keeps the
/// emission stamp intact).
class Relay : public sim::Module {
 public:
  Relay(std::string name, core::NiPort* port, int in_connid, int out_connid);

  std::int64_t words_relayed() const { return words_relayed_; }

  void Evaluate() override;

 private:
  core::NiPort* port_;
  int in_connid_;
  int out_connid_;
  std::int64_t words_relayed_ = 0;
};

class StreamConsumer : public sim::Module {
 public:
  /// Drains up to `drain_per_cycle` words per cycle, recording per-word
  /// latency (arrival - emission stamp) and counting inter-arrival gaps
  /// (jitter).
  StreamConsumer(std::string name, core::NiPort* port, int connid,
                 int drain_per_cycle = 1);

  std::int64_t words_read() const { return words_read_; }
  const Stats& latency() const { return latency_; }
  /// Per-word latency samples; the scenario runner takes them for the
  /// flow's result once the run ends.
  Stats* mutable_latency() { return &latency_; }
  /// Cycles between consecutive reads, counted per whole-cycle value: its
  /// memory does not grow with the number of words.
  const CycleCounts& inter_arrival() const { return inter_arrival_; }
  /// Words whose stamp is not above the previous word's. A source writes
  /// at most one word per cycle, so its stamps strictly increase: zero
  /// errors plus words_read == words_written proves exactly-once,
  /// in-order delivery.
  std::int64_t sequence_errors() const { return sequence_errors_; }

  void Evaluate() override;

 private:
  core::NiPort* port_;
  int connid_;
  int drain_per_cycle_;
  std::int64_t words_read_ = 0;
  Cycle last_stamp_ = -1;
  std::int64_t sequence_errors_ = 0;
  Cycle last_arrival_ = -1;
  Stats latency_;
  CycleCounts inter_arrival_;
};

}  // namespace aethereal::ip

#endif  // AETHEREAL_IP_STREAM_H
