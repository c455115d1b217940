// Workload IP modules of the scenario layer.
//
// PatternSource drives one point-to-point channel with a configurable
// injection process (periodic, Bernoulli, bursty on/off), stamping every
// word with its emission cycle so the consumer end measures end-to-end
// latency. Relay is the intermediate stage of a video-style chain: it
// forwards words between two channels of the same NI port, preserving the
// timestamps so the chain's latency is measured end to end.
//
// Both modules follow the park/wake discipline of ip/stream.h, so runs are
// bit-identical on the soa and naive engines.
#ifndef AETHEREAL_SCENARIO_SOURCES_H
#define AETHEREAL_SCENARIO_SOURCES_H

#include <string>

#include "core/ni_kernel.h"
#include "scenario/spec.h"
#include "sim/kernel.h"
#include "util/rng.h"
#include "util/types.h"

namespace aethereal::scenario {

class PatternSource : public sim::Module {
 public:
  /// Emits timestamped words on `connid` following the injection process
  /// of `traffic` (kPeriodic / kBernoulli / kBursty). The seeded RNG
  /// provides the Bernoulli gaps and a per-flow phase offset so flows of
  /// one pattern do not inject in lockstep. Phased scenarios create every
  /// phase's sources up front, Deactivate() them, and switch them on as
  /// their phase begins.
  PatternSource(std::string name, core::NiPort* port, int connid,
                const TrafficSpec& traffic, std::uint64_t seed);

  /// Starts injecting: the first emission happens at `now` plus the
  /// constructor-drawn phase offset. Callable between cycles only.
  void Activate(Cycle now);

  /// Stops injecting immediately; pending backlog is discarded so
  /// words_written() is final as soon as this returns.
  void Deactivate();

  bool active() const { return active_; }

  std::int64_t words_written() const { return words_written_; }
  std::int64_t stall_cycles() const { return stall_cycles_; }

  void Evaluate() override;

 private:
  void ScheduleNext(Cycle now);

  core::NiPort* port_;
  int connid_;
  InjectKind inject_;
  std::int64_t period_;
  double rate_;
  std::int64_t burst_words_;
  std::int64_t gap_cycles_;
  Rng rng_;
  bool active_ = true;
  Cycle initial_offset_ = 0;  // constructor-drawn first-emission offset
  std::int64_t backlog_ = 0;
  Cycle next_emit_ = 0;
  std::int64_t words_written_ = 0;
  std::int64_t stall_cycles_ = 0;
};

/// Forwards words from one channel to another on the same NI port, one
/// word per cycle (a pixel-processing stage whose transform keeps the
/// latency-measurement payload intact).
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

}  // namespace aethereal::scenario

#endif  // AETHEREAL_SCENARIO_SOURCES_H
