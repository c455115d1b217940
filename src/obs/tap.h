// ObsTap — the read-only network tap feeding the ObsHub (DESIGN.md §13).
//
// The tap follows the verify monitor's observation contract exactly: it
// is registered on the network clock BEFORE any NoC hardware, samples
// only committed state (link wires via Sample(), which in slot t returns
// what was driven in slot t-1 whatever slot t drives; CDC queue fills via
// their edge-start reader sizes), and never stages anything — so arming it cannot perturb the simulation, and the
// counts it accumulates are identical on the naive and soa engines (the
// committed-state trajectory is the engines' byte-identity invariant).
//
// The links count their own traffic: Attach() points every link's wires
// at a link::LinkTraffic of the tap's, which each Drive() adds to. Per
// slot the tap only counts the slot, updates the queue-fill marks of the
// NIs a hand-off has reached and, when tracing is armed, walks the links
// to record flit trace events.
//
// Queue fills follow the hand-offs. An NI's committed fill can rise only
// at a slot boundary where a hand-off into one of its queues has become
// readable; between such boundaries words only leave. Each NI kernel
// reports its hand-offs (core::QueueWatcher), and the tap re-sums that
// NI's fills at the first slot boundary at which the queue's reader clock
// has reached the hand-off's stamp. Every NI is summed once at each
// sampling window's first slot, where the window's deepest fill starts
// with the fill carried into it.
//
// A window close derives every window field from the cumulative counts,
// less the one drive the tap has not observed yet (the slot in flight: a
// drive becomes observable one slot later).
// Finalize() (after the run) closes the trailing window and fills the
// hub's per-link counters the same way, and snapshots the per-NI /
// per-router aggregate counters.
#ifndef AETHEREAL_OBS_TAP_H
#define AETHEREAL_OBS_TAP_H

#include <vector>

#include "core/ni_kernel.h"
#include "link/wire.h"
#include "obs/hub.h"
#include "sim/kernel.h"
#include "util/types.h"

namespace aethereal::router {
class Router;
}

namespace aethereal::obs {

/// What the tap observes. `links` is index-aligned with the hub's link
/// registry (same order as ObsHub::RegisterLink calls); Attach() installs
/// the tap's traffic counters on them.
struct ObsHookup {
  std::vector<link::LinkWires*> links;
  std::vector<core::NiKernel*> nis;         // stats() is non-const (settle)
  std::vector<const router::Router*> routers;
};

class ObsTap : public sim::Module, public core::QueueWatcher {
 public:
  explicit ObsTap(ObsHub* hub);

  /// Hands the tap its observation points and makes it every NI's queue
  /// watcher. Call after the Soc is wired, before the first cycle.
  void Attach(ObsHookup hookup);

  void Evaluate() override;

  /// Marks NI `ni` for a re-sum at the first slot boundary at which
  /// `reader` has reached edge `stamp`.
  void NoteHandOff(NiId ni, const sim::Clock& reader, Cycle stamp) override;

  /// Closes the trailing partial sampling window and snapshots the
  /// end-of-run per-NI / per-router counters into the hub. Idempotent;
  /// call after the last cycle.
  void Finalize();

 private:
  bool IsSlotBoundary() const { return CycleCount() % kFlitWords == 0; }
  /// Link `i`'s traffic through the slot before `unobserved_slot`: what its
  /// wires counted, less their drive in `unobserved_slot`.
  link::LinkTraffic Observed(std::size_t i, Cycle unobserved_slot) const;
  /// Closes the current sampling window with the traffic observed before
  /// `unobserved_slot`.
  void CloseWindow(Cycle unobserved_slot);
  /// Sums NI `n`'s committed queue fills into its marks and the window's.
  void SumQueueFills(std::size_t n);

  ObsHub* hub_;
  ObsHookup hookup_;
  bool attached_ = false;
  bool finalized_ = false;

  std::vector<link::LinkTraffic> driven_;  // per link, counted by its wires
  // Queue-fill marks: the NIs to re-sum, each with the slot number of the
  // boundary that sees its hand-off, and per NI the latest such slot
  // queued (a hand-off due in the same slot adds nothing).
  struct Mark {
    Cycle slot;
    std::size_t ni;
  };
  std::vector<Mark> marks_;
  std::vector<Cycle> marked_slot_;
  std::int64_t observed_slots_ = 0;  // slot boundaries evaluated so far
  Cycle slot_ = -1;  // slot of the last evaluation: driven, unobserved

  // Sampling windows (valid while spec().SamplingEnabled()): the observed
  // traffic and slot count at the last close, and the deepest queue fill
  // since then.
  std::vector<link::LinkTraffic> closed_;
  std::int64_t closed_slots_ = 0;
  int window_queue_words_ = 0;
  std::int64_t window_index_ = 0;
};

}  // namespace aethereal::obs

#endif  // AETHEREAL_OBS_TAP_H
