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
// Per slot the tap classifies every link (GT flit / BE flit / idle /
// credit return) into the hub's LinkCounters, records flit trace events
// when tracing is armed, tracks per-NI committed queue-fill high-water
// marks, and closes time-series windows. Finalize() (after the run)
// closes the trailing window and snapshots the per-NI / per-router
// aggregate counters.
#ifndef AETHEREAL_OBS_TAP_H
#define AETHEREAL_OBS_TAP_H

#include <vector>

#include "link/wire.h"
#include "obs/hub.h"
#include "sim/kernel.h"
#include "util/types.h"

namespace aethereal::core {
class NiKernel;
}
namespace aethereal::router {
class Router;
}

namespace aethereal::obs {

/// What the tap observes. `links` is index-aligned with the hub's link
/// registry (same order as ObsHub::RegisterLink calls).
struct ObsHookup {
  std::vector<const link::LinkWires*> links;
  std::vector<core::NiKernel*> nis;         // stats() is non-const (settle)
  std::vector<const router::Router*> routers;
};

class ObsTap : public sim::Module {
 public:
  explicit ObsTap(ObsHub* hub);

  /// Hands the tap its observation points. Call after the Soc is wired,
  /// before the first cycle.
  void Attach(ObsHookup hookup);

  void Evaluate() override;

  /// Closes the trailing partial sampling window and snapshots the
  /// end-of-run per-NI / per-router counters into the hub. Idempotent;
  /// call after the last cycle.
  void Finalize();

 private:
  bool IsSlotBoundary() const { return CycleCount() % kFlitWords == 0; }
  void CloseWindow(Cycle nominal_start);

  ObsHub* hub_;
  ObsHookup hookup_;
  bool attached_ = false;
  bool finalized_ = false;

  // Accumulating sampling window (valid while spec().SamplingEnabled()).
  SampleWindow window_;
  std::int64_t window_index_ = 0;
};

}  // namespace aethereal::obs

#endif  // AETHEREAL_OBS_TAP_H
