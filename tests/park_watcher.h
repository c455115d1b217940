// A test probe for park/wake timing on the soa engine.
//
// Registered on a module's clock ahead of the module, a ParkWatcher
// records each edge at which the module is not parked when the sweep
// starts, after the edge's timer wakes. On soa that list is the set of
// edges the module was woken for (a slot-grid module evaluates at the
// first boundary from there); the naive engine never parks, so there it
// lists every edge.
#ifndef AETHEREAL_TESTS_PARK_WATCHER_H
#define AETHEREAL_TESTS_PARK_WATCHER_H

#include <vector>

#include "sim/kernel.h"
#include "util/types.h"

namespace aethereal {

class ParkWatcher : public sim::Module {
 public:
  explicit ParkWatcher(const sim::Module* watched)
      : sim::Module("watcher"), watched_(watched) {}
  void Evaluate() override {
    if (!watched_->parked()) awake.push_back(CycleCount());
  }
  std::vector<Cycle> awake;

 private:
  const sim::Module* watched_;
};

}  // namespace aethereal

#endif  // AETHEREAL_TESTS_PARK_WATCHER_H
