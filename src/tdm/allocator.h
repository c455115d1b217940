// Centralized TDM slot allocator.
//
// In the Æthereal prototype (paper §3), configuration is centralized: one
// configuration module owns the slot occupancy information for the whole
// NoC, so slot tables can be removed from the routers (§4.3). The allocator
// reserves, for a channel's route, slot s on the injection link, s+1 on the
// first router's output link, s+2 on the next, ... (pipelined TDM circuits),
// guaranteeing contention-free GT switching.
#ifndef AETHEREAL_TDM_ALLOCATOR_H
#define AETHEREAL_TDM_ALLOCATOR_H

#include <cstddef>
#include <cstdint>
#include <functional>
#include <memory_resource>
#include <vector>

#include "tdm/slot_table.h"
#include "topology/topology.h"
#include "util/status.h"
#include "util/types.h"

namespace aethereal::tdm {

/// How slots are chosen among the feasible ones.
enum class AllocPolicy {
  kFirstFit,    // lowest feasible slot indices
  kSpread,      // near-equally spaced (minimizes jitter bound)
  kContiguous,  // a consecutive run (maximizes packet length / minimizes
                // header overhead, at the cost of jitter)
};

class CentralizedAllocator {
 public:
  /// Creates tables for every directed link of `topology`, each with
  /// `num_slots` slots (at most kMaxSlots), taking StorageBytes() from
  /// `storage`. The topology must outlive the allocator.
  CentralizedAllocator(const topology::Topology* topology, int num_slots,
                       std::pmr::memory_resource* storage =
                           std::pmr::get_default_resource());

  /// Bytes the tables of `num_links` links of `num_slots` slots take from
  /// the storage resource, padding included.
  static std::size_t StorageBytes(int num_links, int num_slots);

  int num_slots() const { return num_slots_; }

  /// True if slot `s` (at the injection link; slot s+j on link j) is free on
  /// every link of `route`.
  bool SlotFeasible(const topology::ChannelRoute& route, SlotIndex s) const;

  /// All feasible injection-link slots for `route`, ascending.
  SlotList FeasibleSlots(const topology::ChannelRoute& route) const;

  /// Reserves `count` slots for `channel` along `route` using `policy`.
  /// Returns the injection-link slot indices, or kResourceExhausted if not
  /// enough feasible slots exist.
  Result<SlotList> Allocate(const topology::ChannelRoute& route,
                            const GlobalChannel& channel, int count,
                            AllocPolicy policy);

  /// Releases previously allocated slots of `channel` along `route`.
  Status Free(const topology::ChannelRoute& route,
              const GlobalChannel& channel, const SlotList& slots);

  /// Calls `hook(ni)` before each Allocate or Free that changes the table
  /// of NI `ni`'s injection link (verify/monitor.h re-checks the NI's slot
  /// tables then).
  void SetInjectionTableHook(std::function<void(NiId)> hook) {
    injection_table_hook_ = std::move(hook);
  }

  /// Table of one link (by dense link index), e.g. to program an NI's STU.
  const SlotTable& TableOf(const topology::LinkId& link) const;

  /// Mean reserved fraction over all links.
  double MeanUtilization() const;

  /// Total reserved slots summed over every link table — the NoC-wide slot
  /// occupancy. Runtime reconfiguration metrics (slots reclaimed by a close,
  /// reallocated by an open) are deltas of this value.
  std::int64_t TotalReserved() const;

 private:
  SlotTable& MutableTableOf(const topology::LinkId& link);
  /// Runs the injection-table hook for the table `route` starts on.
  void NoteInjectionChange(const topology::ChannelRoute& route) const;
  const topology::Topology* topology_;
  int num_slots_;
  std::pmr::vector<SlotTable> tables_;  // indexed by Topology::LinkIndex
  std::function<void(NiId)> injection_table_hook_;
};

/// Picks `count` slots from `feasible` according to `policy`; exposed for
/// unit testing and reuse by the distributed model. Returns empty if
/// impossible.
SlotList PickSlots(const SlotList& feasible, int count, int num_slots,
                   AllocPolicy policy);

}  // namespace aethereal::tdm

#endif  // AETHEREAL_TDM_ALLOCATOR_H
