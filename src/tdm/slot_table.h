// TDM slot table.
//
// Guaranteed-throughput (GT) service in Æthereal is implemented by
// configuring connections as pipelined time-division-multiplexed circuits
// over the network (paper §2): reserving slot s on a link implies using slot
// s+1 on the next link of the path, and so on. Reserving N of S slots buys
// bandwidth N*B_slot; the latency bound is the wait until the next reserved
// slot plus one slot per hop; jitter is bounded by the maximum gap between
// consecutive reserved slots.
#ifndef AETHEREAL_TDM_SLOT_TABLE_H
#define AETHEREAL_TDM_SLOT_TABLE_H

#include <memory_resource>
#include <ostream>
#include <vector>

#include "util/inline_vector.h"
#include "util/status.h"
#include "util/types.h"

namespace aethereal::tdm {

/// Most slots a table holds: an NI programs its slots through the 32-bit
/// SLOTS register mask.
inline constexpr int kMaxSlots = 32;

/// Slots held by one channel, as injection-link slot indices.
using SlotList = InlineVector<SlotIndex, kMaxSlots>;

/// Globally unique channel identity (an NI-local channel id qualified by the
/// NI), used to tag slot ownership in allocator tables.
struct GlobalChannel {
  NiId ni = kInvalidId;
  ChannelId channel = kInvalidId;

  bool valid() const { return ni != kInvalidId && channel != kInvalidId; }

  friend bool operator==(const GlobalChannel&, const GlobalChannel&) = default;
};

std::ostream& operator<<(std::ostream& os, const GlobalChannel& channel);

/// Largest circular distance (in slots) between consecutive entries of
/// `slots` in a table of `num_slots` — the paper's jitter bound, shared by
/// SlotTable::MaxGap and the analytical bound model (verify/bounds.h).
/// Returns num_slots for an empty set (worst case); never 0 otherwise.
int MaxCircularGap(std::vector<SlotIndex> slots, int num_slots);

/// Slot ownership table for one link (or for the NI's slot-table unit, STU).
class SlotTable {
 public:
  /// The entries come from `storage` (an allocator's table block).
  explicit SlotTable(int num_slots, std::pmr::memory_resource* storage =
                                        std::pmr::get_default_resource());

  int num_slots() const { return static_cast<int>(slots_.size()); }

  bool IsFree(SlotIndex s) const { return !At(s).valid(); }

  /// Owner of slot `s` (invalid GlobalChannel if free).
  const GlobalChannel& Owner(SlotIndex s) const { return At(s); }

  /// Reserves slot `s` for `owner`; fails if occupied.
  Status Reserve(SlotIndex s, const GlobalChannel& owner);

  /// Releases slot `s`; fails if free.
  Status Release(SlotIndex s);

  /// Releases every slot owned by `owner`; returns how many were freed.
  int ReleaseAll(const GlobalChannel& owner);

  /// Slots currently owned by `owner`, ascending.
  std::vector<SlotIndex> SlotsOf(const GlobalChannel& owner) const;

  /// Number of reserved slots.
  int Reserved() const;

  /// Fraction of slots reserved, in [0,1].
  double Utilization() const;

  /// Largest gap (in slots) between consecutive reservations of `owner`,
  /// wrapping around the table; this is the paper's jitter bound. Returns
  /// num_slots() if the owner holds no slot (worst case) and 0 is never
  /// returned for a non-empty owner (a gap is at least 1).
  int MaxGap(const GlobalChannel& owner) const;

 private:
  const GlobalChannel& At(SlotIndex s) const;
  GlobalChannel& At(SlotIndex s);
  std::pmr::vector<GlobalChannel> slots_;
};

}  // namespace aethereal::tdm

#endif  // AETHEREAL_TDM_SLOT_TABLE_H
