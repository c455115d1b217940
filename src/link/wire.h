// Registered slot-granular wires: the physical signals between NoC
// components.
//
// The Æthereal link transports one 32-bit word per cycle; a 3-word flit
// therefore occupies one TDM slot (3 word-clock cycles at 500 MHz). This
// model transfers values atomically at slot granularity: a producer drives
// at most one value per slot (during an Evaluate phase of that slot); the
// value is visible to the consumer for exactly the next slot and the wire
// is idle again after it. Per-hop latency is thus exactly one slot, as in
// the pipelined TDM circuits of the paper.
//
// Two instantiations are used:
//  * FlitWire  — the forward data signal (idle flit when undriven);
//  * CreditWire — the backward link-level credit-return pulse used by the
//    best-effort input buffers (0 when undriven).
//
// A wire is a stamped two-entry register (DESIGN.md §6): Drive() in slot s
// writes the entry of parity s & 1 and stamps it s; Sample() in slot t
// returns the entry of parity (t-1) & 1 if its stamp is t-1, else the idle
// value. Latch, hold and revert all follow from the stamps, so an undriven
// wire costs nothing per edge. The two parity entries keep a Drive() and a
// Sample() in the same edge independent of their order, which is the
// one-phase contract by construction. A flit wire's Drive() also wakes the
// consumer module registered with SetConsumer() for the next slot, so a
// parked consumer is running when the flit becomes visible. A credit wire
// wakes nobody: it counts its pulses, and its sender takes the credits
// driven in earlier slots (TakeDriven()) only when it has a BE flit to
// send and none left. Either wire adds what it drove to the link's
// LinkTraffic when one is installed (CountInto(); the obs tap's counters,
// DESIGN.md §13.2).
#ifndef AETHEREAL_LINK_WIRE_H
#define AETHEREAL_LINK_WIRE_H

#include <array>
#include <cstdint>
#include <limits>
#include <type_traits>

#include "link/flit.h"
#include "sim/kernel.h"
#include "util/check.h"

namespace aethereal::link {

/// Fault-injection tap consulted by FlitWire::Drive (DESIGN.md §12). The
/// tap may corrupt the flit in place; returning false swallows it (the wire
/// stays idle that slot — a drop on the physical link). Implemented by
/// fault::FaultInjector; null (the default) costs one pointer compare.
class FlitTap {
 public:
  virtual ~FlitTap() = default;
  virtual bool OnDrive(int site, Cycle now, Flit* flit) = 0;
};

/// Cumulative traffic of one directed link, counted by its wires as they
/// are driven: the flit wire counts flits, the credit wire credit pulses.
/// An idle flit and a zero credit count nothing.
struct LinkTraffic {
  std::int64_t gt_flits = 0;
  std::int64_t be_flits = 0;
  std::int64_t header_flits = 0;   // packet starts (either class)
  std::int64_t credit_slots = 0;   // slots carrying a credit return
  std::int64_t credits_returned = 0;
};

template <typename T>
class SlotWire {
 public:
  /// A wire on `clock`'s slot grid (slot = clock->cycles() / kFlitWords),
  /// reading T{} (the idle flit, zero credits) when undriven.
  explicit SlotWire(const sim::Clock* clock) : clock_(clock) {
    AETHEREAL_CHECK(clock != nullptr);
  }

  SlotWire(const SlotWire&) = delete;
  SlotWire& operator=(const SlotWire&) = delete;

  /// Declares the module that samples this flit wire; every Drive() wakes
  /// it for the next slot so a parked consumer never misses a slot transfer.
  void SetConsumer(sim::Module* consumer) {
    static_assert(std::is_same_v<T, Flit>,
                  "credit wires are read when needed and wake nobody");
    consumer_ = consumer;
  }

  /// Optional pending masks: a Drive() in slot s sets `1 << bit` in
  /// `(*masks)[s & 1]`. Lets a consumer with many input wires poll one word
  /// per slot instead of sampling every port: in slot t it drains the word
  /// of parity (t-1) & 1. Sound only because the drive also wakes the
  /// consumer for slot s+1, so no word outlives the slot that drains it.
  void SetConsumerBit(std::array<std::uint32_t, 2>* masks, int bit) {
    static_assert(std::is_same_v<T, Flit>,
                  "credit wires are read when needed and wake nobody");
    consumer_masks_ = masks;
    consumer_mask_bit_ = std::uint32_t{1} << bit;
  }

  /// Installs a fault tap (FlitWire only); `site` is the injector's stable
  /// id for this wire. Pass nullptr to remove.
  void SetFaultTap(FlitTap* tap, int site) {
    static_assert(std::is_same_v<T, Flit>,
                  "fault taps apply to flit wires only");
    tap_ = tap;
    tap_site_ = site;
  }

  /// Counts every later drive into `*traffic` (null stops counting). The
  /// count follows the fault tap: a corrupted flit counts as driven, a
  /// dropped one not at all, exactly as Sample() will see them.
  void CountInto(LinkTraffic* traffic) { traffic_ = traffic; }

  /// Producer: drive the wire for the current slot (call during Evaluate,
  /// at most once per slot).
  void Drive(const T& value) {
    const Cycle now = clock_->cycles();
    const Cycle slot = now / kFlitWords;
    const auto p = static_cast<std::size_t>(slot & 1);
    Entry& entry = entries_[p];
    AETHEREAL_CHECK_MSG(entry.stamp != slot, "wire driven twice in one slot");
    entry.value = value;
    if constexpr (std::is_same_v<T, Flit>) {
      if (tap_ != nullptr && !tap_->OnDrive(tap_site_, now, &entry.value)) {
        return;  // dropped: the slot stays idle
      }
    }
    entry.stamp = slot;
    if (traffic_ != nullptr) Count(entry.value);
    if constexpr (std::is_same_v<T, Flit>) {
      if (consumer_masks_ != nullptr) {
        (*consumer_masks_)[p] |= consumer_mask_bit_;
      }
      if (consumer_ != nullptr) consumer_->Wake();
    } else {
      untaken_ += value;
    }
  }

  /// Consumer: the value driven in the previous slot, else idle.
  const T& Sample() const {
    return SampleDrivenIn(clock_->cycles() / kFlitWords - 1);
  }

  /// Sample() for a caller that reads many wires of one clock and computes
  /// `prev`, the previous slot, once per slot: the value driven in `prev`,
  /// else idle. Only the previous slot is committed state; passing the
  /// current slot would observe same-slot drives.
  const T& SampleDrivenIn(Cycle prev) const {
    const Entry& entry = entries_[static_cast<std::size_t>(prev & 1)];
    return entry.stamp == prev ? entry.value : kIdle;
  }

  /// Credit-wire consumer: takes the credits driven in slots before the
  /// current one that no earlier call took. A pulse driven in slot s is
  /// takeable from slot s+1 on, however many slots later the sender asks,
  /// so a sender reads its credits only when it needs them.
  int TakeDriven() {
    const int current = DrivenInCurrentSlot();
    const int taken = untaken_ - current;
    untaken_ = current;
    return taken;
  }

  /// What TakeDriven() would return now, without taking it.
  int PeekDriven() const { return untaken_ - DrivenInCurrentSlot(); }

 private:
  // Stamp of an entry never driven: no slot number, not even the -1 that
  // slot 0 samples.
  static constexpr Cycle kNever = std::numeric_limits<Cycle>::min();
  static inline const T kIdle{};

  // This slot's pulse: counted in untaken_ but not takeable before the
  // next slot.
  int DrivenInCurrentSlot() const {
    static_assert(std::is_same_v<T, int>, "only credit wires count pulses");
    const Cycle slot = clock_->cycles() / kFlitWords;
    const Entry& entry = entries_[static_cast<std::size_t>(slot & 1)];
    return entry.stamp == slot ? entry.value : 0;
  }

  void Count(const T& value) {
    if constexpr (std::is_same_v<T, Flit>) {
      if (value.IsIdle()) return;
      ++(value.gt ? traffic_->gt_flits : traffic_->be_flits);
      if (value.kind == FlitKind::kHeader) ++traffic_->header_flits;
    } else {
      if (value <= 0) return;
      ++traffic_->credit_slots;
      traffic_->credits_returned += value;
    }
  }

  struct Entry {
    Cycle stamp = kNever;  // the slot that drove `value`
    T value{};
  };

  const sim::Clock* clock_;
  std::array<Entry, 2> entries_{};  // indexed by slot parity
  sim::Module* consumer_ = nullptr;
  std::array<std::uint32_t, 2>* consumer_masks_ = nullptr;  // SetConsumerBit
  std::uint32_t consumer_mask_bit_ = 0;
  FlitTap* tap_ = nullptr;
  int tap_site_ = -1;
  LinkTraffic* traffic_ = nullptr;  // CountInto
  int untaken_ = 0;  // credit wires: pulses driven and not yet taken
};

using FlitWire = SlotWire<Flit>;
using CreditWire = SlotWire<int>;

/// The wire bundle of one directed link: forward flits, backward link-level
/// credits (used only by best-effort buffering; guaranteed-throughput flits
/// are contention-free by construction and never buffered in routers).
/// Both wires run on the slot grid of `clock`, the network clock.
struct LinkWires {
  explicit LinkWires(const sim::Clock* clock)
      : data(clock), credit_return(clock) {}

  FlitWire data;
  CreditWire credit_return;
};

}  // namespace aethereal::link

#endif  // AETHEREAL_LINK_WIRE_H
