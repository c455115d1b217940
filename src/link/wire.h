// Registered slot-granular wires: the physical signals between NoC
// components.
//
// The Æthereal link transports one 32-bit word per cycle; a 3-word flit
// therefore occupies one TDM slot (3 word-clock cycles at 500 MHz). This
// model transfers values atomically at slot granularity: a producer drives
// at most one value per slot (during the slot-boundary cycle's Evaluate
// phase); the value becomes visible to the consumer at the next slot
// boundary and is held for that whole slot. Per-hop latency is thus exactly
// one slot, as in the pipelined TDM circuits of the paper.
//
// Two instantiations are used:
//  * FlitWire  — the forward data signal (idle flit when undriven);
//  * CreditWire — the backward link-level credit-return pulse used by the
//    best-effort input buffers (0 when undriven).
//
// Gating integration (DESIGN.md §7): a wire arms itself on Drive() and
// stays armed until one slot boundary after it has gone idle, so an
// undriven wire costs nothing per edge. Drive() also wakes the consumer
// module registered with SetConsumer(), guaranteeing a parked consumer is
// running again by the slot boundary at which the value becomes visible.
#ifndef AETHEREAL_LINK_WIRE_H
#define AETHEREAL_LINK_WIRE_H

#include <cstdint>
#include <string>
#include <type_traits>
#include <utility>

#include "link/flit.h"
#include "sim/kernel.h"
#include "sim/soa_state.h"
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

template <typename T>
class SlotWire : public sim::TwoPhase {
 public:
  SlotWire() = default;
  explicit SlotWire(T idle) : idle_(idle), current_(idle), next_(idle) {}

  /// Declares the module that samples this wire; every Drive() wakes it so
  /// a parked consumer never misses a slot transfer.
  void SetConsumer(sim::Module* consumer) { consumer_ = consumer; }

  /// Optional pending mask: when the wire latches a driven (non-idle) value
  /// at a slot boundary, `*mask |= 1 << bit`. Lets a consumer with many
  /// input wires poll one word instead of sampling every port; the consumer
  /// owns the mask and clears bits as it drains them.
  void SetConsumerBit(std::uint32_t* mask, int bit) {
    consumer_mask_ = mask;
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

  /// Producer: drive the wire for the current slot (call during Evaluate of
  /// a slot-boundary cycle, at most once per slot).
  void Drive(const T& value) {
    AETHEREAL_CHECK_MSG(!driven_, "wire driven twice in one slot");
    if constexpr (std::is_same_v<T, Flit>) {
      if (tap_ != nullptr) {
        T tapped = value;
        const sim::Module* m = owner();
        const Cycle now =
            (m != nullptr && m->clock() != nullptr) ? m->CycleCount() : phase_;
        if (!tap_->OnDrive(tap_site_, now, &tapped)) return;  // dropped
        next_ = tapped;
        driven_ = true;
        MarkDirty();
        if (consumer_ != nullptr) consumer_->Wake(kFlitWords);
        return;
      }
    }
    next_ = value;
    driven_ = true;
    MarkDirty();
    if (consumer_ != nullptr) consumer_->Wake(kFlitWords);
  }

  /// Consumer: the value latched at the last slot boundary.
  const T& Sample() const { return current_; }

  /// Commits once per word-clock edge while armed; the latch transfers at
  /// slot boundaries (every kFlitWords edges).
  void Commit() override {
    const bool boundary = AtSlotEnd();
    ++phase_;
    if (boundary) {
      current_ = driven_ ? next_ : idle_;
      holding_ = driven_;
      if (driven_ && consumer_mask_ != nullptr) {
        *consumer_mask_ |= consumer_mask_bit_;
      }
      driven_ = false;
    }
    // Stay armed until the boundary at which the wire reverts to idle: a
    // pending drive needs its transfer, a held value needs its revert.
    if (driven_ || holding_ || !boundary) MarkDirty();
  }

 private:
  bool AtSlotEnd() const {
    // The slot grid is defined by the owning module's clock so that skipped
    // commits (while the wire is idle and disarmed) cannot drift the phase.
    // A standalone wire (unit tests) falls back to counting its own
    // commits, which in that setting happen every edge.
    const sim::Module* m = owner();
    const Cycle edge = (m != nullptr && m->clock() != nullptr)
                           ? m->CycleCount()
                           : phase_;
    return edge % kFlitWords == kFlitWords - 1;
  }

  T idle_{};
  T current_{};
  T next_{};
  bool driven_ = false;
  bool holding_ = false;  // current_ carries a driven value to revert
  sim::Module* consumer_ = nullptr;
  std::uint32_t* consumer_mask_ = nullptr;  // see SetConsumerBit
  std::uint32_t consumer_mask_bit_ = 0;
  FlitTap* tap_ = nullptr;
  int tap_site_ = -1;
  Cycle phase_ = 0;
};

using FlitWire = SlotWire<Flit>;
using CreditWire = SlotWire<int>;

/// The wire bundle of one directed link: forward flits, backward link-level
/// credits (used only by best-effort buffering; guaranteed-throughput flits
/// are contention-free by construction and never buffered in routers).
struct LinkWires {
  FlitWire data;
  CreditWire credit_return;
};

/// A directed link as a simulation module: owns and commits its wires on
/// the network clock. Producers call data.Drive(); consumers call
/// credit_return.Drive(). A link is pure commit machinery: it is never
/// evaluated on the gated path, and once both wires have disarmed its
/// per-edge cost is two flag checks.
class DirectedLink : public sim::Module {
 public:
  explicit DirectedLink(std::string name) : sim::Module(std::move(name)) {
    RegisterState(&wires_.data);
    RegisterState(&wires_.credit_return);
    SetEvaluateIsNoop();
    SetDefaultCommitOnly();
    // Wires latch only at the end-of-slot edge; commits on the two other
    // word-clock edges of a slot are no-ops and are skipped.
    SetCommitStride(kFlitWords, kFlitWords - 1);
  }

  void Evaluate() override {}

  LinkWires& wires() { return wires_; }

 private:
  LinkWires wires_;
};

/// Flattened link storage (DESIGN.md §7): ONE module owning the wire
/// bundles of every link of a NoC in a contiguous slab, replacing the
/// per-link DirectedLink modules. Behaviour per wire is identical — the
/// wires are the same SlotWire objects, committed by the same dirty-list
/// protocol — but the commit sweep now walks consecutive memory, the
/// kernel dispatches ONE virtual Commit() per slot for all driven links
/// instead of one per link, and the per-clock module count (which every
/// evaluate/commit scan is proportional to) drops by the link count.
///
/// The slab has a fixed capacity so LinkWires addresses stay stable: the
/// wires register themselves as TwoPhase state and producers/consumers keep
/// raw pointers to them.
class WirePool : public sim::Module {
 public:
  WirePool(std::string name, int capacity)
      : sim::Module(std::move(name)),
        links_(static_cast<std::size_t>(capacity)) {
    SetEvaluateIsNoop();      // pure commit machinery, like DirectedLink
    SetDefaultCommitOnly();
    // Wires latch only at the end-of-slot edge; commits on the two other
    // word-clock edges of a slot are no-ops and are skipped.
    SetCommitStride(kFlitWords, kFlitWords - 1);
  }

  /// Constructs the next link's wire bundle in the slab and registers its
  /// wires for commit. The returned address is stable for the pool's
  /// lifetime.
  LinkWires* AddLink() {
    LinkWires* wires = links_.Emplace();
    RegisterState(&wires->data);
    RegisterState(&wires->credit_return);
    return wires;
  }

  int NumLinks() const { return static_cast<int>(links_.size()); }

  void Evaluate() override {}

 private:
  sim::Slab<LinkWires> links_;
};

}  // namespace aethereal::link

#endif  // AETHEREAL_LINK_WIRE_H
