// Stamp-latched synchronous FIFO and register models.
//
// These model the "custom-made hardware fifos" of the NI kernel (paper
// Section 4.1/5), which allow simultaneous read and write: readers see only
// state from earlier clock edges, while pushes, pops and register writes made
// during this edge's Evaluate() land at the next edge.
//
// Neither model has a commit step (DESIGN.md §6). Each one is bound to a
// module and stamps what it stages with that module's clock edge; a read
// tells this edge's staging from earlier edges' by comparing the stamp
// with the clock. So a same-edge write and read are independent of their
// order, and an idle queue or register costs nothing per edge.
#ifndef AETHEREAL_SIM_FIFO_H
#define AETHEREAL_SIM_FIFO_H

#include <limits>
#include <utility>

#include "sim/kernel.h"
#include "sim/ring.h"
#include "util/check.h"

namespace aethereal::sim {

/// Single-clock FIFO. A word pushed at edge t is visible to the reader at
/// edge t+1. Same-edge push+pop is allowed; a pop frees space for a
/// same-edge push (flow-through space accounting, as in the Æthereal
/// hardware FIFOs which support simultaneous read and write access).
///
/// One ring holds every word pushed and not yet popped; pops leave it at
/// once. The pushes and pops of the current edge are counted against
/// `edge_`, so the edge-start view is the ring minus this edge's pushes
/// plus this edge's pops.
template <typename T>
class Fifo {
 public:
  explicit Fifo(int capacity) : ring_(capacity) {}

  /// Binds the fifo to the module whose clock edges stamp its pushes and
  /// pops. Required before the first Push() or Pop().
  void Bind(const Module* owner) { owner_ = owner; }

  int capacity() const { return ring_.capacity(); }

  /// Occupancy at the start of this edge (what another module sees this
  /// cycle, whatever the evaluation order): this edge's pushes excluded,
  /// its pops still counted.
  int Size() const {
    return edge_ == Now() ? ring_.size() - pushes_ + pops_ : ring_.size();
  }

  /// Occupancy once this edge's pushes and pops have landed.
  int Occupancy() const { return ring_.size(); }

  /// True if a push now fits (a same-edge pop frees its slot).
  bool CanPush() const { return ring_.size() < ring_.capacity(); }

  /// True if another pop can be made this cycle (data from an earlier
  /// edge present).
  bool CanPop() const { return Poppable() > 0; }

  /// Peek the element `offset` places behind the head, accounting for pops
  /// already made this cycle.
  const T& Peek(int offset = 0) const {
    AETHEREAL_CHECK_MSG(offset < Poppable(),
                        "Fifo::Peek past committed contents");
    return ring_[offset];
  }

  /// Push a word, visible to readers from the next edge.
  void Push(T value) {
    AETHEREAL_CHECK_MSG(CanPush(),
                        "Fifo overflow (capacity " << capacity() << ")");
    Touch();
    ++pushes_;
    ring_.push_back(std::move(value));
  }

  /// Pop and return the head word.
  T Pop() {
    AETHEREAL_CHECK_MSG(CanPop(), "Fifo underflow");
    Touch();
    ++pops_;
    return ring_.pop_front();
  }

 private:
  Cycle Now() const {
    AETHEREAL_CHECK_MSG(owner_ != nullptr, "Fifo used before Bind()");
    return owner_->CycleCount();
  }
  int Poppable() const {
    return edge_ == Now() ? ring_.size() - pushes_ : ring_.size();
  }

  /// Restarts the per-edge counts on the first push or pop of an edge.
  void Touch() {
    const Cycle now = Now();
    if (edge_ == now) return;
    edge_ = now;
    pushes_ = 0;
    pops_ = 0;
  }

  Ring<T> ring_;
  const Module* owner_ = nullptr;
  Cycle edge_ = std::numeric_limits<Cycle>::min();  // edge of the counts
  int pushes_ = 0;
  int pops_ = 0;
};

/// A register: Get() returns the value of the writer's last edge before
/// the current instant; Set() stages the value for the next edge.
///
/// The pair value_/next_ holds the value before and after the writer's
/// edge `stamp_`. That edge has passed once the writer's clock counts
/// beyond it, so a reader on any clock, in any order, sees next_ exactly
/// from the first instant after the write.
template <typename T>
class Register {
 public:
  Register() = default;
  explicit Register(T reset) : value_(reset), next_(reset) {}

  /// Binds the register to the module that Set()s it; its clock stamps
  /// the writes. Required before the first Set() or Get().
  void Bind(const Module* writer) { writer_ = writer; }

  const T& Get() const { return Landed() ? next_ : value_; }

  /// The value of the latest Set(), landed or not (the reset value if the
  /// register was never Set()).
  const T& LastSet() const { return next_; }

  void Set(T value) {
    const Cycle now = Now();
    if (stamp_ != now) {
      value_ = Get();  // the previous write has landed
      stamp_ = now;
    }
    next_ = std::move(value);
  }

 private:
  Cycle Now() const {
    AETHEREAL_CHECK_MSG(writer_ != nullptr, "Register used before Bind()");
    return writer_->CycleCount();
  }
  // A register never Set() holds its reset value, even while its writer
  // has no clock yet.
  bool Landed() const { return stamp_ == kNever || Now() > stamp_; }

  static constexpr Cycle kNever = std::numeric_limits<Cycle>::min();

  T value_{};
  T next_{};
  const Module* writer_ = nullptr;
  Cycle stamp_ = kNever;  // the writer edge that Set() next_
};

}  // namespace aethereal::sim

#endif  // AETHEREAL_SIM_FIFO_H
