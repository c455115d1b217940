// Stamp-latched register model: readers see only state from earlier clock
// edges, while a write made during this edge's Evaluate() lands at the next
// edge.
//
// It has no commit step (DESIGN.md §6). A register is bound to the clock
// of the side that writes it and stamps each write with that clock's edge;
// a read tells this edge's write from earlier edges' by comparing the stamp
// with the clock. So a same-edge write and read are independent of their
// order, and an idle register costs nothing per edge.
#ifndef AETHEREAL_SIM_REGISTER_H
#define AETHEREAL_SIM_REGISTER_H

#include <limits>
#include <utility>

#include "sim/kernel.h"
#include "util/check.h"

namespace aethereal::sim {

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

  /// Binds the register to its writer's clock, which stamps the writes.
  /// Required before the first Set().
  void Bind(const Clock* clock) { clock_ = clock; }

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
    AETHEREAL_CHECK_MSG(clock_ != nullptr, "Register used before Bind()");
    return clock_->cycles();
  }
  // A register never Set() holds its reset value, even before Bind().
  bool Landed() const { return stamp_ == kNever || Now() > stamp_; }

  static constexpr Cycle kNever = std::numeric_limits<Cycle>::min();

  T value_{};
  T next_{};
  const Clock* clock_ = nullptr;  // the writer's
  Cycle stamp_ = kNever;          // the writer edge that Set() next_
};

}  // namespace aethereal::sim

#endif  // AETHEREAL_SIM_REGISTER_H
