// Fixed-capacity ring buffer backing the simulation queue models.
//
// The hardware FIFOs have design-time capacities, so every simulation queue
// is bounded; backing them with a preallocated ring (instead of std::deque,
// whose chunk map allocates and frees on steady-state push/pop churn) keeps
// the simulation hot path free of per-slot heap allocations.
#ifndef AETHEREAL_SIM_RING_H
#define AETHEREAL_SIM_RING_H

#include <utility>
#include <vector>

#include "util/check.h"

namespace aethereal::sim {

template <typename T>
class Ring {
 public:
  explicit Ring(int capacity)
      : buffer_(static_cast<std::size_t>(capacity)), capacity_(capacity) {
    AETHEREAL_CHECK(capacity > 0);
  }

  int capacity() const { return capacity_; }
  int size() const { return count_; }
  bool empty() const { return count_ == 0; }
  bool full() const { return count_ == capacity_; }

  /// Element `index` places behind the head (0 = oldest).
  const T& operator[](int index) const {
    AETHEREAL_CHECK(index >= 0 && index < count_);
    return buffer_[Slot(index)];
  }

  const T& front() const {
    AETHEREAL_CHECK(count_ > 0);
    return buffer_[Slot(0)];
  }

  /// The newest element.
  T& back() {
    AETHEREAL_CHECK(count_ > 0);
    return buffer_[Slot(count_ - 1)];
  }

  void push_back(T value) {
    AETHEREAL_CHECK_MSG(count_ < capacity_, "Ring overflow");
    buffer_[Slot(count_)] = std::move(value);
    ++count_;
  }

  T pop_front() {
    AETHEREAL_CHECK_MSG(count_ > 0, "Ring underflow");
    T value = std::move(buffer_[Slot(0)]);
    ++head_;
    if (head_ == capacity_) head_ = 0;
    --count_;
    return value;
  }

  void clear() {
    head_ = 0;
    count_ = 0;
  }

 private:
  // head_ < capacity_ and offset <= count_ <= capacity_, so one
  // conditional subtraction replaces the integer division of `%` on the
  // hot queue paths.
  std::size_t Slot(int offset) const {
    int slot = head_ + offset;
    if (slot >= capacity_) slot -= capacity_;
    return static_cast<std::size_t>(slot);
  }

  std::vector<T> buffer_;
  int capacity_;
  int head_ = 0;
  int count_ = 0;
};

}  // namespace aethereal::sim

#endif  // AETHEREAL_SIM_RING_H
