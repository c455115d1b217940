// Fixed-capacity ring buffers backing the simulation queue models.
//
// The hardware FIFOs have design-time capacities, so every simulation queue
// is bounded; backing them with a preallocated ring (instead of std::deque,
// whose chunk map allocates and frees on steady-state push/pop churn) keeps
// the simulation hot path free of per-slot heap allocations. A Ring takes
// its buffer from the memory resource its owner passes: the SoC carves the
// rings of every NI and router from one block it sizes at construction
// (soc/soc.h), a standalone queue draws on the default heap resource.
// InlineRing keeps a small fixed capacity inside the object itself.
#ifndef AETHEREAL_SIM_RING_H
#define AETHEREAL_SIM_RING_H

#include <array>
#include <cstddef>
#include <memory_resource>
#include <utility>
#include <vector>

#include "util/check.h"

namespace aethereal::sim {

template <typename T>
class Ring {
 public:
  explicit Ring(int capacity, std::pmr::memory_resource* storage =
                                  std::pmr::get_default_resource())
      : buffer_(static_cast<std::size_t>(capacity), storage),
        capacity_(capacity) {
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

  std::pmr::vector<T> buffer_;
  int capacity_;
  int head_ = 0;
  int count_ = 0;
};

/// A ring of at most N elements held inside the object (N a power of two).
template <typename T, int N>
class InlineRing {
  static_assert(N > 0 && (N & (N - 1)) == 0, "N must be a power of two");

 public:
  int size() const { return count_; }
  bool empty() const { return count_ == 0; }

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

  void push_back(const T& value) {
    AETHEREAL_CHECK_MSG(count_ < N, "InlineRing overflow");
    buffer_[Slot(count_)] = value;
    ++count_;
  }

  void pop_front() {
    AETHEREAL_CHECK_MSG(count_ > 0, "InlineRing underflow");
    head_ = (head_ + 1) & (N - 1);
    --count_;
  }

 private:
  std::size_t Slot(int offset) const {
    return static_cast<std::size_t>((head_ + offset) & (N - 1));
  }

  std::array<T, N> buffer_{};
  int head_ = 0;
  int count_ = 0;
};

}  // namespace aethereal::sim

#endif  // AETHEREAL_SIM_RING_H
