// Flat storage for hot simulation state (the SoA engine's data layout).
//
// The gated engine's remaining cost at large meshes is pointer chasing:
// routers, NI kernels, link wires and channel queues each lived in their own
// heap allocation, so every evaluate sweep hopped between cache lines
// scattered across the heap. The SoA layout packs those objects into
// contiguous slabs so sweeps over the active sets touch consecutive memory
// (DESIGN.md §7).
//
// Slab<T> is the building block: a fixed-capacity placement-new arena whose
// elements never move. That address stability is load-bearing — routers
// and NI kernels keep raw pointers to their link wires, taken at
// construction time, so the container must never relocate them the way
// std::vector does on growth.
#ifndef AETHEREAL_SIM_SOA_STATE_H
#define AETHEREAL_SIM_SOA_STATE_H

#include <cstddef>
#include <new>
#include <utility>

#include "util/check.h"

namespace aethereal::sim {

/// Fixed-capacity arena of T with stable addresses. Elements are
/// constructed in place with Emplace() (up to the capacity given to
/// Reset()) and destroyed in reverse construction order. Non-copyable,
/// non-movable.
template <typename T>
class Slab {
 public:
  Slab() = default;
  explicit Slab(std::size_t capacity) { Reset(capacity); }
  ~Slab() { Release(); }

  Slab(const Slab&) = delete;
  Slab& operator=(const Slab&) = delete;

  /// Destroys all elements and reallocates raw storage for `capacity`
  /// elements. Must not be called while element addresses are registered
  /// elsewhere.
  void Reset(std::size_t capacity) {
    Release();
    capacity_ = capacity;
    if (capacity > 0) {
      data_ = static_cast<T*>(::operator new(
          capacity * sizeof(T), std::align_val_t{alignof(T)}));
    }
  }

  /// Constructs the next element in place and returns its (stable) address.
  template <typename... Args>
  T* Emplace(Args&&... args) {
    AETHEREAL_CHECK_MSG(size_ < capacity_, "Slab capacity exhausted");
    T* element = new (data_ + size_) T(std::forward<Args>(args)...);
    ++size_;
    return element;
  }

  std::size_t size() const { return size_; }
  std::size_t capacity() const { return capacity_; }
  bool empty() const { return size_ == 0; }

  T& operator[](std::size_t index) {
    AETHEREAL_CHECK(index < size_);
    return data_[index];
  }
  const T& operator[](std::size_t index) const {
    AETHEREAL_CHECK(index < size_);
    return data_[index];
  }

  T* begin() { return data_; }
  T* end() { return data_ + size_; }
  const T* begin() const { return data_; }
  const T* end() const { return data_ + size_; }

 private:
  void Release() {
    for (std::size_t i = size_; i > 0; --i) data_[i - 1].~T();
    size_ = 0;
    if (data_ != nullptr) {
      ::operator delete(data_, std::align_val_t{alignof(T)});
      data_ = nullptr;
    }
    capacity_ = 0;
  }

  T* data_ = nullptr;
  std::size_t size_ = 0;
  std::size_t capacity_ = 0;
};

}  // namespace aethereal::sim

#endif  // AETHEREAL_SIM_SOA_STATE_H
