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
#include <memory_resource>
#include <new>
#include <utility>

#include "util/check.h"

namespace aethereal::sim {

/// Bytes a storage estimate (the StorageBytes() functions that size the
/// Soc's block) allows per allocation for alignment padding.
inline constexpr std::size_t kAllocationPad = alignof(std::max_align_t);

/// Fixed-capacity arena of T with stable addresses. Elements are
/// constructed in place with Emplace() (up to the capacity given to
/// Reset()) and destroyed in reverse construction order. The raw storage
/// comes from the memory resource given to Reset(): the SoC's build block
/// (soc/soc.h), or the default heap resource. Non-copyable, non-movable.
template <typename T>
class Slab {
 public:
  Slab() = default;
  ~Slab() { Release(); }

  Slab(const Slab&) = delete;
  Slab& operator=(const Slab&) = delete;

  /// Destroys all elements and takes raw storage for `capacity` elements
  /// from `storage`. Must not be called while element addresses are
  /// registered elsewhere.
  void Reset(std::size_t capacity, std::pmr::memory_resource* storage =
                                       std::pmr::get_default_resource()) {
    Release();
    capacity_ = capacity;
    storage_ = storage;
    if (capacity > 0) {
      data_ = static_cast<T*>(storage->allocate(Bytes(), alignof(T)));
    }
  }

  /// Bytes a Slab of `capacity` elements takes from its resource.
  static constexpr std::size_t BytesFor(std::size_t capacity) {
    return capacity * sizeof(T);
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
      storage_->deallocate(data_, Bytes(), alignof(T));
      data_ = nullptr;
    }
    capacity_ = 0;
  }
  std::size_t Bytes() const { return BytesFor(capacity_); }

  std::pmr::memory_resource* storage_ = nullptr;
  T* data_ = nullptr;
  std::size_t size_ = 0;
  std::size_t capacity_ = 0;
};

}  // namespace aethereal::sim

#endif  // AETHEREAL_SIM_SOA_STATE_H
