// Fixed-capacity vector stored inline.
//
// For lists whose length the hardware bounds: a source route has at most
// link::kMaxPathHops hops, and a channel holds at most one slot per entry
// of a 32-slot table. Keeping such a list inline lets a route or a slot
// reservation be built, copied and stored without a heap allocation per
// connection. Overflow is a CHECK failure.
#ifndef AETHEREAL_UTIL_INLINE_VECTOR_H
#define AETHEREAL_UTIL_INLINE_VECTOR_H

#include <algorithm>
#include <array>
#include <cstddef>
#include <initializer_list>

#include "util/check.h"

namespace aethereal {

template <typename T, std::size_t N>
class InlineVector {
 public:
  using value_type = T;
  using iterator = T*;
  using const_iterator = const T*;

  InlineVector() = default;
  InlineVector(std::initializer_list<T> values) {
    for (const T& v : values) push_back(v);
  }
  /// `count` copies of `value`.
  InlineVector(std::size_t count, const T& value) {
    AETHEREAL_CHECK_MSG(count <= N, "InlineVector overflow");
    std::fill_n(data_.begin(), count, value);
    size_ = count;
  }

  std::size_t size() const { return size_; }
  bool empty() const { return size_ == 0; }

  T& operator[](std::size_t i) {
    AETHEREAL_CHECK(i < size_);
    return data_[i];
  }
  const T& operator[](std::size_t i) const {
    AETHEREAL_CHECK(i < size_);
    return data_[i];
  }
  T& front() { return (*this)[0]; }
  const T& front() const { return (*this)[0]; }
  T& back() { return (*this)[size_ - 1]; }
  const T& back() const { return (*this)[size_ - 1]; }

  void push_back(const T& value) {
    AETHEREAL_CHECK_MSG(size_ < N, "InlineVector overflow");
    data_[size_++] = value;
  }
  void clear() { size_ = 0; }

  T* data() { return data_.data(); }
  const T* data() const { return data_.data(); }
  T* begin() { return data_.data(); }
  T* end() { return data_.data() + size_; }
  const T* begin() const { return data_.data(); }
  const T* end() const { return data_.data() + size_; }

  friend bool operator==(const InlineVector& a, const InlineVector& b) {
    return std::equal(a.begin(), a.end(), b.begin(), b.end());
  }

 private:
  std::array<T, N> data_{};
  std::size_t size_ = 0;
};

}  // namespace aethereal

#endif  // AETHEREAL_UTIL_INLINE_VECTOR_H
