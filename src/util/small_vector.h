// A minimal small-buffer vector for trivially copyable element types.
//
// Exists for the simulator hot path: rank vectors and metric tuples are
// almost always <= 4 components, and evaluating them millions of times per
// run must not touch the heap. Elements stay in inline storage up to N and
// spill to a heap buffer beyond it; the API is the subset of std::vector the
// codebase actually uses.
#pragma once

#include <algorithm>
#include <cstddef>
#include <cstring>
#include <initializer_list>
#include <type_traits>

namespace contra::util {

template <typename T, size_t N>
class SmallVector {
  static_assert(std::is_trivially_copyable_v<T>,
                "SmallVector is restricted to trivially copyable types");
  static_assert(N > 0);

 public:
  SmallVector() = default;
  SmallVector(std::initializer_list<T> init) {
    for (const T& v : init) push_back(v);
  }
  SmallVector(const SmallVector& other) { assign_from(other); }
  SmallVector(SmallVector&& other) noexcept { steal_from(other); }
  SmallVector& operator=(const SmallVector& other) {
    if (this != &other) {
      clear_storage();
      assign_from(other);
    }
    return *this;
  }
  SmallVector& operator=(SmallVector&& other) noexcept {
    if (this != &other) {
      clear_storage();
      steal_from(other);
    }
    return *this;
  }
  ~SmallVector() { clear_storage(); }

  size_t size() const { return size_; }
  bool empty() const { return size_ == 0; }
  size_t capacity() const { return capacity_; }
  bool is_inline() const { return data_ == inline_; }

  T* data() { return data_; }
  const T* data() const { return data_; }
  T* begin() { return data_; }
  T* end() { return data_ + size_; }
  const T* begin() const { return data_; }
  const T* end() const { return data_ + size_; }

  T& operator[](size_t i) { return data_[i]; }
  const T& operator[](size_t i) const { return data_[i]; }
  T& back() { return data_[size_ - 1]; }
  const T& back() const { return data_[size_ - 1]; }

  void clear() { size_ = 0; }

  void reserve(size_t want) {
    if (want > capacity_) grow(want);
  }

  void push_back(const T& v) {
    if (size_ == capacity_) grow(capacity_ * 2);
    data_[size_++] = v;
  }

  void append(const T* first, const T* last) {
    const size_t extra = static_cast<size_t>(last - first);
    if (extra == 0) return;  // an empty range may be (nullptr, nullptr): no memcpy
    if (size_ + extra > capacity_) grow(std::max(size_ + extra, capacity_ * 2));
    std::memcpy(data_ + size_, first, extra * sizeof(T));
    size_ += extra;
  }

  friend bool operator==(const SmallVector& a, const SmallVector& b) {
    return a.size_ == b.size_ && std::equal(a.begin(), a.end(), b.begin());
  }

 private:
  void grow(size_t want) {
    const size_t cap = std::max(want, size_t{2} * N);
    T* heap = new T[cap];
    std::memcpy(heap, data_, size_ * sizeof(T));
    if (data_ != inline_) delete[] data_;
    data_ = heap;
    capacity_ = cap;
  }

  void clear_storage() {
    if (data_ != inline_) delete[] data_;
    data_ = inline_;
    capacity_ = N;
    size_ = 0;
  }

  void assign_from(const SmallVector& other) {
    if (other.size_ > capacity_) grow(other.size_);
    std::memcpy(data_, other.data_, other.size_ * sizeof(T));
    size_ = other.size_;
  }

  void steal_from(SmallVector& other) noexcept {
    if (other.is_inline()) {
      std::memcpy(inline_, other.inline_, other.size_ * sizeof(T));
      data_ = inline_;
      capacity_ = N;
    } else {
      data_ = other.data_;
      capacity_ = other.capacity_;
      other.data_ = other.inline_;
      other.capacity_ = N;
    }
    size_ = other.size_;
    other.size_ = 0;
  }

  T inline_[N];
  T* data_ = inline_;
  size_t size_ = 0;
  size_t capacity_ = N;
};

}  // namespace contra::util
