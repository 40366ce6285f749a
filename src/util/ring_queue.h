// A growable circular FIFO of movable values.
//
// Link queues keep their packets in one as 8-byte Packet* handles into the
// event queue's PacketPool, so a queued packet never moves. Unlike
// std::deque, which allocates and frees chunks as a steady stream passes
// through, the ring reuses one flat buffer forever once grown, which the
// zero-allocation contract of the event core depends on.
#pragma once

#include <cstddef>
#include <utility>
#include <vector>

namespace contra::util {

template <typename T>
class RingQueue {
 public:
  bool empty() const { return size_ == 0; }
  size_t size() const { return size_; }

  void push_back(T value) {
    if (size_ == buf_.size()) grow();
    buf_[tail_] = std::move(value);
    tail_ = next(tail_);
    ++size_;
  }

  T& front() { return buf_[head_]; }
  const T& front() const { return buf_[head_]; }

  /// Moves the front element out and advances the queue.
  T pop_front() {
    T out = std::move(buf_[head_]);
    head_ = next(head_);
    --size_;
    return out;
  }

 private:
  size_t next(size_t i) const { return i + 1 == buf_.size() ? 0 : i + 1; }

  void grow() {
    const size_t cap = buf_.empty() ? 16 : buf_.size() * 2;
    std::vector<T> bigger(cap);
    for (size_t i = 0, j = head_; i < size_; ++i, j = next(j)) bigger[i] = std::move(buf_[j]);
    buf_ = std::move(bigger);
    head_ = 0;
    tail_ = size_;
  }

  std::vector<T> buf_;
  size_t head_ = 0;
  size_t tail_ = 0;
  size_t size_ = 0;
};

}  // namespace contra::util
