// Fixed-capacity circular buffer.
//
// Backing store for in-process heartbeat history. Appends overwrite the
// oldest element once full (the paper's Section 3: "When the buffer fills,
// old heartbeats are simply dropped"). Not internally synchronized; callers
// own the locking policy
// (per-thread channels need none, the global channel wraps it in a mutex).
#pragma once

#include <cassert>
#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

namespace hb::util {

template <typename T>
class RingBuffer {
 public:
  explicit RingBuffer(std::size_t capacity) : buf_(capacity) {
    assert(capacity > 0 && "RingBuffer capacity must be positive");
  }

  std::size_t capacity() const { return buf_.size(); }

  /// Number of elements currently retained (<= capacity).
  std::size_t size() const {
    return total_ < buf_.size() ? static_cast<std::size_t>(total_)
                                : buf_.size();
  }

  /// Number of elements ever pushed (monotonic).
  std::uint64_t total_pushed() const { return total_; }

  bool empty() const { return size() == 0; }

  void push(const T& v) {
    buf_[head_] = v;
    if (++head_ == buf_.size()) head_ = 0;
    ++total_;
  }

  /// Element `i` steps back from the most recent one; back(0) is the newest.
  /// Precondition: i < size().
  const T& back(std::size_t i = 0) const {
    assert(i < size());
    const std::size_t k = i + 1;
    return buf_[head_ >= k ? head_ - k : head_ + buf_.size() - k];
  }

  /// The slot the next push() overwrites: the oldest element once full.
  /// For prefetching; read through back() instead.
  const T* next_slot() const { return buf_.data() + head_; }

  /// Copy the most recent `n` elements into `out`, oldest first.
  /// Returns the number copied (min(n, size(), out.size())).
  std::size_t last_n(std::size_t n, std::span<T> out) const {
    const std::size_t have = size();
    std::size_t take = n < have ? n : have;
    if (take > out.size()) take = out.size();
    for (std::size_t i = 0; i < take; ++i) {
      out[i] = back(take - 1 - i);
    }
    return take;
  }

  /// Convenience: copy out the most recent `n` elements, oldest first.
  std::vector<T> last_n(std::size_t n) const {
    const std::size_t have = size();
    const std::size_t take = n < have ? n : have;
    std::vector<T> out(take);
    last_n(take, std::span<T>(out));
    return out;
  }

  void clear() {
    total_ = 0;
    head_ = 0;
  }

 private:
  std::vector<T> buf_;
  std::size_t head_ = 0;  ///< slot the next push writes (== total_ % capacity)
  std::uint64_t total_ = 0;
};

}  // namespace hb::util
