// SeqlockRing: the one record protocol of the fixed-size record rings
// (transport::ShmStore's `.hb` segment, obs::TraceRing). Writers and
// lock-free readers share a head counter and `capacity` slots, each a
// seqlock word `std::atomic<std::uint64_t> commit` (0 = empty or being
// written, s + 1 = record s committed) and a trivially copyable `rec`.
//   * push claims seq s with fetch_add on the head and writes slot
//     s % capacity: commit <- 0, a release fence (a release store orders
//     only what precedes it), the payload, commit <- s + 1 (release).
//   * last loads commit (acquire), copies the payload, fences (acquire)
//     and re-checks commit. A slot not at s + 1 both times is in flight or
//     lapped, and is skipped and counted, never returned torn. A failed
//     re-check never recovers (the word then reads 0 or a later seq + 1),
//     so there is no retry.
// The ring owns no memory and never re-reads its capacity, so over shared
// memory it stays inside the geometry its owner checked. ShmIngestQueue's
// claim marks are a different rule and do not use it.
#pragma once

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <vector>

#include "util/tsan.hpp"

namespace hb::util {

template <typename Slot>
class SeqlockRing {
 public:
  using Record = decltype(Slot::rec);

  /// Precondition: `slots` holds `capacity` > 0 slots.
  SeqlockRing(std::atomic<std::uint64_t>* head, Slot* slots,
              std::uint64_t capacity)
      : head_(head), slots_(slots), capacity_(capacity) {}

  /// Claim the next sequence number `seq` and publish `make(seq)` under
  /// it. Wait-free; overwrites the oldest record once the ring laps.
  template <typename Make>
  std::uint64_t push(const Make& make) {
    const std::uint64_t seq = head_->fetch_add(1, std::memory_order_acq_rel);
    Slot& slot = slots_[seq % capacity_];
    const Record rec = make(seq);
    slot.commit.store(0, std::memory_order_release);
    std::atomic_thread_fence(std::memory_order_release);
    util::tsan_relaxed_copy(slot.rec, rec);
    slot.commit.store(seq + 1, std::memory_order_release);
    return seq;
  }

  /// The committed records among the last min(n, count(), capacity())
  /// sequence numbers, oldest first. When `skipped` is non-null it
  /// receives the number of those it had to skip (in flight or lapped).
  std::vector<Record> last(std::uint64_t n,
                           std::uint64_t* skipped = nullptr) const {
    const std::uint64_t total = count();
    const std::uint64_t want = std::min({n, capacity_, total});
    std::uint64_t skips = 0;
    std::vector<Record> out;
    out.reserve(static_cast<std::size_t>(want));
    for (std::uint64_t seq = total - want; seq < total; ++seq) {
      const Slot& slot = slots_[seq % capacity_];
      const std::uint64_t c1 = slot.commit.load(std::memory_order_acquire);
      Record copy;
      util::tsan_relaxed_copy(copy, slot.rec);
      std::atomic_thread_fence(std::memory_order_acquire);
      // relaxed: the fence above orders the copy before this re-check.
      if (c1 == seq + 1 && slot.commit.load(std::memory_order_relaxed) == c1) {
        out.push_back(copy);
      } else {
        ++skips;
      }
    }
    if (skipped) *skipped = skips;
    return out;
  }

  /// Records ever pushed (monotone; may exceed capacity()).
  std::uint64_t count() const {
    return head_->load(std::memory_order_acquire);
  }

  std::uint64_t capacity() const { return capacity_; }

 private:
  std::atomic<std::uint64_t>* head_;
  Slot* slots_;
  std::uint64_t capacity_;
};

}  // namespace hb::util
