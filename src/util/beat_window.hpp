// BeatWindow: an app's last beats and their summary (beats, rate, interval
// mean and population stddev; paper, Section 2.6). The hub keeps one per
// app and fault::summarize folds a reader's history through one, so both
// read the same beats the same way.
//
// One timestamp rule, in push(): a beat stamped before the window's newest
// is raised to it. Its interval reads 0, and the next interval is measured
// from the newest beat. Producer stamps are untrusted, and this keeps the
// window monotone, as core::MemoryStore keeps its history; the hub lowers
// a stamp past its clock first, or one far-future stamp would hold every
// later beat at its value. A monotone window's intervals telescope: their
// exact sum is its span, at most 2^64 - 1 (differences are taken
// unsigned), and the rate (n - 1) / span is read off the moments without
// touching a window slot.
//
// Storage. A window of `capacity` beats keeps its capacity - 1 intervals,
// not its stamps: only the newest stamp is ever read, and a push needs
// only the interval it retires, one slot, the one it then overwrites.
// Slots are 32 bits, 4 bytes per windowed beat, while every interval
// fits: under 2^32 ns, about 4.29 s. The first interval that does not
// widens the window to 64-bit slots, 8 bytes per windowed beat, until
// the next clear() narrows it again.
#pragma once

#include <cassert>
#include <cstddef>
#include <cstdint>
#include <cstring>
#include <limits>
#include <utility>
#include <vector>

#include "util/exact_moments.hpp"
#include "util/time.hpp"

namespace hb::util {

struct WindowSummary {
  std::uint64_t beats = 0;
  /// (beats - 1) / span in beats/s; 0 below two beats, +infinity for a
  /// zero span.
  double rate_bps = 0.0;
  double interval_mean_ns = 0.0;
  double interval_stddev_ns = 0.0;  ///< population
};

class BeatWindow {
 public:
  /// Precondition: capacity >= 2 (a window of one beat spans no interval).
  explicit BeatWindow(std::size_t capacity) : words_(capacity - 1) {
    assert(capacity >= 2 && "a BeatWindow holds at least two beats");
  }

  /// Add a beat, retiring the oldest once the window is full.
  void push(TimeNs timestamp_ns) {
    if (beats_ == 0) {
      // The first beat since clear() starts the window at its own stamp.
      beats_ = 1;
      newest_ns_ = timestamp_ns;
      return;
    }
    if (timestamp_ns < newest_ns_) timestamp_ns = newest_ns_;
    const std::uint64_t interval = gap(newest_ns_, timestamp_ns);
    newest_ns_ = timestamp_ns;
    if (shift_ == 0 && interval > std::numeric_limits<std::uint32_t>::max()) {
      widen();
    }
    const std::size_t slots = words_.size() >> shift_;
    if (beats_ > slots) {
      // Full: slot head_ holds the interval that joined the oldest beat
      // to the next-oldest. Retire it before overwriting it.
      moments_.remove(load(head_));
    } else {
      ++beats_;
    }
    store(head_, interval);
    moments_.add(interval);
    if (++head_ == slots) head_ = 0;
  }

  /// Empty the window, and narrow it if it was widened. newest_ns()
  /// stays; the next beat starts a fresh window at its own stamp, and the
  /// gap before it is no interval.
  void clear() {
    if (shift_ != 0) {
      words_ = std::vector<std::uint32_t>(words_.size() >> shift_);
      shift_ = 0;
    }
    head_ = 0;
    beats_ = 0;
    moments_.clear();
  }

  WindowSummary summary() const {
    WindowSummary s;
    s.beats = beats_;
    if (const std::uint64_t intervals = moments_.count(); intervals > 0) {
      const double span = moments_.sum();
      s.rate_bps = span > 0.0
                       ? static_cast<double>(intervals) /
                             (span / static_cast<double>(kNsPerSec))
                       : std::numeric_limits<double>::infinity();
    }
    s.interval_mean_ns = moments_.mean();
    s.interval_stddev_ns = moments_.stddev();
    return s;
  }

  /// The newest beat pushed, kept across clear(); 0 before the first.
  TimeNs newest_ns() const { return newest_ns_; }
  /// The slot the next interval writes: the oldest interval once full,
  /// which that push also reads. For prefetching.
  const void* next_slot() const { return words_.data() + (head_ << shift_); }

 private:
  /// `to - from` for from <= to, exact over the whole int64 range.
  static std::uint64_t gap(TimeNs from, TimeNs to) {
    return static_cast<std::uint64_t>(to) - static_cast<std::uint64_t>(from);
  }

  std::uint64_t load(std::size_t slot) const {
    if (shift_ == 0) return words_[slot];
    std::uint64_t v;
    std::memcpy(&v, &words_[slot << 1], sizeof v);
    return v;
  }

  void store(std::size_t slot, std::uint64_t v) {
    if (shift_ == 0) {
      words_[slot] = static_cast<std::uint32_t>(v);
    } else {
      std::memcpy(&words_[slot << 1], &v, sizeof v);
    }
  }

  /// Switch to 64-bit slots, each interval held in the same slot.
  void widen() {
    const std::vector<std::uint32_t> narrow = std::exchange(
        words_, std::vector<std::uint32_t>(words_.size() << 1));
    shift_ = 1;
    for (std::size_t i = 0; i < narrow.size(); ++i) store(i, narrow[i]);
  }

  /// The intervals, oldest at head_ once full: capacity - 1 slots of
  /// 1 << shift_ words each.
  std::vector<std::uint32_t> words_;
  std::size_t head_ = 0;   ///< the slot the next interval writes
  std::size_t beats_ = 0;  ///< beats held: intervals + 1, or 0 when empty
  TimeNs newest_ns_ = 0;
  unsigned shift_ = 0;    ///< 0: 32-bit slots; 1: 64-bit slots
  ExactMoments moments_;  ///< exactly the window's intervals
};

}  // namespace hb::util
