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
#pragma once

#include <cassert>
#include <cstddef>
#include <cstdint>
#include <limits>

#include "util/exact_moments.hpp"
#include "util/ring_buffer.hpp"
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
  explicit BeatWindow(std::size_t capacity) : ring_(capacity) {
    assert(capacity >= 2 && "a BeatWindow holds at least two beats");
  }

  /// Add a beat, retiring the oldest once the window is full.
  void push(TimeNs timestamp_ns) {
    const std::size_t n = ring_.size();
    if (n > 0) {
      if (timestamp_ns < newest_ns_) timestamp_ns = newest_ns_;
      if (n == ring_.capacity()) {
        // The push below overwrites the oldest beat: retire the interval
        // that joined it to the next-oldest.
        moments_.remove(gap(ring_.back(n - 1), ring_.back(n - 2)));
      }
      moments_.add(gap(newest_ns_, timestamp_ns));
    }
    ring_.push(timestamp_ns);
    newest_ns_ = timestamp_ns;
  }

  /// Empty the window. newest_ns() stays; the next beat starts a fresh
  /// window at its own stamp, and the gap before it is no interval.
  void clear() {
    ring_.clear();
    moments_.clear();
  }

  WindowSummary summary() const {
    WindowSummary s;
    s.beats = ring_.size();
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
  /// The slot the next push writes: the oldest beat once full. For
  /// prefetching.
  const TimeNs* next_slot() const { return ring_.next_slot(); }

 private:
  /// `to - from` for from <= to, exact over the whole int64 range.
  static std::uint64_t gap(TimeNs from, TimeNs to) {
    return static_cast<std::uint64_t>(to) - static_cast<std::uint64_t>(from);
  }

  RingBuffer<TimeNs> ring_;  ///< beat timestamps, non-decreasing
  TimeNs newest_ns_ = 0;
  ExactMoments moments_;  ///< exactly the window's intervals
};

}  // namespace hb::util
