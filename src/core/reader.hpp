// HeartbeatReader: the observer-facing side of the framework.
//
// Paper, Figure 1(b): an external observer (OS, scheduler, cloud manager,
// hardware) queries an application's performance through the same windowed
// heart-rate semantics the application itself uses. A reader never mutates
// the beat history; it may be attached to an in-process store, a shared-
// memory segment of another process, or a file log.
#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "core/rate.hpp"
#include "core/record.hpp"
#include "core/store.hpp"
#include "util/clock.hpp"

namespace hb::core {

class HeartbeatReader {
 public:
  /// `store` must be non-null. `clock` defaults to the monotonic clock and is
  /// only used for staleness computations; it must share an epoch with the
  /// producer's clock for staleness_ns() to be meaningful.
  explicit HeartbeatReader(std::shared_ptr<const BeatStore> store,
                           std::shared_ptr<const util::Clock> clock = nullptr);

  /// Average heart rate over the last `window` beats; 0 selects the
  /// producer's default window (paper: HB_current_rate). The same window
  /// rule as Channel::rate (core::store_rate).
  double current_rate(std::uint32_t window = 0) const {
    return store_rate(*store_, window);
  }

  /// Total beats registered so far.
  std::uint64_t count() const { return store_->count(); }

  /// Last n beats, oldest first (paper: HB_get_history).
  std::vector<HeartbeatRecord> history(std::size_t n) const {
    return store_->history(n);
  }

  /// The producer's registered target range (paper: HB_get_target_min/max).
  TargetRate target() const { return store_->target(); }
  double target_min() const { return store_->target().min_bps; }
  double target_max() const { return store_->target().max_bps; }

  std::uint32_t default_window() const { return store_->default_window(); }

  /// Nanoseconds since the last beat (monotone increasing between beats).
  /// The liveness signal: a hung or dead application stops beating
  /// (paper, Sections 2.3, 2.4, 2.6).
  util::TimeNs staleness_ns() const;

  /// True if the current rate is within the producer's target range.
  bool meeting_target(std::uint32_t window = 0) const {
    return store_->target().contains(current_rate(window));
  }

  const BeatStore& store() const { return *store_; }

 private:
  std::shared_ptr<const BeatStore> store_;
  std::shared_ptr<const util::Clock> clock_;
};

}  // namespace hb::core
