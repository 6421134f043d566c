// Channel: one stream of heartbeats (global, or one thread's local stream).
//
// Paper, Section 3: "each thread should have its own private heartbeat
// history buffer and each application should have a single shared history
// buffer." A Channel binds a BeatStore to a Clock and implements the
// windowed-rate semantics of Table 1 on top of it.
#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "core/record.hpp"
#include "core/store.hpp"
#include "util/clock.hpp"

namespace hb::core {

class Channel {
 public:
  /// Both pointers must be non-null; the channel shares ownership.
  Channel(std::shared_ptr<BeatStore> store, std::shared_ptr<util::Clock> clock);

  /// Register a heartbeat (paper: HB_heartbeat). Stamps the current time and
  /// calling thread id. Returns the beat's sequence number.
  std::uint64_t beat(std::uint64_t tag = 0);

  /// Average heart rate over the last `window` beats (paper:
  /// HB_current_rate). window == 0 selects the default window from
  /// initialization; windows larger than the store capacity are silently
  /// clipped (paper, Section 3); rate(1) is the instantaneous rate. Returns
  /// 0 until two beats exist.
  double rate(std::uint32_t window = 0) const;

  /// Total beats registered on this channel.
  std::uint64_t count() const { return store_->count(); }

  /// Last `n` beats, oldest first (paper: HB_get_history).
  std::vector<HeartbeatRecord> history(std::size_t n) const;

  /// Target heart-rate range (paper: HB_set_target_rate / HB_get_target_*).
  void set_target(double min_bps, double max_bps);
  TargetRate target() const { return store_->target(); }

  std::uint32_t default_window() const { return store_->default_window(); }
  void set_default_window(std::uint32_t w) { store_->set_default_window(w); }

  /// True if rate(window) lies inside the registered target range.
  bool meeting_target(std::uint32_t window = 0) const;

  BeatStore& store() { return *store_; }
  const BeatStore& store() const { return *store_; }
  const std::shared_ptr<util::Clock>& clock() const { return clock_; }

 private:
  std::shared_ptr<BeatStore> store_;
  std::shared_ptr<util::Clock> clock_;
};

}  // namespace hb::core
