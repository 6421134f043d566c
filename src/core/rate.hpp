// Heart-rate computations over heartbeat histories.
//
// Centralizing the math keeps Channel, HeartbeatReader, and all transports
// agreeing on what "the average heart rate calculated from the last window
// heartbeats" (paper, Table 1) means:
//
//   rate over records r_0..r_{n-1}  =  (n - 1) / (t_{n-1} - t_0)   [beats/s]
//
// i.e. the number of completed beat *intervals* divided by the time they
// span. A window of w beats therefore needs w records and yields w-1
// intervals; the instantaneous rate is the window-2 case.
#pragma once

#include <cstdint>
#include <span>

#include "core/record.hpp"
#include "core/store.hpp"

namespace hb::core {

/// Average rate in beats/second across the given records (oldest first).
/// Returns 0 for fewer than 2 records, +infinity for a zero/negative span
/// (beats closer together than the clock can resolve).
double window_rate(std::span<const HeartbeatRecord> records);

/// Rate over the store's last `window` beats (paper: HB_current_rate):
/// the one window rule Channel::rate and HeartbeatReader::current_rate
/// share. window == 0 selects the store's default window; windows below 2
/// read 2 records, so rate(1) is the instantaneous rate; windows larger
/// than the store's capacity are silently clipped (paper, Section 3).
double store_rate(const BeatStore& store, std::uint32_t window);

}  // namespace hb::core
