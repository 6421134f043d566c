#include "core/rate.hpp"

#include <algorithm>
#include <limits>

namespace hb::core {

double window_rate(std::span<const HeartbeatRecord> records) {
  if (records.size() < 2) return 0.0;
  const util::TimeNs span =
      records.back().timestamp_ns - records.front().timestamp_ns;
  if (span <= 0) return std::numeric_limits<double>::infinity();
  return static_cast<double>(records.size() - 1) / util::to_seconds(span);
}

double store_rate(const BeatStore& store, std::uint32_t window) {
  const std::uint32_t w = window == 0 ? store.default_window() : window;
  return window_rate(store.history(std::max<std::uint32_t>(w, 2)));
}

}  // namespace hb::core
