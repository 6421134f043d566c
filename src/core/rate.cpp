#include "core/rate.hpp"

#include <algorithm>
#include <cstdint>
#include <limits>

namespace hb::core {

double window_rate(std::span<const HeartbeatRecord> records) {
  if (records.size() < 2) return 0.0;
  const util::TimeNs first = records.front().timestamp_ns;
  const util::TimeNs last = records.back().timestamp_ns;
  if (last <= first) return std::numeric_limits<double>::infinity();
  // Unsigned: untrusted timestamps may span more than INT64_MAX.
  const auto span = static_cast<double>(static_cast<std::uint64_t>(last) -
                                        static_cast<std::uint64_t>(first));
  return static_cast<double>(records.size() - 1) /
         (span / static_cast<double>(util::kNsPerSec));
}

double store_rate(const BeatStore& store, std::uint32_t window) {
  const std::uint32_t w = window == 0 ? store.default_window() : window;
  return window_rate(store.history(std::max<std::uint32_t>(w, 2)));
}

}  // namespace hb::core
