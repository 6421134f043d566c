#include "core/reader.hpp"

#include <algorithm>
#include <cassert>
#include <cstdint>
#include <limits>

namespace hb::core {

HeartbeatReader::HeartbeatReader(std::shared_ptr<const BeatStore> store,
                                 std::shared_ptr<const util::Clock> clock)
    : store_(std::move(store)), clock_(std::move(clock)) {
  assert(store_);
  if (!clock_) clock_ = util::MonotonicClock::instance();
}

util::TimeNs HeartbeatReader::staleness_ns() const {
  const auto last = store_->history(1);
  const util::TimeNs now = clock_->now();
  if (last.empty()) return now;
  // The stamp is untrusted: a future one reads 0, and the difference is
  // taken unsigned and saturates rather than overflow.
  const util::TimeNs ts = last.back().timestamp_ns;
  if (now <= ts) return 0;
  return static_cast<util::TimeNs>(std::min<std::uint64_t>(
      static_cast<std::uint64_t>(now) - static_cast<std::uint64_t>(ts),
      std::numeric_limits<util::TimeNs>::max()));
}

}  // namespace hb::core
