#include "core/reader.hpp"

#include <cassert>

namespace hb::core {

HeartbeatReader::HeartbeatReader(std::shared_ptr<const BeatStore> store,
                                 std::shared_ptr<const util::Clock> clock)
    : store_(std::move(store)), clock_(std::move(clock)) {
  assert(store_);
  if (!clock_) clock_ = util::MonotonicClock::instance();
}

util::TimeNs HeartbeatReader::staleness_ns() const {
  const auto last = store_->history(1);
  if (last.empty()) return clock_->now();
  return clock_->now() - last.back().timestamp_ns;
}

}  // namespace hb::core
