#include "core/channel.hpp"

#include <cassert>

#include "core/rate.hpp"
#include "util/thread_id.hpp"

namespace hb::core {

Channel::Channel(std::shared_ptr<BeatStore> store,
                 std::shared_ptr<util::Clock> clock)
    : store_(std::move(store)), clock_(std::move(clock)) {
  assert(store_ && clock_);
}

std::uint64_t Channel::beat(std::uint64_t tag) {
  HeartbeatRecord rec;
  rec.timestamp_ns = clock_->now();
  rec.tag = tag;
  rec.thread_id = util::current_thread_id();
  return store_->append(rec);
}

double Channel::rate(std::uint32_t window) const {
  return store_rate(*store_, window);
}

std::vector<HeartbeatRecord> Channel::history(std::size_t n) const {
  return store_->history(n);
}

void Channel::set_target(double min_bps, double max_bps) {
  store_->set_target(TargetRate{min_bps, max_bps});
}

bool Channel::meeting_target(std::uint32_t window) const {
  return store_->target().contains(rate(window));
}

}  // namespace hb::core
