#include "core/memory_store.hpp"

#include <limits>

namespace hb::core {

MemoryStore::MemoryStore(std::size_t capacity, std::uint32_t default_window)
    : capacity_(capacity == 0 ? 1 : capacity),
      buf_(capacity == 0 ? 1 : capacity),
      default_window_(default_window == 0 ? 1 : default_window) {
  target_.max_bps = std::numeric_limits<double>::infinity();
}

std::uint64_t MemoryStore::append(const HeartbeatRecord& rec) {
  util::MutexLock lock(mu_);
  HeartbeatRecord stamped = rec;
  stamped.seq = buf_.total_pushed();
  // Producers stamp their clock before taking this lock, so two racing
  // beats can arrive with timestamps opposing their sequence order. Clamp
  // to keep history monotone in seq order — observers' windowed-rate math
  // (t_last - t_first over last-n records) assumes it, and the racing
  // beats genuinely happened "at the same time" as far as the channel can
  // tell. Same zero-interval convention as the hub's ingest path.
  if (!buf_.empty() && stamped.timestamp_ns < buf_.back(0).timestamp_ns) {
    stamped.timestamp_ns = buf_.back(0).timestamp_ns;
  }
  buf_.push(stamped);
  return stamped.seq;
}

std::uint64_t MemoryStore::count() const {
  util::MutexLock lock(mu_);
  return buf_.total_pushed();
}

std::vector<HeartbeatRecord> MemoryStore::history(std::size_t n) const {
  util::MutexLock lock(mu_);
  return buf_.last_n(n);
}

void MemoryStore::set_target(TargetRate t) {
  util::MutexLock lock(mu_);
  target_ = t;
}

TargetRate MemoryStore::target() const {
  util::MutexLock lock(mu_);
  return target_;
}

void MemoryStore::set_default_window(std::uint32_t w) {
  util::MutexLock lock(mu_);
  default_window_ = w == 0 ? 1 : w;
}

std::uint32_t MemoryStore::default_window() const {
  util::MutexLock lock(mu_);
  return default_window_;
}

}  // namespace hb::core
