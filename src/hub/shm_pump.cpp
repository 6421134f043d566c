#include "hub/shm_pump.hpp"

#include <algorithm>
#include <bit>
#include <chrono>
#include <thread>

#include "hub/hub.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"

namespace hb::hub {

namespace {

/// Registry cells for the pump, resolved once. Dual-written with the
/// per-instance ShmIngestPumpStats (tests and embedders keep that view;
/// the registry is the fleet-wide one hbmon reads).
struct PumpMetrics {
  obs::Counter* polls;
  obs::Counter* empty_polls;
  obs::Counter* records;
  obs::Counter* parks;
  obs::Counter* wakes;
  obs::Counter* spurious_wakes;
  obs::Counter* wait_timeouts;
  obs::Gauge* apps;

  static const PumpMetrics& get() {
    static const PumpMetrics m = [] {
      auto& r = obs::MetricsRegistry::global();
      return PumpMetrics{&r.counter("hb.pump.polls"),
                         &r.counter("hb.pump.empty_polls"),
                         &r.counter("hb.pump.records"),
                         &r.counter("hb.pump.parks"),
                         &r.counter("hb.pump.wakes"),
                         &r.counter("hb.pump.spurious_wakes"),
                         &r.counter("hb.pump.wait_timeouts"),
                         &r.gauge("hb.pump.apps")};
    }();
    return m;
  }
};

}  // namespace

ShmIngestPump::ShmIngestPump(std::shared_ptr<transport::ShmIngestQueue> queue,
                             HeartbeatHub& hub, ShmIngestPumpOptions opts)
    : queue_(std::move(queue)),
      hub_(&hub),
      opts_(opts),
      cursor_(queue_->tail_cursor()) {}

ShmIngestPump::ShmIngestPump(std::shared_ptr<transport::ShmIngestQueue> queue,
                             std::shared_ptr<HeartbeatHub> hub,
                             ShmIngestPumpOptions opts)
    : queue_(std::move(queue)),
      hub_(hub.get()),
      owner_(std::move(hub)),
      opts_(opts),
      cursor_(queue_->tail_cursor()) {}

void ShmIngestPump::route(std::string_view app,
                          const core::HeartbeatRecord& rec,
                          core::TargetRate target) {
  auto it = apps_.find(app);
  if (it == apps_.end()) {
    AppEntry entry;
    entry.id = hub_->register_app(std::string(app), target);
    // register_app keeps the existing target when the name was already
    // registered (registry replay, an earlier pump); the ring frame
    // carries the producer's CURRENT target, so apply it regardless.
    hub_->set_target(entry.id, target);
    entry.target_min_bits = std::bit_cast<std::uint64_t>(target.min_bps);
    entry.target_max_bits = std::bit_cast<std::uint64_t>(target.max_bps);
    it = apps_.emplace(std::string(app), std::move(entry)).first;
  } else {
    // Compare as bit patterns: NaN/infinity-safe and cheaper than FP ==.
    AppEntry& entry = it->second;
    const auto min_bits = std::bit_cast<std::uint64_t>(target.min_bps);
    const auto max_bits = std::bit_cast<std::uint64_t>(target.max_bps);
    if (min_bits != entry.target_min_bits || max_bits != entry.target_max_bits) {
      hub_->set_target(entry.id, target);
      entry.target_min_bits = min_bits;
      entry.target_max_bits = max_bits;
    }
  }
  AppEntry& entry = it->second;
  if (entry.pending.empty()) touched_.push_back(&entry);
  entry.pending.push_back(rec);
}

std::size_t ShmIngestPump::poll() {
  const PumpMetrics& metrics = PumpMetrics::get();
  obs::ObsSpan span("pump.poll");
  ++polls_;
  metrics.polls->add(1);
  touched_.clear();
  const std::size_t drained = queue_->drain(
      cursor_,
      [this](std::string_view app, const core::HeartbeatRecord& rec,
             core::TargetRate target) { route(app, rec, target); },
      opts_.max_stall_polls);
  for (AppEntry* entry : touched_) {
    hub_->ingest_batch(entry->id, entry->pending);
    entry->pending.clear();
  }
  touched_.clear();
  // Only a genuinely idle poll (cursor caught up to every stream head)
  // feeds the backoff and lets the next wait() park. A drain that returned
  // nothing while frames are pending is BLOCKED — head-of-line slot
  // claimed but unpublished (a producer preempted, or crashed mid-batch)
  // — and counts as busy: wait() naps at the floor, so the stall budget is
  // spent at floor pace and the committed frames queued behind a torn run
  // reach the hub within max_stall_polls naps.
  if (drained == 0 && !queue_->has_frames(cursor_)) {
    if (empty_polls_ < 31) ++empty_polls_;  // cap the shift, not the count
    metrics.empty_polls->add(1);
  } else {
    empty_polls_ = 0;
  }
  if (drained > 0) metrics.records->add(drained);
  metrics.apps->set(static_cast<std::int64_t>(apps_.size()));
  span.set_arg(drained);
  return drained;
}

bool ShmIngestPump::wait(util::TimeNs budget_ns) {
  if (budget_ns <= 0) return false;
  if (empty_polls_ == 0) {
    // The last poll left the ring busy (it drained records, or it is
    // blocked on a claimed slot): nap at the floor without advertising
    // `parked`, so producers publishing meanwhile skip the futex wake and
    // the next poll drains what they coalesced — and a stalled slot's
    // budget is spent at floor pace, not in microseconds.
    std::this_thread::sleep_for(std::chrono::nanoseconds(
        std::min(budget_ns, suggested_sleep_ns())));
    return true;
  }
  using transport::ShmIngestQueue;
  const PumpMetrics& metrics = PumpMetrics::get();
  const util::TimeNs timeout =
      std::min(budget_ns, std::max<util::TimeNs>(opts_.doorbell_timeout_ns, 1));
  switch (queue_->wait_for_frames(cursor_, timeout)) {
    case ShmIngestQueue::WaitResult::kReady:
      // Frames were already pending — no park happened; poll now.
      return true;
    case ShmIngestQueue::WaitResult::kWoken:
      ++parks_;
      ++doorbell_wakes_;
      metrics.parks->add(1);
      metrics.wakes->add(1);
      // The wake says producers just published: back to the floor, so a
      // wait() before the next poll naps instead of parking again.
      empty_polls_ = 0;
      if (!queue_->has_frames(cursor_)) {
        // Signal/EINTR or a ring for frames another consumer's cursor
        // covers — rare; count it so an unhealthy rate is visible.
        ++spurious_wakes_;
        metrics.spurious_wakes->add(1);
      }
      return true;
    case ShmIngestQueue::WaitResult::kTimeout:
      ++parks_;
      ++wait_timeouts_;
      metrics.parks->add(1);
      metrics.wait_timeouts->add(1);
      return false;
    case ShmIngestQueue::WaitResult::kUnsupported:
      break;  // no futex: sleep the backoff schedule instead of parking
  }
  std::this_thread::sleep_for(std::chrono::nanoseconds(
      std::min(budget_ns, suggested_sleep_ns())));
  return false;
}

util::TimeNs ShmIngestPump::suggested_sleep_ns() const {
  const util::TimeNs floor =
      opts_.idle_sleep_min_ns > 0 ? opts_.idle_sleep_min_ns : 1;
  const util::TimeNs cap =
      opts_.idle_sleep_max_ns > floor ? opts_.idle_sleep_max_ns : floor;
  // floor << empty_polls_, saturating at the cap without overflow.
  util::TimeNs sleep = floor;
  for (std::uint32_t i = 0; i < empty_polls_ && sleep < cap; ++i) sleep *= 2;
  return sleep < cap ? sleep : cap;
}

ShmIngestPumpStats ShmIngestPump::stats() const {
  ShmIngestPumpStats s;
  s.polls = polls_;
  s.consumed = cursor_.consumed;
  s.dropped = cursor_.dropped;
  s.torn = cursor_.torn;
  s.apps = apps_.size();
  s.lane_records = cursor_.lane_records;
  s.parks = parks_;
  s.doorbell_wakes = doorbell_wakes_;
  s.spurious_wakes = spurious_wakes_;
  s.wait_timeouts = wait_timeouts_;
  return s;
}

}  // namespace hb::hub
