#include "hub/shm_pump.hpp"

#include <algorithm>
#include <bit>
#include <chrono>
#include <cmath>
#include <functional>
#include <string>
#include <string_view>
#include <thread>

#include <sys/prctl.h>

#include "hub/hub.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "util/clock.hpp"

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
  obs::Counter* rejected;
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
                         &r.counter("hb.pump.rejected"),
                         &r.gauge("hb.pump.apps")};
    }();
    return m;
  }
};

/// How late the kernel may end this thread's timed sleeps: its timer
/// slack (50 us by default), read once per thread; 0 where it cannot be
/// read.
util::TimeNs timer_slack_ns() {
  thread_local const util::TimeNs slack =
      std::max(0, prctl(PR_GET_TIMERSLACK, 0, 0, 0, 0));
  return slack;
}

}  // namespace

ShmIngestPump::ShmIngestPump(std::shared_ptr<transport::ShmIngestQueue> queue,
                             HeartbeatHub& hub, ShmIngestPumpOptions opts)
    : queue_(std::move(queue)),
      hub_(&hub),
      opts_(opts),
      cursor_(queue_->tail_cursor()),
      rate_since_ns_(util::MonotonicClock::instance()->now()),
      shard_runs_(hub_->shard_count()) {
  hub_->set_feed([this] { drain(/*reader=*/true); });
}

ShmIngestPump::ShmIngestPump(std::shared_ptr<transport::ShmIngestQueue> queue,
                             std::shared_ptr<HeartbeatHub> hub,
                             ShmIngestPumpOptions opts)
    : ShmIngestPump(std::move(queue), *hub, opts) {
  owner_ = std::move(hub);
}

ShmIngestPump::~ShmIngestPump() { hub_->set_feed({}); }

void ShmIngestPump::stage(std::uint32_t entry, std::uint32_t gen,
                          std::span<const util::TimeNs> timestamps) {
  staged_.insert(staged_.end(), timestamps.begin(), timestamps.end());
  const auto records = static_cast<std::uint32_t>(timestamps.size());
  if (!runs_.empty() && runs_.back().entry == entry &&
      runs_.back().gen == gen) {
    runs_.back().records += records;
    return;
  }
  runs_.push_back({entry, gen, records});
  // Pass 2 reads this route: start fetching it while the drain goes on.
  if (entry < routes_.size()) __builtin_prefetch(&routes_[entry]);
}

AppId ShmIngestPump::route(const StagedRun& run) {
  if (run.entry < routes_.size()) {
    const EntryRoute& r = routes_[run.entry];
    if (r.claimed_gen <= run.gen && run.gen <= r.gen) return r.id;
  }
  return resolve(run);
}

AppId ShmIngestPump::resolve(const StagedRun& run) {
  transport::ShmIngestQueue::AppEntry entry;
  if (!queue_->read_entry(run.entry, entry) ||
      run.gen < entry.claimed_gen || run.gen > entry.gen) {
    return kRejected;  // not cached: the next such frame reads again
  }
  AppId id = kRejected;
  const std::string_view name = entry.tenure.name;
  if (name != kSelfAppName) {
    // With no current target read, a new app starts at its join's target
    // and a known one keeps the target it has (register_app leaves it).
    const transport::ShmIngestDirEntry::Target& bits =
        entry.target_read ? entry.target : entry.tenure.join_target;
    const core::TargetRate target{std::bit_cast<double>(bits.min_bits),
                                  std::bit_cast<double>(bits.max_bits)};
    id = hub_->register_app(std::string(name), target);
    // The name may be known already (another entry, a registry replay),
    // and the entry carries the producer's CURRENT target: apply it.
    if (entry.target_read) hub_->set_target(id, target);
  }
  apps_.insert(id);
  PumpMetrics::get().apps->set(static_cast<std::int64_t>(apps_.size()));
  // Cache only a route whose target the hub has: after a re-target caught
  // mid-write, the next such frame reads the entry again.
  if (!entry.target_read) return id;
  // read_entry bounds run.entry by the ring's capacity.
  if (run.entry >= routes_.size()) routes_.resize(run.entry + 1);
  routes_[run.entry] = {entry.claimed_gen, entry.gen, id};
  return id;
}

std::size_t ShmIngestPump::poll() { return drain(/*reader=*/false); }

std::size_t ShmIngestPump::drain(bool reader) {
  const PumpMetrics& metrics = PumpMetrics::get();
  obs::ObsSpan span("pump.poll");
  util::MutexLock lock(mu_);
  ++polls_;
  metrics.polls->add(1);
  // Pass 1: drain and stage.
  const std::size_t drained =
      queue_->drain(cursor_, std::bind_front(&ShmIngestPump::stage, this),
                    opts_.max_stall_polls);
  // Pass 2: route each run to its shard's list, pointing into staged_,
  // then one apply per shard.
  const util::TimeNs* next = staged_.data();
  for (const StagedRun& run : runs_) {
    const AppId id = route(run);
    if (id == kRejected) {
      rejected_ += run.records;
      metrics.rejected->add(run.records);
    } else {
      shard_runs_[app_id_shard(id)].push_back(AppRun{id, {next, run.records}});
    }
    next += run.records;
  }
  for (std::vector<AppRun>& out : shard_runs_) {
    if (out.empty()) continue;
    hub_->ingest_batch(out);
    out.clear();
  }
  // The applies read staged_ through the runs: clear it only now.
  staged_.clear();
  runs_.clear();
  // Only a genuinely empty poll (cursor caught up to the ring head) lets
  // the next wait() park. A drain that returned nothing while frames are
  // pending is BLOCKED — head-of-line slot claimed but unpublished (a
  // producer preempted, or crashed mid-batch): wait() naps the floor, so
  // the stall budget is spent at floor pace and the committed frames
  // queued behind a dead producer's unpublished run reach the hub within
  // max_stall_polls naps. A reader's poll that drains nothing leaves the
  // loop's choice alone: the loop's own polls say whether to park.
  if (drained > 0) {
    ring_ = Ring::kBusy;
    reader_drained_ = reader_drained_ || reader;
    metrics.records->add(drained);
  } else if (queue_->has_frames(cursor_)) {
    if (!reader) ring_ = Ring::kBlocked;
  } else {
    if (!reader) ring_ = Ring::kEmpty;
    metrics.empty_polls->add(1);
  }
  span.set_arg(drained);
  return drained;
}

util::TimeNs ShmIngestPump::next_nap() {
  const util::TimeNs now = util::MonotonicClock::instance()->now();
  const std::uint64_t arrived = cursor_.consumed - rate_consumed_;
  const util::TimeNs span = now - rate_since_ns_;
  rate_since_ns_ = now;
  rate_consumed_ = cursor_.consumed;
  const util::TimeNs floor = std::max<util::TimeNs>(opts_.idle_sleep_min_ns, 1);
  const bool reader_drained = reader_drained_;
  reader_drained_ = false;
  if (ring_ == Ring::kBlocked) return floor;
  if (ring_ == Ring::kEmpty && !reader_drained) {
    // Park. The rate across a quiet spell says nothing of the traffic
    // that ends it, and a nap does not hear the doorbell: the first nap
    // after the park is the floor, and each after it at most twice the
    // last.
    nap_ns_ = 0;
    return 0;
  }
  // The time capacity / 16 records take at the rate since the previous
  // wait(); with nothing arrived, only the cap below bounds it. Capacity
  // counts frames and a frame holds one record or more, so the ring
  // stays under 1/16 full in frames too.
  const double target = std::max(queue_->capacity() / 16, 1u);
  const double fill_ns = arrived > 0 ? target * static_cast<double>(span) /
                                           static_cast<double>(arrived)
                                     : HUGE_VAL;
  // At most twice the last nap, so one quiet interval cannot stretch the
  // nap past what the ring holds at the previous rate; and no longer than
  // the longest park.
  const double cap =
      std::min(2.0 * static_cast<double>(nap_ns_),
               static_cast<double>(opts_.doorbell_timeout_ns));
  nap_ns_ = std::max(floor, static_cast<util::TimeNs>(std::min(fill_ns, cap)));
  return nap_ns_;
}

bool ShmIngestPump::wait(util::TimeNs budget_ns) {
  // A sleep ends up to one timer slack after it was due. Aim the budget
  // that much early, so a sleep the budget cuts short ends by the caller's
  // deadline instead of after it; within one slack of the deadline there
  // is nothing left to sleep.
  const util::TimeNs slack = timer_slack_ns();
  if (budget_ns <= slack) return false;
  budget_ns -= slack;
  util::TimeNs nap = 0;
  transport::ShmIngestQueue::Cursor at;
  {
    util::MutexLock lock(mu_);
    nap = next_nap();
    at = cursor_;
  }
  if (nap > 0) {
    // Nap without advertising `parked`, so producers publishing meanwhile
    // skip the futex wake and the next poll drains what they coalesced —
    // and a stalled slot's budget is spent at floor pace, not in
    // microseconds.
    std::this_thread::sleep_for(
        std::chrono::nanoseconds(std::min(budget_ns, nap)));
    return true;
  }
  using transport::ShmIngestQueue;
  const PumpMetrics& metrics = PumpMetrics::get();
  const util::TimeNs timeout =
      std::min(budget_ns, std::max<util::TimeNs>(opts_.doorbell_timeout_ns, 1));
  // Parked without the consumer mutex: readers drain meanwhile, and the
  // doorbell rings for frames past `at` whoever drains them.
  const ShmIngestQueue::WaitResult result = queue_->wait_for_frames(at, timeout);
  if (result == ShmIngestQueue::WaitResult::kReady) {
    // Frames were already pending — no park happened; poll now.
    return true;
  }
  util::MutexLock lock(mu_);
  ++parks_;
  metrics.parks->add(1);
  if (result == ShmIngestQueue::WaitResult::kTimeout) {
    ++wait_timeouts_;
    metrics.wait_timeouts->add(1);
    return false;
  }
  ++doorbell_wakes_;
  metrics.wakes->add(1);
  // The wake says producers just published: a wait() before the next
  // poll naps instead of parking again.
  ring_ = Ring::kBusy;
  if (!queue_->has_frames(at)) {
    // Signal/EINTR, or a ring for frames another consumer's cursor
    // covers — rare; count it so an unhealthy rate is visible.
    ++spurious_wakes_;
    metrics.spurious_wakes->add(1);
  }
  return true;
}

ShmIngestPumpStats ShmIngestPump::stats() const {
  util::MutexLock lock(mu_);
  ShmIngestPumpStats s;
  s.polls = polls_;
  s.consumed = cursor_.consumed;
  s.dropped = cursor_.dropped;
  s.torn = cursor_.torn;
  s.timed_out = cursor_.timed_out;
  s.rejected = rejected_;
  s.apps = apps_.size();
  s.parks = parks_;
  s.doorbell_wakes = doorbell_wakes_;
  s.spurious_wakes = spurious_wakes_;
  s.wait_timeouts = wait_timeouts_;
  return s;
}

}  // namespace hb::hub
