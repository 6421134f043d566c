#include "hub/shm_pump.hpp"

#include <algorithm>
#include <bit>
#include <chrono>
#include <functional>
#include <string>
#include <string_view>
#include <thread>

#include <sys/prctl.h>

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
      shard_runs_(hub_->shard_count()) {}

ShmIngestPump::ShmIngestPump(std::shared_ptr<transport::ShmIngestQueue> queue,
                             std::shared_ptr<HeartbeatHub> hub,
                             ShmIngestPumpOptions opts)
    : queue_(std::move(queue)),
      hub_(hub.get()),
      owner_(std::move(hub)),
      opts_(opts),
      cursor_(queue_->tail_cursor()),
      shard_runs_(hub_->shard_count()) {}

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

std::size_t ShmIngestPump::poll() {
  const PumpMetrics& metrics = PumpMetrics::get();
  obs::ObsSpan span("pump.poll");
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
  // Only a genuinely idle poll (cursor caught up to the ring head) lets
  // the next wait() park. A drain that returned nothing while frames are
  // pending is BLOCKED — head-of-line slot claimed but unpublished (a
  // producer preempted, or crashed mid-batch) — and counts as busy: wait()
  // naps at the floor, so the stall budget is spent at floor pace and the
  // committed frames queued behind a dead producer's unpublished run reach
  // the hub within max_stall_polls naps.
  idle_ = drained == 0 && !queue_->has_frames(cursor_);
  if (idle_) metrics.empty_polls->add(1);
  if (drained > 0) metrics.records->add(drained);
  span.set_arg(drained);
  return drained;
}

bool ShmIngestPump::wait(util::TimeNs budget_ns) {
  // A sleep ends up to one timer slack after it was due. Aim the budget
  // that much early, so a sleep the budget cuts short ends by the caller's
  // deadline instead of after it; within one slack of the deadline there
  // is nothing left to sleep.
  const util::TimeNs slack = timer_slack_ns();
  if (budget_ns <= slack) return false;
  budget_ns -= slack;
  if (!idle_) {
    // The last poll left the ring busy (it drained records, or it is
    // blocked on a claimed slot), or a doorbell woke the pump since: nap
    // at the floor without advertising `parked`, so producers publishing
    // meanwhile skip the futex wake and the next poll drains what they
    // coalesced — and a stalled slot's budget is spent at floor pace, not
    // in microseconds.
    std::this_thread::sleep_for(std::chrono::nanoseconds(std::min(
        budget_ns, std::max<util::TimeNs>(opts_.idle_sleep_min_ns, 1))));
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
      // The wake says producers just published: a wait() before the next
      // poll naps instead of parking again.
      idle_ = false;
      if (!queue_->has_frames(cursor_)) {
        // Signal/EINTR or a ring for frames another consumer's cursor
        // covers — rare; count it so an unhealthy rate is visible.
        ++spurious_wakes_;
        metrics.spurious_wakes->add(1);
      }
      return true;
    case ShmIngestQueue::WaitResult::kTimeout:
      break;
  }
  ++parks_;
  ++wait_timeouts_;
  metrics.parks->add(1);
  metrics.wait_timeouts->add(1);
  return false;
}

ShmIngestPumpStats ShmIngestPump::stats() const {
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
