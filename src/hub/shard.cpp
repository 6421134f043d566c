#include "hub/shard.hpp"

#include <algorithm>
#include <limits>
#include <stdexcept>
#include <utility>

#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "util/time.hpp"

namespace hb::hub {

namespace {

/// Telemetry cells for every shard in the process (resolved once; the hot
/// paths below only ever touch the cached pointers). Process-wide on
/// purpose: fleet dashboards want "beats ingested by this process", not
/// per-shard shrapnel — per-shard detail stays on ShardStats.
struct ShardMetrics {
  obs::Counter* ingested;       ///< beats applied (hb.hub.ingested)
  obs::Counter* publishes;      ///< shard snapshot rebuilds
  obs::Counter* publish_skips;  ///< publish() calls that reused the snapshot
  obs::Histogram* publish_ns;   ///< rebuild_snapshot_locked duration

  static const ShardMetrics& get() {
    static const ShardMetrics m = [] {
      auto& r = obs::MetricsRegistry::global();
      return ShardMetrics{&r.counter("hb.hub.ingested"),
                          &r.counter("hb.hub.publishes"),
                          &r.counter("hb.hub.publish_skips"),
                          &r.histogram("hb.hub.publish_ns")};
    }();
    return m;
  }
};

/// Runs apply_runs_locked looks ahead: a run's app has its leading fields
/// prefetched kApplyFetchAhead runs before its apply, and the window slot
/// its first beat writes kWindowFetchAhead runs before. By then the
/// app-line prefetch has brought in the ring head that names the slot.
constexpr std::size_t kApplyFetchAhead = 8;
constexpr std::size_t kWindowFetchAhead = kApplyFetchAhead / 2;
/// Spare snapshot buffers a shard keeps: enough for the one its fleet cache
/// lets go of each publish, plus a reader's.
constexpr std::size_t kMaxSpareSnapshots = 2;
/// Apps rebuild_snapshot_locked looks ahead.
constexpr std::size_t kPublishFetchAhead = 4;

/// Prefetch, for writing, every cache line of the bytes [first, end).
void prefetch_lines(const void* first, const void* end) {
  constexpr std::size_t kLine = 64;
  const auto* p = static_cast<const char*>(first);
  const auto* e = static_cast<const char*>(end);
  for (; p < e; p += kLine) __builtin_prefetch(p, 1);
}

}  // namespace

/// Spare ShardSnapshot buffers. A snapshot's deleter gives its buffer back
/// when its last reader lets go, and the next rebuild takes it. The shard
/// and every snapshot it handed out share the pool, so a snapshot may
/// outlive its shard.
class HubShard::SnapshotPool {
 public:
  SnapshotPool() { spare_.reserve(kMaxSpareSnapshots); }

  /// A spare buffer, or null when none is free.
  std::unique_ptr<ShardSnapshot> take() HB_EXCLUDES(mu_) {
    util::MutexLock lock(mu_);
    if (spare_.empty()) return nullptr;
    std::unique_ptr<ShardSnapshot> snap = std::move(spare_.back());
    spare_.pop_back();
    return snap;
  }

  /// Keep `snap` for reuse, or free it (after the unlock) when the list is
  /// full. Never throws: the list's room was reserved up front.
  void give(std::unique_ptr<ShardSnapshot> snap) HB_EXCLUDES(mu_) {
    util::MutexLock lock(mu_);
    if (spare_.size() < kMaxSpareSnapshots) spare_.push_back(std::move(snap));
  }

 private:
  util::Mutex mu_;
  std::vector<std::unique_ptr<ShardSnapshot>> spare_ HB_GUARDED_BY(mu_);
};

HubShard::HubShard(std::uint32_t index, ShardConfig config)
    : index_(index),
      config_(config),
      pool_(std::make_shared<SnapshotPool>()) {
  if (config_.window_capacity < 2 ||
      config_.window_capacity > kMaxWindowCapacity) {
    throw std::invalid_argument("hub: window_capacity " +
                                std::to_string(config_.window_capacity) +
                                " is outside [2, 65535]");
  }
  if (!config_.clock) throw std::invalid_argument("hub: shard needs a clock");
}

std::uint32_t HubShard::add_app(std::string name, core::TargetRate target) {
  util::MutexLock lock(state_mu_);
  AppState app(config_);
  app.target = target;
  app.born_ns = config_.clock->now();
  const auto slot = static_cast<std::uint32_t>(apps_.size());
  apps_.push_back(std::move(app));
  names_.push_back(std::move(name));
  state_dirty_ = true;  // the next publish must include the newcomer
  return slot;
}

void HubShard::check_slot_locked(std::uint32_t slot) const {
  if (slot >= apps_.size()) {
    // An AppId minted by a different hub: reject before anything applies,
    // since apply_locked indexes unchecked.
    throw std::out_of_range("HubShard: AppId slot not registered here");
  }
}

void HubShard::ingest_batch(std::span<const AppRun> runs) {
  if (runs.empty()) return;
  util::MutexLock lock(state_mu_);
  std::size_t beats = 0;
  for (const AppRun& run : runs) {
    check_slot_locked(app_id_slot(run.id));
    beats += run.timestamps.size();
  }
  // hb.hub.ingested counts beats, bumped once per apply: one sharded
  // fetch_add per call keeps the telemetry plane inside its <5% ingest
  // budget (bench/obs_overhead).
  ShardMetrics::get().ingested->add(beats);
  apply_runs_locked(runs);
  ingested_ += beats;
  ++flushes_;
  // Even with the clock frozen, the next publish must rebuild to show
  // these beats.
  state_dirty_ = true;
}

void HubShard::set_target(std::uint32_t slot, core::TargetRate target) {
  util::MutexLock lock(state_mu_);
  apps_.at(slot).target = target;
  state_dirty_ = true;
}

void HubShard::evict(std::uint32_t slot) {
  util::MutexLock lock(state_mu_);
  AppState& app = apps_.at(slot);
  if (!app.evicted) {
    evict_locked(app);
    state_dirty_ = true;
  }
}

std::shared_ptr<const ShardSnapshot> HubShard::publish() {
  util::MutexLock lock(state_mu_);
  const util::TimeNs now = config_.clock->now();

  // Freshness: rebuild when state changed (beats, targets, evictions,
  // registrations) or the clock moved (staleness stamps must catch up).
  // Otherwise hand back the published snapshot and leave the epoch alone,
  // so fleet caches keep hitting.
  {
    util::MutexLock snap_lock(snap_mu_);
    const bool stale = !snap_ || now > snap_->published_at_ns;
    if (!state_dirty_ && !stale) {
      ShardMetrics::get().publish_skips->add(1);
      return snap_;
    }
  }

  rebuild_snapshot_locked(now);
  return published();
}

std::shared_ptr<const ShardSnapshot> HubShard::published() const {
  util::MutexLock lock(snap_mu_);
  return snap_;
}

void HubShard::rebuild_snapshot_locked(util::TimeNs now) {
  const ShardMetrics& metrics = ShardMetrics::get();
  obs::ObsSpan span("shard.publish", apps_.size(), metrics.publish_ns);
  metrics.publishes->add(1);
  std::unique_ptr<ShardSnapshot> next = pool_->take();
  if (!next) next = std::make_unique<ShardSnapshot>();
  next->epoch = ++epoch_;
  next->published_at_ns = now;
  // A spare buffer is an earlier snapshot of this shard, and a slot's name
  // and id never change (apps are only appended, never removed or
  // renamed): only the slots past its old size take them.
  const std::size_t named = next->apps.size();
  next->apps.resize(apps_.size());

  for (std::size_t k = 0; k < apps_.size(); ++k) {
    if (k + kPublishFetchAhead < apps_.size()) {
      const AppState& ahead = apps_[k + kPublishFetchAhead];
      prefetch_lines(&ahead, &ahead + 1);
    }
    AppState& app = apps_[k];
    const util::TimeNs staleness = maintain_locked(app, now);
    if (app.dirty) refresh_locked(app);
    AppSummary& s = next->apps[k];
    if (k >= named) {
      s.name = names_[k];
      s.id = make_app_id(index_, static_cast<std::uint32_t>(k));
    }
    s.total_beats = app.total_beats;
    s.window_beats = app.window.size();
    s.rate_bps = app.rate_bps;
    s.last_beat_ns = app.last_beat_ns;
    s.staleness_ns = staleness;
    s.evicted = app.evicted;
    s.target = app.target;
    s.interval_mean_ns = app.interval_mean_ns;
    s.interval_stddev_ns = app.interval_stddev_ns;
  }
  state_dirty_ = false;

  // The buffer goes back to the pool when its last reader lets go. The
  // snapshot this one replaces is released after the unlock.
  std::shared_ptr<const ShardSnapshot> published(
      next.release(), [pool = pool_](const ShardSnapshot* snap) {
        pool->give(std::unique_ptr<ShardSnapshot>(
            const_cast<ShardSnapshot*>(snap)));
      });
  util::MutexLock snap_lock(snap_mu_);
  snap_.swap(published);
}

ShardStats HubShard::stats() const {
  ShardStats s;
  s.shard = index_;
  util::MutexLock lock(state_mu_);
  s.apps = apps_.size();
  s.flushes = flushes_;
  s.epoch = epoch_;
  s.ingested = ingested_;
  return s;
}

util::TimeNs HubShard::maintain_locked(AppState& app, util::TimeNs now) {
  // Staleness since the last beat, or since registration for an app that
  // has not beaten yet ("registered and silent since it appeared").
  const util::TimeNs since =
      app.last_beat_ns > 0 ? app.last_beat_ns : app.born_ns;
  const util::TimeNs staleness = now > since ? now - since : 0;
  if (config_.evict_after_ns > 0 && !app.evicted &&
      staleness > config_.evict_after_ns) {
    evict_locked(app);
  }
  return staleness;
}

void HubShard::evict_locked(AppState& app) {
  app.window.clear();
  app.moments.clear();
  app.evicted = true;
  app.dirty = true;
}

namespace {

/// Interval between a beat and the one before it. Out-of-order or
/// same-tick beats clamp to a zero interval rather than wrapping; the rate
/// math keeps its own zero-span convention. The difference is taken
/// unsigned: producer timestamps are untrusted and may span more than
/// INT64_MAX.
std::uint64_t interval_between(util::TimeNs prev_ns, util::TimeNs next_ns) {
  return next_ns > prev_ns ? static_cast<std::uint64_t>(next_ns) -
                                 static_cast<std::uint64_t>(prev_ns)
                           : 0;
}

}  // namespace

void HubShard::apply_runs_locked(std::span<const AppRun> runs) {
  // Group prefetching: while run i is applied, run i + kApplyFetchAhead
  // has its app's leading lines in flight and run i + kWindowFetchAhead
  // its window line, so an app's misses overlap the applies before it.
  const std::size_t n = runs.size();
  for (std::size_t i = 0; i < std::min(n, kApplyFetchAhead); ++i) {
    prefetch_app_locked(app_id_slot(runs[i].id));
  }
  for (std::size_t i = 0; i < n; ++i) {
    if (i + kApplyFetchAhead < n) {
      prefetch_app_locked(app_id_slot(runs[i + kApplyFetchAhead].id));
    }
    if (i + kWindowFetchAhead < n) {
      // The window slot that run's first beat overwrites. Once the window
      // is full it is the oldest beat, and the retirement's back(n - 2) is
      // the slot after it: one line serves both 7 times in 8. Inline on
      // purpose: GCC deletes a call to a function holding only a prefetch.
      const std::uint32_t slot = app_id_slot(runs[i + kWindowFetchAhead].id);
      __builtin_prefetch(apps_[slot].window.next_slot(), 1);
    }
    // A run's beats take the one-beat step in order.
    const std::uint32_t slot = app_id_slot(runs[i].id);
    for (const util::TimeNs timestamp_ns : runs[i].timestamps) {
      apply_locked(slot, timestamp_ns);
    }
  }
}

void HubShard::prefetch_app_locked(std::uint32_t slot) const {
  const AppState& app = apps_[slot];
  prefetch_lines(&app, reinterpret_cast<const char*>(&app) + kApplyBytes);
}

void HubShard::apply_locked(std::uint32_t slot, util::TimeNs timestamp_ns) {
  AppState& app = apps_[slot];
  ++app.total_beats;
  app.evicted = false;  // any beat revives an evicted app
  const util::TimeNs newest_ns = app.last_beat_ns;
  app.last_beat_ns = timestamp_ns;

  const std::size_t n = app.window.size();
  if (n == app.window.capacity()) {
    // The push below overwrites the oldest beat: retire the interval that
    // joined it to the next-oldest beat (a window holds at least two),
    // which becomes the oldest.
    const util::TimeNs next_oldest = app.window.back(n - 2);
    app.moments.remove(interval_between(app.oldest_ns, next_oldest));
    app.oldest_ns = next_oldest;
  }
  if (n > 0) {
    // The interval since the newest beat, which last_beat_ns held.
    app.moments.add(interval_between(newest_ns, timestamp_ns));
  } else {
    // After eviction the window is empty and the first new beat starts
    // fresh: the silent gap is staleness, not an interval.
    app.oldest_ns = timestamp_ns;
  }
  app.window.push(timestamp_ns);
  app.dirty = true;
}

void HubShard::refresh_locked(AppState& app) {
  // Windowed rate, same (n-1)/span semantics as core::window_rate, over
  // the whole window: its ends are oldest_ns and last_beat_ns, so no
  // window line is read.
  const std::size_t have = app.window.size();
  if (have < 2) {
    app.rate_bps = 0.0;
  } else {
    // Unsigned, like every interval: untrusted timestamps may span more
    // than INT64_MAX. A disordered window's span clamps to 0.
    const std::uint64_t span = interval_between(app.oldest_ns, app.last_beat_ns);
    app.rate_bps = span > 0 ? static_cast<double>(have - 1) /
                                  (static_cast<double>(span) /
                                   static_cast<double>(util::kNsPerSec))
                            : std::numeric_limits<double>::infinity();
  }

  // The moments hold the window's have - 1 intervals: both read 0 below
  // two beats. Population stddev — the jitter signal ("slow or erratic
  // heartbeats", paper Section 2.6).
  app.interval_mean_ns = app.moments.mean();
  app.interval_stddev_ns = app.moments.stddev();
  app.dirty = false;
}

}  // namespace hb::hub
