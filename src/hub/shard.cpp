#include "hub/shard.hpp"

#include <algorithm>
#include <limits>
#include <stdexcept>

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

/// Records apply_run_locked looks ahead: an app's leading fields are
/// prefetched kApplyFetchAhead records before its apply, and the window
/// ends they point at kApplyTargetAhead records before it — by then the
/// first fetch has landed.
constexpr std::size_t kApplyFetchAhead = 8;
constexpr std::size_t kApplyTargetAhead = 4;
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

HubShard::HubShard(std::uint32_t index, ShardConfig config)
    : index_(index), config_(config) {
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
  app.cached.name = std::move(name);
  app.cached.id = make_app_id(index_, slot);
  app.cached.shard = index_;
  app.cached.target = target;
  apps_.push_back(std::move(app));
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

void HubShard::ingest_batch(std::span<const AppRecord> recs) {
  if (recs.empty()) return;
  util::MutexLock lock(state_mu_);
  for (const AppRecord& r : recs) check_slot_locked(app_id_slot(r.id));
  // hb.hub.ingested counts per apply, not per beat: one sharded fetch_add
  // per run keeps the telemetry plane inside its <5% ingest budget
  // (bench/obs_overhead).
  ShardMetrics::get().ingested->add(recs.size());
  apply_run_locked(recs);
  ingested_ += recs.size();
  ++flushes_;
  // Even with the clock frozen, the next publish must rebuild to show
  // these beats.
  state_dirty_ = true;
}

void HubShard::set_target(std::uint32_t slot, core::TargetRate target) {
  util::MutexLock lock(state_mu_);
  AppState& app = apps_.at(slot);
  app.target = target;
  app.dirty = true;
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
  auto next = std::make_shared<ShardSnapshot>();
  next->shard = index_;
  next->epoch = ++epoch_;
  next->published_at_ns = now;
  next->apps.reserve(apps_.size());

  for (std::size_t k = 0; k < apps_.size(); ++k) {
    if (k + kPublishFetchAhead < apps_.size()) {
      // Fetch what this walk and a refresh read of the app a few slots
      // ahead: the whole app, and when it is dirty also its window ends
      // (the rate span).
      const AppState& ahead = apps_[k + kPublishFetchAhead];
      prefetch_lines(&ahead, &ahead + 1);
      if (ahead.dirty && !ahead.window.empty()) {
        __builtin_prefetch(&ahead.window.back(0));
        __builtin_prefetch(&ahead.window.back(ahead.window.size() - 1));
      }
    }
    AppState& app = apps_[k];
    maintain_locked(app, now);
    if (app.dirty) refresh_locked(app);
    next->apps.push_back(app.cached);
  }
  state_dirty_ = false;

  util::MutexLock snap_lock(snap_mu_);
  snap_ = std::move(next);
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

void HubShard::maintain_locked(AppState& app, util::TimeNs now) {
  // Staleness since the last beat, or since registration for an app that
  // has not beaten yet ("registered and silent since it appeared").
  const util::TimeNs since =
      app.last_beat_ns > 0 ? app.last_beat_ns : app.born_ns;
  const util::TimeNs staleness = now > since ? now - since : 0;
  if (config_.evict_after_ns > 0 && !app.evicted &&
      staleness > config_.evict_after_ns) {
    evict_locked(app);
  }
  app.cached.staleness_ns = staleness;
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

void HubShard::apply_run_locked(std::span<const AppRecord> recs) {
  // Group prefetching: while record i is applied, record i + kApplyFetchAhead
  // has its app's leading lines in flight and record i + kApplyTargetAhead,
  // whose lines have landed by now, has its window ends in flight — so an
  // app's misses overlap the applies before it.
  const std::size_t n = recs.size();
  for (std::size_t i = 0; i < std::min(n, kApplyFetchAhead); ++i) {
    prefetch_app_locked(app_id_slot(recs[i].id));
  }
  for (std::size_t i = 0; i < n; ++i) {
    if (i + kApplyFetchAhead < n) {
      prefetch_app_locked(app_id_slot(recs[i + kApplyFetchAhead].id));
    }
    if (i + kApplyTargetAhead < n) {
      prefetch_window_ends_locked(app_id_slot(recs[i + kApplyTargetAhead].id));
    }
    apply_locked(app_id_slot(recs[i].id), recs[i].rec);
  }
}

void HubShard::prefetch_app_locked(std::uint32_t slot) const {
  const AppState& app = apps_[slot];
  prefetch_lines(&app, &app.max_copies + 1);
}

void HubShard::prefetch_window_ends_locked(std::uint32_t slot) const {
  const AppState& app = apps_[slot];
  const std::size_t n = app.window.size();
  if (n == 0) return;  // no interval comes: the window starts fresh
  __builtin_prefetch(&app.window.back(0));
  // A full window's push overwrites its oldest beat, after retiring it.
  if (n == app.window.capacity()) __builtin_prefetch(&app.window.back(n - 1), 1);
}

void HubShard::apply_locked(std::uint32_t slot, const core::HeartbeatRecord& rec) {
  AppState& app = apps_[slot];
  ++app.total_beats;
  app.evicted = false;  // any beat revives an evicted app
  app.last_beat_ns = rec.timestamp_ns;

  if (app.window.size() == app.window.capacity()) {
    // The push below overwrites the oldest beat: retire the interval that
    // joined it to the next-oldest beat (a window holds at least two).
    retire_oldest_interval_locked(app);
  }
  // The interval since the newest beat still inside the window. After
  // eviction the window is empty and the first new beat starts fresh: the
  // silent gap is staleness, not an interval.
  if (app.window.size() > 0) {
    add_interval_locked(app, interval_between(app.window.back(0),
                                              rec.timestamp_ns));
  }
  app.window.push(rec.timestamp_ns);
  app.dirty = true;
}

void HubShard::retire_oldest_interval_locked(AppState& app) {
  const std::size_t n = app.window.size();
  const std::uint64_t old =
      interval_between(app.window.back(n - 1), app.window.back(n - 2));
  app.moments.remove(old);
  if (old == app.min) --app.min_copies;
  if (old == app.max) --app.max_copies;
}

void HubShard::add_interval_locked(AppState& app, std::uint64_t interval) {
  // The window held one beat, or two when the retired interval was its
  // only one: no interval is left to compare against.
  const bool first = app.moments.count() == 0;
  app.moments.add(interval);
  // A bound whose copies all left stays stale (count 0) until a new
  // interval beats or equals it; refresh_locked rescans if it is still
  // stale then.
  if (first || interval < app.min) {
    app.min = interval;
    app.min_copies = 1;
  } else if (interval == app.min) {
    ++app.min_copies;
  }
  if (first || interval > app.max) {
    app.max = interval;
    app.max_copies = 1;
  } else if (interval == app.max) {
    ++app.max_copies;
  }
}

void HubShard::refresh_locked(AppState& app) {
  AppSummary& s = app.cached;
  s.target = app.target;
  s.total_beats = app.total_beats;
  s.window_beats = app.window.size();
  s.last_beat_ns = app.last_beat_ns;
  s.evicted = app.evicted;

  // Windowed rate, same (n-1)/span semantics as core::window_rate, computed
  // straight off the ring ends (no copy). As in core/reader.cpp, a rate
  // window of 1 still reads 2 records: rate(1) is the instantaneous rate,
  // not a constant 0.
  const std::size_t have = app.window.size();
  std::size_t w = config_.rate_window == 0
                      ? have
                      : std::min<std::size_t>(
                            std::max<std::size_t>(config_.rate_window, 2), have);
  if (w < 2) {
    s.rate_bps = 0.0;
  } else {
    // Unsigned, like every interval: untrusted timestamps may span more
    // than INT64_MAX. A disordered window's span clamps to 0.
    const std::uint64_t span =
        interval_between(app.window.back(w - 1), app.window.back(0));
    s.rate_bps = span > 0 ? static_cast<double>(w - 1) /
                                (static_cast<double>(span) /
                                 static_cast<double>(util::kNsPerSec))
                          : std::numeric_limits<double>::infinity();
  }

  if (have < 2) {
    s.interval_min_ns = s.interval_max_ns = 0;
    s.interval_mean_ns = 0.0;
    s.interval_stddev_ns = 0.0;
  } else {
    if (app.min_copies == 0 || app.max_copies == 0) {
      // The last copy of a bound left the window: one walk over its
      // consecutive timestamp pairs re-derives both bounds and their copy
      // counts.
      app.min = std::numeric_limits<std::uint64_t>::max();
      app.max = 0;
      app.min_copies = app.max_copies = 0;
      const util::TimeNs* newer = nullptr;
      app.window.for_each_newest_first([&app, &newer](const util::TimeNs& ts) {
        if (newer) {
          const std::uint64_t v = interval_between(ts, *newer);
          if (v < app.min) {
            app.min = v;
            app.min_copies = 0;
          }
          if (v > app.max) {
            app.max = v;
            app.max_copies = 0;
          }
          app.min_copies += v == app.min;
          app.max_copies += v == app.max;
        }
        newer = &ts;
      });
    }
    s.interval_min_ns = app.min;
    s.interval_max_ns = app.max;
    s.interval_mean_ns = app.moments.mean();
    // Population stddev over the windowed intervals — the jitter signal
    // ("slow or erratic heartbeats", paper Section 2.6).
    s.interval_stddev_ns = app.moments.stddev();
  }
  app.dirty = false;
}

}  // namespace hb::hub
