#include "hub/shard.hpp"

#include <algorithm>
#include <array>
#include <cassert>
#include <cmath>
#include <limits>
#include <map>
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
  obs::Counter* ingested;       ///< beats enqueued (hb.hub.ingested)
  obs::Counter* applied;        ///< beats applied to app state
  obs::Counter* publishes;      ///< shard snapshot rebuilds
  obs::Counter* publish_skips;  ///< publish() calls that reused the snapshot
  obs::Histogram* publish_ns;   ///< rebuild_snapshot_locked duration

  static const ShardMetrics& get() {
    static const ShardMetrics m = [] {
      auto& r = obs::MetricsRegistry::global();
      return ShardMetrics{&r.counter("hb.hub.ingested"),
                          &r.counter("hb.hub.applied"),
                          &r.counter("hb.hub.publishes"),
                          &r.counter("hb.hub.publish_skips"),
                          &r.histogram("hb.hub.publish_ns")};
    }();
    return m;
  }
};

/// Records apply_run_locked looks ahead: an app's leading fields are
/// prefetched kApplyFetchAhead records before its apply, and what they
/// point at kApplyTargetAhead records before it — by then the first
/// fetch has landed.
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
  batch_.reserve(config_.batch_capacity);
}

std::uint32_t HubShard::add_app(std::string name, core::TargetRate target) {
  util::MutexLock lock(state_mu_);
  AppState app(config_);
  app.name = std::move(name);
  app.target = target;
  if (config_.clock) app.born_ns = config_.clock->now();
  const auto slot = static_cast<std::uint32_t>(apps_.size());
  app.cached.name = app.name;
  app.cached.id = make_app_id(index_, slot);
  app.cached.shard = index_;
  app.cached.target = target;
  apps_.push_back(std::move(app));
  state_dirty_ = true;  // the next publish must include the newcomer
  app_count_.store(apps_.size(), std::memory_order_release);
  return slot;
}

void HubShard::check_slot(std::uint32_t slot) const {
  if (slot >= app_count_.load(std::memory_order_acquire)) {
    // An AppId minted by a different hub: reject before it reaches the
    // batch, where apply_locked indexes unchecked. Slots are append-only,
    // so the lock-free bound can only ever under-approximate — a false
    // reject is impossible for ids this hub handed out before the call.
    throw std::out_of_range("HubShard: AppId slot not registered here");
  }
}

void HubShard::enqueue(std::uint32_t slot, const core::HeartbeatRecord& rec) {
  check_slot(slot);
  std::size_t handed_off = 0;
  {
    util::MutexLock lock(ingest_mu_);
    batch_.push_back(AppRecord{make_app_id(index_, slot), rec});
    ++ingested_;
    if (batch_.size() >= config_.batch_capacity) {
      // O(1) handoff: the full batch joins the apply FIFO and producers
      // keep filling a fresh one. The drain below runs off this lock.
      handed_off = batch_.size();
      overflow_.push_back(std::move(batch_));
      batch_ = Batch();
      batch_.reserve(config_.batch_capacity);
    }
  }
  // hb.hub.ingested counts at batch-handoff granularity, not per beat: one
  // sharded fetch_add per batch_capacity beats keeps the telemetry plane
  // inside its <5% ingest budget (bench/obs_overhead). The partial batch a
  // flush drains is counted by apply_pending_locked when it leaves, so
  // after any flush the counter equals the beats actually taken in.
  if (handed_off > 0) {
    ShardMetrics::get().ingested->add(handed_off);
    drain_overflow();
  }
}

void HubShard::ingest_batch(std::span<const AppRecord> recs) {
  if (recs.empty()) return;
  for (const AppRecord& r : recs) check_slot(app_id_slot(r.id));
  const ShardMetrics& metrics = ShardMetrics::get();
  util::MutexLock lock(state_mu_);
  // Beats still in the batch arrived before these: apply them first.
  apply_pending_locked(/*include_partial=*/true);
  {
    util::MutexLock ingest_lock(ingest_mu_);
    ingested_ += recs.size();
  }
  metrics.ingested->add(recs.size());
  apply_run_locked(recs);
  metrics.applied->add(recs.size());
  ++flushes_;
  state_dirty_ = true;
}

void HubShard::drain_overflow() {
  // Apply-only: no maintenance, no refresh, no snapshot build — nobody
  // observes summaries until a publish, and every publish rebuilds them.
  // Contends with readers on state_mu_, never with other producers.
  // The dirty mark is what makes the next publish rebuild even when it
  // finds nothing left to apply itself (a beat count that is an exact
  // multiple of batch_capacity drains entirely here) and the clock has
  // not moved.
  util::MutexLock lock(state_mu_);
  if (apply_pending_locked(/*include_partial=*/false)) state_dirty_ = true;
}

bool HubShard::apply_pending_locked(bool include_partial) {
  // Bound the drain to what was pending at ENTRY: under sustained ingest
  // an until-empty loop would never exit (producers refill faster than we
  // apply) and this function runs with state_mu_ held — every reader and
  // overflowing producer would block behind it unboundedly. Batches that
  // arrive during the drain belong to the next drain (their producers
  // trigger one). overflow_ only shrinks under state_mu_, so the first
  // `pending_batches` pops below are exactly the batches seen at entry.
  std::size_t pending_batches;
  {
    util::MutexLock lock(ingest_mu_);
    pending_batches = overflow_.size();
  }
  bool any = false;
  for (std::size_t n = 0; n <= pending_batches; ++n) {
    Batch batch;
    bool partial = false;
    {
      util::MutexLock lock(ingest_mu_);
      if (n < pending_batches) {
        batch = std::move(overflow_.front());
        overflow_.pop_front();
      } else if (include_partial && !batch_.empty()) {
        batch = std::move(batch_);
        batch_ = Batch();
        batch_.reserve(config_.batch_capacity);
        partial = true;
      } else {
        break;
      }
    }
    // Partial batches never passed the handoff point in enqueue(), so the
    // ingested counter picks them up here (full batches were counted at
    // handoff; counting them again would double-book).
    if (partial) ShardMetrics::get().ingested->add(batch.size());
    // FIFO is global: handoffs preserve arrival order and every apply pops
    // under state_mu_, so batches land in the order their beats arrived.
    apply_run_locked(batch);
    ShardMetrics::get().applied->add(batch.size());
    ++flushes_;
    any = true;
  }
  return any;
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
  // Apply pending beats first: they were ingested before the eviction was
  // requested, so they still count toward total_beats — and whatever got
  // applied (any app's beats) must reach the next snapshot even when the
  // eviction itself is an idempotent no-op below.
  if (apply_pending_locked(/*include_partial=*/true)) state_dirty_ = true;
  AppState& app = apps_.at(slot);
  if (!app.evicted) {
    evict_locked(app);
    state_dirty_ = true;
  }
}

std::shared_ptr<const ShardSnapshot> HubShard::publish() {
  util::MutexLock lock(state_mu_);
  const bool applied = apply_pending_locked(/*include_partial=*/true);
  const util::TimeNs now = config_.clock ? config_.clock->now() : 0;

  // Freshness: rebuild when new beats landed, when state changed without
  // beats (targets, evictions, registrations), or when the clock moved
  // (staleness stamps must catch up). Otherwise the published snapshot is
  // still the truth — hand it back and leave the epoch alone, so fleet
  // caches keep hitting.
  {
    util::MutexLock snap_lock(snap_mu_);
    const bool stale = !snap_ || now > snap_->published_at_ns;
    if (!applied && !state_dirty_ && !stale) {
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

  ClusterSummary& sum = next->cluster_part;
  std::map<std::uint64_t, TagSummary> by_tag;
  for (std::size_t k = 0; k < apps_.size(); ++k) {
    if (k + kPublishFetchAhead < apps_.size()) {
      // Fetch what this walk and a refresh read of the app a few slots
      // ahead: its leading fields and cached summary; when it is dirty,
      // also its window ends (the rate span) and its min bucket, where
      // the percentile walk starts.
      const AppState& ahead = apps_[k + kPublishFetchAhead];
      prefetch_lines(&ahead, &ahead.hist);
      prefetch_lines(&ahead.cached, &ahead.cached + 1);
      if (ahead.dirty && !ahead.window.empty()) {
        __builtin_prefetch(&ahead.window.back(0));
        __builtin_prefetch(&ahead.window.back(ahead.window.size() - 1));
        __builtin_prefetch(
            &ahead.hist.counts()[AppHistogram::bucket_index(ahead.min)]);
      }
    }
    AppState& app = apps_[k];
    if (config_.clock) maintain_locked(app, now);
    if (app.dirty) refresh_locked(app);
    next->apps.push_back(app.cached);

    if (app.evicted) {
      ++sum.evicted;
      continue;
    }
    const AppSummary& s = app.cached;
    ++sum.apps;
    sum.total_beats += s.total_beats;
    sum.window_beats += s.window_beats;
    if (std::isfinite(s.rate_bps)) sum.aggregate_rate_bps += s.rate_bps;
    if (s.window_beats < 2) {
      // Fewer than 2 windowed beats has no measurable rate (rate_bps is a
      // placeholder 0): the app is warming up, neither meeting its band nor
      // deficient against its minimum.
      ++sum.warming_up;
    } else {
      // A zero-span window reports an infinite rate; that is "unmeasurably
      // fast", not evidence the target band is met (same isfinite rule as
      // the aggregate-rate line above).
      if (std::isfinite(s.rate_bps) && s.target.contains(s.rate_bps)) {
        ++sum.meeting_target;
      }
      if (std::isfinite(s.rate_bps) && s.target.min_bps > 0.0 &&
          s.rate_bps < s.target.min_bps) {
        ++sum.deficient;
      }
    }
    sum.last_beat_ns = std::max(sum.last_beat_ns, s.last_beat_ns);
    if (app.window.size() > 1) {
      if (!next->any_interval) {
        sum.interval_min_ns = s.interval_min_ns;
        sum.interval_max_ns = s.interval_max_ns;
        next->any_interval = true;
      } else {
        sum.interval_min_ns = std::min(sum.interval_min_ns, s.interval_min_ns);
        sum.interval_max_ns = std::max(sum.interval_max_ns, s.interval_max_ns);
      }
    }
    app.tags.for_each([&by_tag](const TagTable::Entry& e) {
      TagSummary& t = by_tag[e.tag];
      t.tag = e.tag;
      t.beats += e.count;
      ++t.apps;
    });
  }
  // After the walk: maintenance above may have evicted apps out of it.
  next->intervals = live_intervals_;
  next->tags.reserve(by_tag.size());
  for (const auto& [_, t] : by_tag) next->tags.push_back(t);
  state_dirty_ = false;

  util::MutexLock snap_lock(snap_mu_);
  snap_ = std::move(next);
}

ShardStats HubShard::stats() const {
  ShardStats s;
  s.shard = index_;
  {
    util::MutexLock lock(state_mu_);
    s.apps = apps_.size();
    s.flushes = flushes_;
    s.epoch = epoch_;
  }
  {
    util::MutexLock lock(ingest_mu_);
    s.ingested = ingested_;
    s.pending = batch_.size();
    for (const Batch& b : overflow_) s.pending += b.size();
  }
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
  live_intervals_.subtract(app.hist);
  app.window.clear();
  app.hist.reset();
  app.moments.clear();
  app.tags.clear();
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

std::size_t HubShard::TagTable::lower_bound(std::uint64_t tag) const {
  std::size_t lo = 0, hi = size_;
  while (lo < hi) {
    const std::size_t mid = lo + (hi - lo) / 2;
    if (at(mid).tag < tag) {
      lo = mid + 1;
    } else {
      hi = mid;
    }
  }
  return lo;
}

void HubShard::TagTable::add(std::uint64_t tag) {
  std::size_t i = size_;
  if (size_ > 0 && tag <= at(size_ - 1).tag) {  // not a new newest tag
    i = tag == at(size_ - 1).tag ? size_ - 1 : lower_bound(tag);
    if (at(i).tag == tag) {
      ++at(i).count;
      return;
    }
  }
  if (size_ == slots_.size()) {
    // Full: move into twice the slots, entry 0 first.
    std::vector<Entry> grown(std::max<std::size_t>(1, 2 * size_));
    for (std::size_t k = 0; k < size_; ++k) grown[k] = at(k);
    slots_ = std::move(grown);
    head_ = 0;
  }
  // Open entry i by shifting the shorter side of it outward one slot.
  if (i < size_ - i) {
    head_ = (head_ + slots_.size() - 1) & (slots_.size() - 1);
    for (std::size_t k = 0; k < i; ++k) at(k) = at(k + 1);
  } else {
    for (std::size_t k = size_; k > i; --k) at(k) = at(k - 1);
  }
  at(i) = Entry{tag, 1};
  ++size_;
}

void HubShard::TagTable::remove(std::uint64_t tag) {
  // The oldest beat's tag is most often the smallest one counted.
  const std::size_t i = at(0).tag == tag ? 0 : lower_bound(tag);
  assert(i < size_ && at(i).tag == tag);
  if (--at(i).count > 0) return;
  // Close entry i by shifting the shorter side of it inward one slot.
  if (i < size_ - 1 - i) {
    for (std::size_t k = i; k > 0; --k) at(k) = at(k - 1);
    head_ = (head_ + 1) & (slots_.size() - 1);
  } else {
    for (std::size_t k = i; k + 1 < size_; ++k) at(k) = at(k + 1);
  }
  --size_;
}

void HubShard::apply_run_locked(std::span<const AppRecord> recs) {
  // Group prefetching: while record i is applied, record i + kApplyFetchAhead
  // has its app's leading lines in flight and record i + kApplyTargetAhead,
  // whose lines have landed by now, has its window ends and buckets in
  // flight — so an app's misses overlap the applies before it.
  const std::size_t n = recs.size();
  for (std::size_t i = 0; i < std::min(n, kApplyFetchAhead); ++i) {
    prefetch_app_locked(app_id_slot(recs[i].id));
  }
  for (std::size_t i = 0; i < n; ++i) {
    if (i + kApplyFetchAhead < n) {
      prefetch_app_locked(app_id_slot(recs[i + kApplyFetchAhead].id));
    }
    if (i + kApplyTargetAhead < n) {
      const AppRecord& ahead = recs[i + kApplyTargetAhead];
      prefetch_beat_targets_locked(app_id_slot(ahead.id),
                                   ahead.rec.timestamp_ns);
    }
    apply_locked(app_id_slot(recs[i].id), recs[i].rec);
  }
}

void HubShard::prefetch_app_locked(std::uint32_t slot) const {
  const AppState& app = apps_[slot];
  prefetch_lines(&app, &app.tags + 1);
}

void HubShard::prefetch_beat_targets_locked(std::uint32_t slot,
                                            util::TimeNs timestamp_ns) const {
  const AppState& app = apps_[slot];
  app.tags.prefetch_ends();
  const std::size_t n = app.window.size();
  if (n == 0) return;  // no interval comes: the window starts fresh
  __builtin_prefetch(&app.window.back(0));
  // A full window's push overwrites its oldest beat, after retiring it.
  if (n == app.window.capacity()) __builtin_prefetch(&app.window.back(n - 1), 1);
  // The newest windowed beat is the last one applied, so last_beat_ns
  // predicts the coming interval without reading the window.
  const std::size_t bucket =
      AppHistogram::bucket_index(interval_between(app.last_beat_ns, timestamp_ns));
  __builtin_prefetch(&app.hist.counts()[bucket], 1);
  __builtin_prefetch(&live_intervals_.counts()[bucket], 1);
}

void HubShard::apply_locked(std::uint32_t slot, const core::HeartbeatRecord& rec) {
  AppState& app = apps_[slot];
  ++app.total_beats;
  app.evicted = false;  // any beat revives an evicted app
  app.last_beat_ns = rec.timestamp_ns;

  if (app.window.size() == app.window.capacity()) {
    // The push below overwrites the oldest beat: retire its tag, and the
    // interval that joined it to the next-oldest beat.
    app.tags.remove(app.window.back(app.window.size() - 1).tag);
    if (app.window.size() > 1) retire_oldest_interval_locked(app);
  }
  // The interval since the newest beat still inside the window. After
  // eviction the window is empty and the first new beat starts fresh: the
  // silent gap is staleness, not an interval.
  if (app.window.size() > 0) {
    add_interval_locked(app, interval_between(app.window.back(0).timestamp_ns,
                                              rec.timestamp_ns));
  }
  app.window.push(Beat{rec.timestamp_ns, rec.tag});
  app.tags.add(rec.tag);
  app.dirty = true;
}

void HubShard::retire_oldest_interval_locked(AppState& app) {
  const std::size_t n = app.window.size();
  const std::uint64_t old = interval_between(
      app.window.back(n - 1).timestamp_ns, app.window.back(n - 2).timestamp_ns);
  app.hist.forget(old);
  live_intervals_.forget(old);
  app.moments.remove(old);
  if (old == app.min) --app.min_copies;
  if (old == app.max) --app.max_copies;
}

void HubShard::add_interval_locked(AppState& app, std::uint64_t interval) {
  // The window held one beat, or two when the retired interval was its
  // only one: no interval is left to compare against.
  const bool first = app.moments.count() == 0;
  app.hist.record(interval);
  live_intervals_.record(interval);
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
    const util::TimeNs span =
        app.window.back(0).timestamp_ns - app.window.back(w - 1).timestamp_ns;
    s.rate_bps = span > 0
                     ? static_cast<double>(w - 1) / util::to_seconds(span)
                     : std::numeric_limits<double>::infinity();
  }

  if (have < 2) {
    s.interval_min_ns = s.interval_max_ns = 0;
    s.interval_mean_ns = 0.0;
    s.interval_stddev_ns = 0.0;
    s.interval_p50_ns = s.interval_p95_ns = s.interval_p99_ns = 0;
  } else {
    if (app.min_copies == 0 || app.max_copies == 0) {
      // The last copy of a bound left the window: one walk over its
      // consecutive timestamp pairs re-derives both bounds and their copy
      // counts.
      app.min = std::numeric_limits<std::uint64_t>::max();
      app.max = 0;
      app.min_copies = app.max_copies = 0;
      const Beat* newer = nullptr;
      app.window.for_each_newest_first([&app, &newer](const Beat& b) {
        if (newer) {
          const std::uint64_t v =
              interval_between(b.timestamp_ns, newer->timestamp_ns);
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
        newer = &b;
      });
    }
    s.interval_min_ns = app.min;
    s.interval_max_ns = app.max;
    s.interval_mean_ns = app.moments.mean();
    // Population stddev over the windowed intervals — the jitter signal
    // ("slow or erratic heartbeats", paper Section 2.6).
    s.interval_stddev_ns = app.moments.stddev();
    std::array<std::uint64_t, kIntervalPercentiles.size()> q;
    app.hist.percentiles(kIntervalPercentiles, app.min, app.max, q);
    s.interval_p50_ns = q[0];
    s.interval_p95_ns = q[1];
    s.interval_p99_ns = q[2];
  }
  app.dirty = false;
}

}  // namespace hb::hub
