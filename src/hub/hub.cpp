#include "hub/hub.hpp"

#include <stdexcept>
#include <utility>

#include "obs/flight_recorder.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"

namespace hb::hub {

namespace {

/// Registry cells for the fleet-snapshot layer, resolved once. These
/// dual-write alongside the per-instance SnapshotStats: the struct stays
/// the per-hub view tests assert on; the registry is the process-wide
/// plane hbmon and the self-heartbeat read.
struct HubMetrics {
  obs::Counter* snapshot_hits;
  obs::Counter* snapshot_rebuilds;
  obs::Counter* self_beats;

  static const HubMetrics& get() {
    static const HubMetrics m = [] {
      auto& r = obs::MetricsRegistry::global();
      return HubMetrics{&r.counter("hb.hub.snapshot_hits"),
                        &r.counter("hb.hub.snapshot_rebuilds"),
                        &r.counter("hb.hub.self_beats")};
    }();
    return m;
  }
};

HubOptions normalize(HubOptions opts) {
  if (opts.shard_count == 0) opts.shard_count = 1;
  if (opts.window_capacity < 2) opts.window_capacity = 2;
  if (!opts.clock) opts.clock = util::MonotonicClock::instance();
  return opts;
}

}  // namespace

HeartbeatHub::HeartbeatHub(HubOptions opts) : opts_(normalize(std::move(opts))) {
  const ShardConfig config{opts_.window_capacity, opts_.evict_after_ns,
                           opts_.clock};
  shards_.reserve(opts_.shard_count);
  for (std::size_t i = 0; i < opts_.shard_count; ++i) {
    shards_.push_back(
        std::make_unique<HubShard>(static_cast<std::uint32_t>(i), config));
  }
  if (opts_.self_beat) {
    self_id_ = register_app(std::string(kSelfAppName));
    has_self_ = true;
  }
}

AppId HeartbeatHub::self_app_id() const {
  if (!has_self_) {
    throw std::logic_error(
        "HeartbeatHub: self_app_id() without HubOptions::self_beat");
  }
  return self_id_;
}

void HeartbeatHub::maybe_self_beat() {
  // relaxed: see set_self_beat_paused — a stale read costs one beat.
  if (!has_self_ || self_beat_paused_.load(std::memory_order_relaxed)) return;
  beat(self_id_);
  HubMetrics::get().self_beats->add(1);
}

AppId HeartbeatHub::register_app(const std::string& name,
                                 core::TargetRate target) {
  util::MutexLock lock(names_mu_);
  auto it = names_.find(name);
  if (it != names_.end()) return it->second;
  const std::uint32_t shard = shard_of(name);
  const std::uint32_t slot = shards_[shard]->add_app(name, target);
  const AppId id = make_app_id(shard, slot);
  names_.emplace(name, id);
  return id;
}

AppId HeartbeatHub::id_of(const std::string& name) const {
  util::MutexLock lock(names_mu_);
  auto it = names_.find(name);
  if (it == names_.end()) {
    throw std::out_of_range("HeartbeatHub: unknown app \"" + name + "\"");
  }
  return it->second;
}

std::uint32_t HeartbeatHub::shard_of(const std::string& name) const {
  return static_cast<std::uint32_t>(fnv1a64(name) % shards_.size());
}

void HeartbeatHub::ingest(AppId id, util::TimeNs timestamp_ns) {
  const AppRun one{id, {&timestamp_ns, 1}};
  ingest_batch({&one, 1});
}

void HeartbeatHub::ingest_batch(std::span<const AppRun> runs) {
  while (!runs.empty()) {
    const std::uint32_t shard = app_id_shard(runs.front().id);
    std::size_t k = 1;
    while (k < runs.size() && app_id_shard(runs[k].id) == shard) ++k;
    shards_.at(shard)->ingest_batch(runs.first(k));
    runs = runs.subspan(k);
  }
}

void HeartbeatHub::beat(AppId id) { ingest(id, opts_.clock->now()); }

void HeartbeatHub::set_target(AppId id, core::TargetRate target) {
  shards_.at(app_id_shard(id))->set_target(app_id_slot(id), target);
}

void HeartbeatHub::evict(AppId id) {
  shards_.at(app_id_shard(id))->evict(app_id_slot(id));
}

void HeartbeatHub::set_feed(std::function<void()> feed) {
  util::MutexLock lock(feed_mu_);
  if (feed && feed_) {
    throw std::logic_error("HeartbeatHub: a feed is installed already");
  }
  feed_ = std::move(feed);
}

void HeartbeatHub::run_feed() {
  util::MutexLock lock(feed_mu_);
  if (feed_) feed_();
}

void HeartbeatHub::flush() {
  run_feed();
  for (auto& shard : shards_) shard->publish();
  // The beat applies now and the next flush or snapshot publishes it —
  // what matters for the staleness signal is that the timestamp was
  // stamped *now*, while the maintenance loop was alive.
  maybe_self_beat();
}

std::shared_ptr<const FleetSnapshot> HeartbeatHub::snapshot() {
  obs::ObsSpan span("hub.snapshot", shards_.size());
  run_feed();
  // Phase 1, no fleet lock held: publish every shard. Each publish
  // republishes only if something changed; unchanged shards hand back
  // their existing pointer with the epoch standing still.
  std::vector<std::shared_ptr<const ShardSnapshot>> parts;
  parts.reserve(shards_.size());
  for (auto& shard : shards_) parts.push_back(shard->publish());

  // Phase 2: serve from the cache when it COVERS the grabbed parts —
  // component-wise: every cached shard epoch >= the grabbed one (shard
  // epochs are monotone, so a cached shard at a higher epoch holds a
  // superset of that shard's ingested beats). A sum comparison would be
  // wrong here: concurrent callers can grab incomparable vectors (e.g.
  // [4,6] vs a cached [5,5]) whose sums tie while each misses the other's
  // beats. For an uncovered grab we compose a fresh view of the parts we
  // actually grabbed, and cache it only if its total epoch advances —
  // never regressing the cache (FleetReport::snapshot_epoch is documented
  // monotone non-decreasing) or discarding a concurrent caller's newer
  // composition.
  std::shared_ptr<const FleetSnapshot> result;
  std::shared_ptr<obs::FlightRecorder> recorder;
  bool rebuilt = false;
  {
    util::MutexLock lock(snap_mu_);
    if (fleet_snap_ && fleet_snap_->shard_count() == parts.size()) {
      bool covered = true;
      for (std::size_t i = 0; i < parts.size(); ++i) {
        if (fleet_snap_->shard(i).epoch < parts[i]->epoch) {
          covered = false;
          break;
        }
      }
      if (covered) {
        ++snap_stats_.fleet_hits;
        HubMetrics::get().snapshot_hits->add(1);
        return fleet_snap_;
      }
    }
    ++snap_stats_.fleet_rebuilds;
    HubMetrics::get().snapshot_rebuilds->add(1);
    auto snap = FleetSnapshot::compose(std::move(parts), opts_.clock->now());
    if (!fleet_snap_ || snap->epoch() > fleet_snap_->epoch()) {
      fleet_snap_ = snap;
    }
    result = std::move(snap);
    recorder = recorder_;
    rebuilt = true;
  }
  // Self-heartbeat AFTER releasing snap_mu_: the beat funnels into shard
  // ingest, and snapshot readers must never hold the fleet lock across a
  // shard operation. One beat per rebuild (not per cache hit) means the
  // self rate tracks real publish work, and a wedged compose path stops
  // the beat — which is the point. The flight-recorder tick rides the
  // same rebuild edge (wait-free; outside the lock for the same reason).
  if (rebuilt) {
    if (recorder) recorder->note_publish();
    maybe_self_beat();
  }
  return result;
}

AppSummary HeartbeatHub::summary(AppId id) {
  run_feed();
  // shard() and the slot check both throw out_of_range for foreign ids.
  const auto snap = shard(app_id_shard(id)).publish();
  const std::uint32_t slot = app_id_slot(id);
  if (slot >= snap->apps.size()) {
    throw std::out_of_range("HeartbeatHub: AppId slot not registered here");
  }
  return snap->apps[slot];
}

void HeartbeatHub::set_flight_recorder(
    std::shared_ptr<obs::FlightRecorder> recorder) {
  util::MutexLock lock(snap_mu_);
  recorder_ = std::move(recorder);
}

SnapshotStats HeartbeatHub::snapshot_stats() const {
  util::MutexLock lock(snap_mu_);
  return snap_stats_;
}

std::size_t HeartbeatHub::app_count() const {
  util::MutexLock lock(names_mu_);
  return names_.size();
}

}  // namespace hb::hub
