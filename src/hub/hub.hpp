// HeartbeatHub: sharded, multi-tenant aggregation of heartbeat streams.
//
// The paper's observers (Figure 1b) each attach to one application's
// channel. That is the right interface for one scheduler watching one app,
// but the ROADMAP north star — heavy traffic from thousands of producers —
// needs a fan-in point: a hub that ingests beats from many concurrent
// Heartbeat producers and answers aggregate questions cheaply.
//
// Architecture:
//
//   shm pump ──ingest_batch──▶ shard[hash(app) % N]   (lock-striped)
//     (one apply per shard        │  each run's beats applied straight
//      per poll)                  │  to its app's sliding-window summary
//   beat/ingest ──────────────▶   │  (a one-beat run)
//                                 ▼  publish: immutable ShardSnapshot
//   snapshot() ◀── FleetSnapshot: every app's summary, one coherent view
//   summary(id) ◀── one app, publishing only its owning shard
//
// A read first runs the hub's feed (set_feed): with a pump installed, the
// reader drains the ring itself, so a beat is visible at the read rather
// than at the pump's next wake.
//
// Beats reach a shard as AppRuns: one app's AppId and its consecutive
// timestamps, all the hub reads of a beat. A shard applies a run's beats
// to that app's state in order, taking the app's slot and prefetch once
// per run.
//
// Determinism: all timestamps flow through the hub's util::Clock, shard
// assignment uses a fixed FNV-1a hash (not std::hash), and every beat is
// applied before its ingest call returns — so a single-threaded driver
// under a ManualClock gets bit-identical summaries on every run (the
// LabOps-style CI-testable simulation discipline).
#pragma once

#include <atomic>
#include <cstdint>
#include <functional>
#include <limits>
#include <memory>
#include <span>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "core/record.hpp"
#include "hub/shard.hpp"
#include "hub/snapshot.hpp"
#include "hub/summary.hpp"
#include "util/clock.hpp"
#include "util/mutex.hpp"
#include "util/thread_annotations.hpp"

namespace hb::obs {
class FlightRecorder;
}

namespace hb::hub {

/// Reserved app name the hub registers for itself when
/// HubOptions::self_beat is on. The "__" prefix keeps it out of any
/// user namespace. Ring names are untrusted and may hold any bytes, this
/// one included, so ShmIngestPump drops ring records under it: no
/// producer can beat for the hub.
inline constexpr std::string_view kSelfAppName = "__hub/self";

struct HubOptions {
  /// Lock stripes; clamped to >= 1. Sizing rule of thumb: ~1-2x the
  /// expected number of concurrently beating producers.
  std::size_t shard_count = 8;
  /// Sliding-window size per app, in beats: clamped to >= 2; above
  /// kMaxWindowCapacity (65535) the constructor throws
  /// std::invalid_argument.
  std::size_t window_capacity = 256;
  /// Auto-evict apps whose staleness exceeds this bound (dead producers
  /// drop their window memory; a new beat revives them). 0 = never.
  util::TimeNs evict_after_ns = 0;
  /// Self-telemetry: register the hub itself as app kSelfAppName and beat
  /// it through the ordinary ingest path once per fleet-snapshot rebuild
  /// and once per explicit flush(). The hub then shows up in its own
  /// FleetReport, so a stalled publish loop surfaces as *staleness* — the
  /// exact failure signal the detector already understands — instead of
  /// silence. Off by default: a self app changes app counts and makes
  /// every snapshot a rebuild (the self beat dirties its shard), which
  /// single-purpose embedders and the snapshot-cache benches do not want.
  bool self_beat = false;
  /// Timestamp source for beat(), staleness stamping, and auto-eviction;
  /// null selects the process monotonic clock.
  std::shared_ptr<util::Clock> clock;
};

/// The sharded many-producer aggregation point. Thread-safety: every
/// method is safe to call concurrently from any thread; ingestion contends
/// only on the owning shard's stripe lock, registration additionally on
/// the name table. All timestamps are nanoseconds on the hub clock's
/// epoch (HubOptions::clock; producers feeding pre-stamped records must
/// share that epoch — same-host ShmIngestPump producers do, via
/// CLOCK_MONOTONIC).
class HeartbeatHub {
 public:
  explicit HeartbeatHub(HubOptions opts = {});

  HeartbeatHub(const HeartbeatHub&) = delete;
  HeartbeatHub& operator=(const HeartbeatHub&) = delete;

  /// Register an application by name. Idempotent: re-registering a name
  /// returns the existing id (the target is left unchanged). Thread-safe.
  AppId register_app(const std::string& name,
                     core::TargetRate target = core::TargetRate{
                         0.0, std::numeric_limits<double>::infinity()})
      HB_EXCLUDES(names_mu_);

  /// Id of a registered app, or nullopt-like: throws std::out_of_range if
  /// unknown. Use register_app for get-or-create semantics.
  AppId id_of(const std::string& name) const HB_EXCLUDES(names_mu_);

  /// Shard an app name routes to (exposed for tests and the bench).
  std::uint32_t shard_of(const std::string& name) const;

  /// Ingest one beat stamped `timestamp_ns`: a one-beat run.
  /// Thread-safe; contends only on the owning shard's stripe lock.
  void ingest(AppId id, util::TimeNs timestamp_ns);

  /// Ingest pre-stamped runs of beats for any registered apps — the hub's
  /// one apply path (the shm ingest pump, registry replays, ingest, beat).
  /// Each stretch of consecutive runs on one shard is applied straight to
  /// app state under one shard-lock acquire; pass the runs grouped by
  /// shard to pay one acquire per shard, and one app's consecutive beats
  /// as one run. Runs apply in span order, each run's beats in its order.
  /// A beat stamped past the hub clock applies at the clock's reading.
  /// Throws std::out_of_range, before applying a stretch, if an id in it
  /// did not come from this hub. Thread-safe.
  void ingest_batch(std::span<const AppRun> runs);

  /// Producer convenience: stamp "now" on the hub clock and ingest.
  /// Thread-safe. A beat on an evicted app revives it.
  void beat(AppId id);

  /// Update a registered app's target range in beats/second (observers see
  /// it in summaries). Thread-safe.
  void set_target(AppId id, core::TargetRate target);

  /// Drop an app's window state and exclude it from live-only sweeps
  /// (total_beats survives; the name stays registered).
  /// Any later beat revives it. Also applied automatically at flush once
  /// staleness exceeds HubOptions::evict_after_ns.
  void evict(AppId id);

  /// Run the feed, then publish every shard — re-stamp staleness, apply
  /// auto-eviction — without composing a fleet snapshot, then self-beat.
  /// snapshot() and summary() publish implicitly.
  void flush() HB_EXCLUDES(feed_mu_);

  /// The read side: a coherent, epoch-stamped view of the whole fleet.
  /// Runs the feed (set_feed), so the view holds every beat its ring had
  /// committed at the call. Publishes every shard first, then returns
  /// the cached FleetSnapshot if no shard's epoch advanced — repeated
  /// queries between flushes are pointer reads — or composes and caches a
  /// new one. Thread-safe; the returned snapshot is immutable and shared.
  std::shared_ptr<const FleetSnapshot> snapshot()
      HB_EXCLUDES(snap_mu_, feed_mu_);

  /// One app's windowed summary, after running the feed and publishing
  /// only its OWNING shard — a per-app poller never forces the rest of
  /// the fleet to republish. Worst case per call is that one shard's
  /// republish (O(apps/shard)) plus the feed; hot polling loops over many
  /// apps should read the fleet once via snapshot() instead.
  /// Evicted apps still answer. Throws std::out_of_range for an id that
  /// did not come from this hub. Thread-safe.
  AppSummary summary(AppId id) HB_EXCLUDES(feed_mu_);

  /// Install the hub's one feed: a call that flush(), snapshot() and
  /// summary() make on their caller's thread before they publish, so a
  /// read sees what its source holds at the call instead of what a
  /// background loop last moved. ShmIngestPump installs its drain here in
  /// its constructor and removes it in its destructor. An empty `feed`
  /// removes the installed one, returning once a feed call in progress
  /// has ended; installing over an installed feed throws
  /// std::logic_error. Thread-safe; must not be called from the feed.
  void set_feed(std::function<void()> feed) HB_EXCLUDES(feed_mu_);

  /// Cache effectiveness counters for snapshot() (rebuilds vs hits).
  SnapshotStats snapshot_stats() const HB_EXCLUDES(snap_mu_);

  /// Attach the fleet-history plane: every fleet-snapshot REBUILD (not
  /// cache hit) calls recorder->note_publish() — a wait-free tick, safe
  /// on the publish path. Pass nullptr to detach. Thread-safe.
  void set_flight_recorder(std::shared_ptr<obs::FlightRecorder> recorder)
      HB_EXCLUDES(snap_mu_);

  /// True when this hub was built with HubOptions::self_beat.
  bool self_beat_enabled() const { return has_self_; }
  /// The hub's own app id (kSelfAppName). Throws std::logic_error unless
  /// HubOptions::self_beat was set.
  AppId self_app_id() const;
  /// Test/chaos hook: suspend (or resume) the self heartbeat without
  /// touching the rest of the pipeline. While paused, snapshot rebuilds
  /// and flushes stop beating kSelfAppName, so its staleness grows exactly
  /// as if the publish loop had stalled. Thread-safe; no-op when self_beat
  /// is off.
  void set_self_beat_paused(bool paused) {
    // relaxed: independent on/off flag; no data is published through it,
    // and a publish racing the flip harmlessly beats one extra time.
    self_beat_paused_.store(paused, std::memory_order_relaxed);
  }

  /// Number of lock stripes (fixed at construction). Thread-safe.
  std::size_t shard_count() const { return shards_.size(); }
  /// Registered apps, evicted ones included (eviction drops window state,
  /// not the registration). Thread-safe; takes the name-table lock.
  std::size_t app_count() const HB_EXCLUDES(names_mu_);
  /// The normalized construction options (clock always non-null).
  const HubOptions& options() const { return opts_; }
  /// The hub's timestamp source — the epoch every staleness_ns and
  /// evict_after_ns comparison lives on.
  const std::shared_ptr<util::Clock>& clock() const { return opts_.clock; }

  /// One lock stripe, for per-shard stats() and publish(). Bounds-checked:
  /// an AppId from a different hub throws instead of indexing wild.
  HubShard& shard(std::size_t i) { return *shards_.at(i); }

 private:
  /// Beat kSelfAppName unless self_beat is off or paused. Must be called
  /// with snap_mu_ NOT held (it funnels into shard ingest).
  void maybe_self_beat() HB_EXCLUDES(snap_mu_);
  /// Call the feed, if one is installed.
  void run_feed() HB_EXCLUDES(feed_mu_);

  HubOptions opts_;
  std::vector<std::unique_ptr<HubShard>> shards_;

  /// Self-heartbeat state (HubOptions::self_beat). self_id_/has_self_ are
  /// set once in the constructor and immutable after.
  AppId self_id_ = 0;
  bool has_self_ = false;
  std::atomic<bool> self_beat_paused_{false};

  /// Held through each feed call, so removing the feed waits it out.
  /// Taken before any other hub lock (the feed ingests and registers).
  util::Mutex feed_mu_;
  std::function<void()> feed_ HB_GUARDED_BY(feed_mu_);

  mutable util::Mutex names_mu_;
  std::unordered_map<std::string, AppId> names_ HB_GUARDED_BY(names_mu_);

  /// The fleet-level snapshot cache. Guards the composed pointer and the
  /// stats; composition itself is O(shard_count) so holding the lock
  /// through it costs readers less than racing duplicate compositions.
  mutable util::Mutex snap_mu_;
  std::shared_ptr<const FleetSnapshot> fleet_snap_ HB_GUARDED_BY(snap_mu_);
  SnapshotStats snap_stats_ HB_GUARDED_BY(snap_mu_);
  std::shared_ptr<obs::FlightRecorder> recorder_ HB_GUARDED_BY(snap_mu_);
};

/// Stable 64-bit FNV-1a (shard routing must not depend on the C++ runtime's
/// std::hash, which may differ across libstdc++ versions).
constexpr std::uint64_t fnv1a64(std::string_view s) {
  std::uint64_t h = 14695981039346656037ULL;
  for (const char c : s) {
    h ^= static_cast<unsigned char>(c);
    h *= 1099511628211ULL;
  }
  return h;
}

}  // namespace hb::hub
