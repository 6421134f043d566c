// HubShard: one lock stripe of the heartbeat aggregation hub.
//
// A shard owns a subset of the registered apps (assigned by name hash) and
// keeps its state behind two locks:
//
//   APPLY and PUBLISH (state_mu_): ingest_batch applies runs straight
//   to app state, in order, under one acquisition — the shm pump's
//   per-poll share of this shard, a registry replay, or the one-beat run
//   of an in-process ingest() or beat(). Publishing (time maintenance,
//   summary refresh and snapshot construction) runs under the same lock
//   and ends in a swap of an immutable, epoch-stamped ShardSnapshot
//   (shared_ptr). A snapshot stays immutable while anyone holds it; when
//   its last holder lets go, its deleter returns the buffer to the shard's
//   small spare pool, and the next publish overwrites it in place instead
//   of allocating one and copying every name again.
//
//   SNAPSHOT (snap_mu_): readers grab the published pointer under this
//   trivially short lock and never hold any shard lock across summary
//   copies.
//
// Window statistics are maintained per beat, so a publish does O(1) work
// per changed app. Each app holds a util::BeatWindow, the one window step
// the reader side (fault::summarize) shares: a beat is pushed with its
// stamp lowered to the clock and raised to the window's newest, the exact
// moments of its intervals follow, and a refresh reads the rate, mean and
// stddev off them (their exact sum is the monotone window's span). A run
// (one app's consecutive beats) is applied beat by beat, in order. The
// shard keeps nothing that no reader reads: no interval bounds,
// percentiles or rollups.
//
// Per-app layout. An app keeps only what a reader reads: 4 bytes per
// windowed beat plus one 192-byte AppState, three cache lines (1.2 KB in
// all at the default window of 256 beats):
//   * the window: a ring of 32-bit beat intervals, written by apply and
//     read by nobody else (a push reads the one interval it retires, in
//     the slot it then overwrites), its newest beat (the summary's
//     last_beat_ns, kept across eviction as the staleness basis) and its
//     exact moments. An interval of 2^32 ns (about 4.29 s) or more widens
//     the ring to 64-bit slots, 8 bytes per windowed beat, until the next
//     eviction;
//   * the cached summary a refresh derives from them.
// The fields a beat's apply touches fit in the app's first two cache lines,
// and the beat reads and writes one window slot besides; the rest hold the
// target, the registration time and the cached summary.
// Names live in a per-shard column beside the apps. A publish reads each
// app's three lines, and a name only for a slot its buffer lacks, and
// assembles the AppSummary from them: it touches no window line.
//
// Apply and publish each walk many apps whose state was last written on
// another CPU, so both prefetch ahead: apply fetches the first lines of
// the app eight runs ahead and, four runs ahead, the window slot that
// run's first beat reads and writes (read off the ring head those lines
// hold);
// publish fetches the whole app four slots ahead.
//
// A publish that finds nothing new (no beats applied, no dirty targets or
// evictions, clock unmoved since the last publish) republishes nothing:
// the epoch stands still and fleet-level caches keep serving pointer
// reads. This is what makes repeated snapshot grabs between flushes
// nearly free (bench/snapshot_query).
#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <span>
#include <string>
#include <type_traits>
#include <vector>

#include "core/record.hpp"
#include "hub/snapshot.hpp"
#include "hub/summary.hpp"
#include "util/clock.hpp"
#include "util/beat_window.hpp"
#include "util/mutex.hpp"
#include "util/thread_annotations.hpp"

namespace hb::hub {

/// Largest sliding window, in beats. It bounds what one app's window may
/// cost the hub: 4 bytes per windowed beat, 256 KB at the cap, and twice
/// that while an interval of 2^32 ns or more widens it.
inline constexpr std::size_t kMaxWindowCapacity = 65535;

/// Sizing knobs a shard needs (subset of HubOptions, kept separately so the
/// shard does not depend on the hub header).
struct ShardConfig {
  /// Sliding-window beats per app, in [2, kMaxWindowCapacity] (a window
  /// of one beat spans no interval); the shard constructor throws
  /// std::invalid_argument outside that range.
  std::size_t window_capacity = 256;
  /// Auto-evict an app whose staleness exceeds this bound (checked at
  /// publish). 0 = never auto-evict.
  util::TimeNs evict_after_ns = 0;
  /// Clock for registration and staleness stamping and auto-eviction.
  /// Required: the shard constructor throws std::invalid_argument on null
  /// (HeartbeatHub defaults it to the monotonic clock).
  std::shared_ptr<util::Clock> clock;
};

class HubShard {
 public:
  HubShard(std::uint32_t index, ShardConfig config);

  HubShard(const HubShard&) = delete;
  HubShard& operator=(const HubShard&) = delete;

  /// Add an app to this shard; returns its slot. Thread-safe.
  std::uint32_t add_app(std::string name, core::TargetRate target)
      HB_EXCLUDES(state_mu_);

  std::uint32_t index() const { return index_; }

  /// Apply runs addressed to this shard's apps straight to app state, in
  /// order, under one state_mu_ acquisition. Throws std::out_of_range,
  /// before applying anything, if a run's slot is not registered here.
  /// Every run's app_id_shard must be index().
  void ingest_batch(std::span<const AppRun> runs) HB_EXCLUDES(state_mu_);

  void set_target(std::uint32_t slot, core::TargetRate target)
      HB_EXCLUDES(state_mu_);

  /// Drop an app's window state and mark it evicted until it beats again
  /// (total_beats survives). Idempotent.
  void evict(std::uint32_t slot) HB_EXCLUDES(state_mu_);

  /// Run time maintenance and (re)publish the shard snapshot if anything
  /// changed — including any clock movement, which re-stamps staleness.
  /// Returns the current snapshot — the one true read entry point. Never
  /// null.
  std::shared_ptr<const ShardSnapshot> publish()
      HB_EXCLUDES(state_mu_, snap_mu_);

  /// The last published snapshot without forcing a publish (may be null
  /// before the first publish). Lock held only for the pointer grab.
  std::shared_ptr<const ShardSnapshot> published() const HB_EXCLUDES(snap_mu_);

  ShardStats stats() const HB_EXCLUDES(state_mu_);

 private:
  /// Cache-line aligned, so the fields apply touches (total_beats through
  /// window) span exactly the app's first two lines.
  struct alignas(64) AppState {
    std::uint64_t total_beats = 0;
    bool evicted = false;
    bool dirty = false;  ///< applied to since the last refresh
    util::BeatWindow window;
    // End of the fields apply touches.
    core::TargetRate target;
    /// Registration time on the hub clock: the staleness baseline until the
    /// first beat. Without it a freshly registered app under the monotonic
    /// clock (epoch = boot) would read as stale for the whole uptime and be
    /// instantly auto-evicted / classified dead.
    util::TimeNs born_ns = 0;
    /// What a refresh derives from the window.
    util::WindowSummary summary;

    explicit AppState(const ShardConfig& config)
        : window(config.window_capacity) {}
  };
  /// Bytes of an app that apply touches: prefetch_app_locked fetches
  /// exactly these.
  static constexpr std::size_t kApplyBytes = 128;
  static_assert(std::is_standard_layout_v<AppState>);
  static_assert(offsetof(AppState, window) + sizeof(util::BeatWindow) <=
                    kApplyBytes,
                "the fields apply touches fit the app's first two lines");
  static_assert(sizeof(AppState) <= 192, "an app's state fits 3 lines");

  /// Apply `runs` in order, prefetching each run's app a fixed number of
  /// runs ahead.
  void apply_runs_locked(std::span<const AppRun> runs) HB_REQUIRES(state_mu_);
  /// Prefetch the lines apply_locked touches first: the app's leading
  /// kApplyBytes, total_beats through window.
  void prefetch_app_locked(std::uint32_t slot) const HB_REQUIRES(state_mu_);
  void apply_locked(std::uint32_t slot, util::TimeNs timestamp_ns)
      HB_REQUIRES(state_mu_);
  /// Throws out_of_range unless `slot` is registered here.
  void check_slot_locked(std::uint32_t slot) const HB_REQUIRES(state_mu_);
  /// Per-app time maintenance: auto-evict past evict_after_ns. Returns the
  /// app's staleness at `now`.
  util::TimeNs maintain_locked(AppState& app, util::TimeNs now)
      HB_REQUIRES(state_mu_);
  void evict_locked(AppState& app) HB_REQUIRES(state_mu_);
  /// Build the next ShardSnapshot from current app state and swap it in:
  /// per app, time maintenance, an O(1) refresh if it changed, and a
  /// summary assembled from the app's state. The buffer is a spare one
  /// when the pool has it: each summary is overwritten in place, and only
  /// slots past its old size copy a name. Caller holds state_mu_; the swap
  /// itself takes snap_mu_ only.
  void rebuild_snapshot_locked(util::TimeNs now)
      HB_REQUIRES(state_mu_) HB_EXCLUDES(snap_mu_);

  const std::uint32_t index_;
  const ShardConfig config_;

  /// Guards apps_, names_, ingested_, flushes_, epoch_, state_dirty_.
  /// Lock order: state_mu_ before snap_mu_ (never the reverse) — declared
  /// below so -Wthread-safety-beta enforces it.
  mutable util::Mutex state_mu_;
  std::vector<AppState> apps_ HB_GUARDED_BY(state_mu_);
  /// Registration names, parallel to apps_: only a publish reads them.
  std::vector<std::string> names_ HB_GUARDED_BY(state_mu_);
  std::uint64_t ingested_ HB_GUARDED_BY(state_mu_) = 0;  ///< beats applied
  std::uint64_t flushes_ HB_GUARDED_BY(state_mu_) = 0;
  std::uint64_t epoch_ HB_GUARDED_BY(state_mu_) = 0;
  /// Set by every apply and by add_app/set_target/evict: the next publish
  /// must rebuild even if no beats arrive and the clock stands still.
  bool state_dirty_ HB_GUARDED_BY(state_mu_) = false;

  /// Published-pointer swap/read only; never held across any copy.
  mutable util::Mutex snap_mu_ HB_ACQUIRED_AFTER(state_mu_);
  std::shared_ptr<const ShardSnapshot> snap_ HB_GUARDED_BY(snap_mu_);

  /// Spare snapshot buffers (shard.cpp), shared with every snapshot's
  /// deleter: rebuild_snapshot_locked takes one before it allocates.
  class SnapshotPool;
  const std::shared_ptr<SnapshotPool> pool_;
};

}  // namespace hb::hub
