// HubShard: one lock stripe of the heartbeat aggregation hub.
//
// A shard owns a subset of the registered apps (assigned by name hash) and
// keeps its state behind three locks:
//
//   INGEST (ingest_mu_): in-process producers (ingest, beat) pay a mutex
//   acquire plus a push onto the shard's one pending buffer. The producer
//   whose push leaves kIngestBatch or more beats pending takes state_mu_,
//   swaps the buffer for an empty one under ingest_mu_ (O(1)), and applies
//   it; other producers keep pushing meanwhile. Swaps happen only under
//   state_mu_, so buffers apply in the order they filled.
//
//   BULK apply (ingest_batch): the shm pump's per-poll share of this shard
//   or a registry replay applies under one state_mu_ acquisition, after
//   whatever was pending, through the same apply routine.
//
//   PUBLISH (state_mu_): applying pending beats, time maintenance, summary
//   refresh and snapshot construction, ending in a swap of an immutable,
//   epoch-stamped ShardSnapshot (shared_ptr). Readers grab the pointer
//   under a third, trivially short lock (snap_mu_) and never hold any
//   shard lock across summary copies.
//
// Window statistics are maintained per beat, so a publish does O(1) work
// per changed app. Applying a beat updates the app's exact integer sum
// and sum of squares, and its min and max with a count of their copies. A
// refresh then reads those off, and rescans the window only when the last
// copy of the min or max has left it.
//
// Per-app layout. An app keeps only what a publish reads: 8 bytes per
// windowed beat plus one AppState (384 bytes; 2.4 KB in all at the
// default window of 256 beats):
//   * the window: a ring of beat timestamps;
//   * no stored intervals: a window's intervals are its consecutive
//     timestamp pairs, so the interval a push retires is derived from the
//     two oldest beats, and a min/max rescan walks the pairs;
//   * the exact moments and the min/max copy counts.
// The fields a beat's apply touches come first and fill the app's first
// three cache lines; the target, the registration time and the cached
// summary follow.
//
// Apply and publish each walk many apps whose state was last written on
// another CPU, so both prefetch ahead: apply fetches the app a fixed
// number of records ahead in two stages (its first lines, then the
// window ends those lines point at), and publish fetches the whole app
// four slots ahead.
//
// A publish that finds nothing new (no pending beats, no dirty targets or
// evictions, clock unmoved since the last publish) republishes nothing:
// the epoch stands still and fleet-level caches keep serving pointer
// reads. This is what makes repeated snapshot grabs between flushes
// nearly free (bench/snapshot_query).
#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "core/record.hpp"
#include "hub/snapshot.hpp"
#include "hub/summary.hpp"
#include "util/clock.hpp"
#include "util/exact_moments.hpp"
#include "util/mutex.hpp"
#include "util/ring_buffer.hpp"
#include "util/thread_annotations.hpp"

namespace hb::hub {

/// Largest sliding window, in beats. It bounds what one app may cost the
/// hub: 8 bytes per windowed beat (512 KB at the cap), and the walk over
/// its window that a refresh pays when the last copy of its interval min
/// or max has left it.
inline constexpr std::size_t kMaxWindowCapacity = 65535;

/// In-process beats a shard buffers before the producer that fills the
/// buffer applies it. Reads always apply what is pending first.
inline constexpr std::size_t kIngestBatch = 64;

/// Sizing knobs a shard needs (subset of HubOptions, kept separately so the
/// shard does not depend on the hub header).
struct ShardConfig {
  /// Sliding-window beats per app, in [2, kMaxWindowCapacity] (a window
  /// of one beat spans no interval); the shard constructor throws
  /// std::invalid_argument outside that range.
  std::size_t window_capacity = 256;
  std::uint32_t rate_window = 0;      ///< beats for rate; 0 = whole window
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
  std::size_t app_count() const {
    return app_count_.load(std::memory_order_acquire);
  }

  /// Append one raw beat to the pending buffer. The call that leaves
  /// kIngestBatch or more beats pending applies them to app state off the
  /// ingest lock, so concurrent producers keep appending meanwhile.
  void enqueue(std::uint32_t slot, const core::HeartbeatRecord& rec)
      HB_EXCLUDES(ingest_mu_, state_mu_);

  /// Apply records addressed to this shard's apps straight to app state,
  /// in order, under one state_mu_ acquisition. Pending enqueued beats are
  /// applied first, so arrival order holds across both paths. Throws
  /// std::out_of_range, before applying anything, if a record's slot is
  /// not registered here. Every record's app_id_shard must be index().
  void ingest_batch(std::span<const AppRecord> recs)
      HB_EXCLUDES(ingest_mu_, state_mu_);

  void set_target(std::uint32_t slot, core::TargetRate target)
      HB_EXCLUDES(state_mu_);

  /// Drop an app's window state and mark it evicted until it beats again
  /// (total_beats survives). Idempotent.
  void evict(std::uint32_t slot) HB_EXCLUDES(state_mu_);

  /// Apply all pending beats, run time maintenance, and (re)publish the
  /// shard snapshot if anything changed — including any clock movement,
  /// which re-stamps staleness. Returns the current snapshot — the one
  /// true read entry point. Never null.
  std::shared_ptr<const ShardSnapshot> publish()
      HB_EXCLUDES(state_mu_, ingest_mu_, snap_mu_);

  /// The last published snapshot without forcing a publish (may be null
  /// before the first publish). Lock held only for the pointer grab.
  std::shared_ptr<const ShardSnapshot> published() const HB_EXCLUDES(snap_mu_);

  ShardStats stats() const HB_EXCLUDES(state_mu_, ingest_mu_);

 private:
  /// Cache-line aligned, so the fields apply touches (total_beats through
  /// max_copies) span exactly the app's first three lines.
  struct alignas(64) AppState {
    std::uint64_t total_beats = 0;
    util::TimeNs last_beat_ns = 0;  ///< survives eviction (staleness basis)
    util::RingBuffer<util::TimeNs> window;  ///< beat timestamps
    bool evicted = false;
    bool dirty = false;
    /// Views of exactly the window's intervals:
    util::ExactMoments moments;  ///< mean, stddev
    /// Lower / upper bound of every windowed interval, and how many copies
    /// of it the window holds. A count of 0 means the last copy left the
    /// window: the bound is stale until the next refresh rescans.
    std::uint64_t min = 0, max = 0;
    std::size_t min_copies = 0, max_copies = 0;
    // End of the fields apply touches.
    core::TargetRate target;
    /// Registration time on the hub clock: the staleness baseline until the
    /// first beat. Without it a freshly registered app under the monotonic
    /// clock (epoch = boot) would read as stale for the whole uptime and be
    /// instantly auto-evicted / classified dead.
    util::TimeNs born_ns = 0;
    AppSummary cached;  ///< holds the registration name

    explicit AppState(const ShardConfig& config)
        : window(config.window_capacity) {}
  };
  static_assert(sizeof(AppState) <= 384, "an app's inline state fits 6 lines");

  /// Swap out every pending enqueued beat and apply it. ingest_mu_ is held
  /// only for the O(1) swap.
  void apply_pending_locked() HB_REQUIRES(state_mu_) HB_EXCLUDES(ingest_mu_);
  /// apply_run_locked plus the counters and the dirty mark of one apply.
  void apply_records_locked(std::span<const AppRecord> recs)
      HB_REQUIRES(state_mu_);
  /// Apply `recs` in order, prefetching each app a fixed distance ahead.
  void apply_run_locked(std::span<const AppRecord> recs) HB_REQUIRES(state_mu_);
  /// Prefetch the lines apply_locked touches first: the app's leading
  /// fields up to and including max_copies.
  void prefetch_app_locked(std::uint32_t slot) const HB_REQUIRES(state_mu_);
  /// Prefetch what the app's leading fields point at: the window's newest
  /// and oldest beats. Reads those leading fields, so it runs after
  /// prefetch_app_locked has brought them in.
  void prefetch_window_ends_locked(std::uint32_t slot) const
      HB_REQUIRES(state_mu_);
  void apply_locked(std::uint32_t slot, const core::HeartbeatRecord& rec)
      HB_REQUIRES(state_mu_);
  /// Count one new windowed interval in the app's window statistics.
  void add_interval_locked(AppState& app, std::uint64_t interval)
      HB_REQUIRES(state_mu_);
  /// Uncount the interval between the window's two oldest beats, which the
  /// next push retires.
  void retire_oldest_interval_locked(AppState& app) HB_REQUIRES(state_mu_);
  void refresh_locked(AppState& app) HB_REQUIRES(state_mu_);
  void check_slot(std::uint32_t slot) const;  ///< throws out_of_range
  /// Per-app time maintenance: stamp staleness, auto-evict past
  /// evict_after_ns.
  void maintain_locked(AppState& app, util::TimeNs now) HB_REQUIRES(state_mu_);
  void evict_locked(AppState& app) HB_REQUIRES(state_mu_);
  /// Build the next ShardSnapshot from current app state and swap it in:
  /// per app, time maintenance, an O(1) refresh if it changed, and the
  /// summary copy. Caller holds state_mu_; the swap itself takes snap_mu_
  /// only.
  void rebuild_snapshot_locked(util::TimeNs now)
      HB_REQUIRES(state_mu_) HB_EXCLUDES(snap_mu_);

  const std::uint32_t index_;
  const ShardConfig config_;

  /// PUBLISH stage. Guards apps_, applying_, applied_, flushes_, epoch_,
  /// state_dirty_.
  /// Lock order: state_mu_ before ingest_mu_ and before snap_mu_ (never
  /// the reverse) — declared below so -Wthread-safety-beta enforces it.
  mutable util::Mutex state_mu_;
  std::vector<AppState> apps_ HB_GUARDED_BY(state_mu_);
  /// The buffer apply_pending_locked swaps in for batch_ and applies; empty
  /// between applies. Both buffers keep their capacity across swaps.
  std::vector<AppRecord> applying_ HB_GUARDED_BY(state_mu_);
  std::uint64_t applied_ HB_GUARDED_BY(state_mu_) = 0;  ///< beats applied
  std::uint64_t flushes_ HB_GUARDED_BY(state_mu_) = 0;
  std::uint64_t epoch_ HB_GUARDED_BY(state_mu_) = 0;
  /// Set by every apply and by add_app/set_target/evict: the next publish
  /// must rebuild even if no records arrive and the clock stands still.
  bool state_dirty_ HB_GUARDED_BY(state_mu_) = false;

  /// INGEST stage. Guards batch_, the only thing producers touch on the
  /// hot path.
  mutable util::Mutex ingest_mu_ HB_ACQUIRED_AFTER(state_mu_);
  std::vector<AppRecord> batch_ HB_GUARDED_BY(ingest_mu_);  ///< pending

  /// Slot-validity bound for the lock-free enqueue check (slots are
  /// append-only, so a stale read only ever under-approximates).
  std::atomic<std::size_t> app_count_{0};

  /// Published-pointer swap/read only; never held across any copy.
  mutable util::Mutex snap_mu_ HB_ACQUIRED_AFTER(state_mu_);
  std::shared_ptr<const ShardSnapshot> snap_ HB_GUARDED_BY(snap_mu_);
};

}  // namespace hb::hub
