// The snapshot plane: publish-and-read decoupling of hub observers from
// the ingest hot path.
//
// Before this layer existed, every hub query (fleet sweep, single-app
// summary) forced a flush-and-copy UNDER each shard's stripe lock — three
// observers in the control loop (FleetDetector, PolicyEngine, hbmon) meant
// three full-fleet copies per tick, all contending directly with producer
// ingest. The snapshot plane inverts the
// flow:
//
//   ingest ──▶ HubShard ──publish──▶ ShardSnapshot (immutable, epoch N)
//                                        │ shared_ptr swap; readers only
//                                        ▼ ever grab the pointer
//   HeartbeatHub::snapshot() ──▶ FleetSnapshot (composed, cached)
//                                        │ rebuilt only when some shard's
//                                        ▼ epoch advanced
//   FleetDetector / PolicyEngine / hbmon
//
// Invariants:
//   * A ShardSnapshot is immutable while anyone holds it. Readers never
//     hold a shard lock across summary copies — they copy from the
//     snapshot. When its last holder lets go, its buffer returns to its
//     shard, and a later publish overwrites it in place (HubShard).
//   * Epochs are per-shard, monotone, and advance exactly when a rebuild
//     publishes new state (new beats applied, dirty targets/evictions, or
//     the clock moved at all, so staleness stamps catch up).
//   * A FleetSnapshot holds one ShardSnapshot pointer per shard, grabbed
//     once at composition: every app it reaches (find, for_each_app) is
//     from one coherent set of epochs — no app can be counted under two
//     different windows within one FleetSnapshot ("no torn sweeps").
//   * Repeated queries between flushes are pointer reads: same epochs ==
//     same FleetSnapshot object, byte-identical answers for free.
#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "hub/summary.hpp"
#include "util/time.hpp"

namespace hb::hub {

/// One shard's published state: every app's summary in slot order, evicted
/// apps included with their flag set. Handed out as shared_ptr<const> and
/// immutable while any copy of that pointer lives; its deleter then gives
/// the buffer back to the shard for reuse.
struct ShardSnapshot {
  /// Publish counter, starts at 1 for the first snapshot. Monotone: a
  /// reader that sees the same epoch twice may reuse everything it derived
  /// from the previous grab.
  std::uint64_t epoch = 0;
  /// Hub-clock stamp of the publish. staleness_ns inside `apps` is "as of
  /// this instant"; readers needing fresher staleness add (now - this).
  util::TimeNs published_at_ns = 0;

  /// Every registered app in slot order — evicted apps included (an
  /// eviction is a confirmed death, not a non-entity; fleet sweeps need
  /// it). Filter on AppSummary::evicted for live-only views.
  std::vector<AppSummary> apps;
};

/// Cache effectiveness counters for the snapshot plane (observability for
/// bench/snapshot_query and the regression tests).
struct SnapshotStats {
  std::uint64_t fleet_rebuilds = 0;  ///< FleetSnapshot compositions
  std::uint64_t fleet_hits = 0;      ///< snapshot() calls served from cache
};

/// A coherent whole-fleet view: one ShardSnapshot pointer per shard, all
/// grabbed in one composition pass. Immutable. Composing S shards costs
/// O(S), not O(apps).
///
/// Coherence guarantee: every app reachable from one FleetSnapshot derives
/// from the SAME set of shard epochs. A sweep iterating it can never see
/// app A under epoch N and app B (same shard) under epoch N+1.
class FleetSnapshot {
 public:
  /// Compose a fleet view from per-shard snapshots (one per shard, shard
  /// order). `now_ns` stamps composed_at_ns.
  static std::shared_ptr<const FleetSnapshot> compose(
      std::vector<std::shared_ptr<const ShardSnapshot>> parts,
      util::TimeNs now_ns);

  /// Sum of the per-shard epochs: monotone non-decreasing over time, and
  /// it changes iff at least one shard republished — the identity stamped
  /// onto FleetReport::snapshot_epoch.
  std::uint64_t epoch() const { return epoch_; }
  util::TimeNs composed_at_ns() const { return composed_at_ns_; }

  std::size_t shard_count() const { return shards_.size(); }
  const ShardSnapshot& shard(std::size_t i) const { return *shards_.at(i); }

  /// Registered apps in this snapshot (evicted ones included).
  std::size_t app_count() const { return app_count_; }

  /// The summary of one app by routing id, or nullptr when the id does not
  /// resolve inside this snapshot (foreign hub, or registered after the
  /// publish). O(1).
  const AppSummary* find(AppId id) const {
    const std::uint32_t shard = app_id_shard(id);
    const std::uint32_t slot = app_id_slot(id);
    if (shard >= shards_.size()) return nullptr;
    const auto& apps = shards_[shard]->apps;
    if (slot >= apps.size()) return nullptr;
    return &apps[slot];
  }

  /// Visit every app once, in shard-then-slot order (the deterministic
  /// sweep order). Evicted apps are skipped unless `include_evicted`.
  template <typename Fn>
  void for_each_app(Fn&& fn, bool include_evicted = false) const {
    for (const auto& shard : shards_) {
      for (const AppSummary& app : shard->apps) {
        if (include_evicted || !app.evicted) fn(app);
      }
    }
  }

 private:
  FleetSnapshot() = default;

  std::vector<std::shared_ptr<const ShardSnapshot>> shards_;
  std::uint64_t epoch_ = 0;
  util::TimeNs composed_at_ns_ = 0;
  std::size_t app_count_ = 0;
};

}  // namespace hb::hub
