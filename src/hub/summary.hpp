// Summary types published by the heartbeat aggregation hub.
//
// The hub's contract with consumers (schedulers, fault detectors, cloud
// managers) is a set of plain-value snapshots of per-app windowed
// summaries: rate, target and liveness, plus the window's exact interval
// mean and stddev — the three signals an observer judges an app by (heart
// rate, silence, jitter; paper Section 2.6). A summary carries only what
// some reader reads. Observers get copies, never references into shard
// state, so a snapshot stays coherent while shards keep ingesting. Fleet
// totals are a walk over the summaries (FleetSnapshot::for_each_app).
#pragma once

#include <cstdint>
#include <span>
#include <string>

#include "core/record.hpp"
#include "util/time.hpp"

namespace hb::hub {

/// Opaque routing handle: identifies a registered app and the shard that
/// owns it. Obtained from HeartbeatHub::register_app.
using AppId = std::uint64_t;

/// AppId packs (shard, slot) so ingestion routes in O(1), no name lookup.
constexpr AppId make_app_id(std::uint32_t shard, std::uint32_t slot) {
  return (static_cast<AppId>(shard) << 32) | slot;
}
constexpr std::uint32_t app_id_shard(AppId id) {
  return static_cast<std::uint32_t>(id >> 32);
}
constexpr std::uint32_t app_id_slot(AppId id) {
  return static_cast<std::uint32_t>(id & 0xffffffffu);
}

/// One app's consecutive beats, oldest first: the unit of bulk ingest
/// (HeartbeatHub::ingest_batch). It carries only what the hub reads of a
/// beat, its timestamp, and borrows them: the span is read only during the
/// call that takes the run.
struct AppRun {
  AppId id = 0;
  std::span<const util::TimeNs> timestamps;
};

/// One application's sliding-window summary, as of its last batch flush.
/// "Latency" throughout is the inter-beat interval in nanoseconds — the
/// paper's heart-rate signal seen from the other side.
struct AppSummary {
  std::string name;  ///< registration name (the app key)
  AppId id = 0;      ///< routing handle, valid for this hub only

  std::uint64_t total_beats = 0;   ///< beats ever ingested for this app
  std::uint64_t window_beats = 0;  ///< beats inside the sliding window
  double rate_bps = 0.0;           ///< windowed rate, core (n-1)/span rule
  util::TimeNs last_beat_ns = 0;   ///< timestamp of the newest beat (0: none)
  /// Hub-clock nanoseconds since the newest beat, stamped at the owning
  /// shard's last flush (every view query forces one, so it is current at
  /// query time). An app that never beat measures from its registration
  /// time — "silent since it appeared". The fleet-wide liveness signal
  /// (paper, Section 2.6).
  util::TimeNs staleness_ns = 0;
  /// True once the app was evicted (explicitly or past evict_after_ns).
  /// Evicted apps keep total_beats but drop all window state, and are
  /// skipped by live-only sweeps until a new beat revives them.
  bool evicted = false;
  core::TargetRate target;         ///< registered goal, as in the paper

  double interval_mean_ns = 0.0;       ///< exact, over the window
  double interval_stddev_ns = 0.0;     ///< exact, over the window (jitter)
};

/// Per-shard ingestion counters (observability for the bench and tests).
struct ShardStats {
  std::uint32_t shard = 0;
  std::uint64_t apps = 0;
  std::uint64_t ingested = 0;  ///< raw beats applied
  std::uint64_t flushes = 0;   ///< applies: ingest_batch runs on this shard
  std::uint64_t epoch = 0;     ///< published ShardSnapshot epoch (0: none yet)
};

}  // namespace hb::hub
