// Summary types published by the heartbeat aggregation hub.
//
// The hub's contract with consumers (schedulers, fault detectors, cloud
// managers) is a set of plain-value snapshots: per-app windowed summaries,
// per-tag rollups, and a cluster-wide rollup. Observers get copies, never
// references into shard state, so a snapshot stays coherent while shards
// keep ingesting.
#pragma once

#include <array>
#include <cstdint>
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

/// A record addressed to a registered app: the unit of bulk ingest
/// (HeartbeatHub::ingest_batch).
struct AppRecord {
  AppId id = 0;
  core::HeartbeatRecord rec;
};

/// One application's sliding-window summary, as of its last batch flush.
/// "Latency" throughout is the inter-beat interval in nanoseconds — the
/// paper's heart-rate signal seen from the other side.
struct AppSummary {
  std::string name;         ///< registration name (the app key)
  AppId id = 0;             ///< routing handle, valid for this hub only
  std::uint32_t shard = 0;  ///< owning lock stripe (== app_id_shard(id))

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
  /// excluded from cluster/tag rollups until a new beat revives them.
  bool evicted = false;
  core::TargetRate target;         ///< registered goal, as in the paper

  std::uint64_t interval_min_ns = 0;   ///< exact, over the window
  std::uint64_t interval_max_ns = 0;   ///< exact, over the window
  double interval_mean_ns = 0.0;
  double interval_stddev_ns = 0.0;     ///< exact, over the window (jitter)
  std::uint64_t interval_p50_ns = 0;   ///< histogram bucket (<= 12.5% error)
  std::uint64_t interval_p95_ns = 0;
  std::uint64_t interval_p99_ns = 0;
};

/// The interval percentiles AppSummary and ClusterSummary carry (p50, p95,
/// p99), ascending — the order LatencyHistogram::percentiles() walks.
inline constexpr std::array<double, 3> kIntervalPercentiles{50.0, 95.0, 99.0};

/// Rollup of one tag value across every app's sliding window (frame types,
/// phase ids, shard-wide progress markers — paper, Section 3).
struct TagSummary {
  std::uint64_t tag = 0;    ///< the application-chosen tag value
  std::uint64_t beats = 0;  ///< windowed beats carrying this tag
  std::uint32_t apps = 0;   ///< distinct apps that emitted it
};

/// Cluster-wide rollup across all live (non-evicted) apps. An app needs at
/// least two windowed beats to have a measurable rate; apps below that are
/// counted as warming_up and contribute to neither meeting_target nor
/// deficient.
struct ClusterSummary {
  std::uint64_t apps = 0;
  std::uint64_t total_beats = 0;      ///< sum of per-app total_beats
  std::uint64_t window_beats = 0;     ///< sum of per-app window_beats
  double aggregate_rate_bps = 0.0;    ///< sum of per-app windowed rates
  std::uint64_t meeting_target = 0;   ///< apps whose rate is inside their band
  std::uint64_t deficient = 0;        ///< measurable apps below their min
  std::uint64_t warming_up = 0;       ///< apps with < 2 windowed beats
  std::uint64_t evicted = 0;          ///< evicted apps (excluded from `apps`)
  util::TimeNs last_beat_ns = 0;      ///< newest beat cluster-wide

  /// Inter-beat interval distribution merged across all apps' windows.
  std::uint64_t interval_min_ns = 0;
  std::uint64_t interval_max_ns = 0;
  std::uint64_t interval_p50_ns = 0;
  std::uint64_t interval_p95_ns = 0;
  std::uint64_t interval_p99_ns = 0;
};

/// Per-shard ingestion counters (observability for the bench and tests).
struct ShardStats {
  std::uint32_t shard = 0;
  std::uint64_t apps = 0;
  std::uint64_t ingested = 0;  ///< raw beats taken in (batch or bulk)
  /// Applies: batch drains (overflow or query-forced) and bulk ingests.
  std::uint64_t flushes = 0;
  std::uint64_t pending = 0;   ///< raw beats currently buffered
  std::uint64_t epoch = 0;     ///< published ShardSnapshot epoch (0: none yet)
};

}  // namespace hb::hub
