// Heartbeat-based failure detection: one verdict rule, two sources.
//
// Paper, Section 2.6: "A lack of heartbeats from a particular node would
// indicate that it has failed, and slow or erratic heartbeats could indicate
// that a machine is about to fail." FleetDetector turns those facts into a
// Health verdict with ONE rule, classify(AppSummary): staleness against the
// windowed mean interval (dead), windowed rate against the registered
// target (slow), and the interval coefficient of variation (erratic) —
// no knowledge of the application.
//
// At fleet scale (thousands of VMs feeding one hub) sweep() judges every
// registered app from one HeartbeatHub::snapshot() — one publish per
// shard, no per-app queries. A single producer watched through its
// HeartbeatReader goes through the same rule: summarize(reader) sums up
// the reader's recent beats the way a hub shard would, and
// classify(reader) judges that summary.
#pragma once

#include <cstdint>
#include <cstdio>
#include <string>
#include <vector>

#include "core/reader.hpp"
#include "hub/snapshot.hpp"
#include "hub/summary.hpp"
#include "util/time.hpp"

namespace hb::fault {

enum class Health {
  kWarmingUp,  ///< too few beats to judge
  kHealthy,    ///< beating on time and meeting its target
  kSlow,       ///< beating, but below its registered minimum rate
  kErratic,    ///< beating at rate, but with anomalous interval jitter
  kDead,       ///< beats stopped (staleness way beyond the expected interval)
};

const char* to_string(Health h);

/// Erratic when the interval coefficient of variation (stddev / mean)
/// exceeds this. Steady producers sit near 0; an alternating fast/stalled
/// pattern approaches 1.
inline constexpr double kJitterFactor = 0.8;

struct FleetDetectorOptions {
  /// Dead when staleness exceeds this multiple of the windowed mean
  /// inter-beat interval.
  double staleness_factor = 8.0;
  /// Lifetime beats required before any verdict other than warming-up/dead.
  std::uint64_t min_beats = 4;
  /// Absolute staleness bound (ns) that marks death in any state — the only
  /// bound that can fire for apps that never beat, or whose beats all share
  /// one tick (zero mean interval). 0 disables.
  util::TimeNs absolute_staleness_ns = 0;
  /// Transport allowance (ns) subtracted from observed staleness before any
  /// staleness verdict. For hubs fed across a process boundary (the shm
  /// ingest pump) a beat is only as fresh as the last drain: observed
  /// staleness includes the pump's delivery lag plus the producer's batch
  /// hold, on top of the cross-process clock-sampling skew of the shared
  /// CLOCK_MONOTONIC epoch. Set to roughly that lag +
  /// ShmHubSinkOptions::max_hold_ns so transport lag is never read as
  /// death. 0 (the default) is correct for in-process ingestion.
  util::TimeNs staleness_slack_ns = 0;
};

/// One app's verdict plus the summary facts that produced it.
struct AppHealth {
  std::string name;                    ///< hub registration name
  hub::AppId id = 0;                   ///< hub routing handle
  Health health = Health::kWarmingUp;  ///< kWarmingUp: too little evidence yet
  util::TimeNs staleness_ns = 0;  ///< ns since last beat, NOT slack-discounted
  std::uint64_t total_beats = 0;  ///< lifetime beats (survives eviction)
  double rate_bps = 0.0;          ///< windowed rate, beats/second
  core::TargetRate target;        ///< registered goal band, beats/second
};

/// Cluster-wide health rollup from one sweep.
struct FleetHealth {
  std::uint64_t apps = 0;  ///< apps swept, hub-evicted ones included
  std::uint64_t warming_up = 0;
  std::uint64_t healthy = 0;
  std::uint64_t slow = 0;
  std::uint64_t erratic = 0;
  std::uint64_t dead = 0;      ///< includes evicted apps (confirmed deaths)
  std::uint64_t evicted = 0;   ///< the subset of dead the hub evicted
  util::TimeNs swept_at_ns = 0;  ///< hub-clock time of the sweep

  std::vector<std::string> dead_apps;  ///< names, sweep order
};

/// Everything one sweep produced: per-app verdicts (hub shard order, the
/// FleetSnapshot::for_each_app order — deterministic for a fixed
/// registration order; sort by name yourself for display) and the fleet
/// rollup.
struct FleetReport {
  std::vector<AppHealth> apps;
  FleetHealth fleet;
  /// Epoch of the FleetSnapshot this report was derived from
  /// (FleetSnapshot::epoch). Every verdict in one report comes from this
  /// single epoch — no per-shard tearing. Monotone non-decreasing across
  /// successive sweeps of one hub; 0 for reports fabricated without a
  /// snapshot (hand-built tests).
  std::uint64_t snapshot_epoch = 0;
};

/// Render a sweep as the standard operator verdict table: one row per app
/// sorted by name, then the fleet rollup line and the dead list. The ONE
/// table format every fleet surface prints (hbmon fleet, hbmon fleet
/// --live, examples), so the modes stay comparable by eye. Returns 0 when
/// the fleet has no dead apps, 3 otherwise — the hbmon exit-code contract
/// (docs/OPERATIONS.md).
int print_fleet_report(std::FILE* out, const FleetReport& report);

/// One producer's recent beats as a hub shard would summarize them: its
/// last 16 beats folded through a util::BeatWindow, the hub's window step
/// (a backward stamp raised to the newest beat), which gives the window's
/// beats, (n-1)/span rate, and the mean and population stddev of its
/// intervals. Staleness is the reader's. Name and id stay empty: a reader
/// knows neither. A stamp past the clock is not lowered, as a hub does.
hub::AppSummary summarize(const core::HeartbeatReader& reader);

/// Stateless verdict math over hub summaries. Thread-safe: sweep() and
/// classify() are const and share nothing mutable, so one detector may
/// serve concurrent sweepers.
class FleetDetector {
 public:
  explicit FleetDetector(FleetDetectorOptions opts = {}) : opts_(opts) {}

  /// Classify every registered app from one coherent FleetSnapshot: pure
  /// math over the snapshot's summaries, no hub locks held. Every verdict
  /// in the report observes the SAME epoch (report.snapshot_epoch) — a
  /// concurrent flush cannot tear the sweep across windows.
  FleetReport sweep(const std::shared_ptr<const hub::FleetSnapshot>& snap)
      const;

  /// Verdict for a single app from its hub summary alone (no hub access).
  Health classify(const hub::AppSummary& summary) const;

  /// Verdict for one producer observed through its reader:
  /// classify(summarize(reader)) — every option applies,
  /// staleness_slack_ns included.
  Health classify(const core::HeartbeatReader& reader) const;

 private:
  FleetDetectorOptions opts_;
};

}  // namespace hb::fault
