// The event vocabulary of the autonomic remediation layer.
//
// fault::FleetDetector answers "what state is every app in RIGHT NOW" —
// a level signal, re-asserted by every sweep. Acting on levels repeats
// every action once per sweep (restart the same dead VM forever, page the
// same operator every two seconds). The policy layer therefore speaks in
// EDGES: a FleetEvent exists only when something changed between two
// successive FleetReports — an app crossed a verdict boundary, a failure
// domain lost several apps in one sweep, a flapping app entered or left
// quarantine. Sinks (policy/action_sink.hpp) consume these events exactly
// once each.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "fault/fleet_detector.hpp"
#include "hub/summary.hpp"
#include "util/time.hpp"

namespace hb::policy {

enum class EventKind {
  /// One app's verdict changed between sweeps (from_health -> to_health).
  /// Never emitted for apps folded into a kCorrelatedFailure this sweep.
  kTransition,
  /// >= PolicyOptions::correlated_min_apps apps sharing one failure-domain
  /// group died in the SAME sweep: one event carries the whole group
  /// instead of N death transitions (a rack going dark is one incident).
  kCorrelatedFailure,
  /// An app crossed PolicyOptions::flap_threshold dead<->alive edges
  /// inside flap_window_ns: it is now quarantined (still reported, but
  /// acting sinks must stop auto-restarting it).
  kQuarantine,
  /// A quarantined app stayed edge-free for quarantine_cooldown_ns: it is
  /// trusted again and eligible for automatic action.
  kQuarantineLifted,
};

const char* to_string(EventKind kind);

/// One edge-triggered fleet event. A single struct for every kind (sinks
/// switch on `kind`); fields irrelevant to a kind are value-initialized.
struct FleetEvent {
  EventKind kind = EventKind::kTransition;
  util::TimeNs at_ns = 0;  ///< the sweep's FleetHealth::swept_at_ns

  // kTransition / kQuarantine / kQuarantineLifted: the one app concerned.
  std::string app;
  hub::AppId id = 0;
  fault::Health from_health = fault::Health::kWarmingUp;  ///< kTransition only
  fault::Health to_health = fault::Health::kWarmingUp;    ///< kTransition only
  /// True when the app is under flap quarantine as of this sweep. Acting
  /// sinks (CloudRestartSink) skip quarantined apps; reporting sinks print
  /// them anyway — quarantine suppresses remediation, never visibility.
  bool quarantined = false;

  // kCorrelatedFailure: the failure-domain group and its newly dead apps.
  std::string group;               ///< shared name prefix (the "rack" tag)
  std::vector<std::string> apps;   ///< members that died this sweep
  std::vector<hub::AppId> app_ids; ///< parallel to `apps`
};

/// Render one event as the standard single-line operator form, e.g.
///   [12.000s] transition vm-3: healthy -> dead
///   [12.000s] correlated-failure rack2: 40 apps dead (rack2/vm-80 ...)
/// (the format hbmon fleet --watch streams and LogSink prints).
/// `base_ns` is subtracted from the stamp first: event times live on the
/// sweep clock's epoch, which for a real fleet is the raw monotonic clock
/// (machine uptime) — pass the loop's start time to print run-relative
/// seconds an operator can correlate with logs. 0 keeps the epoch as-is
/// (ManualClock sims already start near 0).
std::string to_line(const FleetEvent& event, util::TimeNs base_ns = 0);

}  // namespace hb::policy
