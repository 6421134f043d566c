// PostmortemSink: anomaly-triggered incident capture.
//
// The FlightRecorder keeps bounded history; this sink decides when a
// moment of that history is worth freezing. Registered on a PolicyEngine
// after the recorder's own event_sink, it watches the event stream for
// incident edges — a death transition, a quarantine, a correlated
// failure — and on a trigger (at most one capture per
// kPostmortemCooldownNs, kPostmortemMaxBundles in all) writes a
// SELF-CONTAINED JSON bundle under its directory:
//
//   - the trigger event (kind, subject, standard to_line rendering),
//   - the triggering FleetReport's rollup + per-app summaries for the
//     implicated apps (FlightRecorder::last_report — the report whose
//     dispatch is running right now),
//   - the timeline slice covering the lookback window before the trigger,
//   - the events buffered since the last frame cut (the trigger's own
//     sweep, not yet framed),
//   - in live mode, the recent TraceRing spans, a MetricsSnapshot and a
//     wall-clock stamp (off for deterministic scenario captures),
//   - the recorder's stats footer.
//
// Bundles are written atomically (temp file + rename in the same
// directory) so a reader never observes a half bundle, and named
// deterministically (pm-<seq>-<kind>-<subject>.json) so a seeded scenario
// capture is byte-reproducible — tests/golden/postmortem_rack_kill.json
// pins the seed-42 rack_kill bundle, and docs/OPERATIONS.md "Reading a
// postmortem bundle" walks through triaging it.
//
// Threading: on_event runs on the PolicyEngine::observe thread, which the
// engine already requires to be externally serialized; the sink adds no
// locking of its own. File I/O happens on that thread — acceptable at the
// sweep cadence, and the cooldown keeps an event storm from turning the
// policy loop into a disk benchmark.
#pragma once

#include <cstdint>
#include <limits>
#include <memory>
#include <string>

#include "obs/flight_recorder.hpp"
#include "policy/action_sink.hpp"

namespace hb::obs {

/// Timeline window a bundle preserves before its trigger.
inline constexpr util::TimeNs kPostmortemLookbackNs = 120 * util::kNsPerSec;
/// Newest TraceRing spans a live bundle keeps.
inline constexpr std::size_t kPostmortemMaxSpans = 64;
/// Minimum spacing between captures. Triggers inside the window are
/// counted but not captured — one incident, one bundle, even when a rack
/// death folds into dozens of edges across a few sweeps.
inline constexpr util::TimeNs kPostmortemCooldownNs = 10 * util::kNsPerSec;
/// Lifetime capture budget of one sink. Keeps a crash-looping fleet from
/// filling the disk with identical bundles.
inline constexpr std::size_t kPostmortemMaxBundles = 16;

struct PostmortemOptions {
  /// Directory bundles land in (created on demand). Convention:
  /// $HB_DIR/postmortems — transport::Registry::default_dir() +
  /// "/postmortems" (hbmon wires exactly that).
  std::string dir;
  /// Live-fleet mode: include the recent TraceRing spans and a
  /// MetricsRegistry::global() snapshot, and stamp the bundle with the
  /// wall clock ("captured_wall_ns"). Off for deterministic captures: span
  /// timestamps are raw monotonic, not ManualClock, and none of the three
  /// flows from (spec, config, seed).
  bool live = false;
  /// Free-form provenance recorded in the bundle ("scenario rack_kill
  /// seed=42", "hbmon fleet --watch", ...).
  std::string source = "unknown";
};

struct PostmortemStats {
  std::uint64_t triggers = 0;             ///< events matching the trigger set
  std::uint64_t captured = 0;             ///< bundles written
  std::uint64_t suppressed_cooldown = 0;  ///< inside kPostmortemCooldownNs
  std::uint64_t suppressed_budget = 0;    ///< kPostmortemMaxBundles spent
  std::uint64_t write_failures = 0;       ///< filesystem said no
};

class PostmortemSink : public policy::ActionSink {
 public:
  /// The recorder is borrowed shared state: the same instance the hub and
  /// sweep loop feed. `opts.dir` must be non-empty.
  PostmortemSink(std::shared_ptr<FlightRecorder> recorder,
                 PostmortemOptions opts);

  void on_event(const policy::PolicyEngine& engine,
                const policy::FleetEvent& event) override;

  /// True for the event kinds that open an incident: kCorrelatedFailure,
  /// kQuarantine, and kTransition edges INTO Health::kDead. Revivals and
  /// quarantine lifts close incidents; they never trigger capture.
  static bool should_trigger(const policy::FleetEvent& event);

  const PostmortemStats& stats() const { return stats_; }
  /// Path of the most recent bundle ("" before the first capture).
  const std::string& last_bundle_path() const { return last_path_; }
  const PostmortemOptions& options() const { return opts_; }

 private:
  std::string render_bundle(const policy::FleetEvent& event,
                            std::uint64_t seq) const;
  bool write_atomically(const std::string& path,
                        const std::string& contents) const;

  std::shared_ptr<FlightRecorder> recorder_;
  PostmortemOptions opts_;
  PostmortemStats stats_;
  /// Only meaningful once stats_.captured > 0 (the cooldown check guards
  /// on that — subtracting the sentinel would wrap).
  util::TimeNs last_capture_at_ns_ = std::numeric_limits<util::TimeNs>::min();
  std::string last_path_;
};

/// The deterministic bundle id: "pm-<seq:03>-<kind>-<subject>", where
/// subject is the event's group (correlated failures) or app name with
/// '/' flattened to '_'. The bundle file is <id>.json in the sink's dir.
std::string postmortem_id(const policy::FleetEvent& event, std::uint64_t seq);

}  // namespace hb::obs
