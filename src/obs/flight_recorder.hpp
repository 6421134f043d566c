// FlightRecorder: the bounded fleet-history plane.
//
// The telemetry plane (obs/metrics.hpp, obs/trace.hpp) is live-only: a
// MetricsSnapshot or a TraceRing window describes the process NOW, and the
// moment an incident ends the evidence is gone. The paper's whole premise
// is that heartbeat telemetry lets an external observer reason about
// progress — this layer extends that reasoning backwards in time. The
// recorder continuously folds the fleet's observe-decide-act outputs into
// a bounded, time-indexed timeline:
//
//   hub snapshot rebuilds ──note_publish──▶ publish tick counters
//   detector sweeps ────────record_report─▶ frame cuts (rollup + epoch)
//   policy dispatch ────────record_event──▶ buffered into the next frame
//
// Frames are cut on the sweep cadence, subsampled to a fine interval
// (1 Hz) and retained for a fine window (5 min); frames aging out of the
// fine window decay into a coarse ring (one frame per minute, 240 frames)
// instead of vanishing — recent history is dense, old history is cheap,
// and total memory is bounded by construction. Any frame carrying
// FleetEvents is cut unconditionally: event edges are the history worth
// keeping, never subsampled away. The tiers are constants
// (kFineIntervalNs, kFineWindowNs, kCoarseIntervalNs, kMaxCoarseFrames):
// every recorder keeps the same history.
//
// Threading: note_publish is wait-free (one relaxed fetch_add) — safe on
// the hub's publish path. record_report / record_event / timeline take
// one short mutex over pointer/deque ops; they are meant for the sweep
// cadence (per policy period), not per beat.
// Frames are immutable once cut and handed out as shared_ptrs, so readers
// never block writers after the ring operation itself.
//
// Determinism: the recorder never reads a clock. Frame stamps come from
// FleetReport::fleet.swept_at_ns and retention is evaluated against the
// newest frame's stamp, so a ManualClock-driven ScenarioRunner produces a
// byte-reproducible timeline (the seed-42 goldens pin this).
//
// Kill switch: every record path is gated on obs::enabled() — freeze it
// at run time with env HB_OBS=0 / set_enabled(false) and the recorder is
// a true no-op (bench/recorder_overhead holds it to that).
#pragma once

#include <atomic>
#include <cstdint>
#include <deque>
#include <limits>
#include <memory>
#include <string>
#include <vector>

#include "fault/fleet_detector.hpp"
#include "obs/metrics.hpp"
#include "policy/action_sink.hpp"
#include "policy/events.hpp"
#include "util/mutex.hpp"
#include "util/thread_annotations.hpp"
#include "util/time.hpp"

namespace hb::obs {

/// One cut of fleet history: the rollup of the sweep that cut it, every
/// FleetEvent recorded since the previous cut, and the publish-tick state
/// at cut time. Immutable once published by the recorder.
struct TimelineFrame {
  std::uint64_t seq = 0;         ///< monotone frame number (0-based)
  util::TimeNs at_ns = 0;        ///< the cutting sweep's swept_at_ns
  std::uint64_t snapshot_epoch = 0;  ///< FleetReport::snapshot_epoch
  std::uint64_t publishes = 0;   ///< note_publish count at cut time
  fault::FleetHealth fleet;      ///< the cutting sweep's rollup
  /// Events recorded since the previous frame cut. Each carries its own
  /// at_ns (the emitting sweep's stamp), which may precede this frame's —
  /// events buffered after a cut ride in the NEXT frame.
  std::vector<policy::FleetEvent> events;
};

/// Minimum spacing between frames inside the fine window. Sweeps arriving
/// faster are folded into the last frame's successor (the rollup of the
/// skipped sweeps is simply superseded); a sweep with buffered events
/// always cuts regardless of spacing.
inline constexpr util::TimeNs kFineIntervalNs = util::kNsPerSec;
/// How far back the fine ring reaches from the newest frame.
inline constexpr util::TimeNs kFineWindowNs = 5 * 60 * util::kNsPerSec;
/// Spacing of frames demoted into the coarse ring when they age out of the
/// fine window (the "decaying to 1/min beyond" retention tier).
inline constexpr util::TimeNs kCoarseIntervalNs = 60 * util::kNsPerSec;
/// Bound on the coarse ring (oldest frames drop first): 4 h of
/// minute-grain history beyond the fine window.
inline constexpr std::size_t kMaxCoarseFrames = 240;

/// Counters for tests, hbmon footers, and postmortem bundles.
struct FlightRecorderStats {
  std::uint64_t frames_cut = 0;       ///< lifetime frames
  std::uint64_t frames_dropped = 0;   ///< aged out without coarse demotion
  std::uint64_t fine_frames = 0;      ///< currently retained, fine ring
  std::uint64_t coarse_frames = 0;    ///< currently retained, coarse ring
  std::uint64_t reports_recorded = 0; ///< record_report calls accepted
  std::uint64_t events_recorded = 0;  ///< record_event calls accepted
  std::uint64_t publishes_noted = 0;  ///< note_publish calls accepted
};

class FlightRecorder {
 public:
  FlightRecorder() = default;

  FlightRecorder(const FlightRecorder&) = delete;
  FlightRecorder& operator=(const FlightRecorder&) = delete;

  /// Hub publish tick: wait-free, called from HeartbeatHub::snapshot()
  /// on every fleet-snapshot rebuild.
  void note_publish();

  /// One detector sweep. May cut a TimelineFrame (see kFineIntervalNs);
  /// always retained as last_report() so a capture triggered mid-dispatch
  /// sees the report that produced the triggering event. The report is
  /// shared, not copied (4k AppHealth entries at fleet scale).
  void record_report(std::shared_ptr<const fault::FleetReport> report)
      HB_EXCLUDES(mu_);

  /// One policy event, buffered into the next frame cut. The buffering
  /// sweep's frame is forced regardless of kFineIntervalNs spacing.
  void record_event(const policy::FleetEvent& event) HB_EXCLUDES(mu_);

  /// An ActionSink adapter feeding record_event; policy::Monitor registers
  /// it as the engine's first sink, ahead of any capturing sink. Borrows
  /// this recorder: keep the recorder alive as long as the engine.
  std::shared_ptr<policy::ActionSink> event_sink();

  /// Retained frames with at_ns in [since_ns, until_ns], oldest first
  /// (coarse ring, then fine). Frames are immutable shared state.
  std::vector<std::shared_ptr<const TimelineFrame>> timeline(
      util::TimeNs since_ns = 0,
      util::TimeNs until_ns = std::numeric_limits<util::TimeNs>::max()) const
      HB_EXCLUDES(mu_);

  /// The most recent sweep's report (null before the first). During a
  /// PolicyEngine dispatch this is the report that emitted the events.
  std::shared_ptr<const fault::FleetReport> last_report() const
      HB_EXCLUDES(mu_);

  /// Events buffered since the last frame cut (a capture wants the edges
  /// that have not made it into a frame yet — the trigger's own sweep).
  std::vector<policy::FleetEvent> pending_events() const HB_EXCLUDES(mu_);

  FlightRecorderStats stats() const HB_EXCLUDES(mu_);

 private:
  void cut_frame_locked(const fault::FleetReport& report)
      HB_REQUIRES(mu_);
  void retire_locked() HB_REQUIRES(mu_);

  /// Publish ticks land here wait-free; frames copy them out relaxed.
  std::atomic<std::uint64_t> publishes_{0};

  mutable util::Mutex mu_;
  std::deque<std::shared_ptr<const TimelineFrame>> fine_ HB_GUARDED_BY(mu_);
  std::deque<std::shared_ptr<const TimelineFrame>> coarse_ HB_GUARDED_BY(mu_);
  std::vector<policy::FleetEvent> pending_ HB_GUARDED_BY(mu_);
  std::shared_ptr<const fault::FleetReport> last_report_ HB_GUARDED_BY(mu_);
  std::uint64_t frames_cut_ HB_GUARDED_BY(mu_) = 0;
  std::uint64_t frames_dropped_ HB_GUARDED_BY(mu_) = 0;
  std::uint64_t reports_recorded_ HB_GUARDED_BY(mu_) = 0;
  std::uint64_t events_recorded_ HB_GUARDED_BY(mu_) = 0;
};

/// Render frames as the standard operator timeline, one frame header per
/// line plus its event lines (policy::to_line form) indented beneath —
/// the `hbmon timeline` surface, also pinned by the seed-42 golden:
///   [18.800s] frame 17 epoch=42 publishes=38 apps=80 healthy=63 ... events=2
///     [18.800s] correlated-failure rack4: 16 apps dead (...)
/// `base_ns` is subtracted from every stamp first (see policy::to_line).
std::string render_timeline_text(
    const std::vector<std::shared_ptr<const TimelineFrame>>& frames,
    util::TimeNs base_ns = 0);

/// The same frames as a JSON array (integers and event-line strings only),
/// for `hbmon timeline --json`.
std::string render_timeline_json(
    const std::vector<std::shared_ptr<const TimelineFrame>>& frames,
    util::TimeNs base_ns = 0);

}  // namespace hb::obs
