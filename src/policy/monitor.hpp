// Monitor: the observer's one loop — read the beats, judge each app's
// health, act (paper §2.6). It owns the whole stack
//
//   [ShmIngestQueue → ShmIngestPump] → HeartbeatHub → FleetDetector::sweep
//     → FlightRecorder::record_report → PolicyEngine::observe → sinks
//
// and fixes, once, the two ordering rules postmortems depend on: each tick
// records its report BEFORE the engine observes it (a sink capturing
// mid-dispatch reads its trigger's report as recorder()->last_report()),
// and the recorder's event sink is the engine's FIRST sink (a capturing
// sink added later through engine().add_sink reads back every edge
// dispatched before it).
//
// In-process (CloudSim, benches), the caller feeds the hub and calls
// tick(). Ring-fed (hbmon, examples/fleet_live), the Monitor also owns a
// pump, and run() is the live loop. tick() and run() must be externally
// serialized, as PolicyEngine::observe is.
#pragma once

#include <atomic>
#include <functional>
#include <memory>

#include "fault/fleet_detector.hpp"
#include "hub/shm_pump.hpp"
#include "obs/flight_recorder.hpp"
#include "policy/policy_engine.hpp"
#include "util/time.hpp"

namespace hb::policy {

class Monitor {
 public:
  /// In-process: the caller feeds `hub` and calls tick().
  explicit Monitor(std::shared_ptr<hub::HeartbeatHub> hub,
                   fault::FleetDetectorOptions detector_opts = {},
                   PolicyOptions policy_opts = {});

  /// Ring-fed: also owns a pump draining `queue` into `hub`, for run().
  Monitor(std::shared_ptr<transport::ShmIngestQueue> queue,
          std::shared_ptr<hub::HeartbeatHub> hub,
          hub::ShmIngestPumpOptions pump_opts = {},
          fault::FleetDetectorOptions detector_opts = {},
          PolicyOptions policy_opts = {});

  Monitor(const Monitor&) = delete;
  Monitor& operator=(const Monitor&) = delete;

  /// One decide tick: snapshot → sweep → record_report → observe. Returns
  /// the swept report (also kept as last_report()).
  std::shared_ptr<const fault::FleetReport> tick();

  /// The live loop: poll the ring, tick() once per `period_ns` (then call
  /// `after_tick`, if set), and park on the ring's doorbell until the next
  /// tick or the deadline. Missed ticks are skipped, not burst-replayed —
  /// each tick reads current state. Stops after `run_ns` (<= 0: never) or
  /// once `*stop` reads true, then ticks one final time — its snapshot
  /// drains the ring — so last_report() reflects everything published.
  /// Throws std::logic_error on an in-process monitor,
  /// std::invalid_argument on a period <= 0.
  void run(util::TimeNs run_ns, util::TimeNs period_ns,
           const std::atomic<bool>* stop = nullptr,
           const std::function<void()>& after_tick = {});

  const std::shared_ptr<hub::HeartbeatHub>& hub() const { return hub_; }
  hub::ShmIngestPump* pump() const { return pump_.get(); }  ///< null in-process
  PolicyEngine& engine() { return engine_; }
  const std::shared_ptr<obs::FlightRecorder>& recorder() const {
    return recorder_;
  }
  const fault::FleetDetector& detector() const { return detector_; }
  /// The latest tick's report; null before the first tick.
  const std::shared_ptr<const fault::FleetReport>& last_report() const {
    return last_report_;
  }

 private:
  std::shared_ptr<hub::HeartbeatHub> hub_;
  std::unique_ptr<hub::ShmIngestPump> pump_;
  fault::FleetDetector detector_;
  std::shared_ptr<obs::FlightRecorder> recorder_;  ///< outlives engine_'s sink
  PolicyEngine engine_;
  std::shared_ptr<const fault::FleetReport> last_report_;
};

}  // namespace hb::policy
