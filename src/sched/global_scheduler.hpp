// GlobalScheduler: arbitrating cores among *multiple* heartbeat applications.
//
// Paper, Section 1: "When running multiple Heartbeat-enabled applications,
// it also allows system resources (such as cores, memory, and I/O bandwidth)
// to be reallocated to provide the best global outcome." And Section 2.4:
// an organic OS "would be able to automatically and dynamically adjust the
// number of cores an application uses based on an individual application's
// changing needs as well as the needs of other applications competing for
// resources."
//
// Policy (deficit-driven rebalancing): each poll computes every app's
// normalized target error. If a *deficient* app (rate below its registered
// min) exists, the scheduler takes one core from the most *generous* donor —
// an app above its max, or failing that the app with the largest headroom
// above its min — and gives it to the neediest app. Free cores are handed
// out before anyone is taxed. One move per poll keeps the loop observable
// and avoids thrash, mirroring the single-step policy of Section 5.3.
//
// Observation sources: each app is watched either through its own
// HeartbeatReader (the paper's one-observer-per-channel shape) or through a
// hub::HeartbeatHub. Hub-backed scheduling grabs ONE epoch-coherent
// FleetSnapshot per poll — every app's windowed rate, beat count, and
// target behind a single shared pointer — instead of polling channels one
// by one; polls between hub flushes reuse the cached snapshot outright,
// which is what makes thousands of registered apps affordable.
#pragma once

#include <functional>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "core/reader.hpp"
#include "fault/fleet_detector.hpp"

namespace hb::hub {
class HeartbeatHub;
}

namespace hb::sched {

struct GlobalSchedulerOptions {
  int total_cores = 8;
  int min_cores_per_app = 1;
  /// Rate window used for decisions; 0 = each app's default window.
  /// (Hub-backed apps always use the hub's configured rate window.)
  std::uint32_t window = 0;
  /// Beats an app must have produced before it participates in decisions.
  std::uint64_t warmup_beats = 3;
  /// Normalized deficit below which an app is not considered needy
  /// (hysteresis against window noise).
  double deficit_deadband = 0.02;
  /// Polls skipped after every reallocation: the moving averages still
  /// reflect pre-move beats, and acting on them causes the classic
  /// give-take oscillation. Sized to the observation window.
  int cooldown_polls = 10;
  /// When true, every poll classifies apps with the fleet detector's rules
  /// (fault_options) and skips dead apps when reallocating: a dead app is
  /// never a receiver, and its cores are reclaimed before any live app is
  /// taxed — "a lack of heartbeats ... would indicate that it has failed"
  /// (paper, Section 2.6). Hub-backed apps classify from the cluster
  /// snapshot, reader-backed apps from their reader — one FleetDetector,
  /// one rule.
  bool detect_failures = false;
  fault::FleetDetectorOptions fault_options{};
};

class GlobalScheduler {
 public:
  using Actuator = std::function<void(int cores)>;

  explicit GlobalScheduler(GlobalSchedulerOptions opts = {});

  /// Hub-backed scheduler: apps added by name are observed through `hub`'s
  /// fleet snapshot (one query per poll for all of them). Non-owning: `hub`
  /// must outlive the scheduler.
  GlobalScheduler(GlobalSchedulerOptions opts, hub::HeartbeatHub& hub);

  /// Register an application observed through its own reader. Initial
  /// allocation is min_cores_per_app (actuated immediately). Returns the
  /// app's index.
  int add_app(std::string name, core::HeartbeatReader reader,
              Actuator actuator);

  /// Register an application observed through the hub (hub-backed
  /// constructor only; throws std::logic_error otherwise). The name must be
  /// the one registered with the hub.
  int add_app(std::string name, Actuator actuator);

  /// Observe all apps, perform at most one reallocation. Returns true if an
  /// allocation changed.
  bool poll();

  int allocation(int app) const;
  const std::string& name(int app) const;
  std::size_t app_count() const { return apps_.size(); }
  int free_cores() const;
  std::uint64_t moves() const { return moves_; }
  bool hub_backed() const { return hub_ != nullptr; }

 private:
  struct App {
    std::string name;
    /// Engaged for reader-observed apps; hub-backed apps read the snapshot.
    std::optional<core::HeartbeatReader> reader;
    Actuator actuator;
    int alloc = 0;
  };

  /// What one poll knows about one app, regardless of observation source.
  struct Snapshot {
    double rate = 0.0;
    std::uint64_t beats = 0;
    core::TargetRate target;
    bool dead = false;  ///< verdict under opts_.fault_options (if enabled)
  };

  int add_app_impl(App app);

  /// Gather all snapshots: per-reader queries, or one hub cluster view.
  std::vector<Snapshot> observe() const;

  /// Normalized target error: negative = deficient (below min), positive =
  /// surplus (above max), 0 in band. NaN-safe.
  static double normalized_error(const Snapshot& snap);

  GlobalSchedulerOptions opts_;
  hub::HeartbeatHub* hub_ = nullptr;
  std::vector<App> apps_;
  std::uint64_t moves_ = 0;
  int cooldown_left_ = 0;
};

}  // namespace hb::sched
