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
// Observation: each app is watched through its own HeartbeatReader (the
// paper's one-observer-per-channel shape, Figure 1b): every poll reads its
// windowed rate, beat count and target, and a default FleetDetector's
// classify(reader) verdict: a dead app never receives and donates first
// ("a lack of heartbeats ... would indicate that it has failed", §2.6).
#pragma once

#include <functional>
#include <vector>

#include "core/reader.hpp"
#include "fault/fleet_detector.hpp"

namespace hb::sched {

struct GlobalSchedulerOptions {
  int total_cores = 8;
  int min_cores_per_app = 1;
  /// Rate window used for decisions; 0 = each app's default window.
  std::uint32_t window = 0;
  /// Beats an app must have produced before it participates in decisions.
  std::uint64_t warmup_beats = 3;
};

class GlobalScheduler {
 public:
  using Actuator = std::function<void(int cores)>;

  /// Normalized deficit below which an app is not considered needy
  /// (hysteresis against window noise).
  static constexpr double kDeficitDeadband = 0.02;
  /// Polls skipped after every reallocation: the moving averages still
  /// reflect pre-move beats, and acting on them causes the classic
  /// give-take oscillation. Sized to the observation window.
  static constexpr int kCooldownPolls = 10;

  explicit GlobalScheduler(GlobalSchedulerOptions opts = {});

  /// Register an application observed through its own reader. Initial
  /// allocation is min_cores_per_app (actuated immediately). Returns the
  /// app's index.
  int add_app(core::HeartbeatReader reader, Actuator actuator);

  /// Observe all apps, perform at most one reallocation. Returns true if an
  /// allocation changed.
  bool poll();

  int allocation(int app) const;
  int free_cores() const;
  std::uint64_t moves() const { return moves_; }

 private:
  struct App {
    core::HeartbeatReader reader;
    Actuator actuator;
    int alloc = 0;
  };

  /// What one poll knows about one app.
  struct Snapshot {
    double rate = 0.0;
    std::uint64_t beats = 0;
    core::TargetRate target;
    bool dead = false;  ///< the detector's verdict is kDead
  };

  /// Gather all snapshots, one reader query each.
  std::vector<Snapshot> observe() const;

  /// Normalized target error: negative = deficient (below min), positive =
  /// surplus (above max), 0 in band. NaN-safe.
  static double normalized_error(const Snapshot& snap);

  static constexpr int kFreePool = -1;  ///< the app index of the free pool
  /// The one reallocation step: move a core between two apps or the free
  /// pool, actuate, count the move and start the cooldown. Returns true.
  bool move_core(int from, int to);

  GlobalSchedulerOptions opts_;
  fault::FleetDetector detector_;
  std::vector<App> apps_;
  std::uint64_t moves_ = 0;
  int cooldown_left_ = 0;
};

}  // namespace hb::sched
