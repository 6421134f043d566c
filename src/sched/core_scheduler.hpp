// CoreScheduler: the paper's external observer (Section 5.3).
//
// "The application communicates performance information and goals to an
// external observer which attempts to keep performance within the specified
// range using the minimum number of cores possible."
//
// The scheduler owns nothing application-specific: it reads a
// HeartbeatReader (any transport — in-process, shm from another process),
// asks a Controller for the next core count, and pushes it through an
// Actuator. On the simulated machine the actuator calls
// Machine::set_allocation; on a native host it can call the affinity helper
// (sched/affinity.hpp). The observe→decide→act loop is identical either way.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>

#include "control/controller.hpp"
#include "core/reader.hpp"

namespace hb::sched {

struct CoreSchedulerOptions {
  int min_cores = 1;
  int max_cores = 8;
  /// Window (in beats) for the rate the controller sees; 0 = app default.
  std::uint32_t window = 0;
  /// Skip decisions until the app has produced at least this many beats
  /// (a rate needs history to mean anything).
  std::uint64_t warmup_beats = 2;
};

class CoreScheduler {
 public:
  /// `actuator(cores)` applies an allocation; called once at construction
  /// with min_cores (the paper starts every benchmark on a single core).
  using Actuator = std::function<void(int)>;

  CoreScheduler(core::HeartbeatReader reader,
                std::shared_ptr<control::Controller> controller,
                Actuator actuator, CoreSchedulerOptions opts = {});

  /// Observe and possibly act. Call whenever new beats may have arrived
  /// (each sim tick, or on a polling interval in native mode). Decides only
  /// when a beat arrived since the last decision: the paper's schedulers
  /// react beat by beat. Returns true if the allocation changed.
  bool poll();

  int allocation() const { return allocation_; }
  std::uint64_t decisions() const { return decisions_; }
  std::uint64_t actions() const { return actions_; }
  double last_rate() const { return last_rate_; }
  const core::HeartbeatReader& reader() const { return reader_; }

 private:
  core::HeartbeatReader reader_;
  std::shared_ptr<control::Controller> controller_;
  Actuator actuator_;
  CoreSchedulerOptions opts_;
  int allocation_;
  std::uint64_t last_decision_count_ = 0;
  std::uint64_t decisions_ = 0;
  std::uint64_t actions_ = 0;
  double last_rate_ = 0.0;
};

}  // namespace hb::sched
