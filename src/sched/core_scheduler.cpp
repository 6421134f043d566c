#include "sched/core_scheduler.hpp"

#include <cassert>

namespace hb::sched {

CoreScheduler::CoreScheduler(core::HeartbeatReader reader,
                             std::shared_ptr<control::Controller> controller,
                             Actuator actuator, CoreSchedulerOptions opts)
    : reader_(std::move(reader)),
      controller_(std::move(controller)),
      actuator_(std::move(actuator)),
      opts_(opts),
      allocation_(opts.min_cores) {
  assert(controller_ && actuator_);
  if (opts_.max_cores < opts_.min_cores) opts_.max_cores = opts_.min_cores;
  actuator_(allocation_);
}

bool CoreScheduler::poll() {
  const std::uint64_t beats = reader_.count();
  if (beats < opts_.warmup_beats) return false;
  if (beats <= last_decision_count_) return false;
  last_decision_count_ = beats;

  last_rate_ = reader_.current_rate(opts_.window);
  const core::TargetRate target = reader_.target();
  ++decisions_;
  const int next = controller_->decide(last_rate_, target, allocation_,
                                       opts_.min_cores, opts_.max_cores);
  if (next == allocation_) return false;
  allocation_ = next;
  ++actions_;
  actuator_(allocation_);
  return true;
}

}  // namespace hb::sched
