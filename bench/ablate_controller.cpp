// Ablation B: controller policy for the external scheduler.
//
// The paper's scheduler is a one-core-at-a-time step policy. This ablation
// runs the Figure 5 (bodytrack) scenario under:
//   * step            — the paper's policy, no damping
//   * step+cooldown   — step with post-action cooldown (our default)
//   * step+patience   — step requiring 3 consecutive violations
//   * pi              — proportional-integral control
// and reports: beats spent inside the target band (%), scheduler actions
// (allocation changes), and mean core usage — the "minimum resources while
// meeting the goal" tradeoff (Section 5.3).
#include <cstdio>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "control/pi_controller.hpp"
#include "control/step_controller.hpp"
#include "core/memory_store.hpp"
#include "core/reader.hpp"
#include "sched/core_scheduler.hpp"
#include "sim/machine.hpp"
#include "sim/workloads.hpp"
#include "util/clock.hpp"
#include "util/stats.hpp"

namespace {

using ControllerFactory =
    std::function<std::shared_ptr<hb::control::Controller>()>;

struct Result {
  double in_band_pct = 0.0;
  std::uint64_t actions = 0;
  double mean_cores = 0.0;
};

Result run(const ControllerFactory& make_controller) {
  namespace wl = hb::sim::workloads;
  auto clock = std::make_shared<hb::util::ManualClock>();
  hb::sim::Machine machine(8, clock);
  auto store = std::make_shared<hb::core::MemoryStore>(4096, 20);
  auto channel = std::make_shared<hb::core::Channel>(store, clock);
  channel->set_target(wl::kBodytrackTargetMin, wl::kBodytrackTargetMax);
  const int app = machine.add_app(wl::bodytrack_like(), channel);

  hb::sched::CoreScheduler scheduler(
      hb::core::HeartbeatReader(store, clock), make_controller(),
      [&](int cores) { machine.set_allocation(app, cores); },
      {.min_cores = 1, .max_cores = 8, .window = 10, .warmup_beats = 3});

  hb::core::HeartbeatReader reader(store, clock);
  std::uint64_t printed = 0, in_band = 0;
  hb::util::RunningStats cores;
  while (!machine.app(app).finished() && machine.now_seconds() < 3600.0) {
    machine.step(0.02);
    scheduler.poll();
    const std::uint64_t beats = machine.app(app).beats_emitted();
    if (beats <= printed) continue;
    printed = beats;
    const double rate = reader.current_rate(10);
    if (rate >= wl::kBodytrackTargetMin && rate <= wl::kBodytrackTargetMax) {
      ++in_band;
    }
    cores.add(scheduler.allocation());
  }
  Result r;
  r.in_band_pct = printed ? 100.0 * static_cast<double>(in_band) /
                                static_cast<double>(printed)
                          : 0.0;
  r.actions = scheduler.actions();
  r.mean_cores = cores.mean();
  return r;
}

}  // namespace

int main() {
  using hb::control::PiController;
  using hb::control::PiControllerOptions;
  using hb::control::StepController;
  using hb::control::StepControllerOptions;

  const std::vector<std::pair<std::string, ControllerFactory>> policies = {
      {"step", [] { return std::make_shared<StepController>(); }},
      {"step+cooldown4",
       [] {
         return std::make_shared<StepController>(
             StepControllerOptions{.patience = 1, .cooldown = 4});
       }},
      {"step+patience3",
       [] {
         return std::make_shared<StepController>(
             StepControllerOptions{.patience = 3, .cooldown = 0});
       }},
      {"pi",
       [] {
         return std::make_shared<PiController>(
             PiControllerOptions{.kp = 2.0, .ki = 0.3});
       }},
  };

  std::printf("policy,beats_in_band_pct,actions,mean_cores\n");
  for (const auto& [name, factory] : policies) {
    const Result r = run(factory);
    std::printf("%s,%.1f,%llu,%.2f\n", name.c_str(), r.in_band_pct,
                static_cast<unsigned long long>(r.actions), r.mean_cores);
  }
  return 0;
}
