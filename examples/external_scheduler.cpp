// external_scheduler: the paper's Section 5.3 demo as a runnable example.
//
// A bodytrack-shaped application runs on a simulated 8-core machine and
// registers a 2.5-3.5 beats/s goal. An external scheduler — which sees
// nothing but the heartbeat channel — grows and shrinks the application's
// core allocation to hold the goal with minimal resources. Prints one CSV
// row per beat: beat, heart rate, cores.
//
//   ./examples/external_scheduler
#include <cstdio>
#include <memory>

#include "control/step_controller.hpp"
#include "core/memory_store.hpp"
#include "core/reader.hpp"
#include "sched/core_scheduler.hpp"
#include "sim/machine.hpp"
#include "sim/workloads.hpp"
#include "util/clock.hpp"

int main() {
  namespace wl = hb::sim::workloads;
  auto clock = std::make_shared<hb::util::ManualClock>();
  hb::sim::Machine machine(8, clock);

  // The application: beats through a real heartbeat channel and registers
  // its goal so the external observer can read it (Figure 1b).
  auto store = std::make_shared<hb::core::MemoryStore>(4096, 20);
  auto channel = std::make_shared<hb::core::Channel>(store, clock);
  channel->set_target(wl::kBodytrackTargetMin, wl::kBodytrackTargetMax);
  const int app = machine.add_app(wl::bodytrack_like(), channel);

  // The observer: reader + step controller + actuator.
  hb::sched::CoreScheduler scheduler(
      hb::core::HeartbeatReader(store, clock),
      std::make_shared<hb::control::StepController>(
          hb::control::StepControllerOptions{.patience = 1, .cooldown = 4}),
      [&](int cores) { machine.set_allocation(app, cores); },
      // Window 10: long enough to smooth noise, short enough that the ramp
      // does not overshoot past the 7-core solution on stale readings.
      {.min_cores = 1, .max_cores = 8, .window = 10, .warmup_beats = 3});

  std::printf("beat,heart_rate_bps,cores,target_min,target_max\n");
  std::uint64_t printed = 0;
  while (!machine.app(app).finished() && machine.now_seconds() < 600.0) {
    machine.step(0.02);
    scheduler.poll();
    const std::uint64_t beats = machine.app(app).beats_emitted();
    if (beats > printed) {
      printed = beats;
      std::printf("%llu,%.3f,%d,%.1f,%.1f\n",
                  static_cast<unsigned long long>(beats),
                  scheduler.reader().current_rate(20), scheduler.allocation(),
                  wl::kBodytrackTargetMin, wl::kBodytrackTargetMax);
    }
  }
  std::fprintf(stderr,
               "done: %llu beats, %llu scheduler decisions, %llu actions, "
               "final allocation %d core(s)\n",
               static_cast<unsigned long long>(printed),
               static_cast<unsigned long long>(scheduler.decisions()),
               static_cast<unsigned long long>(scheduler.actions()),
               scheduler.allocation());
  return 0;
}
