// Shared harness for the external-scheduler benches (Figures 5, 6, 7).
//
// Runs a workload on the simulated 8-core machine under the heartbeat-driven
// CoreScheduler and prints the series the paper plots: per beat, the
// windowed heart rate, the target band, and the current core allocation.
#pragma once

#include <cstdio>
#include <memory>

#include "control/step_controller.hpp"
#include "core/memory_store.hpp"
#include "core/reader.hpp"
#include "sched/core_scheduler.hpp"
#include "sim/machine.hpp"
#include "sim/workload.hpp"
#include "util/clock.hpp"

namespace hb::bench {

struct SchedSeriesOptions {
  double target_min = 0.0;
  double target_max = 0.0;
  std::uint32_t sched_window = 10;   ///< window the controller sees
  std::uint32_t plot_window = 20;    ///< window of the printed series
  int controller_cooldown = 4;
  double dt_seconds = 0.02;
  double max_seconds = 3600.0;
};

inline void run_sched_series(const sim::WorkloadSpec& workload,
                             const SchedSeriesOptions& opts) {
  auto clock = std::make_shared<util::ManualClock>();
  sim::Machine machine(8, clock);
  auto store = std::make_shared<core::MemoryStore>(4096, 20);
  auto channel = std::make_shared<core::Channel>(store, clock);
  channel->set_target(opts.target_min, opts.target_max);
  const int app = machine.add_app(workload, channel);

  sched::CoreScheduler scheduler(
      core::HeartbeatReader(store, clock),
      std::make_shared<control::StepController>(control::StepControllerOptions{
          .patience = 1, .cooldown = opts.controller_cooldown}),
      [&](int cores) { machine.set_allocation(app, cores); },
      {.min_cores = 1, .max_cores = 8, .window = opts.sched_window,
       .warmup_beats = 3});

  core::HeartbeatReader plot_reader(store, clock);
  std::printf("beat,heart_rate_bps,target_min,target_max,cores\n");
  std::uint64_t printed = 0;
  while (!machine.app(app).finished() &&
         machine.now_seconds() < opts.max_seconds) {
    machine.step(opts.dt_seconds);
    scheduler.poll();
    const std::uint64_t beats = machine.app(app).beats_emitted();
    if (beats > printed) {
      printed = beats;
      std::printf("%llu,%.3f,%.2f,%.2f,%d\n",
                  static_cast<unsigned long long>(beats),
                  plot_reader.current_rate(opts.plot_window), opts.target_min,
                  opts.target_max, scheduler.allocation());
    }
  }
  std::fprintf(stderr, "beats=%llu decisions=%llu actions=%llu final_cores=%d\n",
               static_cast<unsigned long long>(printed),
               static_cast<unsigned long long>(scheduler.decisions()),
               static_cast<unsigned long long>(scheduler.actions()),
               scheduler.allocation());
}

}  // namespace hb::bench
