// Extension E (paper §2.6): heartbeat-driven cloud consolidation.
//
// "As long as their heart rates are meeting their goals, these 'light' VMs
// can be consolidated onto a smaller number of physical machines ... Only
// when an application's demands go up and its heart rate drops, will it need
// to be migrated to dedicated resources."
//
// Scenario: eight VMs spread across eight machines, each idling at low
// demand, with staggered demand spikes in the middle of the run. Managers:
//   none       — static placement (the footprint never shrinks)
//   heartbeat  — HeartbeatConsolidator (packs light VMs, rescues slow ones)
// Reported per time step: machines in use and the count of VMs missing
// their registered target ("SLA misses"). Expected shape: the heartbeat
// manager collapses the idle fleet onto ~2 machines, spreads back out under
// the spikes with few misses, and re-packs afterwards.
#include <cstdio>
#include <memory>
#include <vector>

#include "cloud/cloud_sim.hpp"
#include "fault/fleet_detector.hpp"
#include "hub/hub.hpp"
#include "util/clock.hpp"

namespace {

struct Sample {
  double t;
  int machines;
  int misses;
};

std::vector<Sample> run(bool managed) {
  auto clock = std::make_shared<hb::util::ManualClock>();
  hb::hub::HubOptions hub_opts;
  hub_opts.window_capacity = 8;  // rates over each VM's last 8 beats
  hub_opts.clock = clock;
  hb::cloud::CloudSim sim(8, /*capacity=*/10.0, clock,
                          std::make_shared<hb::hub::HeartbeatHub>(hub_opts));
  for (int i = 0; i < 8; ++i) {
    hb::cloud::VmSpec spec;
    spec.name = "vm" + std::to_string(i);
    // Idle, then a demand spike staggered per VM, then idle again.
    spec.phases = {
        {20.0 + 2.0 * i, 2.0},
        {15.0, 8.0},  // spike: 8 of 10 units
        {60.0 - 2.0 * i, 2.0},
    };
    spec.work_per_beat = 1.0;
    spec.target_min_bps = 0.9 * 2.0;  // target keyed to baseline demand
    sim.migrate(sim.add_vm(spec), i);  // start spread out, one per machine
  }

  hb::cloud::HeartbeatConsolidator manager({.headroom = 1.05, .period_s = 2.0});
  std::vector<Sample> samples;
  int step = 0;
  while (sim.now_seconds() < 95.0) {
    sim.step(0.1);
    if (managed) manager.poll(sim);
    if (++step % 10 == 0) {  // sample once per simulated second
      int misses = 0;
      for (const auto& app :
           sim.fleet_health(hb::fault::FleetDetector()).apps) {
        if (sim.vm_finished(sim.find_vm(app.name))) continue;
        if (app.total_beats >= 4 && app.rate_bps < app.target.min_bps) {
          ++misses;
        }
      }
      samples.push_back({sim.now_seconds(), sim.used_machines(), misses});
    }
  }
  return samples;
}

}  // namespace

int main() {
  const auto unmanaged = run(false);
  const auto managed = run(true);
  std::printf(
      "t_s,static_machines,static_sla_misses,heartbeat_machines,"
      "heartbeat_sla_misses\n");
  for (std::size_t i = 0; i < unmanaged.size() && i < managed.size(); ++i) {
    std::printf("%.0f,%d,%d,%d,%d\n", unmanaged[i].t, unmanaged[i].machines,
                unmanaged[i].misses, managed[i].machines, managed[i].misses);
  }
  // Footprint summary.
  double unmanaged_avg = 0, managed_avg = 0;
  for (const auto& s : unmanaged) unmanaged_avg += s.machines;
  for (const auto& s : managed) managed_avg += s.machines;
  std::fprintf(stderr, "mean machines: static=%.2f heartbeat=%.2f\n",
               unmanaged_avg / unmanaged.size(), managed_avg / managed.size());
  return 0;
}
