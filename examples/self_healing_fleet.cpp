// self_healing_fleet: the observe-decide-act loop with nobody at the wheel.
//
// The main path runs the "rack_kill" drill from sim/scenarios.cpp through
// ScenarioRunner — the same spec ctest and bench_scenarios drive. A whole
// rack dies in one sweep (ONE correlated-failure event, one automatic
// restart per member, fleet heals), a chronically flaky VM crash-loops
// until the engine QUARANTINES it, and a scripted "operator" restart at
// t=62s brings the flapper back; the fleet ends healed with the flapper
// still serving its quarantine. Everything runs on the runner's virtual
// clock, so the event stream below is byte-reproducible per seed — this is
// also the CI smoke for the policy layer.
//
//   ./example_self_healing_fleet [seed]     (the drill above; exits 0 when
//                                            every scenario invariant holds)
//   ./example_self_healing_fleet --refill    (the refilling-budget scenario:
//                                            a storm exhausts a VM's restart
//                                            budget, a quiet stretch refills
//                                            it, and automation heals the
//                                            next death instead of being
//                                            permanently disarmed)
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <memory>
#include <string>

#include "cloud/cloud_sim.hpp"
#include "fault/fleet_detector.hpp"
#include "hub/hub.hpp"
#include "policy/action_sink.hpp"
#include "policy/cloud_restart_sink.hpp"
#include "policy/monitor.hpp"
#include "policy/policy_engine.hpp"
#include "sim/scenario.hpp"
#include "util/clock.hpp"
#include "util/time.hpp"

namespace {

// The refilling-budget scenario (CloudRestartSinkOptions::budget_refill_ns):
// long-lived fleets must not stay one transient storm away from "automatic
// remediation off forever". A crash storm spends storm-vm's whole budget
// (third death left for a human); after a quiet refill interval the budget
// recovers and the next, unrelated death heals automatically again. Flap
// quarantine is disarmed here — the storm is the point, and the budget
// guard (not the flap guard) is what this scenario demonstrates.
int run_refill_scenario() {
  using hb::util::kNsPerSec;

  auto clock = std::make_shared<hb::util::ManualClock>();
  hb::hub::HubOptions hub_opts;
  hub_opts.shard_count = 4;
  hub_opts.window_capacity = 64;
  hub_opts.clock = clock;
  auto monitor = std::make_shared<hb::policy::Monitor>(
      std::make_shared<hb::hub::HeartbeatHub>(hub_opts),
      hb::fault::FleetDetectorOptions{.absolute_staleness_ns = 5 * kNsPerSec},
      hb::policy::PolicyOptions{.flap_threshold = 100});
  hb::cloud::CloudSim sim(4, /*capacity=*/100.0, clock, monitor->hub());

  int storm = -1;
  for (int v = 0; v < 4; ++v) {
    hb::cloud::VmSpec spec;
    spec.name = v == 0 ? "storm-vm" : "steady-" + std::to_string(v);
    spec.phases = {{600.0, 4.0}};
    spec.target_min_bps = 2.0;
    const int id = sim.add_vm(std::move(spec));
    if (v == 0) storm = id;
  }

  hb::policy::PolicyEngine& engine = monitor->engine();
  auto restarter = std::make_shared<hb::policy::CloudRestartSink>(
      sim, hb::policy::CloudRestartSink::Options{
               .restart_budget = 2,
               .budget_refill_ns = 30 * kNsPerSec});
  engine.add_sink(std::make_shared<hb::policy::LogSink>(stdout));
  engine.add_sink(restarter);
  sim.set_monitor(monitor, /*period_s=*/0.5);

  std::printf("self_healing_fleet --refill: budget 2, one credit back per "
              "30s quiet\n\n");
  const hb::hub::AppId storm_id = monitor->hub()->id_of("storm-vm");

  // Storm: kill storm-vm again once the policy loop has SEEN it alive
  // (the engine is edge-triggered — a kill landing before any sweep
  // observes the revival produces no new death edge, so the sink would
  // never be consulted again) until the sink gives up (budget spent,
  // third death suppressed).
  double last_kill_s = 0.0;
  bool storming = false, operator_done = false;
  double quiet_since_s = 0.0;
  bool refire_done = false;
  for (int tick = 0; tick < 1200; ++tick) {  // 120 s at dt = 0.1
    sim.step(0.1);
    const double now = sim.now_seconds();
    if (!storming && now >= 5.0) {
      storming = true;
      std::printf("-- storm begins: first storm-vm crash at t=%.1fs\n", now);
      sim.kill_vm(storm);
      last_kill_s = now;
    }
    if (storming && !operator_done) {
      if (!sim.vm_killed(storm) &&
          engine.last_health(storm_id) != hb::fault::Health::kDead &&
          now - last_kill_s > 3.0) {
        sim.kill_vm(storm);
        last_kill_s = now;
      }
      if (restarter->stats().suppressed_budget >= 1 &&
          now - last_kill_s > 8.0) {
        // The sink has given up (budget empty) and the VM stayed down.
        std::printf("-- budget exhausted; operator restarts storm-vm by "
                    "hand at t=%.1fs, storm ends\n", now);
        sim.restart_vm(storm);
        operator_done = true;
        quiet_since_s = now;
      }
    }
    if (operator_done && !refire_done && now - quiet_since_s > 40.0) {
      // Well past budget_refill_ns of quiet: at least one credit is back.
      std::printf("-- post-refill death at t=%.1fs (should self-heal)\n",
                  now);
      sim.kill_vm(storm);
      refire_done = true;
    }
  }

  const hb::fault::FleetReport report = sim.fleet_health(monitor->detector());
  const auto& rstats = restarter->stats();
  std::printf("\nrestarts: %llu automatic, %llu suppressed by budget, "
              "%llu credits refilled; %llu dead at end (snapshot epoch "
              "%llu)\n",
              static_cast<unsigned long long>(rstats.restarts),
              static_cast<unsigned long long>(rstats.suppressed_budget),
              static_cast<unsigned long long>(rstats.refilled),
              static_cast<unsigned long long>(report.fleet.dead),
              static_cast<unsigned long long>(report.snapshot_epoch));

  // Acceptance shape: the storm spent the budget (2 automatic restarts,
  // then a suppression), the quiet stretch refilled at least one credit,
  // and the post-refill death healed automatically — fleet ends 0 dead.
  const bool ok = rstats.restarts == 3 && rstats.suppressed_budget >= 1 &&
                  rstats.refilled >= 1 && refire_done &&
                  !sim.vm_killed(0) && report.fleet.dead == 0;
  std::printf("%s\n", ok ? "refill: ok" : "UNEXPECTED END STATE");
  return ok ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc > 1 && std::strcmp(argv[1], "--refill") == 0) {
    return run_refill_scenario();
  }
  const std::uint64_t seed =
      argc > 1 ? std::strtoull(argv[1], nullptr, 10) : 42;

  // The full drill — spinup, fault script, flap loop, the operator's one
  // human moment at t=62s, invariant verification — is the registered
  // "rack_kill" scenario; this driver just runs its correctness machine
  // and prints the replayable stream.
  const hb::sim::ScenarioSpec* spec = hb::sim::find_scenario("rack_kill");
  if (spec == nullptr) {
    std::fprintf(stderr, "rack_kill scenario missing from the registry\n");
    return 1;
  }
  hb::sim::ScenarioRunner runner(*spec, spec->correctness, seed);
  const hb::sim::ScenarioResult& res = runner.run();
  std::fputs(runner.log().canonical_text().c_str(), stdout);

  const auto& pstats = res.policy;
  const auto& rstats = res.restarts;
  std::printf("\npolicy: %llu sweeps, %llu transitions, %llu correlated "
              "failures, %llu quarantines\n",
              static_cast<unsigned long long>(pstats.sweeps),
              static_cast<unsigned long long>(pstats.transitions),
              static_cast<unsigned long long>(pstats.correlated_failures),
              static_cast<unsigned long long>(pstats.quarantines));
  std::printf("restarts: %llu automatic (flapper %s used %u of 3), "
              "%llu suppressed by quarantine, %llu by budget\n",
              static_cast<unsigned long long>(rstats.restarts),
              res.facts.at("flapper").c_str(),
              runner.restarter()->restarts_of(res.facts.at("flapper")),
              static_cast<unsigned long long>(rstats.suppressed_quarantined),
              static_cast<unsigned long long>(rstats.suppressed_budget));

  // The acceptance shape — rack healed by ONE folded event + one restart
  // per member, flapper quarantined within budget, fleet ends clean — is
  // the spec's verify hook; ok() is the whole gate.
  std::printf("\n%s\n", res.ok() ? "self-healed: ok" : "UNEXPECTED END STATE");
  return res.ok() ? 0 : 1;
}
