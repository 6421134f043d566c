// Cloud consolidation (paper §2.6): capacity sharing, heartbeat-visible
// degradation, consolidation and dedication decisions, failure detection.
#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <memory>
#include <stdexcept>
#include <string>

#include "cloud/cloud_sim.hpp"
#include "fault/fleet_detector.hpp"
#include "hub/hub.hpp"
#include "test_support.hpp"
#include "util/clock.hpp"

namespace hb::cloud {
namespace {

VmSpec light_vm(const std::string& name, double demand = 1.0,
                double duration = 1e6) {
  VmSpec spec;
  spec.name = name;
  spec.phases = {{duration, demand}};
  spec.work_per_beat = 1.0;
  spec.target_min_bps = demand * 0.9;  // goal: ~full demand served
  return spec;
}

// The VMs' one record: a hub on the sim's clock, rates over each VM's
// last 8 beats.
struct CloudFixture : ::testing::Test {
  std::shared_ptr<util::ManualClock> clock =
      std::make_shared<util::ManualClock>();
  std::shared_ptr<hub::HeartbeatHub> hub =
      std::make_shared<hub::HeartbeatHub>(
          test::manual_hub_opts(clock, /*shards=*/4, /*window=*/8));
  CloudSim sim{4, /*capacity=*/10.0, clock, hub};

  hub::AppSummary of(const std::string& name) {
    return hub->summary(hub->id_of(name));
  }
  fault::Health health(const std::string& name) {
    return fault::FleetDetector().classify(of(name));
  }
};

TEST_F(CloudFixture, VmServedAtDemandWhenUncontended) {
  sim.add_vm(light_vm("a", 2.0));
  for (int i = 0; i < 100; ++i) sim.step(0.1);
  // 2 units/s demand, 1 unit/beat -> 2 beats/s.
  EXPECT_NEAR(of("a").rate_bps, 2.0, 0.05);
}

TEST_F(CloudFixture, OversubscriptionSlowsAllVmsProportionally) {
  // 3 VMs of demand 6 on one machine of capacity 10: each gets 10/18 share.
  for (int i = 0; i < 3; ++i) {
    sim.migrate(sim.add_vm(light_vm("v" + std::to_string(i), 6.0)), 0);
  }
  for (int i = 0; i < 200; ++i) sim.step(0.05);
  for (int i = 0; i < 3; ++i) {
    EXPECT_NEAR(of("v" + std::to_string(i)).rate_bps, 6.0 * 10.0 / 18.0,
                0.15);
  }
}

TEST_F(CloudFixture, FirstFitPlacementRespectsCapacity) {
  const int a = sim.add_vm(light_vm("a", 8.0));
  const int b = sim.add_vm(light_vm("b", 8.0));
  EXPECT_EQ(sim.placement(a), 0);
  EXPECT_EQ(sim.placement(b), 1);  // would oversubscribe machine 0
}

TEST_F(CloudFixture, UsedMachinesCountsOnlyActive) {
  sim.add_vm(light_vm("a", 1.0));
  VmSpec finite = light_vm("b", 1.0, /*duration=*/1.0);
  const int b = sim.add_vm(finite);
  sim.migrate(b, 2);
  EXPECT_EQ(sim.used_machines(), 2);
  for (int i = 0; i < 30; ++i) sim.step(0.1);
  EXPECT_TRUE(sim.vm_finished(b));
  EXPECT_EQ(sim.used_machines(), 1);
}

TEST_F(CloudFixture, MigrateValidation) {
  const int v = sim.add_vm(light_vm("a"));
  EXPECT_THROW(sim.migrate(v, 99), std::out_of_range);
  EXPECT_THROW(sim.migrate(v, -1), std::out_of_range);
}

TEST_F(CloudFixture, PhasedDemand) {
  VmSpec spec;
  spec.name = "spiky";
  spec.phases = {{5.0, 1.0}, {5.0, 4.0}};
  spec.target_min_bps = 0.9;
  const int v = sim.add_vm(spec);
  for (int i = 0; i < 40; ++i) sim.step(0.1);  // t=4: phase 1
  EXPECT_NEAR(sim.vm_demand(v), 1.0, 1e-9);
  for (int i = 0; i < 30; ++i) sim.step(0.1);  // t=7: phase 2
  EXPECT_NEAR(sim.vm_demand(v), 4.0, 1e-9);
  for (int i = 0; i < 40; ++i) sim.step(0.1);  // t=11: done
  EXPECT_TRUE(sim.vm_finished(v));
  EXPECT_DOUBLE_EQ(sim.vm_demand(v), 0.0);
}

TEST_F(CloudFixture, ConsolidatorPacksLightVms) {
  // Four light VMs spread over four machines; all meet target with huge
  // headroom -> consolidation should shrink the footprint.
  for (int i = 0; i < 4; ++i) {
    sim.migrate(sim.add_vm(light_vm("v" + std::to_string(i), 2.0)), i);
  }
  HeartbeatConsolidator manager({.headroom = 1.0, .period_s = 1.0});
  for (int i = 0; i < 400; ++i) {
    sim.step(0.05);
    manager.poll(sim);
  }
  // 4 VMs x 2 units fit in one 10-unit machine.
  EXPECT_LE(sim.used_machines(), 2);
  EXPECT_GT(manager.migrations(), 0);
  // And everyone still meets target after packing.
  for (int i = 0; i < 4; ++i) {
    const hub::AppSummary s = of("v" + std::to_string(i));
    EXPECT_GE(s.rate_bps, s.target.min_bps * 0.95);
  }
}

TEST_F(CloudFixture, ConsolidatorRescuesStrugglingVm) {
  // Overpack machine 0 beyond capacity; the manager must migrate someone
  // out once heart rates drop below target.
  for (int i = 0; i < 3; ++i) {
    sim.migrate(sim.add_vm(light_vm("v" + std::to_string(i), 6.0)), 0);
  }
  HeartbeatConsolidator manager({.headroom = 2.0, .period_s = 1.0});
  for (int i = 0; i < 600; ++i) {
    sim.step(0.05);
    manager.poll(sim);
  }
  EXPECT_GT(manager.migrations(), 0);
  // After rebalancing, all VMs meet their targets.
  for (int i = 0; i < 3; ++i) {
    const hub::AppSummary s = of("v" + std::to_string(i));
    EXPECT_GE(s.rate_bps, s.target.min_bps * 0.95)
        << s.name << " still starved";
  }
  EXPECT_GE(sim.used_machines(), 2);
}

TEST_F(CloudFixture, DeadVmDetectedByStaleness) {
  // §2.6: "A lack of heartbeats from a particular node would indicate that
  // it has failed." A VM whose phases end stops beating; the failure
  // detector flags it from heartbeat staleness alone.
  sim.add_vm(light_vm("mortal", 2.0, /*duration=*/5.0));
  for (int i = 0; i < 45; ++i) sim.step(0.1);  // t = 4.5: alive
  EXPECT_EQ(health("mortal"), fault::Health::kHealthy);
  for (int i = 0; i < 200; ++i) sim.step(0.1);  // long past the end
  EXPECT_EQ(health("mortal"), fault::Health::kDead);
}

TEST_F(CloudFixture, KilledVmGoesSilentAndRestartResumes) {
  const int v = sim.add_vm(light_vm("victim", 2.0));
  const int bystander = sim.add_vm(light_vm("bystander", 2.0));
  sim.migrate(bystander, 1);
  for (int i = 0; i < 50; ++i) sim.step(0.1);
  const std::uint64_t beats_at_kill = of("victim").total_beats;
  EXPECT_GT(beats_at_kill, 0u);

  sim.kill_vm(v);
  EXPECT_TRUE(sim.vm_killed(v));
  for (int i = 0; i < 50; ++i) sim.step(0.1);
  // Silence, zero demand, and a freed machine — but no other announcement.
  EXPECT_EQ(of("victim").total_beats, beats_at_kill);
  EXPECT_DOUBLE_EQ(sim.machine_demand(sim.placement(v)), 0.0);
  EXPECT_EQ(sim.used_machines(), 1);
  EXPECT_FALSE(sim.vm_finished(v));  // frozen mid-phase, not done

  EXPECT_EQ(health("victim"), fault::Health::kDead);

  sim.restart_vm(v);
  EXPECT_FALSE(sim.vm_killed(v));
  for (int i = 0; i < 100; ++i) sim.step(0.1);
  EXPECT_GT(of("victim").total_beats, beats_at_kill);
  EXPECT_EQ(health("victim"), fault::Health::kHealthy);
}

TEST_F(CloudFixture, ConsolidatorLeavesDeadVmsAlone) {
  // A dead VM's windowed rate is stale, not low; the manager must not
  // "consolidate" it onto a busier machine once heartbeat silence marks it
  // dead (demand 3 + 3 would fit machine 1, so only the verdict stops it).
  const int v = sim.add_vm(light_vm("dead", 3.0));
  const int other = sim.add_vm(light_vm("other", 3.0));
  sim.migrate(other, 1);
  for (int i = 0; i < 100; ++i) sim.step(0.1);
  sim.kill_vm(v);
  for (int i = 0; i < 50; ++i) sim.step(0.1);  // silence past the threshold
  const int placed = sim.placement(v);
  HeartbeatConsolidator manager({.headroom = 1.0, .period_s = 1.0});
  for (int i = 0; i < 100; ++i) {
    sim.step(0.1);
    manager.poll(sim);
  }
  EXPECT_EQ(sim.placement(v), placed);
}

TEST(CloudSimCtor, Validation) {
  auto clock = std::make_shared<util::ManualClock>();
  auto hub = std::make_shared<hub::HeartbeatHub>();
  EXPECT_THROW(CloudSim(0, 10.0, clock, hub), std::invalid_argument);
  EXPECT_THROW(CloudSim(2, 0.0, clock, hub), std::invalid_argument);
  EXPECT_THROW(CloudSim(2, 10.0, clock, nullptr), std::invalid_argument);
}

TEST_F(CloudFixture, DuplicateVmNameIsRejectedBeforeTheHubSeesIt) {
  // Two VMs under one name would feed one hub app, and a killed one would
  // hide behind the live one's beats.
  sim.add_vm(light_vm("dup"));
  EXPECT_THROW(sim.add_vm(light_vm("dup")), std::invalid_argument);
  EXPECT_EQ(sim.vm_count(), 1u);
  EXPECT_EQ(hub->app_count(), 1u);
  EXPECT_EQ(sim.add_vm(light_vm("other")), 1);
}

// ------------------------------------------------- hub-fed fleet monitoring

// Steps of 0.25 s and demands of 2 and 4 units/s keep the work sums exact
// in binary floating point, so beat counts and rates have closed forms:
// beats land every 0.5 s and every 0.25 s, and 7 intervals over the last
// 8 beats give exactly 2 and 4 beats/s.
TEST_F(CloudFixture, HubRecordsVmBeatsExactly) {
  sim.add_vm(light_vm("half", 2.0));
  sim.add_vm(light_vm("quarter", 4.0));

  for (int i = 0; i < 100; ++i) sim.step(0.25);  // t = 25 s

  const hub::AppSummary half = of("half");
  const hub::AppSummary quarter = of("quarter");
  EXPECT_EQ(half.total_beats, 50u);
  EXPECT_EQ(quarter.total_beats, 100u);
  EXPECT_DOUBLE_EQ(half.rate_bps, 2.0);
  EXPECT_DOUBLE_EQ(quarter.rate_bps, 4.0);
  EXPECT_EQ(half.last_beat_ns, util::from_seconds(25.0));
  // Targets registered from the VmSpecs.
  EXPECT_DOUBLE_EQ(half.target.min_bps, 0.9 * 2.0);
}

TEST_F(CloudFixture, HubWithDifferentClockStillGetsExactRates) {
  // Regression: beats are stamped from the SIM clock, so a hub holding a
  // different (default monotonic) clock still reports exact per-VM rates
  // and beat counts.
  auto mono_hub = std::make_shared<hub::HeartbeatHub>([] {
    hub::HubOptions opts;
    opts.shard_count = 2;
    opts.window_capacity = 8;
    return opts;  // no clock: defaults to the real MonotonicClock
  }());
  CloudSim mono_sim(4, /*capacity=*/10.0, clock, mono_hub);
  mono_sim.add_vm(light_vm("vm", 2.0));
  for (int i = 0; i < 100; ++i) mono_sim.step(0.25);

  const hub::AppSummary s = mono_hub->summary(mono_hub->id_of("vm"));
  EXPECT_EQ(s.total_beats, 50u);
  EXPECT_DOUBLE_EQ(s.rate_bps, 2.0);
}

// The multi-producer stress scenario: a whole fleet beating through one hub,
// with the consolidator packing machines at the same time. The hub's cluster
// rollup must track the fleet exactly — every ingested beat in exactly one
// summary, coherent rollups — which is what lets one dashboard watch
// "thousands of producers" instead of one reader per VM.
TEST(CloudHubStress, FleetOfVmsAggregatesExactly) {
  auto clock = std::make_shared<util::ManualClock>();
  auto hub = std::make_shared<hub::HeartbeatHub>(
      test::manual_hub_opts(clock, /*shards=*/4, /*window=*/8));
  CloudSim sim(8, /*capacity=*/10.0, clock, hub);

  constexpr int kVms = 48;
  for (int i = 0; i < kVms; ++i) {
    // Mixed fleet: demands 0.5 .. 2.0, a third of them phased.
    VmSpec spec;
    spec.name = "vm-" + std::to_string(i);
    const double demand = 0.5 + 0.5 * (i % 4);
    if (i % 3 == 0) {
      spec.phases = {{30.0, demand}, {30.0, demand * 2.0}};
    } else {
      spec.phases = {{60.0, demand}};
    }
    spec.work_per_beat = 1.0;
    spec.target_min_bps = demand * 0.9;
    sim.add_vm(spec);
  }

  HeartbeatConsolidator consolidator;
  for (int i = 0; i < 400; ++i) {
    sim.step(0.1);
    consolidator.poll(sim);
  }

  // Exactness: the summaries account for every beat the shards applied.
  std::uint64_t ingested = 0;
  for (std::size_t i = 0; i < hub->shard_count(); ++i) {
    ingested += hub->shard(i).stats().ingested;
  }
  // Fleet totals over the live apps' summaries. A rate needs two windowed
  // beats, and an infinite (zero-span) one is no evidence of either.
  std::uint64_t apps = 0, total_beats = 0, meeting_target = 0;
  double aggregate_rate_bps = 0.0;
  hub->snapshot()->for_each_app([&](const hub::AppSummary& s) {
    ++apps;
    total_beats += s.total_beats;
    if (!std::isfinite(s.rate_bps)) return;
    aggregate_rate_bps += s.rate_bps;
    if (s.window_beats >= 2 && s.target.contains(s.rate_bps)) ++meeting_target;
  });
  EXPECT_EQ(apps, static_cast<std::uint64_t>(kVms));
  EXPECT_EQ(total_beats, ingested);
  EXPECT_GT(total_beats, 1000u);
  // Aggregate rate is in the ballpark of total served demand (~60 units/s
  // across 8 machines of capacity 10, minus contention).
  EXPECT_GT(aggregate_rate_bps, 20.0);
  // Most of the fleet meets its goal once the consolidator settles.
  EXPECT_GT(meeting_target, static_cast<std::uint64_t>(kVms / 2));
}

}  // namespace
}  // namespace hb::cloud
