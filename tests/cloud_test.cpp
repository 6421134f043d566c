// Cloud consolidation (paper §2.6): capacity sharing, heartbeat-visible
// degradation, consolidation and dedication decisions, failure detection.
#include <gtest/gtest.h>

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "cloud/cloud_sim.hpp"
#include "fault/fleet_detector.hpp"
#include "hub/hub.hpp"
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

struct CloudFixture : ::testing::Test {
  std::shared_ptr<util::ManualClock> clock =
      std::make_shared<util::ManualClock>();
  CloudSim sim{4, /*capacity=*/10.0, clock};
};

TEST_F(CloudFixture, VmServedAtDemandWhenUncontended) {
  const int v = sim.add_vm(light_vm("a", 2.0));
  for (int i = 0; i < 100; ++i) sim.step(0.1);
  // 2 units/s demand, 1 unit/beat -> 2 beats/s.
  EXPECT_NEAR(sim.reader(v).current_rate(), 2.0, 0.05);
}

TEST_F(CloudFixture, OversubscriptionSlowsAllVmsProportionally) {
  // 3 VMs of demand 6 on one machine of capacity 10: each gets 10/18 share.
  std::vector<int> vms;
  for (int i = 0; i < 3; ++i) {
    vms.push_back(sim.add_vm(light_vm("v" + std::to_string(i), 6.0)));
    sim.migrate(vms.back(), 0);
  }
  for (int i = 0; i < 200; ++i) sim.step(0.05);
  for (const int v : vms) {
    EXPECT_NEAR(sim.reader(v).current_rate(), 6.0 * 10.0 / 18.0, 0.15);
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
  std::vector<int> vms;
  for (int i = 0; i < 4; ++i) {
    const int v = sim.add_vm(light_vm("v" + std::to_string(i), 2.0));
    sim.migrate(v, i);
    vms.push_back(v);
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
  for (const int v : vms) {
    EXPECT_GE(sim.reader(v).current_rate(),
              sim.reader(v).target_min() * 0.95);
  }
}

TEST_F(CloudFixture, ConsolidatorRescuesStrugglingVm) {
  // Overpack machine 0 beyond capacity; the manager must migrate someone
  // out once heart rates drop below target.
  std::vector<int> vms;
  for (int i = 0; i < 3; ++i) {
    const int v = sim.add_vm(light_vm("v" + std::to_string(i), 6.0));
    sim.migrate(v, 0);
    vms.push_back(v);
  }
  HeartbeatConsolidator manager({.headroom = 2.0, .period_s = 1.0});
  for (int i = 0; i < 600; ++i) {
    sim.step(0.05);
    manager.poll(sim);
  }
  EXPECT_GT(manager.migrations(), 0);
  // After rebalancing, all VMs meet their targets.
  for (const int v : vms) {
    EXPECT_GE(sim.reader(v).current_rate(),
              sim.reader(v).target_min() * 0.95)
        << "vm " << v << " still starved";
  }
  EXPECT_GE(sim.used_machines(), 2);
}

TEST_F(CloudFixture, DeadVmDetectedByStaleness) {
  // §2.6: "A lack of heartbeats from a particular node would indicate that
  // it has failed." A VM whose phases end stops beating; the failure
  // detector flags it from heartbeat staleness alone.
  const int v = sim.add_vm(light_vm("mortal", 2.0, /*duration=*/5.0));
  fault::FleetDetector detector;
  for (int i = 0; i < 45; ++i) sim.step(0.1);  // t = 4.5: alive
  auto r1 = sim.reader(v);
  EXPECT_EQ(detector.classify(r1), fault::Health::kHealthy);
  for (int i = 0; i < 200; ++i) sim.step(0.1);  // long past the end
  auto r2 = sim.reader(v);
  EXPECT_EQ(detector.classify(r2), fault::Health::kDead);
}

TEST_F(CloudFixture, KilledVmGoesSilentAndRestartResumes) {
  const int v = sim.add_vm(light_vm("victim", 2.0));
  const int bystander = sim.add_vm(light_vm("bystander", 2.0));
  sim.migrate(bystander, 1);
  for (int i = 0; i < 50; ++i) sim.step(0.1);
  const std::uint64_t beats_at_kill = sim.reader(v).count();
  EXPECT_GT(beats_at_kill, 0u);

  sim.kill_vm(v);
  EXPECT_TRUE(sim.vm_killed(v));
  for (int i = 0; i < 50; ++i) sim.step(0.1);
  // Silence, zero demand, and a freed machine — but no other announcement.
  EXPECT_EQ(sim.reader(v).count(), beats_at_kill);
  EXPECT_DOUBLE_EQ(sim.machine_demand(sim.placement(v)), 0.0);
  EXPECT_EQ(sim.used_machines(), 1);
  EXPECT_FALSE(sim.vm_finished(v));  // frozen mid-phase, not done

  fault::FleetDetector detector;
  EXPECT_EQ(detector.classify(sim.reader(v)), fault::Health::kDead);

  sim.restart_vm(v);
  EXPECT_FALSE(sim.vm_killed(v));
  for (int i = 0; i < 100; ++i) sim.step(0.1);
  EXPECT_GT(sim.reader(v).count(), beats_at_kill);
  EXPECT_EQ(detector.classify(sim.reader(v)), fault::Health::kHealthy);
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
  EXPECT_THROW(CloudSim(0, 10.0, clock), std::invalid_argument);
  EXPECT_THROW(CloudSim(2, 0.0, clock), std::invalid_argument);
}

// ------------------------------------------------- hub-fed fleet monitoring

TEST_F(CloudFixture, AttachedHubMirrorsVmBeats) {
  auto hub = std::make_shared<hub::HeartbeatHub>([&] {
    hub::HubOptions opts;
    opts.shard_count = 4;
    opts.rate_window = 8;  // match the VM channels' default window
    opts.clock = clock;
    return opts;
  }());
  const int before = sim.add_vm(light_vm("early", 2.0));
  sim.attach_hub(hub);  // picks up VMs added before AND after
  const int after = sim.add_vm(light_vm("late", 3.0));

  for (int i = 0; i < 100; ++i) sim.step(0.1);

  const hub::AppSummary early = hub->summary(hub->id_of("early"));
  const hub::AppSummary late = hub->summary(hub->id_of("late"));
  // The hub saw exactly the beats the VM channels emitted, with identical
  // timestamps, so windowed rates agree bit-for-bit.
  EXPECT_EQ(early.total_beats, sim.reader(before).count());
  EXPECT_EQ(late.total_beats, sim.reader(after).count());
  EXPECT_DOUBLE_EQ(early.rate_bps, sim.reader(before).current_rate(8));
  EXPECT_DOUBLE_EQ(late.rate_bps, sim.reader(after).current_rate(8));
  // Targets registered from the VmSpecs.
  EXPECT_DOUBLE_EQ(early.target.min_bps, 0.9 * 2.0);
}

TEST_F(CloudFixture, HubWithDifferentClockStillGetsExactRates) {
  // Regression: mirrored beats are stamped from the SIM clock, so a hub
  // holding a different (default monotonic) clock still reports exact
  // per-VM rates and beat counts.
  auto hub = std::make_shared<hub::HeartbeatHub>([] {
    hub::HubOptions opts;
    opts.shard_count = 2;
    opts.rate_window = 8;
    return opts;  // no clock: defaults to the real MonotonicClock
  }());
  sim.attach_hub(hub);
  const int v = sim.add_vm(light_vm("vm", 2.0));
  for (int i = 0; i < 100; ++i) sim.step(0.1);

  const hub::AppSummary s = hub->summary(hub->id_of("vm"));
  EXPECT_EQ(s.total_beats, sim.reader(v).count());
  EXPECT_DOUBLE_EQ(s.rate_bps, sim.reader(v).current_rate(8));
}

// The multi-producer stress scenario: a whole fleet beating through one hub,
// with the consolidator packing machines at the same time. The hub's cluster
// rollup must track the fleet exactly — no lost beats, coherent rollups —
// which is what lets one dashboard watch "thousands of producers" instead of
// one reader per VM.
TEST(CloudHubStress, FleetOfVmsAggregatesExactly) {
  auto clock = std::make_shared<util::ManualClock>();
  CloudSim sim(8, /*capacity=*/10.0, clock);
  auto hub = std::make_shared<hub::HeartbeatHub>([&] {
    hub::HubOptions opts;
    opts.shard_count = 4;
    opts.rate_window = 8;
    opts.clock = clock;
    return opts;
  }());
  sim.attach_hub(hub);

  constexpr int kVms = 48;
  std::vector<int> vms;
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
    vms.push_back(sim.add_vm(spec));
  }

  HeartbeatConsolidator consolidator;
  for (int i = 0; i < 400; ++i) {
    sim.step(0.1);
    consolidator.poll(sim);
  }

  // Exactness: every VM's hub summary equals its own channel.
  std::uint64_t channel_total = 0;
  for (const int v : vms) {
    const hub::AppSummary s =
        hub->summary(hub->id_of("vm-" + std::to_string(v)));
    EXPECT_EQ(s.total_beats, sim.reader(v).count()) << "vm " << v;
    channel_total += sim.reader(v).count();
  }
  const auto snap = hub->snapshot();
  const hub::ClusterSummary& c = snap->cluster();
  EXPECT_EQ(c.apps, static_cast<std::uint64_t>(kVms));
  EXPECT_EQ(c.total_beats, channel_total);
  EXPECT_GT(c.total_beats, 1000u);
  // Aggregate rate is in the ballpark of total served demand (~60 units/s
  // across 8 machines of capacity 10, minus contention).
  EXPECT_GT(c.aggregate_rate_bps, 20.0);
  // Most of the fleet meets its goal once the consolidator settles.
  EXPECT_GT(c.meeting_target, static_cast<std::uint64_t>(kVms / 2));
  // Tag rollup sees every VM (tag 0 beats from all of them).
  ASSERT_FALSE(snap->tags().empty());
  EXPECT_EQ(snap->tags().front().tag, 0u);  // ascending: tag 0 leads
  EXPECT_EQ(snap->tags().front().apps, static_cast<std::uint32_t>(kVms));
}

}  // namespace
}  // namespace hb::cloud
