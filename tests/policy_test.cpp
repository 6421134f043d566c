// The autonomic remediation engine: edge-vs-level event semantics, flap
// quarantine, correlated-failure grouping, budgeted CloudSim restarts, and
// the 1000-VM self-healing acceptance drill.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "cloud/cloud_sim.hpp"
#include "fault/fleet_detector.hpp"
#include "hub/hub.hpp"
#include "policy/action_sink.hpp"
#include "policy/cloud_restart_sink.hpp"
#include "policy/monitor.hpp"
#include "policy/policy_engine.hpp"
#include "sim/scenario.hpp"
#include "test_support.hpp"
#include "util/clock.hpp"
#include "util/time.hpp"

namespace hb::policy {
namespace {

using fault::Health;
using util::kNsPerSec;

// Synthetic-report driver: policy logic is pure math over successive
// FleetReports, so most tests feed hand-built reports instead of standing
// up a hub — every edge is then explicit in the test body.
struct FleetScript {
  fault::FleetReport report;
  std::uint64_t next_id = 1;

  hub::AppId add(const std::string& name, Health health) {
    fault::AppHealth app;
    app.name = name;
    app.id = next_id++;
    app.health = health;
    report.apps.push_back(app);
    return app.id;
  }
  void set(hub::AppId id, Health health) {
    for (auto& app : report.apps) {
      if (app.id == id) app.health = health;
    }
  }
  const fault::FleetReport& at(util::TimeNs now) {
    report.fleet.swept_at_ns = now;
    return report;
  }
};

TEST(PolicyTransitions, EdgeTriggeredNotLevelTriggered) {
  PolicyEngine engine;
  auto sink = std::make_shared<TestSink>();
  engine.add_sink(sink);

  FleetScript fleet;
  const hub::AppId a = fleet.add("a", Health::kHealthy);
  fleet.add("b", Health::kWarmingUp);

  // First sweep: implicit prior state is warming-up, so only `a` fires.
  auto events = engine.observe(fleet.at(1 * kNsPerSec));
  ASSERT_EQ(events.size(), 1u);
  EXPECT_EQ(events[0].kind, EventKind::kTransition);
  EXPECT_EQ(events[0].app, "a");
  EXPECT_EQ(events[0].from_health, Health::kWarmingUp);
  EXPECT_EQ(events[0].to_health, Health::kHealthy);

  // The same level re-asserted: silence, however many sweeps repeat it.
  for (int s = 2; s < 10; ++s) {
    EXPECT_TRUE(engine.observe(fleet.at(s * kNsPerSec)).empty()) << s;
  }
  EXPECT_EQ(sink->events().size(), 1u);

  // One change, one event — and the counters saw everything.
  fleet.set(a, Health::kSlow);
  events = engine.observe(fleet.at(10 * kNsPerSec));
  ASSERT_EQ(events.size(), 1u);
  EXPECT_EQ(events[0].from_health, Health::kHealthy);
  EXPECT_EQ(events[0].to_health, Health::kSlow);
  EXPECT_EQ(engine.stats().sweeps, 10u);
  EXPECT_EQ(engine.stats().transitions, 2u);
  EXPECT_EQ(engine.stats().events, 2u);
  EXPECT_EQ(engine.last_health(a), Health::kSlow);
}

TEST(PolicyTransitions, DeathAndRevivalAreCountedEdges) {
  PolicyEngine engine;
  FleetScript fleet;
  const hub::AppId a = fleet.add("a", Health::kHealthy);
  engine.observe(fleet.at(1 * kNsPerSec));

  fleet.set(a, Health::kDead);
  auto events = engine.observe(fleet.at(2 * kNsPerSec));
  ASSERT_EQ(events.size(), 1u);
  EXPECT_EQ(events[0].to_health, Health::kDead);
  EXPECT_EQ(engine.stats().deaths, 1u);

  // Revival through warming-up (the usual hub shape after a restart).
  fleet.set(a, Health::kWarmingUp);
  events = engine.observe(fleet.at(3 * kNsPerSec));
  ASSERT_EQ(events.size(), 1u);
  EXPECT_EQ(events[0].from_health, Health::kDead);
  EXPECT_EQ(events[0].to_health, Health::kWarmingUp);
  EXPECT_EQ(engine.stats().revivals, 1u);

  // warming-up -> healthy is a transition but NOT a dead<->alive edge.
  fleet.set(a, Health::kHealthy);
  engine.observe(fleet.at(4 * kNsPerSec));
  EXPECT_EQ(engine.stats().deaths, 1u);
  EXPECT_EQ(engine.stats().revivals, 1u);
  EXPECT_EQ(engine.stats().transitions, 4u);
}

TEST(PolicyCorrelated, RackDeathsFoldIntoOneEvent) {
  PolicyEngine engine({.correlated_min_apps = 3});
  auto sink = std::make_shared<TestSink>();
  engine.add_sink(sink);

  FleetScript fleet;
  std::vector<hub::AppId> rack;
  for (int i = 0; i < 5; ++i) {
    rack.push_back(fleet.add("rack1/vm-" + std::to_string(i),
                             Health::kHealthy));
  }
  const hub::AppId pair0 = fleet.add("rack2/vm-0", Health::kHealthy);
  const hub::AppId pair1 = fleet.add("rack2/vm-1", Health::kHealthy);
  const hub::AppId loner = fleet.add("loner", Health::kHealthy);
  engine.observe(fleet.at(1 * kNsPerSec));

  // A whole rack, a sub-threshold pair, and an ungrouped app die at once.
  for (const auto id : rack) fleet.set(id, Health::kDead);
  fleet.set(pair0, Health::kDead);
  fleet.set(pair1, Health::kDead);
  fleet.set(loner, Health::kDead);
  const auto& events = engine.observe(fleet.at(2 * kNsPerSec));

  // rack1: ONE folded event naming all five, in sweep order.
  std::size_t folded = 0;
  for (const auto& ev : events) {
    if (ev.kind != EventKind::kCorrelatedFailure) continue;
    ++folded;
    EXPECT_EQ(ev.group, "rack1");
    ASSERT_EQ(ev.apps.size(), 5u);
    EXPECT_EQ(ev.apps.front(), "rack1/vm-0");
    EXPECT_EQ(ev.apps.back(), "rack1/vm-4");
  }
  EXPECT_EQ(folded, 1u);
  EXPECT_EQ(engine.stats().correlated_failures, 1u);
  // rack2 (2 < min 3) and the delimiterless loner fall through to plain
  // per-app death transitions; every death is still counted exactly once.
  EXPECT_EQ(sink->transitions_to(Health::kDead), 3u);
  EXPECT_EQ(engine.stats().deaths, 8u);
  // No event ever re-fires while everyone stays dead.
  EXPECT_TRUE(engine.observe(fleet.at(3 * kNsPerSec)).empty());
}

TEST(PolicyFlap, RepeatedEdgesQuarantineAndCooldownLifts) {
  PolicyEngine engine({.flap_window_ns = 100 * kNsPerSec,
                       .flap_threshold = 4,
                       .quarantine_cooldown_ns = 50 * kNsPerSec});
  auto sink = std::make_shared<TestSink>();
  engine.add_sink(sink);

  FleetScript fleet;
  const hub::AppId a = fleet.add("flappy", Health::kHealthy);
  fleet.add("steady", Health::kHealthy);
  engine.observe(fleet.at(1 * kNsPerSec));

  // Two full kill/revive cycles = 4 edges; the 4th edge quarantines.
  util::TimeNs now = 1 * kNsPerSec;
  for (int cycle = 0; cycle < 2; ++cycle) {
    fleet.set(a, Health::kDead);
    engine.observe(fleet.at(now += kNsPerSec));
    fleet.set(a, Health::kHealthy);
    engine.observe(fleet.at(now += kNsPerSec));
  }
  EXPECT_EQ(sink->count(EventKind::kQuarantine), 1u);
  EXPECT_TRUE(engine.quarantined(a));
  EXPECT_TRUE(engine.quarantined("flappy"));
  EXPECT_FALSE(engine.quarantined("steady"));
  ASSERT_EQ(engine.quarantined_apps().size(), 1u);
  EXPECT_EQ(engine.quarantined_apps()[0], "flappy");
  // The transition that crossed the threshold already carries the flag.
  ASSERT_FALSE(sink->events().empty());
  const auto& crossing = sink->events()[sink->events().size() - 2];
  EXPECT_EQ(crossing.kind, EventKind::kTransition);
  EXPECT_TRUE(crossing.quarantined);

  // Still flapping while quarantined: edges keep extending the sentence,
  // but no second kQuarantine fires.
  fleet.set(a, Health::kDead);
  engine.observe(fleet.at(now += kNsPerSec));
  fleet.set(a, Health::kHealthy);
  engine.observe(fleet.at(now += kNsPerSec));
  EXPECT_EQ(sink->count(EventKind::kQuarantine), 1u);
  EXPECT_TRUE(engine.quarantined(a));

  // Not yet: cooldown measures from the LAST edge.
  engine.observe(fleet.at(now + 49 * kNsPerSec));
  EXPECT_TRUE(engine.quarantined(a));
  EXPECT_EQ(sink->count(EventKind::kQuarantineLifted), 0u);

  // Edge-free past the cooldown: trusted again.
  engine.observe(fleet.at(now + 50 * kNsPerSec));
  EXPECT_FALSE(engine.quarantined(a));
  EXPECT_EQ(sink->count(EventKind::kQuarantineLifted), 1u);
  EXPECT_EQ(engine.stats().quarantines_lifted, 1u);
}

TEST(PolicyFlap, StayingDeadThroughTheCooldownNeverLifts) {
  // A quarantined app that just sits dead is edge-free, but lifting it
  // would "re-arm" remediation for a death edge that was already consumed
  // — nothing would ever restart it. Parole requires being alive.
  PolicyEngine engine({.flap_window_ns = 100 * kNsPerSec,
                       .flap_threshold = 2,
                       .quarantine_cooldown_ns = 10 * kNsPerSec});
  auto sink = std::make_shared<TestSink>();
  engine.add_sink(sink);

  FleetScript fleet;
  const hub::AppId a = fleet.add("a", Health::kHealthy);
  util::TimeNs now = kNsPerSec;
  engine.observe(fleet.at(now));
  fleet.set(a, Health::kDead);
  engine.observe(fleet.at(now += kNsPerSec));
  fleet.set(a, Health::kHealthy);
  engine.observe(fleet.at(now += kNsPerSec));  // 2nd edge: quarantined
  fleet.set(a, Health::kDead);
  engine.observe(fleet.at(now += kNsPerSec));
  ASSERT_TRUE(engine.quarantined(a));
  // The quarantine event carries the app's real id (0 is a valid AppId,
  // so misattribution would be silent).
  for (const auto& ev : sink->events()) {
    if (ev.kind == EventKind::kQuarantine) {
      EXPECT_EQ(ev.id, a);
    }
  }

  // Dead for many cooldowns: still quarantined, no lift event.
  engine.observe(fleet.at(now += 50 * kNsPerSec));
  EXPECT_TRUE(engine.quarantined(a));
  EXPECT_EQ(sink->count(EventKind::kQuarantineLifted), 0u);

  // Revived (an operator acted): the cooldown now runs from that edge.
  fleet.set(a, Health::kHealthy);
  engine.observe(fleet.at(now += kNsPerSec));
  EXPECT_TRUE(engine.quarantined(a));
  engine.observe(fleet.at(now += 10 * kNsPerSec));
  EXPECT_FALSE(engine.quarantined(a));
  EXPECT_EQ(sink->count(EventKind::kQuarantineLifted), 1u);

  // Stats reconcile with the streamed log: folded deaths aside (none
  // here), every counted transition was an emitted kTransition line.
  EXPECT_EQ(engine.stats().transitions,
            sink->transitions_to(Health::kHealthy) +
                sink->transitions_to(Health::kDead));
}

TEST(PolicyFlap, SlowEdgesInsideWindowNeverQuarantine) {
  // One death + one heal (2 edges) — the default threshold of 4 means a
  // single incident never reads as flapping; and edges spaced wider than
  // the window are pruned before they can accumulate.
  PolicyEngine engine({.flap_window_ns = 10 * kNsPerSec,
                       .flap_threshold = 3});
  FleetScript fleet;
  const hub::AppId a = fleet.add("a", Health::kHealthy);
  util::TimeNs now = kNsPerSec;
  engine.observe(fleet.at(now));
  for (int cycle = 0; cycle < 5; ++cycle) {  // 10 edges, 15 s apart
    fleet.set(a, Health::kDead);
    engine.observe(fleet.at(now += 15 * kNsPerSec));
    fleet.set(a, Health::kHealthy);
    engine.observe(fleet.at(now += 15 * kNsPerSec));
  }
  EXPECT_FALSE(engine.quarantined(a));
  EXPECT_EQ(engine.stats().quarantines, 0u);
}

// ------------------------------------------------------ CloudRestartSink

struct RestartFixture : ::testing::Test {
  std::shared_ptr<util::ManualClock> clock =
      std::make_shared<util::ManualClock>();
  std::shared_ptr<hub::HeartbeatHub> hub =
      std::make_shared<hub::HeartbeatHub>();
  cloud::CloudSim sim{4, /*capacity=*/100.0, clock, hub};

  int add_vm(const std::string& name) {
    cloud::VmSpec spec;
    spec.name = name;
    spec.phases = {{600.0, 4.0}};
    spec.target_min_bps = 2.0;
    return sim.add_vm(std::move(spec));
  }
};

TEST_F(RestartFixture, RestartsDeadVmsWithinBudgetOnly) {
  const int v = add_vm("vm");
  PolicyEngine engine;
  CloudRestartSink sink(sim, {.restart_budget = 2});

  FleetScript fleet;
  const hub::AppId id = fleet.add("vm", Health::kHealthy);
  util::TimeNs now = kNsPerSec;
  engine.observe(fleet.at(now));

  for (int round = 0; round < 3; ++round) {
    sim.kill_vm(v);
    fleet.set(id, Health::kDead);
    for (const auto& ev : engine.observe(fleet.at(now += 20 * kNsPerSec))) {
      sink.on_event(engine, ev);
    }
    fleet.set(id, Health::kHealthy);  // next sweep sees it back
    engine.observe(fleet.at(now += 20 * kNsPerSec));
    if (round < 2) {
      EXPECT_FALSE(sim.vm_killed(v)) << "round " << round;  // healed
    } else {
      EXPECT_TRUE(sim.vm_killed(v));  // budget spent: left for a human
      sim.restart_vm(v);
    }
  }
  EXPECT_EQ(sink.stats().restarts, 2u);
  EXPECT_EQ(sink.restarts_of("vm"), 2u);
  EXPECT_EQ(sink.stats().suppressed_budget, 1u);
}

TEST_F(RestartFixture, StillDeadAcrossSweepsIsRestartedOnce) {
  // A restarted VM reads dead until its fresh beats reach the detector.
  // Events are edges, not levels, so those sweeps restart it no further.
  const int v = add_vm("vm");
  PolicyEngine engine;
  CloudRestartSink sink(sim, {.restart_budget = 10});

  FleetScript fleet;
  const hub::AppId id = fleet.add("vm", Health::kHealthy);
  util::TimeNs now = kNsPerSec;
  engine.observe(fleet.at(now));

  sim.kill_vm(v);
  fleet.set(id, Health::kDead);
  for (int sweep = 0; sweep < 10; ++sweep) {
    for (const auto& ev : engine.observe(fleet.at(now += kNsPerSec))) {
      sink.on_event(engine, ev);
    }
  }
  EXPECT_FALSE(sim.vm_killed(v));
  EXPECT_EQ(sink.stats().restarts, 1u);
  EXPECT_EQ(engine.stats().deaths, 1u);
}

TEST_F(RestartFixture, QuarantinedAndUnknownAppsAreNeverRestarted) {
  const int v = add_vm("flappy");
  PolicyEngine engine({.flap_threshold = 2});
  CloudRestartSink sink(sim, {.restart_budget = 10});

  FleetScript fleet;
  const hub::AppId id = fleet.add("flappy", Health::kHealthy);
  const hub::AppId ghost = fleet.add("no-such-vm", Health::kHealthy);
  engine.observe(fleet.at(kNsPerSec));

  // Pre-flap only the flapper: one full cycle = 2 edges = quarantined.
  fleet.set(id, Health::kDead);
  engine.observe(fleet.at(10 * kNsPerSec));
  fleet.set(id, Health::kHealthy);
  engine.observe(fleet.at(20 * kNsPerSec));
  ASSERT_TRUE(engine.quarantined(id));

  // Now both die in one sweep. The ghost's single edge stays below the
  // flap threshold, so it reaches the sink's VM lookup — and misses.
  sim.kill_vm(v);
  fleet.set(id, Health::kDead);
  fleet.set(ghost, Health::kDead);
  for (const auto& ev : engine.observe(fleet.at(40 * kNsPerSec))) {
    sink.on_event(engine, ev);
  }
  EXPECT_TRUE(sim.vm_killed(v));  // quarantined: left alone
  EXPECT_EQ(sink.stats().restarts, 0u);
  EXPECT_EQ(sink.stats().suppressed_quarantined, 1u);
  EXPECT_EQ(sink.stats().unknown_apps, 1u);
}

TEST_F(RestartFixture, BudgetRefillsOverTimeUpToTheCap) {
  const int v = add_vm("vm");
  // Flap quarantine off (threshold out of reach): this test scripts rapid
  // kill/heal cycles and must exercise the BUDGET guard, not the flap one.
  PolicyEngine engine({.flap_threshold = 100});
  // 2 credits, one refilling per 60s of event time.
  CloudRestartSink sink(
      sim, {.restart_budget = 2, .budget_refill_ns = 60 * kNsPerSec});

  FleetScript fleet;
  const hub::AppId id = fleet.add("vm", Health::kHealthy);
  util::TimeNs now = kNsPerSec;
  engine.observe(fleet.at(now));

  auto die_once = [&] {
    sim.kill_vm(v);
    fleet.set(id, Health::kDead);
    for (const auto& ev : engine.observe(fleet.at(now += 10 * kNsPerSec))) {
      sink.on_event(engine, ev);
    }
    fleet.set(id, Health::kHealthy);
    engine.observe(fleet.at(now += 10 * kNsPerSec));
  };

  // Two quick deaths spend the whole budget; the third (still inside the
  // refill interval) is suppressed — exactly the lifetime-cap behavior.
  die_once();
  die_once();
  EXPECT_EQ(sink.restarts_of("vm"), 2u);
  die_once();
  EXPECT_TRUE(sim.vm_killed(v));
  EXPECT_EQ(sink.stats().suppressed_budget, 1u);
  sim.restart_vm(v);  // a human clears the backlog
  fleet.set(id, Health::kHealthy);
  engine.observe(fleet.at(now += 10 * kNsPerSec));

  // After one quiet refill interval a single credit is back: the next
  // death heals automatically again — the long-lived-fleet fix (a
  // transient storm no longer disables automation forever).
  now += 60 * kNsPerSec;
  die_once();
  EXPECT_FALSE(sim.vm_killed(v));
  EXPECT_EQ(sink.stats().restarts, 3u);
  EXPECT_GE(sink.stats().refilled, 1u);
  // Spent count reflects the refill accounting, capped by what was spent.
  EXPECT_LE(sink.restarts_of("vm"), 2u);
}

TEST_F(RestartFixture, RefillNeverBanksCreditsAboveTheBudget) {
  const int v = add_vm("vm");
  PolicyEngine engine({.flap_threshold = 100});  // budget guard under test
  CloudRestartSink sink(
      sim, {.restart_budget = 1, .budget_refill_ns = 10 * kNsPerSec});

  FleetScript fleet;
  const hub::AppId id = fleet.add("vm", Health::kHealthy);
  util::TimeNs now = kNsPerSec;
  engine.observe(fleet.at(now));

  // A very long healthy stretch must not accumulate "negative spend": an
  // app with a full budget banks nothing, however long it behaves.
  now += 1000 * kNsPerSec;
  for (int round = 0; round < 2; ++round) {
    sim.kill_vm(v);
    fleet.set(id, Health::kDead);
    for (const auto& ev : engine.observe(fleet.at(now += kNsPerSec))) {
      sink.on_event(engine, ev);
    }
    fleet.set(id, Health::kHealthy);
    engine.observe(fleet.at(now += kNsPerSec));
  }
  // Budget 1: first death healed, second (2s later, inside the 10s refill
  // interval) suppressed — the millennium of good behavior bought nothing.
  EXPECT_EQ(sink.stats().restarts, 1u);
  EXPECT_EQ(sink.stats().suppressed_budget, 1u);
  EXPECT_TRUE(sim.vm_killed(v));
}

TEST_F(RestartFixture, SetMonitorRejectsForeignHub) {
  // A monitor on another hub would sweep a fleet that never beats.
  EXPECT_THROW(sim.set_monitor(std::make_shared<Monitor>(
                   std::make_shared<hub::HeartbeatHub>())),
               std::logic_error);
  EXPECT_NO_THROW(sim.set_monitor(std::make_shared<Monitor>(hub)));
}

// --------------------------------------- the 1000-VM self-healing drill

// The acceptance scenario (ISSUE 4), now driven through the "rack_kill"
// drill of sim::ScenarioRunner at a 1000-VM machine: an injected
// whole-rack kill must fold into one correlated event and heal back to 0
// dead purely through CloudRestartSink — while a deliberately flapping VM
// is quarantined instead of restart-looped. The runner owns spinup, fault
// scripting, and the virtual clock; the assertions are unchanged from the
// hand-rolled drill it replaced.
TEST(PolicySelfHealing, ThousandVmRackKillHealsAndFlapperIsQuarantined) {
  const sim::ScenarioSpec* spec = sim::find_scenario("rack_kill");
  ASSERT_NE(spec, nullptr);
  sim::ScenarioConfig cfg = spec->correctness;
  cfg.racks = 25;
  cfg.vms_per_rack = 40;  // 1000 VMs
  cfg.duration_s = 60.0;  // stop before the scripted operator restart
  sim::ScenarioRunner runner(*spec, cfg, /*seed=*/42);
  const sim::ScenarioResult& res = runner.run();
  for (const auto& v : res.violations) ADD_FAILURE() << v;
  ASSERT_TRUE(res.ok());

  // The runner's seed picked the victims; the facts map names them.
  const std::string victim = res.facts.at("victim_rack");
  const std::string flapper = res.facts.at("flapper");
  const int flap_kills = std::stoi(res.facts.at("flap_kills"));
  cloud::CloudSim& cloud = runner.sim();
  const TestSink& sink = runner.events();
  PolicyEngine& engine = runner.engine();
  const CloudRestartSink* restarter = runner.restarter();
  ASSERT_NE(restarter, nullptr);

  // ONE correlated event for the rack, naming all 40 members — not 40
  // separate death alerts.
  ASSERT_EQ(sink.count(EventKind::kCorrelatedFailure), 1u);
  for (const auto& ev : sink.events()) {
    if (ev.kind != EventKind::kCorrelatedFailure) continue;
    EXPECT_EQ(ev.group, victim);
    EXPECT_EQ(ev.apps.size(), static_cast<std::size_t>(cfg.vms_per_rack));
  }

  // The flapper was contained: quarantined after repeated cycles, its
  // automatic restarts stopped short of the crash-loop length AND of the
  // budget — it sits dead awaiting a human, not in a restart loop.
  EXPECT_TRUE(engine.quarantined(flapper));
  EXPECT_GE(flap_kills, 2);
  EXPECT_LE(restarter->restarts_of(flapper), 3u);
  EXPECT_LT(restarter->restarts_of(flapper),
            static_cast<std::uint32_t>(flap_kills));
  EXPECT_GE(restarter->stats().suppressed_quarantined, 1u);
  EXPECT_TRUE(cloud.vm_killed(cloud.find_vm(flapper)));

  // The rack healed without human input: every member restarted exactly
  // once, and the fleet (flapper aside) swept back to zero dead.
  std::uint64_t rack_restarts = 0;
  for (int v = 0; v < cfg.vms_per_rack; ++v) {
    const std::string name = victim + "/vm-" + std::to_string(v);
    EXPECT_FALSE(cloud.vm_killed(cloud.find_vm(name))) << name;
    rack_restarts += restarter->restarts_of(name);
  }
  EXPECT_EQ(rack_restarts, static_cast<std::uint64_t>(cfg.vms_per_rack));

  // Operator fixes the flapper; with it stable again, the whole fleet —
  // 1000 VMs — must sweep clean: 0 dead, everything healthy.
  cloud.restart_vm(cloud.find_vm(flapper));
  test::step_sim(cloud, 200);
  const fault::FleetReport report = cloud.fleet_health(
      fault::FleetDetector({.absolute_staleness_ns = 5 * kNsPerSec}));
  EXPECT_EQ(report.fleet.apps, 1000u);
  EXPECT_EQ(report.fleet.dead, 0u);
  EXPECT_EQ(report.fleet.healthy, 1000u);
  // Still quarantined (cooldown not yet served) — trust is rebuilt on the
  // policy's clock, not the operator's.
  EXPECT_TRUE(engine.quarantined(flapper));
}

// observe() documents "externally serialized" — since the concurrency
// contract PR that is enforced, not hoped for: a sink that re-enters
// observe() mid-dispatch (the classic accidental violation) must get
// std::logic_error, not silent state corruption.
TEST(PolicySerializedContract, ReentrantObserveThrows) {
  struct ReentrantSink : ActionSink {
    fault::FleetReport report;
    bool threw = false;
    void on_event(const PolicyEngine& engine, const FleetEvent&) override {
      try {
        // Model the bug: a sink clawing back mutable access mid-dispatch.
        const_cast<PolicyEngine&>(engine).observe(report);
      } catch (const std::logic_error&) {
        threw = true;
      }
    }
  };

  PolicyEngine engine;
  auto sink = std::make_shared<ReentrantSink>();
  engine.add_sink(sink);

  FleetScript fleet;
  fleet.add("a", Health::kHealthy);
  sink->report = fleet.at(1 * kNsPerSec);
  // First sweep emits warming-up -> healthy, dispatching into the sink,
  // whose nested observe() must be rejected.
  const auto& events = engine.observe(fleet.at(1 * kNsPerSec));
  ASSERT_EQ(events.size(), 1u);
  EXPECT_TRUE(sink->threw);

  // The engine survives the rejected call and keeps serving.
  EXPECT_EQ(engine.stats().sweeps, 1u);
  engine.observe(fleet.at(2 * kNsPerSec));
  EXPECT_EQ(engine.stats().sweeps, 2u);
}

}  // namespace
}  // namespace hb::policy
