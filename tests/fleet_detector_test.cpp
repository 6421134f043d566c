// Fleet-wide failure detection over the hub (paper §2.6 at fleet scale):
// verdicts from aggregated summaries alone, one hub snapshot per sweep,
// wired through CloudSim fleets and the hub-backed GlobalScheduler.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <limits>
#include <memory>
#include <string>
#include <vector>

#include "cloud/cloud_sim.hpp"
#include "core/channel.hpp"
#include "core/memory_store.hpp"
#include "core/reader.hpp"
#include "fault/fleet_detector.hpp"
#include "hub/hub.hpp"
#include "policy/policy_engine.hpp"
#include "sched/global_scheduler.hpp"
#include "test_support.hpp"
#include "util/clock.hpp"
#include "util/time.hpp"

namespace hb::fault {
namespace {

using util::kNsPerMs;
using util::kNsPerSec;

// ------------------------------------------------------- classify() units

hub::AppSummary base_summary() {
  hub::AppSummary s;
  s.name = "app";
  s.total_beats = 100;
  s.window_beats = 50;
  s.rate_bps = 10.0;
  s.staleness_ns = 100 * kNsPerMs;
  s.interval_mean_ns = 100.0 * kNsPerMs;
  s.interval_stddev_ns = 0.0;
  s.target = core::TargetRate{1.0, std::numeric_limits<double>::infinity()};
  return s;
}

TEST(FleetClassify, HealthySteadyBeat) {
  FleetDetector det;
  EXPECT_EQ(det.classify(base_summary()), Health::kHealthy);
}

TEST(FleetClassify, WarmingUpOnFewLifetimeBeats) {
  FleetDetector det;
  hub::AppSummary s = base_summary();
  s.total_beats = 2;
  EXPECT_EQ(det.classify(s), Health::kWarmingUp);
}

TEST(FleetClassify, DeadPastRelativeStaleness) {
  FleetDetector det;  // staleness_factor 8
  hub::AppSummary s = base_summary();
  s.staleness_ns = kNsPerSec;  // 10x the 100ms mean
  EXPECT_EQ(det.classify(s), Health::kDead);
}

TEST(FleetClassify, StalenessSlackDiscountsTransportLag) {
  // A pump-fed hub sees staleness inflated by up to one poll interval plus
  // the producer's batch hold; the slack keeps that from reading as death.
  hub::AppSummary s = base_summary();
  s.staleness_ns = kNsPerSec;  // 10x the 100ms mean: dead without slack
  FleetDetector strict;
  EXPECT_EQ(strict.classify(s), Health::kDead);
  FleetDetector slack({.staleness_slack_ns = 300 * kNsPerMs});
  EXPECT_EQ(slack.classify(s), Health::kHealthy);  // 700ms < 8 x 100ms

  // The slack also applies to the absolute bound.
  hub::AppSummary never = base_summary();
  never.total_beats = 0;
  never.window_beats = 0;
  never.interval_mean_ns = 0.0;
  never.staleness_ns = 600 * kNsPerMs;
  FleetDetector absolute({.absolute_staleness_ns = 500 * kNsPerMs});
  EXPECT_EQ(absolute.classify(never), Health::kDead);
  FleetDetector absolute_slack({.absolute_staleness_ns = 500 * kNsPerMs,
                                .staleness_slack_ns = 200 * kNsPerMs});
  EXPECT_EQ(absolute_slack.classify(never), Health::kWarmingUp);
}

TEST(FleetClassify, DeadPastAbsoluteStalenessEvenWithZeroMean) {
  // The summary-side twin of DetectorFixture.AbsoluteStalenessAppliesAfter-
  // WarmUpToo: all-one-tick beats leave mean 0; only the absolute bound can
  // declare death.
  FleetDetector det({.absolute_staleness_ns = 2 * kNsPerSec});
  hub::AppSummary s = base_summary();
  s.interval_mean_ns = 0.0;
  s.rate_bps = std::numeric_limits<double>::infinity();
  s.staleness_ns = 3 * kNsPerSec;
  EXPECT_EQ(det.classify(s), Health::kDead);
  // And for apps that never beat at all (summary still zeroed).
  hub::AppSummary never;
  never.staleness_ns = 3 * kNsPerSec;
  EXPECT_EQ(det.classify(never), Health::kDead);
}

TEST(FleetClassify, SlowBelowRegisteredMin) {
  FleetDetector det;
  hub::AppSummary s = base_summary();
  s.target.min_bps = 20.0;  // rate 10 < 20
  EXPECT_EQ(det.classify(s), Health::kSlow);
}

TEST(FleetClassify, InfiniteRateIsNotSlow) {
  FleetDetector det;
  hub::AppSummary s = base_summary();
  s.rate_bps = std::numeric_limits<double>::infinity();
  s.target.min_bps = 20.0;
  s.interval_mean_ns = 0.0;
  EXPECT_EQ(det.classify(s), Health::kHealthy);
}

TEST(FleetClassify, ErraticOnHighJitter) {
  FleetDetector det;  // kJitterFactor 0.8
  hub::AppSummary s = base_summary();
  s.interval_stddev_ns = 0.9 * s.interval_mean_ns;
  EXPECT_EQ(det.classify(s), Health::kErratic);
}

TEST(FleetClassify, EvictedIsDead) {
  FleetDetector det;
  hub::AppSummary s = base_summary();
  s.evicted = true;
  EXPECT_EQ(det.classify(s), Health::kDead);
}

TEST(FleetClassify, EmptyWindowAfterAgingIsWarmingUpNotSlow) {
  FleetDetector det;
  hub::AppSummary s = base_summary();
  s.window_beats = 0;  // warmed up by lifetime beats, no windowed evidence
  s.rate_bps = 0.0;
  s.interval_mean_ns = 0.0;
  s.target.min_bps = 20.0;
  s.staleness_ns = 10 * kNsPerMs;
  EXPECT_EQ(det.classify(s), Health::kWarmingUp);
}

TEST(FleetClassify, ReaderAndHubAgree) {
  // The same beats, fed to a MemoryStore channel and to a hub under one
  // clock, must get the same verdict whichever way they are observed.
  struct Row {
    const char* name;
    double target_min;
    std::vector<util::TimeNs> intervals;  // one beat after each
    util::TimeNs silence;                 // after the last beat
    Health expected;
  };
  const auto repeat = [](int n, util::TimeNs interval) {
    return std::vector<util::TimeNs>(static_cast<std::size_t>(n), interval);
  };
  std::vector<util::TimeNs> alternating;  // 10 ms / 1 s, CV 0.88
  for (int i = 0; i < 10; ++i) {
    alternating.push_back(i % 2 == 0 ? 10 * kNsPerMs : kNsPerSec);
  }
  // 10 beats whose 9 intervals are 5 x 120 ms and 4 x 10 ms: population
  // CV 0.769 (healthy), but the sample stddev would read CV 0.815 (erratic).
  std::vector<util::TimeNs> borderline = {kNsPerMs};  // lead-in to beat 1
  for (int i = 0; i < 9; ++i) {
    borderline.push_back(i % 2 == 0 ? 120 * kNsPerMs : 10 * kNsPerMs);
  }
  const Row rows[] = {
      {"warming-up", 1.0, repeat(2, 100 * kNsPerMs), 100 * kNsPerSec,
       Health::kWarmingUp},
      {"healthy", 1.0, repeat(10, 100 * kNsPerMs), 0, Health::kHealthy},
      {"slow", 100.0, repeat(10, 100 * kNsPerMs), 0, Health::kSlow},
      {"erratic", 1.0, alternating, 0, Health::kErratic},
      {"dead", 1.0, repeat(10, 100 * kNsPerMs), kNsPerSec, Health::kDead},
      {"jitter-borderline", 1.0, borderline, 0, Health::kHealthy},
  };

  const FleetDetector det;
  const auto inf = std::numeric_limits<double>::infinity();
  for (const Row& row : rows) {
    auto clock = std::make_shared<util::ManualClock>();
    auto store = std::make_shared<core::MemoryStore>(256, 16);
    core::Channel producer{store, clock};
    producer.set_target(row.target_min, inf);
    hub::HeartbeatHub hub(test::manual_hub_opts(clock));
    const hub::AppId id = hub.register_app(row.name, {row.target_min, inf});
    for (const util::TimeNs interval : row.intervals) {
      clock->advance(interval);
      producer.beat();
      hub.beat(id);
    }
    clock->advance(row.silence);

    const Health from_reader =
        det.classify(core::HeartbeatReader(store, clock));
    EXPECT_EQ(from_reader, det.classify(hub.summary(id))) << row.name;
    EXPECT_EQ(from_reader, row.expected) << row.name;
  }
}

// -------------------------------------------------------------- hub sweeps

TEST(FleetSweep, MixedHubFleetRollsUp) {
  auto clock = std::make_shared<util::ManualClock>();
  hub::HeartbeatHub hub(test::manual_hub_opts(clock));

  const auto inf = std::numeric_limits<double>::infinity();
  const hub::AppId healthy = hub.register_app("healthy", {1.0, inf});
  const hub::AppId slow = hub.register_app("slow", {10.0, inf});
  const hub::AppId erratic = hub.register_app("erratic", {1.0, inf});
  const hub::AppId dead = hub.register_app("dead", {1.0, inf});
  hub.register_app("silent", {1.0, inf});

  for (int tick = 0; tick < 200; ++tick) {
    clock->advance(50 * kNsPerMs);  // 10s total
    hub.beat(healthy);                              // 20 b/s
    if (tick % 10 == 0) hub.beat(slow);             // 2 b/s < min 10
    if (tick % 16 <= 1) hub.beat(erratic);          // 50ms / 750ms alternation
    if (tick < 100) hub.beat(dead);                 // stops at t = 5s
  }

  FleetDetector det({.absolute_staleness_ns = 20 * kNsPerSec});
  const FleetReport report = det.sweep(hub.snapshot());

  ASSERT_EQ(report.apps.size(), 5u);
  for (const AppHealth& app : report.apps) {
    if (app.name == "healthy") {
      EXPECT_EQ(app.health, Health::kHealthy);
    } else if (app.name == "slow") {
      EXPECT_EQ(app.health, Health::kSlow);
    } else if (app.name == "erratic") {
      EXPECT_EQ(app.health, Health::kErratic);
    } else if (app.name == "dead") {
      EXPECT_EQ(app.health, Health::kDead);
    } else if (app.name == "silent") {
      EXPECT_EQ(app.health, Health::kWarmingUp);
    }
  }
  const FleetHealth& fleet = report.fleet;
  EXPECT_EQ(fleet.apps, 5u);
  EXPECT_EQ(fleet.healthy, 1u);
  EXPECT_EQ(fleet.slow, 1u);
  EXPECT_EQ(fleet.erratic, 1u);
  EXPECT_EQ(fleet.dead, 1u);
  EXPECT_EQ(fleet.warming_up, 1u);
  ASSERT_EQ(fleet.dead_apps.size(), 1u);
  EXPECT_EQ(fleet.dead_apps[0], "dead");
  EXPECT_EQ(fleet.swept_at_ns, clock->now());
}

TEST(FleetSweep, SlowAppsAndWarmUpsAreCountedApart) {
  auto clock = std::make_shared<util::ManualClock>();
  hub::HubOptions opts;
  opts.clock = clock;
  hub::HeartbeatHub hub(opts);
  // 10 slow apps (rate 10 against min 100) and 10 warming-up ones.
  std::vector<hub::AppId> slow;
  for (int i = 0; i < 10; ++i) {
    slow.push_back(hub.register_app(
        "slow-" + std::to_string(i),
        {100.0, std::numeric_limits<double>::infinity()}));
    hub.register_app("silent-" + std::to_string(i));
  }
  test::beat_apps(hub, *clock, slow, /*rounds=*/10, 100 * kNsPerMs);
  const FleetReport report = FleetDetector().sweep(hub.snapshot());
  EXPECT_EQ(report.fleet.slow, 10u);
  EXPECT_EQ(report.fleet.warming_up, 10u);
  // A freshly registered app is absence of evidence, not an offense: only
  // the genuinely slow apps read slow.
  for (const AppHealth& app : report.apps) {
    EXPECT_EQ(app.health, app.name.starts_with("slow-") ? Health::kSlow
                                                        : Health::kWarmingUp)
        << app.name;
  }
}

TEST(FleetSweep, AutoEvictedDeathsStayInTheReport) {
  // Regression: once the hub auto-evicts a dead app, it left apps() — and
  // the sweep reported 0 dead, clearing alerts exactly after the death was
  // confirmed. Sweeps include evicted apps and report them dead.
  auto clock = std::make_shared<util::ManualClock>();
  hub::HubOptions opts;
  opts.evict_after_ns = 2 * kNsPerSec;
  opts.clock = clock;
  hub::HeartbeatHub hub(opts);
  const hub::AppId live = hub.register_app("live");
  const hub::AppId doomed = hub.register_app("doomed");
  test::beat_apps(hub, *clock, {live, doomed}, /*rounds=*/20, 100 * kNsPerMs);
  // 4s of silence for doomed.
  test::beat_apps(hub, *clock, {live}, /*rounds=*/40, 100 * kNsPerMs);
  ASSERT_TRUE(hub.summary(doomed).evicted);

  const FleetReport report = FleetDetector().sweep(hub.snapshot());
  EXPECT_EQ(report.fleet.apps, 2u);
  EXPECT_EQ(report.fleet.dead, 1u);
  EXPECT_EQ(report.fleet.evicted, 1u);
  ASSERT_EQ(report.fleet.dead_apps.size(), 1u);
  EXPECT_EQ(report.fleet.dead_apps[0], "doomed");
}

TEST(FleetSweep, EvictionRevivalChurnStaysConsistent) {
  // A producer that kill/restart-cycles ACROSS the hub's evict_after_ns
  // boundary: every silent phase must confirm death (and eviction), every
  // active phase must revive it — with total_beats accumulating through
  // evictions, FleetHealth::{dead,evicted} tracking each phase exactly,
  // and the policy layer counting one death + one revival per cycle (the
  // substrate the flap detector counts edges on).
  auto clock = std::make_shared<util::ManualClock>();
  hub::HubOptions opts;
  opts.evict_after_ns = 2 * kNsPerSec;
  opts.clock = clock;
  hub::HeartbeatHub hub(opts);
  const hub::AppId churn = hub.register_app("churn");
  const hub::AppId steady = hub.register_app("steady");

  const FleetDetector det;
  policy::PolicyEngine engine(
      {.flap_window_ns = 1000 * kNsPerSec, .flap_threshold = 100});

  constexpr int kCycles = 3;
  for (int cycle = 0; cycle < kCycles; ++cycle) {
    // Active: both beat at 10 b/s for 2 s.
    test::beat_apps(hub, *clock, {churn, steady}, /*rounds=*/20,
                    100 * kNsPerMs);
    FleetReport up = det.sweep(hub.snapshot());
    engine.observe(up);
    EXPECT_EQ(up.fleet.apps, 2u) << "cycle " << cycle;
    EXPECT_EQ(up.fleet.dead, 0u) << "cycle " << cycle;
    EXPECT_EQ(up.fleet.evicted, 0u) << "cycle " << cycle;
    const hub::AppSummary revived = hub.summary(churn);
    EXPECT_FALSE(revived.evicted);
    // Lifetime beats survive every eviction so far.
    EXPECT_EQ(revived.total_beats,
              static_cast<std::uint64_t>(20 * (cycle + 1)));

    // Silent: churn stops for 4 s — past the relative death bound AND the
    // eviction bound; steady keeps beating.
    test::beat_apps(hub, *clock, {steady}, /*rounds=*/40, 100 * kNsPerMs);
    FleetReport down = det.sweep(hub.snapshot());
    engine.observe(down);
    EXPECT_EQ(down.fleet.apps, 2u) << "cycle " << cycle;
    EXPECT_EQ(down.fleet.dead, 1u) << "cycle " << cycle;
    EXPECT_EQ(down.fleet.evicted, 1u) << "cycle " << cycle;
    ASSERT_EQ(down.fleet.dead_apps.size(), 1u);
    EXPECT_EQ(down.fleet.dead_apps[0], "churn");
    const hub::AppSummary evicted = hub.summary(churn);
    EXPECT_TRUE(evicted.evicted);
    EXPECT_EQ(evicted.total_beats,
              static_cast<std::uint64_t>(20 * (cycle + 1)));
  }
  // One death and one revival edge per cycle — no double-counted deaths
  // from eviction, no phantom revivals from the steady producer.
  EXPECT_EQ(engine.stats().deaths, static_cast<std::uint64_t>(kCycles));
  EXPECT_EQ(engine.stats().revivals, static_cast<std::uint64_t>(kCycles - 1));
  EXPECT_EQ(engine.stats().quarantines, 0u);  // threshold far away

  // Come back one last time: the fleet ends clean.
  test::beat_apps(hub, *clock, {churn, steady}, /*rounds=*/20,
                  100 * kNsPerMs);
  const FleetReport healed = det.sweep(hub.snapshot());
  engine.observe(healed);
  EXPECT_EQ(healed.fleet.dead, 0u);
  EXPECT_EQ(engine.stats().revivals, static_cast<std::uint64_t>(kCycles));
  EXPECT_EQ(hub.app_count(), 2u);  // revival never re-registers
}

TEST(FleetSweep, FreshFleetIsAllWarmingUp) {
  auto clock = std::make_shared<util::ManualClock>();
  hub::HubOptions opts;
  opts.clock = clock;
  hub::HeartbeatHub hub(opts);
  for (int i = 0; i < 5; ++i) hub.register_app("new-" + std::to_string(i));
  clock->advance(kNsPerSec);
  const FleetReport report = FleetDetector().sweep(hub.snapshot());
  EXPECT_EQ(report.fleet.warming_up, 5u);
}

// --------------------------------------------- CloudSim fleet, 1000 VMs

// The acceptance scenario: a 1000-VM fleet feeding one hub, with injected
// kills (silent), overcommitted targets (slow), and bursty phase schedules
// (erratic). One sweep — a single hub snapshot, no per-VM reader queries —
// must classify every injected fault correctly under the ManualClock.
TEST(FleetSweepCloud, ThousandVmFleetWithInjectedFaults) {
  auto clock = std::make_shared<util::ManualClock>();
  // Capacity is deliberately plentiful: no machine ever oversubscribes, so
  // beat patterns stay exactly as injected (contention would add jitter on
  // innocent VMs and muddy the class assertions).
  cloud::CloudSim sim(25, /*capacity=*/200.0, clock);
  auto hub = std::make_shared<hub::HeartbeatHub>(
      test::manual_hub_opts(clock, /*shards=*/16));
  sim.attach_hub(hub);

  constexpr int kVms = 1000;
  std::vector<int> killed, slow, erratic;
  for (int i = 0; i < kVms; ++i) {
    cloud::VmSpec spec;
    spec.name = "vm-" + std::to_string(i);
    spec.work_per_beat = 1.0;
    if (i % 11 == 3) {
      // Bursty: 0.5s at demand 8, 0.5s idle — at dt=0.1 the intervals
      // alternate 100ms within the burst and ~700ms across the gap
      // (CoV ~1.0). 70 cycles outlast the whole scenario.
      for (int c = 0; c < 70; ++c) {
        spec.phases.push_back({0.5, 8.0});
        spec.phases.push_back({0.5, 0.0});
      }
      spec.target_min_bps = 2.0;  // 4 b/s average: meets its goal
      erratic.push_back(i);
    } else {
      spec.phases = {{100.0, 4.0}};  // steady 4 b/s
      if (i % 7 == 2) {
        spec.target_min_bps = 8.0;  // impossible goal: slow
        slow.push_back(i);
      } else {
        spec.target_min_bps = 2.0;
      }
    }
    const int v = sim.add_vm(std::move(spec));
    if (i % 13 == 5) killed.push_back(v);
  }

  test::step_sim(sim, 150);  // t = 15s: everyone warm
  for (const int v : killed) sim.kill_vm(v);
  test::step_sim(sim, 150);  // t = 30s: kills are stale

  const FleetDetector det({.absolute_staleness_ns = 5 * kNsPerSec});
  const FleetReport report = sim.fleet_health(det);

  ASSERT_EQ(report.fleet.apps, static_cast<std::uint64_t>(kVms));
  // Build name -> verdict for exact per-class checks.
  std::vector<Health> verdicts(kVms, Health::kWarmingUp);
  for (const AppHealth& app : report.apps) {
    verdicts[static_cast<std::size_t>(
        std::stoi(app.name.substr(3)))] = app.health;
  }
  for (const int v : killed) {
    EXPECT_EQ(verdicts[static_cast<std::size_t>(v)], Health::kDead)
        << "vm-" << v;
  }
  for (const int v : slow) {
    if (std::find(killed.begin(), killed.end(), v) != killed.end()) continue;
    EXPECT_EQ(verdicts[static_cast<std::size_t>(v)], Health::kSlow)
        << "vm-" << v;
  }
  for (const int v : erratic) {
    if (std::find(killed.begin(), killed.end(), v) != killed.end()) continue;
    EXPECT_EQ(verdicts[static_cast<std::size_t>(v)], Health::kErratic)
        << "vm-" << v;
  }
  EXPECT_EQ(report.fleet.dead, killed.size());
  EXPECT_EQ(report.fleet.healthy + report.fleet.slow + report.fleet.erratic,
            static_cast<std::uint64_t>(kVms) - killed.size());
  // Restart heals: after enough fresh beats wash out the gap, the rollup
  // settles with the fleet alive again (dead drops to zero at the first
  // post-restart sweep; stability means the revival washed through).
  for (const int v : killed) sim.restart_vm(v);
  const FleetReport healed =
      test::sweep_until_stable(sim, det, /*max_steps=*/600);
  EXPECT_EQ(healed.fleet.dead, 0u);
}

TEST(FleetSweepCloud, FleetHealthRequiresAnAttachedHub) {
  auto clock = std::make_shared<util::ManualClock>();
  cloud::CloudSim sim(2, 10.0, clock);
  EXPECT_THROW(sim.fleet_health(FleetDetector{}), std::logic_error);
}

// ------------------------------------------- scheduler integration (dead)

TEST(FleetScheduler, DeadAppsDonateTheirCores) {
  auto clock = std::make_shared<util::ManualClock>();
  auto hub = std::make_shared<hub::HeartbeatHub>([&] {
    hub::HubOptions opts;
    opts.shard_count = 2;
    opts.window_capacity = 8;
    opts.clock = clock;
    return opts;
  }());
  const auto inf = std::numeric_limits<double>::infinity();
  const hub::AppId a = hub->register_app("a", {10.0, inf});
  const hub::AppId b = hub->register_app("b", {1.0, inf});

  sched::GlobalScheduler scheduler(
      {.total_cores = 4,
       .min_cores_per_app = 1,
       .cooldown_polls = 0,
       .detect_failures = true,
       .fault_options = {.absolute_staleness_ns = 2 * kNsPerSec}},
      *hub);
  int cores_a = 0, cores_b = 0;
  scheduler.add_app("a", [&](int c) { cores_a = c; });
  scheduler.add_app("b", [&](int c) { cores_b = c; });

  // Both beat; b hoovers up the free cores by being needy first.
  auto beat_both = [&](int n, bool with_b) {
    for (int i = 0; i < n; ++i) {
      clock->advance(100 * kNsPerMs);
      hub->beat(a);
      if (with_b) {
        hub->beat(b);
        hub->beat(b);
      }
    }
  };
  beat_both(10, true);
  hub->set_target(b, {30.0, inf});  // b needy: gets the 2 free cores
  EXPECT_TRUE(scheduler.poll());
  EXPECT_TRUE(scheduler.poll());
  EXPECT_EQ(cores_b, 3);
  EXPECT_EQ(scheduler.free_cores(), 0);
  hub->set_target(b, {1.0, inf});

  // Now b dies. a (rate ~10 < min 10 after its target tightens) is needy;
  // the only core available must come from the dead app, min floor aside.
  beat_both(30, false);  // b silent for 3s > 2s bound
  hub->set_target(a, {20.0, inf});  // a deficient
  EXPECT_TRUE(scheduler.poll());
  EXPECT_EQ(cores_b, 2);  // dead donor taxed first
  EXPECT_EQ(cores_a, 2);
  EXPECT_TRUE(scheduler.poll());
  EXPECT_EQ(cores_b, 1);  // taxed down to the min floor
  EXPECT_EQ(cores_a, 3);
  // At the floor the dead app has nothing left to give; no further moves.
  EXPECT_FALSE(scheduler.poll());
}

TEST(FleetScheduler, DeadReaderBackedAppsDonateTheirCores) {
  // The reader-backed twin of DeadAppsDonateTheirCores: apps observed
  // through their own HeartbeatReaders are judged by the same rule.
  auto clock = std::make_shared<util::ManualClock>();
  auto store_a = std::make_shared<core::MemoryStore>(512, 8);
  auto store_b = std::make_shared<core::MemoryStore>(512, 8);
  core::Channel a{store_a, clock};
  core::Channel b{store_b, clock};
  const auto inf = std::numeric_limits<double>::infinity();
  a.set_target(10.0, inf);
  b.set_target(30.0, inf);

  sched::GlobalScheduler scheduler(
      {.total_cores = 4,
       .min_cores_per_app = 1,
       .cooldown_polls = 0,
       .detect_failures = true,
       .fault_options = {.absolute_staleness_ns = 2 * kNsPerSec}});
  int cores_a = 0, cores_b = 0;
  scheduler.add_app("a", core::HeartbeatReader(store_a, clock),
                    [&](int c) { cores_a = c; });
  scheduler.add_app("b", core::HeartbeatReader(store_b, clock),
                    [&](int c) { cores_b = c; });

  // a beats at 10 b/s (on target), b at 20 b/s while alive (needy).
  auto beat = [&](int n, bool with_b) {
    for (int i = 0; i < n; ++i) {
      clock->advance(50 * kNsPerMs);
      if (with_b) b.beat();
      clock->advance(50 * kNsPerMs);
      a.beat();
      if (with_b) b.beat();
    }
  };
  beat(10, true);
  EXPECT_TRUE(scheduler.poll());  // b gets the 2 free cores
  EXPECT_TRUE(scheduler.poll());
  EXPECT_EQ(cores_b, 3);
  EXPECT_EQ(scheduler.free_cores(), 0);

  // b dies; a turns mildly deficient. b's frozen window still reads the
  // deeper deficit (20 vs 30 b/s), so only its death verdict stops it
  // from outranking a and keeping its cores.
  beat(30, false);  // b silent for 3s > 2s bound
  a.set_target(12.0, inf);
  EXPECT_TRUE(scheduler.poll());
  EXPECT_EQ(cores_b, 2);  // dead donor taxed first
  EXPECT_EQ(cores_a, 2);
  EXPECT_TRUE(scheduler.poll());
  EXPECT_EQ(cores_b, 1);  // taxed down to the min floor
  EXPECT_EQ(cores_a, 3);
  EXPECT_FALSE(scheduler.poll());
}

TEST(FleetScheduler, DeadAppsAreNeverReceivers) {
  auto clock = std::make_shared<util::ManualClock>();
  auto hub = std::make_shared<hub::HeartbeatHub>([&] {
    hub::HubOptions opts;
    opts.shard_count = 2;
    opts.window_capacity = 8;
    opts.clock = clock;
    return opts;
  }());
  const auto inf = std::numeric_limits<double>::infinity();
  const hub::AppId a = hub->register_app("a", {1.0, inf});
  hub->register_app("b", {50.0, inf});  // huge min: permanently "deficient"

  sched::GlobalScheduler scheduler(
      {.total_cores = 4,
       .min_cores_per_app = 1,
       .warmup_beats = 3,
       .cooldown_polls = 0,
       .detect_failures = true,
       .fault_options = {.absolute_staleness_ns = 2 * kNsPerSec}},
      *hub);
  int cores_b = 0;
  scheduler.add_app("a", [](int) {});
  scheduler.add_app("b", [&](int c) { cores_b = c; });

  // b beat a little once (warm), then died; a stays healthy.
  for (int i = 0; i < 5; ++i) {
    clock->advance(100 * kNsPerMs);
    hub->beat(a);
    hub->beat(hub->id_of("b"));
  }
  for (int i = 0; i < 50; ++i) {
    clock->advance(100 * kNsPerMs);
    hub->beat(a);
  }
  // Without failure detection b's stale deficit would attract the free
  // cores; with it, nothing moves toward the dead app.
  EXPECT_FALSE(scheduler.poll());
  EXPECT_EQ(cores_b, 1);  // untouched at its initial minimum
}

TEST(FleetScheduler, NotYetRegisteredAppsAreWarmingUpNotDead) {
  // Regression: an app added to the scheduler before its producer registers
  // with the hub (the normal startup ordering) must be treated as warming
  // up — not presumed dead and taxed down to its minimum.
  auto clock = std::make_shared<util::ManualClock>();
  auto hub = std::make_shared<hub::HeartbeatHub>([&] {
    hub::HubOptions opts;
    opts.shard_count = 2;
    opts.window_capacity = 8;
    opts.clock = clock;
    return opts;
  }());
  const auto inf = std::numeric_limits<double>::infinity();
  const hub::AppId a = hub->register_app("a", {1.0, inf});

  sched::GlobalScheduler scheduler(
      {.total_cores = 4,
       .min_cores_per_app = 1,
       .cooldown_polls = 0,
       .detect_failures = true,
       .fault_options = {.absolute_staleness_ns = 2 * kNsPerSec}},
      *hub);
  int cores_a = 0, cores_late = 0;
  scheduler.add_app("a", [&](int c) { cores_a = c; });
  scheduler.add_app("late", [&](int c) { cores_late = c; });  // not in hub yet

  for (int i = 0; i < 50; ++i) {
    clock->advance(100 * kNsPerMs);
    hub->beat(a);
  }
  // 5s in (far past the 2s staleness bound), "late" still must not read as
  // a dead donor: a is healthy, nobody needy, nothing to reclaim.
  EXPECT_FALSE(scheduler.poll());
  EXPECT_EQ(cores_late, 1);

  // Once the producer registers and beats, the app joins normally — and
  // gets free cores when needy.
  const hub::AppId late = hub->register_app("late", {50.0, inf});
  for (int i = 0; i < 10; ++i) {
    clock->advance(100 * kNsPerMs);
    hub->beat(a);
    hub->beat(late);  // 10 b/s << min 50: needy once warm
  }
  EXPECT_TRUE(scheduler.poll());
  EXPECT_EQ(cores_late, 2);
  (void)cores_a;
}

TEST(FleetScheduler, HubEvictedAppsReadAsDead) {
  // The other side of the same coin: an auto-evicted app stays listed
  // (flagged) in the scheduler's snapshot and classifies dead — its cores
  // are reclaimed.
  auto clock = std::make_shared<util::ManualClock>();
  auto hub = std::make_shared<hub::HeartbeatHub>([&] {
    hub::HubOptions opts;
    opts.shard_count = 2;
    opts.window_capacity = 8;
    opts.evict_after_ns = 2 * kNsPerSec;
    opts.clock = clock;
    return opts;
  }());
  const auto inf = std::numeric_limits<double>::infinity();
  const hub::AppId a = hub->register_app("a", {1.0, inf});
  const hub::AppId b = hub->register_app("b", {1.0, inf});

  sched::GlobalScheduler scheduler(
      {.total_cores = 3,
       .min_cores_per_app = 1,
       .cooldown_polls = 0,
       .detect_failures = true,
       .fault_options = {.absolute_staleness_ns = 2 * kNsPerSec}},
      *hub);
  int cores_a = 0, cores_b = 0;
  scheduler.add_app("a", [&](int c) { cores_a = c; });
  scheduler.add_app("b", [&](int c) { cores_b = c; });

  // b grabs the free core while alive (and gets listed: seen in the hub).
  hub->set_target(b, {30.0, inf});
  for (int i = 0; i < 10; ++i) {
    clock->advance(100 * kNsPerMs);
    hub->beat(a);
    hub->beat(b);
  }
  EXPECT_TRUE(scheduler.poll());
  EXPECT_EQ(cores_b, 2);

  // b dies; past evict_after_ns the hub drops it from the listing. The
  // scheduler must still hand its core to needy a.
  for (int i = 0; i < 40; ++i) {
    clock->advance(100 * kNsPerMs);
    hub->beat(a);
  }
  EXPECT_TRUE(hub->summary(b).evicted);
  hub->set_target(a, {30.0, inf});  // a needy at ~10 b/s
  EXPECT_TRUE(scheduler.poll());
  EXPECT_EQ(cores_b, 1);
  EXPECT_EQ(cores_a, 2);
}

}  // namespace
}  // namespace hb::fault
