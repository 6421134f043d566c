// Fleet-wide failure detection over the hub (paper §2.6 at fleet scale):
// verdicts from aggregated summaries alone, one hub snapshot per sweep,
// wired through CloudSim fleets and the GlobalScheduler.
#include <gtest/gtest.h>
#include <unistd.h>

#include <algorithm>
#include <cstdint>
#include <filesystem>
#include <functional>
#include <limits>
#include <memory>
#include <string>
#include <utility>
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
#include "transport/shm_store.hpp"
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
  // The same beats, appended to a registry segment (ShmStore, the store
  // hbmon show reads) and to an in-process MemoryStore, and ingested by a
  // hub under one clock with summarize()'s 16-beat window, must give the
  // same summary, field by field, and so the same verdict, whichever way
  // they are observed. A backward timestamp reaches summarize() as stamped
  // from the segment and already raised from the MemoryStore; the hub
  // raises it on push. All three read it alike.
  //
  // A stamp far past the clock reaches summarize() as stamped from the
  // segment, and the hub applies it at the clock's reading. The two differ
  // while it is in the window, and agree once 16 beats have pushed it out:
  // the raise it caused in the hub ended with the next beat. A
  // MemoryStore holds its own process's Channel stamps, which never run
  // ahead of its clock, and raises without a bound: it is not fed that
  // beat.
  struct Row {
    const char* name;
    double target_min;
    std::vector<util::TimeNs> intervals;  // one beat after each
    util::TimeNs silence;                 // after the last beat
    Health expected;
    /// Beats after which one extra beat stamped kFuture past the clock
    /// reaches the segment and the hub; -1: none.
    int future_after = -1;
  };
  constexpr util::TimeNs kFuture = 10 * kNsPerSec;
  constexpr std::size_t kSummarizeWindow = 16;
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
  // Beat 5 is stamped 30 ms before beat 4: every side raises it to beat
  // 4 (a zero interval) and measures the next interval from beat 4.
  std::vector<util::TimeNs> backward = repeat(10, 100 * kNsPerMs);
  backward[4] = -30 * kNsPerMs;
  const Row rows[] = {
      {"warming-up", 1.0, repeat(2, 100 * kNsPerMs), 100 * kNsPerSec,
       Health::kWarmingUp},
      {"healthy", 1.0, repeat(10, 100 * kNsPerMs), 0, Health::kHealthy},
      {"slow", 100.0, repeat(10, 100 * kNsPerMs), 0, Health::kSlow},
      {"erratic", 1.0, alternating, 0, Health::kErratic},
      {"dead", 1.0, repeat(10, 100 * kNsPerMs), kNsPerSec, Health::kDead},
      {"jitter-borderline", 1.0, borderline, 0, Health::kHealthy},
      {"backward-timestamp", 1.0, backward, 0, Health::kHealthy},
      {"future-timestamp", 1.0, repeat(36, 100 * kNsPerMs), 0,
       Health::kHealthy, /*future_after=*/20},
  };

  const FleetDetector det;
  const auto inf = std::numeric_limits<double>::infinity();
  const std::filesystem::path file =
      std::filesystem::temp_directory_path() /
      ("hb_reader_hub_agree_" + std::to_string(::getpid()) + ".hb");
  for (const Row& row : rows) {
    auto clock = std::make_shared<util::ManualClock>();
    auto store = transport::ShmStore::create(file, row.name, 256, 16);
    store->set_target({row.target_min, inf});
    auto memory = std::make_shared<core::MemoryStore>(256, 16);
    memory->set_target({row.target_min, inf});
    hub::HeartbeatHub hub(test::manual_hub_opts(clock, 4, kSummarizeWindow));
    const hub::AppId id = hub.register_app(row.name, {row.target_min, inf});
    util::TimeNs t = 0;
    for (std::size_t i = 0; i < row.intervals.size(); ++i) {
      if (static_cast<int>(i) == row.future_after) {
        store->append(core::HeartbeatRecord{.timestamp_ns = t + kFuture});
        hub.ingest(id, t + kFuture);
      }
      t += row.intervals[i];
      clock->set(std::max(clock->now(), t));
      store->append(core::HeartbeatRecord{.timestamp_ns = t});
      memory->append(core::HeartbeatRecord{.timestamp_ns = t});
      hub.ingest(id, t);
    }
    clock->advance(row.silence);

    const hub::AppSummary from_reader =
        summarize(core::HeartbeatReader(store, clock));
    const hub::AppSummary from_hub = hub.summary(id);
    const std::pair<const char*, hub::AppSummary> others[] = {
        {"hub", from_hub},
        {"MemoryStore", summarize(core::HeartbeatReader(memory, clock))}};
    for (const auto& [side, other] : others) {
      SCOPED_TRACE(side);
      if (row.future_after >= 0 && std::string(side) == "MemoryStore") {
        continue;  // not fed the future beat
      }
      EXPECT_EQ(from_reader.total_beats, other.total_beats) << row.name;
      EXPECT_EQ(from_reader.window_beats, other.window_beats) << row.name;
      EXPECT_EQ(from_reader.rate_bps, other.rate_bps) << row.name;
      EXPECT_EQ(from_reader.interval_mean_ns, other.interval_mean_ns)
          << row.name;
      EXPECT_EQ(from_reader.interval_stddev_ns, other.interval_stddev_ns)
          << row.name;
    }
    // Jitter is zero exactly when every interval after the lead-in is the
    // same: steady beats read none, erratic ones some.
    const bool steady =
        std::adjacent_find(row.intervals.begin() + 1, row.intervals.end(),
                           std::not_equal_to<>()) == row.intervals.end();
    EXPECT_EQ(from_reader.interval_stddev_ns == 0.0, steady) << row.name;

    const Health verdict = det.classify(core::HeartbeatReader(store, clock));
    EXPECT_EQ(verdict, det.classify(from_reader)) << row.name;
    EXPECT_EQ(verdict, det.classify(from_hub)) << row.name;
    EXPECT_EQ(verdict, row.expected) << row.name;
  }
  std::filesystem::remove(file);
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
  auto hub = std::make_shared<hub::HeartbeatHub>(
      test::manual_hub_opts(clock, /*shards=*/16));
  cloud::CloudSim sim(25, /*capacity=*/200.0, clock, hub);

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

// ------------------------------------------- scheduler integration (dead)

TEST(FleetScheduler, DeadReaderBackedAppsDonateTheirCores) {
  // Apps observed through their own HeartbeatReaders are judged by the
  // fleet detector's rule; a dead one donates before any live app is taxed.
  auto clock = std::make_shared<util::ManualClock>();
  auto store_a = std::make_shared<core::MemoryStore>(512, 8);
  auto store_b = std::make_shared<core::MemoryStore>(512, 8);
  core::Channel a{store_a, clock};
  core::Channel b{store_b, clock};
  const auto inf = std::numeric_limits<double>::infinity();
  a.set_target(10.0, inf);
  b.set_target(30.0, inf);

  sched::GlobalScheduler scheduler({.total_cores = 4, .min_cores_per_app = 1});
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
  // Polls through the cooldown that follows each move.
  auto cool_down = [&] {
    for (int i = 0; i < sched::GlobalScheduler::kCooldownPolls; ++i) {
      EXPECT_FALSE(scheduler.poll());
    }
  };
  beat(10, true);
  EXPECT_TRUE(scheduler.poll());  // b gets the 2 free cores
  cool_down();
  EXPECT_TRUE(scheduler.poll());
  cool_down();
  EXPECT_EQ(cores_b, 3);
  EXPECT_EQ(scheduler.free_cores(), 0);

  // b dies; a turns mildly deficient. b's frozen window still reads the
  // deeper deficit (20 vs 30 b/s), so only its death verdict stops it
  // from outranking a and keeping its cores.
  beat(30, false);  // b silent for 3 s > 8 x its 50 ms interval
  a.set_target(12.0, inf);
  EXPECT_TRUE(scheduler.poll());
  EXPECT_EQ(cores_b, 2);  // dead donor taxed first
  EXPECT_EQ(cores_a, 2);
  cool_down();
  EXPECT_TRUE(scheduler.poll());
  cool_down();
  EXPECT_EQ(cores_b, 1);  // taxed down to the min floor
  EXPECT_EQ(cores_a, 3);
  EXPECT_FALSE(scheduler.poll());
}

TEST(FleetScheduler, DeadAppsReturnTheirCoresWhenNobodyStarves) {
  // With no needy app, a dead app's cores go back to the free pool one
  // move at a time, down to the per-app minimum.
  auto clock = std::make_shared<util::ManualClock>();
  auto store_a = std::make_shared<core::MemoryStore>(512, 8);
  auto store_b = std::make_shared<core::MemoryStore>(512, 8);
  core::Channel a{store_a, clock};
  core::Channel b{store_b, clock};
  const auto inf = std::numeric_limits<double>::infinity();
  a.set_target(1.0, inf);   // 10 b/s: in band
  b.set_target(30.0, inf);  // 10 b/s: needy while alive

  sched::GlobalScheduler scheduler({.total_cores = 4, .min_cores_per_app = 1});
  int cores_b = 0;
  scheduler.add_app("a", core::HeartbeatReader(store_a, clock), [](int) {});
  scheduler.add_app("b", core::HeartbeatReader(store_b, clock),
                    [&](int c) { cores_b = c; });
  auto cool_down = [&] {
    for (int i = 0; i < sched::GlobalScheduler::kCooldownPolls; ++i) {
      EXPECT_FALSE(scheduler.poll());
    }
  };
  auto beat = [&](int n, bool with_b) {
    for (int i = 0; i < n; ++i) {
      clock->advance(100 * kNsPerMs);
      a.beat();
      if (with_b) b.beat();
    }
  };

  beat(10, true);
  EXPECT_TRUE(scheduler.poll());
  cool_down();
  EXPECT_TRUE(scheduler.poll());
  cool_down();
  EXPECT_EQ(cores_b, 3);
  EXPECT_EQ(scheduler.free_cores(), 0);

  beat(30, false);  // b silent for 3 s > 8 x its 100 ms interval
  EXPECT_TRUE(scheduler.poll());
  EXPECT_EQ(cores_b, 2);
  EXPECT_EQ(scheduler.free_cores(), 1);
  cool_down();
  EXPECT_TRUE(scheduler.poll());
  EXPECT_EQ(cores_b, 1);
  EXPECT_EQ(scheduler.free_cores(), 2);
  cool_down();
  EXPECT_FALSE(scheduler.poll());  // at the minimum; a is in band
  EXPECT_EQ(scheduler.allocation(0), 1);
}

TEST(FleetScheduler, DeadAppsAreNeverReceivers) {
  auto clock = std::make_shared<util::ManualClock>();
  auto store_a = std::make_shared<core::MemoryStore>(512, 8);
  auto store_b = std::make_shared<core::MemoryStore>(512, 8);
  core::Channel a{store_a, clock};
  core::Channel b{store_b, clock};
  const auto inf = std::numeric_limits<double>::infinity();
  a.set_target(1.0, inf);
  b.set_target(50.0, inf);  // huge min: permanently "deficient"

  sched::GlobalScheduler scheduler(
      {.total_cores = 4, .min_cores_per_app = 1, .warmup_beats = 3});
  int cores_b = 0;
  scheduler.add_app("a", core::HeartbeatReader(store_a, clock), [](int) {});
  scheduler.add_app("b", core::HeartbeatReader(store_b, clock),
                    [&](int c) { cores_b = c; });

  // b beat a little once (warm), then died; a stays healthy.
  for (int i = 0; i < 5; ++i) {
    clock->advance(100 * kNsPerMs);
    a.beat();
    b.beat();
  }
  for (int i = 0; i < 50; ++i) {
    clock->advance(100 * kNsPerMs);
    a.beat();
  }
  // b's frozen window still reads a deep deficit that would attract the
  // free cores; its death verdict keeps anything from moving toward it.
  EXPECT_FALSE(scheduler.poll());
  EXPECT_EQ(cores_b, 1);  // untouched at its initial minimum
}

}  // namespace
}  // namespace hb::fault
