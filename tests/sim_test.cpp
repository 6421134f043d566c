// Simulated machine substrate: Amdahl math, app progress, core ownership,
// failures, and the heartbeat signal the sim produces.
#include <gtest/gtest.h>

#include <cmath>
#include <memory>

#include "core/channel.hpp"
#include "core/memory_store.hpp"
#include "sim/machine.hpp"
#include "sim/speedup.hpp"
#include "sim/workloads.hpp"
#include "util/clock.hpp"

namespace hb::sim {
namespace {

std::shared_ptr<core::Channel> make_channel(
    std::shared_ptr<util::ManualClock> clock, std::uint32_t window = 20) {
  return std::make_shared<core::Channel>(
      std::make_shared<core::MemoryStore>(4096, window), clock);
}

// ----------------------------------------------------------------- Amdahl

TEST(Amdahl, BaseCases) {
  EXPECT_DOUBLE_EQ(amdahl_speedup(0, 0.9), 0.0);
  EXPECT_DOUBLE_EQ(amdahl_speedup(-3, 0.9), 0.0);
  EXPECT_DOUBLE_EQ(amdahl_speedup(1, 0.0), 1.0);
  EXPECT_DOUBLE_EQ(amdahl_speedup(1, 1.0), 1.0);
}

TEST(Amdahl, PerfectParallelismIsLinear) {
  EXPECT_DOUBLE_EQ(amdahl_speedup(8, 1.0), 8.0);
}

TEST(Amdahl, SerialWorkCaps) {
  // f = 0.5: speedup can never reach 2.
  EXPECT_LT(amdahl_speedup(1000, 0.5), 2.0);
  EXPECT_NEAR(amdahl_speedup(1000, 0.5), 2.0, 0.01);
}

TEST(Amdahl, KnownValue) {
  // f = 0.95, n = 7: 1/(0.05 + 0.95/7).
  EXPECT_NEAR(amdahl_speedup(7, 0.95), 1.0 / (0.05 + 0.95 / 7.0), 1e-12);
}

TEST(Amdahl, MonotoneInCores) {
  for (int n = 1; n < 32; ++n) {
    EXPECT_LT(amdahl_speedup(n, 0.9), amdahl_speedup(n + 1, 0.9));
  }
}

TEST(Amdahl, ClampsFraction) {
  EXPECT_DOUBLE_EQ(amdahl_speedup(4, 1.5), 4.0);
  EXPECT_DOUBLE_EQ(amdahl_speedup(4, -0.5), 1.0);
}

TEST(CoresForSpeedup, FindsMinimalCount) {
  EXPECT_EQ(cores_for_speedup(1.0, 0.9, 8), 1);
  EXPECT_EQ(cores_for_speedup(4.0, 1.0, 8), 4);
  EXPECT_EQ(cores_for_speedup(10.0, 0.5, 8), -1);  // unreachable
}

// ----------------------------------------------------------------- SimApp

TEST(SimApp, EmitsBeatsAtExpectedRate) {
  auto clock = std::make_shared<util::ManualClock>();
  auto ch = make_channel(clock);
  // 1 core-second per beat, fully parallel, 4 cores => 4 beats/s.
  WorkloadSpec spec;
  spec.phases = {{Phase::kEndless, 1.0, 1.0}};
  SimApp app(spec, ch);
  int beats = 0;
  for (int i = 0; i < 1000; ++i) {
    clock->advance(util::from_seconds(0.01));
    beats += app.tick(0.01, 4);
  }
  // 10 simulated seconds at 4 beats/s.
  EXPECT_EQ(beats, 40);
  EXPECT_NEAR(ch->rate(20), 4.0, 0.05);
}

TEST(SimApp, NoCoresNoProgress) {
  auto clock = std::make_shared<util::ManualClock>();
  auto ch = make_channel(clock);
  WorkloadSpec spec;
  spec.phases = {{Phase::kEndless, 1.0, 1.0}};
  SimApp app(spec, ch);
  for (int i = 0; i < 100; ++i) {
    clock->advance(util::from_seconds(0.01));
    EXPECT_EQ(app.tick(0.01, 0), 0);
  }
  EXPECT_EQ(app.beats_emitted(), 0u);
}

TEST(SimApp, CoarseTickEmitsMultipleBeats) {
  auto clock = std::make_shared<util::ManualClock>();
  auto ch = make_channel(clock);
  WorkloadSpec spec;
  spec.phases = {{Phase::kEndless, 0.1, 1.0}};
  SimApp app(spec, ch);
  clock->advance(util::from_seconds(1.0));
  EXPECT_EQ(app.tick(1.0, 1), 10);
}

TEST(SimApp, PhasesAdvanceAndTagBeats) {
  auto clock = std::make_shared<util::ManualClock>();
  auto ch = make_channel(clock);
  WorkloadSpec spec;
  spec.phases = {{3, 0.5, 1.0}, {2, 0.25, 1.0}};
  SimApp app(spec, ch);
  for (int i = 0; i < 1000 && !app.finished(); ++i) {
    clock->advance(util::from_seconds(0.05));
    app.tick(0.05, 1);
  }
  EXPECT_TRUE(app.finished());
  EXPECT_EQ(app.beats_emitted(), 5u);
  const auto h = ch->history(5);
  ASSERT_EQ(h.size(), 5u);
  EXPECT_EQ(h[0].tag, 0u);
  EXPECT_EQ(h[2].tag, 0u);
  EXPECT_EQ(h[3].tag, 1u);  // phase index rides in the tag
  EXPECT_EQ(h[4].tag, 1u);
}

TEST(SimApp, FinishedAppStopsBeating) {
  auto clock = std::make_shared<util::ManualClock>();
  auto ch = make_channel(clock);
  WorkloadSpec spec;
  spec.phases = {{1, 0.1, 1.0}};
  SimApp app(spec, ch);
  clock->advance(util::from_seconds(1.0));
  app.tick(1.0, 1);
  EXPECT_TRUE(app.finished());
  clock->advance(util::from_seconds(1.0));
  EXPECT_EQ(app.tick(1.0, 4), 0);
}

TEST(SimApp, PotentialRateMatchesMeasured) {
  auto clock = std::make_shared<util::ManualClock>();
  auto ch = make_channel(clock, 50);
  WorkloadSpec spec;
  spec.phases = {{Phase::kEndless, 2.0, 0.95}};
  SimApp app(spec, ch);
  const double predicted = app.potential_rate(7);
  EXPECT_NEAR(predicted, amdahl_speedup(7, 0.95) / 2.0, 1e-12);
  for (int i = 0; i < 30000; ++i) {
    clock->advance(util::from_seconds(0.005));
    app.tick(0.005, 7);
  }
  EXPECT_NEAR(ch->rate(50), predicted, predicted * 0.02);
}

TEST(SimApp, NoiseIsDeterministicPerSeed) {
  // Compare the full beat-timestamp sequence: identical for equal seeds,
  // different for different seeds (total beat counts may coincide).
  auto run = [](std::uint64_t seed) {
    auto clock = std::make_shared<util::ManualClock>();
    auto ch = make_channel(clock);
    WorkloadSpec spec;
    spec.phases = {{Phase::kEndless, 0.3, 0.9}};
    spec.noise = 0.1;
    spec.seed = seed;
    SimApp app(spec, ch);
    for (int i = 0; i < 2000; ++i) {
      clock->advance(util::from_seconds(0.01));
      app.tick(0.01, 4);
    }
    std::vector<util::TimeNs> stamps;
    for (const auto& r : ch->history(4096)) stamps.push_back(r.timestamp_ns);
    return stamps;
  };
  EXPECT_EQ(run(42), run(42));
  EXPECT_NE(run(42), run(43));
}

// ---------------------------------------------------------------- Machine

struct MachineFixture : ::testing::Test {
  std::shared_ptr<util::ManualClock> clock =
      std::make_shared<util::ManualClock>();
  Machine machine{8, clock};

  int add_simple_app(double work = 1.0, double f = 1.0) {
    WorkloadSpec spec;
    spec.phases = {{Phase::kEndless, work, f}};
    return machine.add_app(spec, make_channel(clock));
  }
};

TEST_F(MachineFixture, StartsAllHealthyAndFree) {
  EXPECT_EQ(machine.num_cores(), 8);
  EXPECT_EQ(machine.healthy_cores(), 8);
}

TEST_F(MachineFixture, RejectsZeroCores) {
  EXPECT_THROW(Machine(0, clock), std::invalid_argument);
}

TEST_F(MachineFixture, AllocationGrantsAndReleases) {
  const int app = add_simple_app();
  EXPECT_EQ(machine.set_allocation(app, 3), 3);
  EXPECT_EQ(machine.owned_cores(app), 3);
  EXPECT_EQ(machine.effective_cores(app), 3);
  EXPECT_EQ(machine.set_allocation(app, 1), 1);
  EXPECT_EQ(machine.owned_cores(app), 1);
}

TEST_F(MachineFixture, AllocationLimitedByFreeCores) {
  const int a = add_simple_app();
  const int b = add_simple_app();
  EXPECT_EQ(machine.set_allocation(a, 6), 6);
  EXPECT_EQ(machine.set_allocation(b, 6), 2);  // only 2 left
}

TEST_F(MachineFixture, ReleasedCoresBecomeAvailable) {
  const int a = add_simple_app();
  const int b = add_simple_app();
  machine.set_allocation(a, 8);
  machine.set_allocation(a, 2);
  EXPECT_EQ(machine.set_allocation(b, 5), 5);
}

TEST_F(MachineFixture, FailCoreReducesEffectiveNotOwned) {
  const int app = add_simple_app();
  machine.set_allocation(app, 4);
  EXPECT_EQ(machine.fail_owned_core(app), 0);  // first owned core is core 0
  EXPECT_EQ(machine.owned_cores(app), 4);
  EXPECT_EQ(machine.effective_cores(app), 3);
  EXPECT_EQ(machine.healthy_cores(), 7);
}

TEST_F(MachineFixture, FailedCoresShedFirstOnShrink) {
  const int app = add_simple_app();
  machine.set_allocation(app, 4);
  machine.fail_owned_core(app);
  machine.set_allocation(app, 3);
  // The dead core was shed; all three remaining are alive.
  EXPECT_EQ(machine.effective_cores(app), 3);
}

TEST_F(MachineFixture, FailedCoreNotGrantedToOthers) {
  const int a = add_simple_app();
  machine.fail_core(7);
  EXPECT_EQ(machine.set_allocation(a, 8), 7);
}

TEST_F(MachineFixture, RestoreCore) {
  machine.fail_core(2);
  EXPECT_EQ(machine.healthy_cores(), 7);
  EXPECT_TRUE(machine.restore_core(2));
  EXPECT_EQ(machine.healthy_cores(), 8);
  EXPECT_FALSE(machine.restore_core(2));  // already alive
}

TEST_F(MachineFixture, FailCoreValidation) {
  EXPECT_FALSE(machine.fail_core(-1));
  EXPECT_FALSE(machine.fail_core(8));
  EXPECT_TRUE(machine.fail_core(0));
  EXPECT_FALSE(machine.fail_core(0));  // already dead
  EXPECT_EQ(machine.fail_owned_core(99), -1);
}

TEST_F(MachineFixture, StepAdvancesClockAndApps) {
  const int app = add_simple_app(0.5, 1.0);  // 2 beats/s/core
  machine.set_allocation(app, 2);
  int beats = 0;
  for (int i = 0; i < 100; ++i) beats += machine.step(0.01);
  EXPECT_EQ(machine.now_seconds(), 1.0);
  EXPECT_EQ(beats, 4);  // 2 cores fully parallel: 4 beats/s * 1s
}

TEST_F(MachineFixture, TwoAppsProgressIndependently) {
  const int a = add_simple_app(1.0, 1.0);
  const int b = add_simple_app(0.5, 1.0);
  machine.set_allocation(a, 2);
  machine.set_allocation(b, 1);
  for (int i = 0; i < 500; ++i) machine.step(0.01);
  // a: 2 cores / 1.0 wpb = 2 beats/s * 5s = 10; b: 1/0.5 = 2 beats/s * 5s.
  EXPECT_EQ(machine.app(a).beats_emitted(), 10u);
  EXPECT_EQ(machine.app(b).beats_emitted(), 10u);
}

TEST_F(MachineFixture, CoreFailureSlowsApp) {
  const int app = add_simple_app(1.0, 1.0);
  machine.set_allocation(app, 4);
  for (int i = 0; i < 100; ++i) machine.step(0.01);
  const auto before = machine.app(app).beats_emitted();
  EXPECT_EQ(before, 4u);
  machine.fail_owned_core(app);
  machine.fail_owned_core(app);
  for (int i = 0; i < 100; ++i) machine.step(0.01);
  EXPECT_EQ(machine.app(app).beats_emitted() - before, 2u);  // half speed
}

TEST_F(MachineFixture, RunUntilBeatsStopsOnTime) {
  const int app = add_simple_app(1.0, 1.0);
  machine.set_allocation(app, 1);
  machine.run_until_beats(app, 5, 0.01, 100.0);
  EXPECT_GE(machine.app(app).beats_emitted(), 5u);
  EXPECT_LE(machine.now_seconds(), 6.0);
}

TEST_F(MachineFixture, BeatTimestampsUseVirtualClock) {
  const int app = add_simple_app(1.0, 1.0);
  machine.set_allocation(app, 1);
  for (int i = 0; i < 250; ++i) machine.step(0.01);
  const auto h = machine.app(app).channel().history(2);
  ASSERT_EQ(h.size(), 2u);
  // Beats land at 1s and 2s of virtual time (± one 10ms tick).
  EXPECT_NEAR(util::to_seconds(h[0].timestamp_ns), 1.0, 0.011);
  EXPECT_NEAR(util::to_seconds(h[1].timestamp_ns), 2.0, 0.011);
}

// ------------------------------------------------------------- workloads

TEST(Workloads, BodytrackShape) {
  const auto spec = workloads::bodytrack_like();
  ASSERT_EQ(spec.phases.size(), 3u);
  // Phase 1 needs exactly 7 cores for the 2.5-3.5 window.
  const auto& p1 = spec.phases[0];
  const double r6 = amdahl_speedup(6, p1.parallel_fraction) / p1.work_per_beat;
  const double r7 = amdahl_speedup(7, p1.parallel_fraction) / p1.work_per_beat;
  EXPECT_LT(r6, workloads::kBodytrackTargetMin);
  EXPECT_GE(r7, workloads::kBodytrackTargetMin);
  EXPECT_LE(r7, workloads::kBodytrackTargetMax);
  // Phase 2 needs the 8th core.
  const auto& p2 = spec.phases[1];
  const double r7b = amdahl_speedup(7, p2.parallel_fraction) / p2.work_per_beat;
  const double r8 = amdahl_speedup(8, p2.parallel_fraction) / p2.work_per_beat;
  EXPECT_LT(r7b, workloads::kBodytrackTargetMin);
  EXPECT_GE(r8, workloads::kBodytrackTargetMin);
  // Phase 3: one core suffices.
  const auto& p3 = spec.phases[2];
  const double r1 = amdahl_speedup(1, p3.parallel_fraction) / p3.work_per_beat;
  EXPECT_GE(r1, workloads::kBodytrackTargetMin);
  EXPECT_LE(r1, workloads::kBodytrackTargetMax);
}

TEST(Workloads, StreamclusterShape) {
  const auto spec = workloads::streamcluster_like();
  const auto& p1 = spec.phases[0];
  const double r5 = amdahl_speedup(5, p1.parallel_fraction) / p1.work_per_beat;
  const double r8 = amdahl_speedup(8, p1.parallel_fraction) / p1.work_per_beat;
  EXPECT_GE(r5, workloads::kStreamclusterTargetMin);
  EXPECT_LE(r5, workloads::kStreamclusterTargetMax);
  EXPECT_GT(r8, 0.75);  // paper: > 0.75 beats/s on the full machine
}

TEST(Workloads, X264SchedulerShape) {
  const auto spec = workloads::x264_scheduler_like();
  const auto& nominal = spec.phases[0];
  const auto& spike = spec.phases[1];
  const double r6 =
      amdahl_speedup(6, nominal.parallel_fraction) / nominal.work_per_beat;
  const double r8 =
      amdahl_speedup(8, nominal.parallel_fraction) / nominal.work_per_beat;
  EXPECT_GE(r6, workloads::kX264TargetMin);
  EXPECT_LE(r6, workloads::kX264TargetMax);
  EXPECT_GT(r8, 40.0);  // paper: > 40 beats/s using 8 cores
  // During a spike the same 6 cores overshoot past 45.
  const double r6s =
      amdahl_speedup(6, spike.parallel_fraction) / spike.work_per_beat;
  EXPECT_GT(r6s, 45.0);
}

TEST(Workloads, X264PhasesShape) {
  const auto spec = workloads::x264_phases_like();
  ASSERT_EQ(spec.phases.size(), 3u);
  auto rate8 = [](const Phase& p) {
    return amdahl_speedup(8, p.parallel_fraction) / p.work_per_beat;
  };
  // Region rates sit in the paper's 12-14 / 23-29 / 12-14 bands.
  EXPECT_GE(rate8(spec.phases[0]), 12.0);
  EXPECT_LE(rate8(spec.phases[0]), 14.0);
  EXPECT_GE(rate8(spec.phases[1]), 23.0);
  EXPECT_LE(rate8(spec.phases[1]), 29.0);
  EXPECT_GE(rate8(spec.phases[2]), 12.0);
  EXPECT_LE(rate8(spec.phases[2]), 14.0);
}

TEST(Workloads, TotalBeats) {
  EXPECT_EQ(workloads::bodytrack_like().total_beats(), 271u);
  WorkloadSpec endless;
  endless.phases = {{Phase::kEndless, 1.0, 1.0}};
  EXPECT_EQ(endless.total_beats(), Phase::kEndless);
}

}  // namespace
}  // namespace hb::sim
