// Fault injection and heartbeat-based failure detection (Sections 5.4, 2.6).
#include <gtest/gtest.h>

#include <memory>
#include <vector>

#include "core/channel.hpp"
#include "core/memory_store.hpp"
#include "core/reader.hpp"
#include "fault/fault_plan.hpp"
#include "fault/fleet_detector.hpp"
#include "sim/machine.hpp"
#include "util/clock.hpp"

namespace hb::fault {
namespace {

using util::kNsPerSec;

// -------------------------------------------------------------- FaultPlan

TEST(FaultPlan, FiresInOrderAtBeatCounts) {
  FaultPlan plan({{100, 1}, {50, 2}});  // unsorted on purpose
  std::vector<int> kills;
  auto kill = [&](int n) { kills.push_back(n); };

  EXPECT_EQ(plan.poll(49, kill), 0);
  EXPECT_EQ(plan.poll(50, kill), 1);
  ASSERT_EQ(kills.size(), 1u);
  EXPECT_EQ(kills[0], 2);  // the beat-50 event sorted first
  EXPECT_EQ(plan.poll(99, kill), 0);
  EXPECT_EQ(plan.poll(150, kill), 1);
  EXPECT_EQ(kills[1], 1);
  EXPECT_TRUE(plan.exhausted());
}

TEST(FaultPlan, SkippedBeatsFireAllDueEvents) {
  FaultPlan plan({{10, 1}, {20, 1}, {30, 1}});
  int total = 0;
  EXPECT_EQ(plan.poll(25, [&](int n) { total += n; }), 2);
  EXPECT_EQ(total, 2);
  EXPECT_EQ(plan.remaining(), 1u);
}

TEST(FaultPlan, ResetReplays) {
  FaultPlan plan({{5, 1}});
  int kills = 0;
  plan.poll(10, [&](int) { ++kills; });
  plan.reset();
  plan.poll(10, [&](int) { ++kills; });
  EXPECT_EQ(kills, 2);
}

TEST(FaultPlan, PaperScriptMatchesSection54) {
  auto plan = FaultPlan::paper_section_5_4();
  std::vector<std::uint64_t> fired_at;
  for (std::uint64_t beat = 0; beat <= 600; ++beat) {
    if (plan.poll(beat, [](int) {}) > 0) fired_at.push_back(beat);
  }
  ASSERT_EQ(fired_at.size(), 3u);
  EXPECT_EQ(fired_at[0], 160u);
  EXPECT_EQ(fired_at[1], 320u);
  EXPECT_EQ(fired_at[2], 480u);
}

TEST(FaultPlan, DrivesMachineCoreFailures) {
  auto clock = std::make_shared<util::ManualClock>();
  sim::Machine machine(8, clock);
  auto channel = std::make_shared<core::Channel>(
      std::make_shared<core::MemoryStore>(1024, 20), clock);
  sim::WorkloadSpec spec;
  spec.phases = {{sim::Phase::kEndless, 0.125, 1.0}};  // 8 beats/s/core
  const int app = machine.add_app(spec, channel);
  machine.set_allocation(app, 8);

  FaultPlan plan({{160, 1}, {320, 1}, {480, 1}});
  while (machine.app(app).beats_emitted() < 600 &&
         machine.now_seconds() < 100.0) {
    machine.step(0.01);
    plan.poll(machine.app(app).beats_emitted(),
              [&](int n) { for (int i = 0; i < n; ++i) machine.fail_owned_core(app); });
  }
  EXPECT_TRUE(plan.exhausted());
  EXPECT_EQ(machine.effective_cores(app), 5);
  EXPECT_EQ(machine.healthy_cores(), 5);
}

// ------------------------------------------ FleetDetector::classify(reader)

struct DetectorFixture : ::testing::Test {
  std::shared_ptr<util::ManualClock> clock =
      std::make_shared<util::ManualClock>();
  std::shared_ptr<core::MemoryStore> store =
      std::make_shared<core::MemoryStore>(256, 16);
  core::Channel producer{store, clock};
  core::HeartbeatReader reader{store, clock};
  FleetDetector detector{};

  void beats(int n, util::TimeNs interval) {
    for (int i = 0; i < n; ++i) {
      clock->advance(interval);
      producer.beat();
    }
  }
};

TEST_F(DetectorFixture, WarmingUpBeforeMinBeats) {
  EXPECT_EQ(detector.classify(reader), Health::kWarmingUp);
  beats(2, kNsPerSec);
  EXPECT_EQ(detector.classify(reader), Health::kWarmingUp);
}

TEST_F(DetectorFixture, HealthyOnSteadyBeat) {
  beats(20, kNsPerSec / 10);
  EXPECT_EQ(detector.classify(reader), Health::kHealthy);
}

TEST_F(DetectorFixture, DeadWhenBeatsStop) {
  beats(20, kNsPerSec / 10);
  // Mean interval 0.1s; staleness_factor 8 -> dead beyond 0.8s of silence.
  clock->advance(kNsPerSec);
  EXPECT_EQ(detector.classify(reader), Health::kDead);
}

TEST_F(DetectorFixture, NotDeadJustUnderThreshold) {
  beats(20, kNsPerSec / 10);
  clock->advance(kNsPerSec / 2);  // 0.5s < 0.8s threshold
  EXPECT_NE(detector.classify(reader), Health::kDead);
}

TEST_F(DetectorFixture, SlowWhenBelowRegisteredTarget) {
  producer.set_target(100.0, 200.0);
  beats(20, kNsPerSec / 10);  // 10 beats/s, target min 100
  EXPECT_EQ(detector.classify(reader), Health::kSlow);
}

TEST_F(DetectorFixture, ErraticOnHighJitter) {
  // Paper, Section 2.6: "slow or erratic heartbeats could indicate that a
  // machine is about to fail."
  for (int i = 0; i < 10; ++i) {
    clock->advance(i % 2 == 0 ? kNsPerSec / 100 : kNsPerSec);
    producer.beat();
  }
  EXPECT_EQ(detector.classify(reader), Health::kErratic);
}

TEST_F(DetectorFixture, AbsoluteStalenessCatchesNeverBeating) {
  FleetDetector strict(
      {.absolute_staleness_ns = 2 * kNsPerSec});
  EXPECT_EQ(strict.classify(reader), Health::kWarmingUp);
  clock->advance(3 * kNsPerSec);
  EXPECT_EQ(strict.classify(reader), Health::kDead);
}

TEST_F(DetectorFixture, AbsoluteStalenessAppliesAfterWarmUpToo) {
  // Regression: a producer whose recorded beats all share one clock tick
  // has mean_ns == 0, so the relative staleness_factor bound can never
  // fire. The absolute bound used to be checked only during warm-up, so
  // such an app could go silent forever and still read as healthy.
  FleetDetector strict({.absolute_staleness_ns = 2 * kNsPerSec});
  for (int i = 0; i < 10; ++i) producer.beat();  // 10 beats, one tick
  EXPECT_NE(strict.classify(reader), Health::kDead);  // fresh: not stale yet
  clock->advance(3 * kNsPerSec);
  EXPECT_EQ(strict.classify(reader), Health::kDead);
  // The default detector (no absolute bound) still cannot judge this case;
  // that is exactly why FleetDetectorOptions recommend setting one.
  EXPECT_NE(detector.classify(reader), Health::kDead);
}

TEST_F(DetectorFixture, RecoversAfterBeatsResume) {
  beats(20, kNsPerSec / 10);
  clock->advance(2 * kNsPerSec);
  EXPECT_EQ(detector.classify(reader), Health::kDead);
  // App comes back: fresh steady beats wash out the gap once the window
  // no longer spans it.
  beats(20, kNsPerSec / 10);
  EXPECT_EQ(detector.classify(reader), Health::kHealthy);
}

TEST(HealthToString, AllValuesNamed) {
  EXPECT_STREQ(to_string(Health::kWarmingUp), "warming-up");
  EXPECT_STREQ(to_string(Health::kHealthy), "healthy");
  EXPECT_STREQ(to_string(Health::kSlow), "slow");
  EXPECT_STREQ(to_string(Health::kErratic), "erratic");
  EXPECT_STREQ(to_string(Health::kDead), "dead");
}

}  // namespace
}  // namespace hb::fault
