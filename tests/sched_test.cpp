// External scheduler: the observe→decide→act loop of Section 5.3, both in
// isolation (mock actuator) and closed-loop against the simulated machine.
#include <gtest/gtest.h>
#include <unistd.h>

#include <memory>
#include <vector>

#include "control/step_controller.hpp"
#include "core/channel.hpp"
#include "core/memory_store.hpp"
#include "core/reader.hpp"
#include "sched/affinity.hpp"
#include "sched/core_scheduler.hpp"
#include "sim/machine.hpp"
#include "sim/workloads.hpp"
#include "util/clock.hpp"

namespace hb::sched {
namespace {

using util::kNsPerSec;

struct SchedFixture : ::testing::Test {
  std::shared_ptr<util::ManualClock> clock =
      std::make_shared<util::ManualClock>();
  std::shared_ptr<core::MemoryStore> store =
      std::make_shared<core::MemoryStore>(1024, 10);
  core::Channel producer{store, clock};
  std::vector<int> actuations;

  CoreScheduler make_scheduler(CoreSchedulerOptions opts = {}) {
    return CoreScheduler(
        core::HeartbeatReader(store, clock),
        std::make_shared<control::StepController>(),
        [this](int cores) { actuations.push_back(cores); }, opts);
  }

  void beats(int n, util::TimeNs interval) {
    for (int i = 0; i < n; ++i) {
      clock->advance(interval);
      producer.beat();
    }
  }
};

TEST_F(SchedFixture, ActuatesMinCoresAtConstruction) {
  auto sched = make_scheduler({.min_cores = 1, .max_cores = 8});
  ASSERT_EQ(actuations.size(), 1u);
  EXPECT_EQ(actuations[0], 1);  // paper: starts each benchmark on one core
  EXPECT_EQ(sched.allocation(), 1);
}

TEST_F(SchedFixture, NoDecisionDuringWarmup) {
  auto sched = make_scheduler({.warmup_beats = 5});
  producer.set_target(2.5, 3.5);
  beats(3, kNsPerSec);
  EXPECT_FALSE(sched.poll());
  EXPECT_EQ(sched.decisions(), 0u);
}

TEST_F(SchedFixture, AddsCoreWhenBelowTarget) {
  auto sched = make_scheduler();
  producer.set_target(2.5, 3.5);
  beats(5, kNsPerSec);  // 1 beat/s, below 2.5
  EXPECT_TRUE(sched.poll());
  EXPECT_EQ(sched.allocation(), 2);
  ASSERT_EQ(actuations.size(), 2u);
  EXPECT_EQ(actuations.back(), 2);
}

TEST_F(SchedFixture, RemovesCoreWhenAboveTarget) {
  auto sched = make_scheduler({.min_cores = 1, .max_cores = 8});
  producer.set_target(2.5, 3.5);
  // Drive allocation up first.
  beats(5, kNsPerSec);
  sched.poll();
  ASSERT_EQ(sched.allocation(), 2);
  // Now beat fast: 10 beats/s > 3.5.
  beats(10, kNsPerSec / 10);
  EXPECT_TRUE(sched.poll());
  EXPECT_EQ(sched.allocation(), 1);
}

TEST_F(SchedFixture, HoldsInsideTarget) {
  auto sched = make_scheduler();
  producer.set_target(0.9, 1.1);
  beats(10, kNsPerSec);
  EXPECT_FALSE(sched.poll());
  EXPECT_EQ(sched.decisions(), 1u);
  EXPECT_EQ(sched.actions(), 0u);
  EXPECT_NEAR(sched.last_rate(), 1.0, 1e-9);
}

TEST_F(SchedFixture, PollWithoutNewBeatsIsNoop) {
  auto sched = make_scheduler();
  producer.set_target(2.5, 3.5);
  beats(5, kNsPerSec);
  sched.poll();
  const auto d = sched.decisions();
  EXPECT_FALSE(sched.poll());  // no new beats
  EXPECT_EQ(sched.decisions(), d);
}

TEST_F(SchedFixture, RespectsMaxCores) {
  auto sched = make_scheduler({.min_cores = 1, .max_cores = 3});
  producer.set_target(100.0, 200.0);  // unreachable: always too slow
  for (int i = 0; i < 10; ++i) {
    beats(1, kNsPerSec);
    sched.poll();
  }
  EXPECT_EQ(sched.allocation(), 3);
}

// ------------------------------------------------- closed loop on the sim

// The canonical Figure 5 loop: scheduler ramps cores up to reach the
// bodytrack target, rides the load dip with the 8th core, then reclaims
// down to one core in the light tail.
TEST(SchedClosedLoop, BodytrackConvergesThenReclaims) {
  auto clock = std::make_shared<util::ManualClock>();
  sim::Machine machine(8, clock);
  auto store = std::make_shared<core::MemoryStore>(4096, 20);
  auto channel = std::make_shared<core::Channel>(store, clock);
  channel->set_target(sim::workloads::kBodytrackTargetMin,
                      sim::workloads::kBodytrackTargetMax);
  const int app =
      machine.add_app(sim::workloads::bodytrack_like(), channel);

  CoreScheduler sched(
      core::HeartbeatReader(store, clock),
      std::make_shared<control::StepController>(
          control::StepControllerOptions{.patience = 1, .cooldown = 4}),
      [&](int cores) { machine.set_allocation(app, cores); },
      {.min_cores = 1, .max_cores = 8, .window = 20, .warmup_beats = 3});

  std::uint64_t peak_alloc = 0;
  std::uint64_t final_alloc = 0;
  while (!machine.app(app).finished() && machine.now_seconds() < 600.0) {
    machine.step(0.02);
    sched.poll();
    peak_alloc = std::max<std::uint64_t>(peak_alloc,
                                         static_cast<std::uint64_t>(
                                             sched.allocation()));
    final_alloc = static_cast<std::uint64_t>(sched.allocation());
  }
  EXPECT_TRUE(machine.app(app).finished());
  // Ramped high during the heavy phases...
  EXPECT_GE(peak_alloc, 7u);
  // ...and reclaimed down to one core in the light tail (paper: "the
  // application eventually needs only a single core").
  EXPECT_EQ(final_alloc, 1u);
}

TEST(SchedClosedLoop, RateEndsInsideTargetWindow) {
  auto clock = std::make_shared<util::ManualClock>();
  sim::Machine machine(8, clock);
  auto store = std::make_shared<core::MemoryStore>(4096, 20);
  auto channel = std::make_shared<core::Channel>(store, clock);
  // Steady endless workload, f = 0.95, 2s/beat: identical to bodytrack
  // phase 1; the scheduler should settle at 7 cores and stay.
  sim::WorkloadSpec spec;
  spec.phases = {{sim::Phase::kEndless, 2.0, 0.95}};
  channel->set_target(2.5, 3.5);
  const int app = machine.add_app(spec, channel);

  CoreScheduler sched(
      core::HeartbeatReader(store, clock),
      std::make_shared<control::StepController>(
          control::StepControllerOptions{.cooldown = 4}),
      [&](int cores) { machine.set_allocation(app, cores); },
      {.min_cores = 1, .max_cores = 8, .window = 10, .warmup_beats = 3});

  for (int i = 0; i < 30000; ++i) {
    machine.step(0.02);
    sched.poll();
  }
  EXPECT_EQ(sched.allocation(), 7);
  const double rate = core::HeartbeatReader(store, clock).current_rate(10);
  EXPECT_GE(rate, 2.5);
  EXPECT_LE(rate, 3.5);
}

// ----------------------------------------------------------- native path

TEST(Affinity, OnlineCoresPositive) { EXPECT_GE(online_cores(), 1); }

TEST(Affinity, SetAndReadOwnAffinity) {
  const int before = current_core_allocation(0);
  ASSERT_GT(before, 0);
  EXPECT_TRUE(set_core_allocation(0, 1));
  EXPECT_EQ(current_core_allocation(0), 1);
  // Restore everything we can.
  EXPECT_TRUE(set_core_allocation(0, online_cores()));
}

TEST(Affinity, ClampsRequests) {
  EXPECT_TRUE(set_core_allocation(0, 0));     // clamped to 1
  EXPECT_EQ(current_core_allocation(0), 1);
  EXPECT_TRUE(set_core_allocation(0, 10000));  // clamped to online
  EXPECT_EQ(current_core_allocation(0), online_cores());
}

}  // namespace
}  // namespace hb::sched
