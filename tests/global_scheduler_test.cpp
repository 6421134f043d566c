// GlobalScheduler: multi-application core arbitration (paper §1, §2.4),
// unit-level and closed-loop on the simulated machine.
#include <gtest/gtest.h>

#include <memory>

#include "core/channel.hpp"
#include "core/memory_store.hpp"
#include "core/reader.hpp"
#include "hub/hub.hpp"
#include "sched/global_scheduler.hpp"
#include "sim/machine.hpp"
#include "util/clock.hpp"

namespace hb::sched {
namespace {

using util::kNsPerSec;

struct TwoAppFixture : ::testing::Test {
  std::shared_ptr<util::ManualClock> clock =
      std::make_shared<util::ManualClock>();
  std::shared_ptr<core::MemoryStore> store_a =
      std::make_shared<core::MemoryStore>(512, 10);
  std::shared_ptr<core::MemoryStore> store_b =
      std::make_shared<core::MemoryStore>(512, 10);
  core::Channel a{store_a, clock};
  core::Channel b{store_b, clock};
  std::vector<int> allocs_a, allocs_b;
  GlobalScheduler scheduler{{.total_cores = 8, .min_cores_per_app = 1,
                             .cooldown_polls = 0}};

  void register_apps() {
    scheduler.add_app("a", core::HeartbeatReader(store_a, clock),
                      [this](int c) { allocs_a.push_back(c); });
    scheduler.add_app("b", core::HeartbeatReader(store_b, clock),
                      [this](int c) { allocs_b.push_back(c); });
  }

  void beats(core::Channel& ch, int n, util::TimeNs interval) {
    for (int i = 0; i < n; ++i) {
      clock->advance(interval);
      ch.beat();
    }
  }
};

TEST_F(TwoAppFixture, AppsStartAtMinimum) {
  register_apps();
  EXPECT_EQ(scheduler.allocation(0), 1);
  EXPECT_EQ(scheduler.allocation(1), 1);
  EXPECT_EQ(scheduler.free_cores(), 6);
  ASSERT_EQ(allocs_a.size(), 1u);
  EXPECT_EQ(allocs_a[0], 1);
}

TEST_F(TwoAppFixture, RejectsMoreAppsThanCores) {
  GlobalScheduler tiny({.total_cores = 2, .min_cores_per_app = 1,
                        .cooldown_polls = 0});
  auto actuator = [](int) {};
  tiny.add_app("a", core::HeartbeatReader(store_a, clock), actuator);
  tiny.add_app("b", core::HeartbeatReader(store_b, clock), actuator);
  EXPECT_THROW(
      tiny.add_app("c", core::HeartbeatReader(store_a, clock), actuator),
      std::runtime_error);
}

TEST_F(TwoAppFixture, GrantsFreeCoresToNeedyApp) {
  register_apps();
  a.set_target(10.0, 20.0);
  b.set_target(0.1, 20.0);
  beats(a, 10, kNsPerSec);      // a: 1 beat/s << 10 (needy)
  beats(b, 10, kNsPerSec / 2);  // b: 2 beats/s, fine
  EXPECT_TRUE(scheduler.poll());
  EXPECT_EQ(scheduler.allocation(0), 2);  // a got a free core
  EXPECT_EQ(scheduler.allocation(1), 1);
  EXPECT_EQ(scheduler.moves(), 1u);
}

TEST_F(TwoAppFixture, NoMoveWhenEveryoneInBand) {
  register_apps();
  a.set_target(0.5, 2.0);
  b.set_target(0.5, 2.0);
  beats(a, 10, kNsPerSec);
  beats(b, 10, kNsPerSec);
  EXPECT_FALSE(scheduler.poll());
  EXPECT_EQ(scheduler.moves(), 0u);
}

TEST_F(TwoAppFixture, ReclaimsFromAppAboveMax) {
  register_apps();
  // Give b extra cores first.
  b.set_target(10.0, 20.0);
  a.set_target(0.0, 1e18);
  beats(b, 10, kNsPerSec);  // b needy
  beats(a, 10, kNsPerSec);
  for (int i = 0; i < 3; ++i) {
    beats(b, 1, kNsPerSec);
    scheduler.poll();
  }
  ASSERT_GT(scheduler.allocation(1), 1);
  // Now b is way above max: it should give a core back.
  b.set_target(0.1, 0.5);
  beats(b, 10, kNsPerSec);  // 1 beat/s > 0.5
  const int before = scheduler.allocation(1);
  EXPECT_TRUE(scheduler.poll());
  EXPECT_EQ(scheduler.allocation(1), before - 1);
}

TEST_F(TwoAppFixture, TaxesSurplusAppWhenNoFreeCores) {
  GlobalScheduler tight({.total_cores = 2, .min_cores_per_app = 0,
                         .cooldown_polls = 0});
  std::vector<int> aa, bb;
  tight.add_app("a", core::HeartbeatReader(store_a, clock),
                [&aa](int c) { aa.push_back(c); });
  tight.add_app("b", core::HeartbeatReader(store_b, clock),
                [&bb](int c) { bb.push_back(c); });
  // Manually hand both apps one core by making each needy once.
  a.set_target(10.0, 1e18);
  b.set_target(0.1, 0.2);
  beats(a, 5, kNsPerSec);
  beats(b, 5, kNsPerSec);
  tight.poll();  // a (needy) gets free core 1
  tight.poll();  // a gets free core 2? b surplus... drive to steady state:
  for (int i = 0; i < 4; ++i) {
    beats(a, 1, kNsPerSec);
    beats(b, 1, kNsPerSec);
    tight.poll();
  }
  // b beats 1/s over target max 0.2 (surplus), a starved: all cores to a.
  EXPECT_EQ(tight.allocation(0), 2);
  EXPECT_EQ(tight.allocation(1), 0);
}

TEST_F(TwoAppFixture, WarmupAppsAreLeftAlone) {
  register_apps();
  a.set_target(10.0, 20.0);
  beats(a, 2, kNsPerSec);  // below warmup_beats=3
  EXPECT_FALSE(scheduler.poll());
}

// Closed loop: two competing phased apps on one 8-core machine. The
// scheduler must shift cores from the app whose phase got light to the one
// whose phase got heavy, keeping both at their registered targets.
TEST(GlobalSchedulerClosedLoop, ShiftsCoresBetweenPhasedApps) {
  auto clock = std::make_shared<util::ManualClock>();
  sim::Machine machine(8, clock);

  auto store_a = std::make_shared<core::MemoryStore>(4096, 10);
  auto store_b = std::make_shared<core::MemoryStore>(4096, 10);
  auto ch_a = std::make_shared<core::Channel>(store_a, clock);
  auto ch_b = std::make_shared<core::Channel>(store_b, clock);
  ch_a->set_target(1.8, 2.6);
  ch_b->set_target(1.8, 2.6);

  // a: heavy then light; b: light then heavy. Fully parallel work so the
  // needed core counts are (heavy: 2.0*2.2=4.4 -> ~5 cores; light: ~2).
  sim::WorkloadSpec spec_a;
  spec_a.name = "a";
  spec_a.phases = {{160, 2.6, 1.0}, {400, 0.9, 1.0}};
  sim::WorkloadSpec spec_b;
  spec_b.name = "b";
  spec_b.phases = {{160, 0.9, 1.0}, {400, 2.6, 1.0}};
  const int app_a = machine.add_app(spec_a, ch_a);
  const int app_b = machine.add_app(spec_b, ch_b);

  GlobalScheduler scheduler(
      {.total_cores = 8, .min_cores_per_app = 1, .window = 8});
  scheduler.add_app("a", core::HeartbeatReader(store_a, clock),
                    [&](int c) { machine.set_allocation(app_a, c); });
  scheduler.add_app("b", core::HeartbeatReader(store_b, clock),
                    [&](int c) { machine.set_allocation(app_b, c); });

  std::uint64_t beats_seen = 0;
  int alloc_a_mid = 0, alloc_a_end = 0;
  while (!machine.app(app_a).finished() && !machine.app(app_b).finished() &&
         machine.now_seconds() < 1000.0) {
    machine.step(0.02);
    const std::uint64_t beats =
        machine.app(app_a).beats_emitted() + machine.app(app_b).beats_emitted();
    if (beats > beats_seen) {
      beats_seen = beats;
      scheduler.poll();
    }
    if (machine.app(app_a).current_phase() == 0) {
      alloc_a_mid = scheduler.allocation(0);
    }
    alloc_a_end = scheduler.allocation(0);
  }
  // During phase 1 app a (heavy) held more cores; after the swap it gave
  // them up to app b.
  EXPECT_GE(alloc_a_mid, 4);
  EXPECT_LE(alloc_a_end, 3);
  // Both apps end up meeting their minimum target.
  EXPECT_GE(core::HeartbeatReader(store_a, clock).current_rate(8), 1.8);
  EXPECT_GE(core::HeartbeatReader(store_b, clock).current_rate(8), 1.8);
  EXPECT_GT(scheduler.moves(), 2u);
}

// ------------------------------------------------- hub-backed observation

// The scheduler built on a hub: one fleet snapshot per poll instead
// of one reader query per app, same policy decisions.
struct HubBackedFixture : ::testing::Test {
  std::shared_ptr<util::ManualClock> clock =
      std::make_shared<util::ManualClock>();
  std::shared_ptr<hub::HeartbeatHub> hub = std::make_shared<hub::HeartbeatHub>(
      [&] {
        hub::HubOptions opts;
        opts.shard_count = 4;
        opts.window_capacity = 10;
        opts.clock = clock;
        return opts;
      }());
  GlobalScheduler scheduler{
      {.total_cores = 8, .min_cores_per_app = 1, .cooldown_polls = 0},
      *hub};

  hub::AppId beats(const std::string& name, int n, util::TimeNs interval) {
    const hub::AppId id = hub->id_of(name);
    for (int i = 0; i < n; ++i) {
      clock->advance(interval);
      hub->beat(id);
    }
    return id;
  }
};

TEST_F(HubBackedFixture, ConstructedFromHubGrantsFreeCores) {
  hub->register_app("a", core::TargetRate{10.0, 20.0});
  hub->register_app("b", core::TargetRate{0.1, 20.0});
  std::vector<int> allocs_a;
  scheduler.add_app("a", [&](int c) { allocs_a.push_back(c); });
  scheduler.add_app("b", [](int) {});
  EXPECT_TRUE(scheduler.hub_backed());

  beats("a", 12, kNsPerSec);      // 1 beat/s << min 10: needy
  beats("b", 12, kNsPerSec / 2);  // 2 beats/s: in band
  EXPECT_TRUE(scheduler.poll());
  EXPECT_EQ(scheduler.allocation(0), 2);  // a got a free core
  EXPECT_EQ(scheduler.allocation(1), 1);
  ASSERT_EQ(allocs_a.size(), 2u);
  EXPECT_EQ(allocs_a.back(), 2);
}

TEST_F(HubBackedFixture, WarmupAndInBandAppsAreLeftAlone) {
  hub->register_app("a", core::TargetRate{10.0, 20.0});
  hub->register_app("b", core::TargetRate{0.5, 3.0});
  scheduler.add_app("a", [](int) {});
  scheduler.add_app("b", [](int) {});

  beats("a", 2, kNsPerSec);  // below warmup_beats = 3: ignored
  beats("b", 12, kNsPerSec);
  EXPECT_FALSE(scheduler.poll());
  EXPECT_EQ(scheduler.moves(), 0u);
}

TEST_F(HubBackedFixture, AppsUnknownToTheHubStayAtMinimum) {
  // Added to the scheduler but never registered with the hub: treated as
  // warming up, never starves anyone else.
  scheduler.add_app("ghost", [](int) {});
  EXPECT_FALSE(scheduler.poll());
  EXPECT_EQ(scheduler.allocation(0), 1);
}

TEST(HubBackedErrors, NameOnlyAddAppRequiresHub) {
  GlobalScheduler plain({.total_cores = 4});
  EXPECT_THROW(plain.add_app("a", [](int) {}), std::logic_error);
}

TEST_F(HubBackedFixture, TaxesSurplusDonorForNeedyApp) {
  hub->register_app("needy", core::TargetRate{10.0, 1e18});
  hub->register_app("rich", core::TargetRate{0.05, 0.2});
  GlobalScheduler tight({.total_cores = 2, .min_cores_per_app = 0,
                         .cooldown_polls = 0},
                        *hub);
  tight.add_app("needy", [](int) {});
  tight.add_app("rich", [](int) {});

  beats("needy", 6, kNsPerSec);      // 1 beat/s << 10
  beats("rich", 6, kNsPerSec);       // 1 beat/s >> 0.2 (surplus)
  for (int i = 0; i < 4; ++i) {
    beats("needy", 1, kNsPerSec);
    beats("rich", 1, kNsPerSec);
    tight.poll();
  }
  EXPECT_EQ(tight.allocation(0), 2);
  EXPECT_EQ(tight.allocation(1), 0);
}

}  // namespace
}  // namespace hb::sched
