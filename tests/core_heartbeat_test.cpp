// Heartbeat producer facade: global vs local channels, multithreaded use,
// options normalization, custom store factories.
#include <gtest/gtest.h>

#include <atomic>
#include <barrier>
#include <cmath>
#include <memory>
#include <set>
#include <thread>
#include <vector>

#include "core/heartbeat.hpp"
#include "core/memory_store.hpp"
#include "util/clock.hpp"
#include "util/thread_id.hpp"

namespace hb::core {
namespace {

using util::kNsPerSec;

HeartbeatOptions manual_opts(std::shared_ptr<util::ManualClock> clock,
                             std::uint32_t window = 20) {
  HeartbeatOptions o;
  o.name = "test";
  o.default_window = window;
  o.history_capacity = 256;
  o.clock = std::move(clock);
  return o;
}

TEST(Heartbeat, DefaultsAreSane) {
  Heartbeat hb;
  EXPECT_EQ(hb.name(), "app");
  EXPECT_EQ(hb.options().default_window, 20u);
  EXPECT_TRUE(hb.options().clock != nullptr);
  EXPECT_DOUBLE_EQ(hb.global().target().min_bps, 0.0);
  EXPECT_TRUE(std::isinf(hb.global().target().max_bps));
}

TEST(Heartbeat, ZeroOptionsNormalized) {
  HeartbeatOptions o;
  o.default_window = 0;
  o.history_capacity = 0;
  Heartbeat hb(o);
  EXPECT_EQ(hb.options().default_window, 1u);
  EXPECT_EQ(hb.options().history_capacity, 1u);
}

TEST(Heartbeat, GlobalBeatsAccumulate) {
  auto clock = std::make_shared<util::ManualClock>();
  Heartbeat hb(manual_opts(clock));
  for (int i = 0; i < 10; ++i) {
    clock->advance(kNsPerSec / 4);
    hb.beat(static_cast<std::uint64_t>(i));
  }
  EXPECT_EQ(hb.global().count(), 10u);
  EXPECT_NEAR(hb.global().rate(), 4.0, 1e-9);
}

TEST(Heartbeat, InitialTargetFromOptions) {
  HeartbeatOptions o;
  o.target_min_bps = 30.0;
  o.target_max_bps = 35.0;
  Heartbeat hb(o);
  EXPECT_DOUBLE_EQ(hb.global().target().min_bps, 30.0);
  EXPECT_DOUBLE_EQ(hb.global().target().max_bps, 35.0);
}

TEST(Heartbeat, SetTargetUpdates) {
  Heartbeat hb;
  hb.set_target(1.0, 2.0);
  EXPECT_DOUBLE_EQ(hb.global().target().min_bps, 1.0);
  EXPECT_DOUBLE_EQ(hb.global().target().max_bps, 2.0);
}

TEST(Heartbeat, LocalChannelIsPerThread) {
  auto clock = std::make_shared<util::ManualClock>();
  Heartbeat hb(manual_opts(clock));

  clock->advance(1);
  hb.beat_local();
  hb.beat_local();
  EXPECT_EQ(hb.local().count(), 2u);

  std::uint64_t other_count = 99;
  std::thread t([&] {
    hb.beat_local();
    other_count = hb.local().count();
  });
  t.join();
  EXPECT_EQ(other_count, 1u);   // the other thread saw only its own beat
  EXPECT_EQ(hb.local().count(), 2u);  // ours unchanged
  EXPECT_EQ(hb.global().count(), 0u); // local beats never hit global
}

TEST(Heartbeat, LocalsSnapshotListsAllThreads) {
  Heartbeat hb;
  hb.beat_local();
  std::thread a([&] { hb.beat_local(); });
  std::thread b([&] { hb.beat_local(); });
  a.join();
  b.join();
  const auto locals = hb.locals();
  EXPECT_EQ(locals.size(), 3u);
  std::set<std::uint32_t> tids;
  for (const auto& [tid, ch] : locals) {
    tids.insert(tid);
    EXPECT_EQ(ch->count(), 1u);
  }
  EXPECT_EQ(tids.size(), 3u);
}

TEST(Heartbeat, LocalChannelStableAcrossCalls) {
  Heartbeat hb;
  Channel* first = &hb.local();
  Channel* second = &hb.local();
  EXPECT_EQ(first, second);
}

TEST(Heartbeat, ConcurrentGlobalBeatsAreAllRecorded) {
  HeartbeatOptions o;
  o.history_capacity = 1 << 16;
  Heartbeat hb(o);
  constexpr int kThreads = 8;
  constexpr int kEach = 2000;
  std::barrier start(kThreads);
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&] {
      start.arrive_and_wait();
      for (int i = 0; i < kEach; ++i) hb.beat();
    });
  }
  for (auto& t : threads) t.join();
  EXPECT_EQ(hb.global().count(), static_cast<std::uint64_t>(kThreads * kEach));

  // Timestamps non-decreasing in sequence order; all seqs unique and dense.
  const auto h = hb.global().history(kThreads * kEach);
  ASSERT_EQ(h.size(), static_cast<std::size_t>(kThreads * kEach));
  for (std::size_t i = 0; i < h.size(); ++i) {
    EXPECT_EQ(h[i].seq, i);
    if (i > 0) {
      EXPECT_GE(h[i].timestamp_ns, h[i - 1].timestamp_ns);
    }
  }
}

TEST(Heartbeat, ConcurrentLocalBeatsStayIsolated) {
  Heartbeat hb;
  constexpr int kThreads = 8;
  constexpr int kEach = 500;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&] {
      for (int i = 0; i < kEach; ++i) hb.beat_local();
    });
  }
  for (auto& t : threads) t.join();
  const auto locals = hb.locals();
  EXPECT_EQ(locals.size(), static_cast<std::size_t>(kThreads));
  for (const auto& [tid, ch] : locals) {
    EXPECT_EQ(ch->count(), static_cast<std::uint64_t>(kEach));
    // Every record in a local channel carries the owning thread's id.
    for (const auto& rec : ch->history(kEach)) {
      EXPECT_EQ(rec.thread_id, tid);
    }
  }
}

TEST(Heartbeat, CustomStoreFactoryReceivesSpecs) {
  std::vector<StoreSpec> specs;
  HeartbeatOptions o;
  o.name = "fact";
  o.default_window = 7;
  o.history_capacity = 33;
  o.store_factory = [&specs](const StoreSpec& spec) {
    specs.push_back(spec);
    return std::make_shared<MemoryStore>(spec.capacity, spec.default_window);
  };
  Heartbeat hb(o);
  hb.local();  // force one local channel
  ASSERT_EQ(specs.size(), 2u);
  EXPECT_EQ(specs[0].channel_name, "fact.global");
  EXPECT_TRUE(specs[0].shared);
  EXPECT_EQ(specs[0].capacity, 33u);
  EXPECT_EQ(specs[0].default_window, 7u);
  EXPECT_EQ(specs[1].channel_name,
            "fact.t" + std::to_string(util::current_thread_id()));
  EXPECT_FALSE(specs[1].shared);
}

TEST(Heartbeat, TagsFlowThrough) {
  Heartbeat hb;
  hb.beat(42);
  hb.beat(43);
  const auto h = hb.global().history(2);
  ASSERT_EQ(h.size(), 2u);
  EXPECT_EQ(h[0].tag, 42u);
  EXPECT_EQ(h[1].tag, 43u);
}

}  // namespace
}  // namespace hb::core
