// Channel semantics: windowed rates with a deterministic clock, targets,
// history, staleness, and the MemoryStore behind it all.
#include <gtest/gtest.h>

#include <cmath>
#include <limits>
#include <memory>
#include <thread>
#include <vector>

#include "core/channel.hpp"
#include "core/memory_store.hpp"
#include "util/clock.hpp"
#include "util/thread_id.hpp"

namespace hb::core {
namespace {

using util::kNsPerSec;

struct ChannelFixture : ::testing::Test {
  std::shared_ptr<util::ManualClock> clock =
      std::make_shared<util::ManualClock>();
  std::shared_ptr<MemoryStore> store =
      std::make_shared<MemoryStore>(128, 20);
  Channel ch{store, clock};

  // Emit `n` beats spaced `interval` apart (advancing before each beat).
  void beats(int n, util::TimeNs interval, std::uint64_t tag = 0) {
    for (int i = 0; i < n; ++i) {
      clock->advance(interval);
      ch.beat(tag);
    }
  }
};

TEST_F(ChannelFixture, CountsBeats) {
  EXPECT_EQ(ch.count(), 0u);
  beats(5, 1000);
  EXPECT_EQ(ch.count(), 5u);
}

TEST_F(ChannelFixture, SequenceNumbersAreDense) {
  EXPECT_EQ(ch.beat(), 0u);
  EXPECT_EQ(ch.beat(), 1u);
  EXPECT_EQ(ch.beat(), 2u);
}

TEST_F(ChannelFixture, RateWithNoBeatsIsZero) {
  EXPECT_DOUBLE_EQ(ch.rate(), 0.0);
  EXPECT_DOUBLE_EQ(ch.rate(5), 0.0);
}

TEST_F(ChannelFixture, RateWithOneBeatIsZero) {
  beats(1, kNsPerSec);
  EXPECT_DOUBLE_EQ(ch.rate(), 0.0);
}

TEST_F(ChannelFixture, SteadyRate) {
  beats(21, kNsPerSec / 10);  // 10 beats/s
  EXPECT_NEAR(ch.rate(), 10.0, 1e-9);        // default window (20)
  EXPECT_NEAR(ch.rate(5), 10.0, 1e-9);       // explicit window
  EXPECT_NEAR(ch.rate(1), 10.0, 1e-9);        // last interval
}

TEST_F(ChannelFixture, WindowSelectsRecentHistoryOnly) {
  beats(10, kNsPerSec);      // 1 beat/s for 10 beats
  beats(10, kNsPerSec / 4);  // then 4 beats/s
  // A short window sees only the fast phase.
  EXPECT_NEAR(ch.rate(4), 4.0, 1e-9);
  // A long window blends: 19 intervals over 10*1s + 10*0.25s - 1s... compute:
  // timestamps span from beat0 to beat19: 9*1s (beats 0..9) + 10*0.25s.
  const double span_s = 9.0 + 2.5;
  EXPECT_NEAR(ch.rate(20), 19.0 / span_s, 1e-9);
}

TEST_F(ChannelFixture, WindowZeroUsesDefault) {
  beats(30, kNsPerSec);
  EXPECT_DOUBLE_EQ(ch.rate(0), ch.rate(20));
}

TEST_F(ChannelFixture, WindowOneIsInstantaneous) {
  beats(5, kNsPerSec);
  beats(1, kNsPerSec / 8);
  EXPECT_NEAR(ch.rate(1), 8.0, 1e-9);
  EXPECT_DOUBLE_EQ(ch.rate(1), 1.0 / util::to_seconds(kNsPerSec / 8));
}

TEST_F(ChannelFixture, OversizedWindowSilentlyClipped) {
  beats(200, kNsPerSec);  // capacity is 128
  EXPECT_DOUBLE_EQ(ch.rate(100000), ch.rate(128));
}

TEST_F(ChannelFixture, ZeroSpanRateIsInfinite) {
  ch.beat();
  ch.beat();  // same manual-clock instant
  EXPECT_TRUE(std::isinf(ch.rate(2)));
}

TEST_F(ChannelFixture, HistoryReturnsOldestFirstWithTagsAndSeq) {
  clock->advance(10);
  ch.beat(7);
  clock->advance(10);
  ch.beat(8);
  clock->advance(10);
  ch.beat(9);
  const auto h = ch.history(2);
  ASSERT_EQ(h.size(), 2u);
  EXPECT_EQ(h[0].tag, 8u);
  EXPECT_EQ(h[0].seq, 1u);
  EXPECT_EQ(h[0].timestamp_ns, 20);
  EXPECT_EQ(h[1].tag, 9u);
  EXPECT_EQ(h[1].seq, 2u);
  EXPECT_EQ(h[1].timestamp_ns, 30);
}

TEST_F(ChannelFixture, HistoryStampsThreadId) {
  ch.beat();
  const auto h = ch.history(1);
  ASSERT_EQ(h.size(), 1u);
  EXPECT_EQ(h[0].thread_id, util::current_thread_id());
}

TEST_F(ChannelFixture, HistoryFromAnotherThreadHasItsId) {
  std::uint32_t other_id = 0;
  std::thread t([&] {
    other_id = util::current_thread_id();
    ch.beat();
  });
  t.join();
  const auto h = ch.history(1);
  ASSERT_EQ(h.size(), 1u);
  EXPECT_EQ(h[0].thread_id, other_id);
  EXPECT_NE(h[0].thread_id, util::current_thread_id());
}

TEST_F(ChannelFixture, HistoryClipsToCapacity) {
  beats(300, 10);
  EXPECT_EQ(ch.history(1000).size(), 128u);
  EXPECT_EQ(ch.history(1000).front().seq, 300u - 128u);
}

TEST_F(ChannelFixture, TargetsRoundTrip) {
  ch.set_target(2.5, 3.5);
  EXPECT_DOUBLE_EQ(ch.target().min_bps, 2.5);
  EXPECT_DOUBLE_EQ(ch.target().max_bps, 3.5);
}

TEST_F(ChannelFixture, MeetingTarget) {
  ch.set_target(9.0, 11.0);
  beats(21, kNsPerSec / 10);  // 10 beats/s
  EXPECT_TRUE(ch.meeting_target());
  ch.set_target(20.0, 30.0);
  EXPECT_FALSE(ch.meeting_target());
}

TEST_F(ChannelFixture, DefaultWindowMutable) {
  EXPECT_EQ(ch.default_window(), 20u);
  ch.set_default_window(5);
  EXPECT_EQ(ch.default_window(), 5u);
  beats(30, kNsPerSec);
  EXPECT_DOUBLE_EQ(ch.rate(0), ch.rate(5));
}

// ------------------------------------------------------------ MemoryStore

TEST(MemoryStore, DefaultTargetIsUnbounded) {
  MemoryStore s(16);
  EXPECT_DOUBLE_EQ(s.target().min_bps, 0.0);
  EXPECT_TRUE(std::isinf(s.target().max_bps));
}

TEST(MemoryStore, ZeroCapacityCoercedToOne) {
  MemoryStore s(0);
  EXPECT_EQ(s.capacity(), 1u);
  HeartbeatRecord r;
  s.append(r);
  s.append(r);
  EXPECT_EQ(s.count(), 2u);
  EXPECT_EQ(s.history(10).size(), 1u);
}

TEST(MemoryStore, AppendAssignsSeqIgnoringInput) {
  MemoryStore s(4);
  HeartbeatRecord r;
  r.seq = 999;
  EXPECT_EQ(s.append(r), 0u);
  EXPECT_EQ(s.append(r), 1u);
  EXPECT_EQ(s.history(2)[0].seq, 0u);
}

TEST(MemoryStore, ConcurrentAppendsLoseNothing) {
  MemoryStore s(1 << 16);
  constexpr int kThreads = 8;
  constexpr int kEach = 2000;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&s] {
      HeartbeatRecord r;
      for (int i = 0; i < kEach; ++i) s.append(r);
    });
  }
  for (auto& t : threads) t.join();
  EXPECT_EQ(s.count(), static_cast<std::uint64_t>(kThreads * kEach));
  // All sequence numbers present exactly once.
  const auto h = s.history(kThreads * kEach);
  ASSERT_EQ(h.size(), static_cast<std::size_t>(kThreads * kEach));
  for (std::size_t i = 0; i < h.size(); ++i) EXPECT_EQ(h[i].seq, i);
}

// Channel window semantics across a (window, interval) sweep: the reported
// rate over the last w beats equals 1/interval when spacing is constant.
class ChannelWindowSweep
    : public ::testing::TestWithParam<std::tuple<std::uint32_t, util::TimeNs>> {
};

TEST_P(ChannelWindowSweep, SteadyStateRateMatchesSpacing) {
  const auto [window, interval] = GetParam();
  auto clock = std::make_shared<util::ManualClock>();
  auto store = std::make_shared<MemoryStore>(512, 20);
  Channel ch(store, clock);
  for (int i = 0; i < 256; ++i) {
    clock->advance(interval);
    ch.beat();
  }
  const double expect =
      static_cast<double>(kNsPerSec) / static_cast<double>(interval);
  EXPECT_NEAR(ch.rate(window), expect, expect * 1e-9);
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, ChannelWindowSweep,
    ::testing::Combine(::testing::Values<std::uint32_t>(1, 2, 3, 20, 100, 256),
                       ::testing::Values<util::TimeNs>(100, 12345,
                                                       kNsPerSec / 30,
                                                       kNsPerSec)));

}  // namespace
}  // namespace hb::core
