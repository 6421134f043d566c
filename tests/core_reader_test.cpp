// HeartbeatReader: the external-observer view (paper, Figure 1b).
#include <gtest/gtest.h>

#include <cmath>
#include <memory>

#include "core/heartbeat.hpp"
#include "core/memory_store.hpp"
#include "core/reader.hpp"
#include "util/clock.hpp"

namespace hb::core {
namespace {

using util::kNsPerSec;

struct ReaderFixture : ::testing::Test {
  std::shared_ptr<util::ManualClock> clock =
      std::make_shared<util::ManualClock>();
  std::shared_ptr<MemoryStore> store =
      std::make_shared<MemoryStore>(128, 10);
  Channel producer{store, clock};
  HeartbeatReader reader{store, clock};

  void beats(int n, util::TimeNs interval, std::uint64_t tag = 0) {
    for (int i = 0; i < n; ++i) {
      clock->advance(interval);
      producer.beat(tag);
    }
  }
};

TEST_F(ReaderFixture, SeesProducerBeats) {
  beats(5, kNsPerSec);
  EXPECT_EQ(reader.count(), 5u);
}

TEST_F(ReaderFixture, RateMatchesProducerView) {
  beats(21, kNsPerSec / 10);
  EXPECT_DOUBLE_EQ(reader.current_rate(), producer.rate());
  EXPECT_DOUBLE_EQ(reader.current_rate(5), producer.rate(5));
  EXPECT_DOUBLE_EQ(reader.instant_rate(), producer.instant_rate());
}

TEST_F(ReaderFixture, DefaultWindowComesFromProducer) {
  beats(64, kNsPerSec);
  EXPECT_EQ(reader.default_window(), 10u);
  EXPECT_DOUBLE_EQ(reader.current_rate(0), reader.current_rate(10));
}

TEST_F(ReaderFixture, ReadsTargetsSetByApplication) {
  producer.set_target(2.5, 3.5);
  EXPECT_DOUBLE_EQ(reader.target_min(), 2.5);
  EXPECT_DOUBLE_EQ(reader.target_max(), 3.5);
}

TEST_F(ReaderFixture, HistoryExposesTagsAndThreadIds) {
  beats(3, 100, /*tag=*/9);
  const auto h = reader.history(2);
  ASSERT_EQ(h.size(), 2u);
  EXPECT_EQ(h[0].tag, 9u);
  EXPECT_NE(h[0].thread_id, 0u);
}

TEST_F(ReaderFixture, StalenessGrowsBetweenBeats) {
  beats(1, 100);
  clock->advance(5000);
  EXPECT_EQ(reader.staleness_ns(), 5000);
  beats(1, 100);
  EXPECT_EQ(reader.staleness_ns(), 0);
}

TEST_F(ReaderFixture, StalenessWithNoBeatsIsClockNow) {
  clock->advance(777);
  EXPECT_EQ(reader.staleness_ns(), 777);
}

TEST_F(ReaderFixture, MeetingTarget) {
  producer.set_target(9.0, 11.0);
  beats(21, kNsPerSec / 10);
  EXPECT_TRUE(reader.meeting_target());
  producer.set_target(0.5, 1.0);
  EXPECT_FALSE(reader.meeting_target());
}

TEST_F(ReaderFixture, TargetErrorSignConvention) {
  producer.set_target(9.0, 11.0);
  beats(21, kNsPerSec / 10);  // 10 beats/s: inside
  EXPECT_DOUBLE_EQ(reader.target_error(), 0.0);
  producer.set_target(20.0, 30.0);  // below min by 10
  EXPECT_NEAR(reader.target_error(), -10.0, 1e-9);
  producer.set_target(1.0, 2.0);  // above max by 8
  EXPECT_NEAR(reader.target_error(), 8.0, 1e-9);
}

TEST_F(ReaderFixture, JitterZeroOnSteadyBeat) {
  beats(30, kNsPerSec / 10);
  EXPECT_DOUBLE_EQ(reader.jitter_ns(10), 0.0);
}

TEST_F(ReaderFixture, JitterPositiveOnErraticBeat) {
  beats(1, 100);
  beats(1, 5000);
  beats(1, 100);
  beats(1, 9000);
  EXPECT_GT(reader.jitter_ns(4), 0.0);
}

TEST(Reader, WorksAgainstHeartbeatGlobalStore) {
  auto clock = std::make_shared<util::ManualClock>();
  HeartbeatOptions o;
  o.clock = clock;
  o.default_window = 4;
  // Keep a handle on the store via a custom factory.
  std::shared_ptr<BeatStore> captured;
  o.store_factory = [&captured](const StoreSpec& spec) {
    auto s = std::make_shared<MemoryStore>(spec.capacity, spec.default_window);
    if (spec.shared) captured = s;
    return s;
  };
  Heartbeat hb(o);
  hb.set_target(3.0, 5.0);
  for (int i = 0; i < 9; ++i) {
    clock->advance(kNsPerSec / 4);
    hb.beat();
  }
  HeartbeatReader reader(captured, clock);
  EXPECT_EQ(reader.count(), 9u);
  EXPECT_NEAR(reader.current_rate(), 4.0, 1e-9);
  EXPECT_TRUE(reader.meeting_target());
}

}  // namespace
}  // namespace hb::core
