// Unit and property tests for the heart-rate math in core/rate.hpp, plus
// regression coverage for the window = 0 / fewer-beats-than-window edge
// cases as seen through Channel and HeartbeatReader (every layer must agree
// on the clamps: window 0 -> default window -> at least 1; a w-beat window
// reads w records = w-1 intervals; oversized windows silently clip).
#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <limits>
#include <memory>

#include "core/channel.hpp"
#include "core/memory_store.hpp"
#include "core/rate.hpp"
#include "core/reader.hpp"
#include "test_support.hpp"
#include "util/clock.hpp"
#include "util/time.hpp"

namespace hb::core {
namespace {

using hb::test::at_times;
using hb::test::evenly_spaced;
using util::kNsPerSec;

TEST(WindowRate, EmptyIsZero) {
  EXPECT_DOUBLE_EQ(window_rate({}), 0.0);
}

TEST(WindowRate, SingleRecordIsZero) {
  const auto recs = evenly_spaced(1, kNsPerSec);
  EXPECT_DOUBLE_EQ(window_rate(recs), 0.0);
}

TEST(WindowRate, TwoRecordsOneSecondApart) {
  const auto recs = at_times({0, kNsPerSec});
  EXPECT_DOUBLE_EQ(window_rate(recs), 1.0);
}

TEST(WindowRate, TenHzEvenSpacing) {
  // 11 beats 100ms apart: 10 intervals over 1s = 10 beats/s.
  const auto recs = evenly_spaced(11, kNsPerSec / 10);
  EXPECT_DOUBLE_EQ(window_rate(recs), 10.0);
}

TEST(WindowRate, IntervalsCountNotBeats) {
  // n beats over span T give (n-1)/T, not n/T.
  const auto recs = evenly_spaced(5, kNsPerSec);
  EXPECT_DOUBLE_EQ(window_rate(recs), 1.0);
}

TEST(WindowRate, UnevenSpacingUsesEndpoints) {
  // Only first/last matter for the average.
  const auto recs = at_times({0, 1, 2, 4 * kNsPerSec});
  EXPECT_DOUBLE_EQ(window_rate(recs), 3.0 / 4.0);
}

TEST(WindowRate, ZeroSpanIsInfinite) {
  const auto recs = at_times({5, 5, 5});
  EXPECT_TRUE(std::isinf(window_rate(recs)));
}

TEST(WindowRate, SubSecondRates) {
  // 2 beats 100s apart: 0.01 beats/s (streamcluster territory, Table 2).
  const auto recs = at_times({0, 100 * kNsPerSec});
  EXPECT_DOUBLE_EQ(window_rate(recs), 0.01);
}

// Producer stamps are untrusted: the span between any two int64 stamps is
// taken unsigned, never overflowing.
TEST(WindowRate, SpanAcrossTheWholeInt64RangeIsExact) {
  constexpr util::TimeNs kMin = std::numeric_limits<util::TimeNs>::min();
  constexpr util::TimeNs kMax = std::numeric_limits<util::TimeNs>::max();
  const double full_span_s =
      static_cast<double>(std::numeric_limits<std::uint64_t>::max()) /
      static_cast<double>(kNsPerSec);
  EXPECT_EQ(window_rate(at_times({kMin, kMax})), 1.0 / full_span_s);
  EXPECT_EQ(window_rate(at_times({kMin, 0, kMax})), 2.0 / full_span_s);
  EXPECT_EQ(window_rate(at_times({-1, kMax})),
            1.0 / (static_cast<double>(std::uint64_t{1} << 63) /
                   static_cast<double>(kNsPerSec)));
  // A backward window reads as a zero span, however far back.
  EXPECT_TRUE(std::isinf(window_rate(at_times({kMax, kMin}))));
  EXPECT_TRUE(std::isinf(window_rate(at_times({0, kMin}))));
}

// Property sweep: for any (count, interval) grid the computed rate matches
// the closed form (count-1)/((count-1)*interval) = 1/interval.
class RateGrid : public ::testing::TestWithParam<
                     std::tuple<std::size_t, util::TimeNs>> {};

TEST_P(RateGrid, MatchesClosedForm) {
  const auto [n, interval] = GetParam();
  const auto recs = evenly_spaced(n, interval);
  const double expect =
      n < 2 ? 0.0 : static_cast<double>(kNsPerSec) / static_cast<double>(interval);
  EXPECT_NEAR(window_rate(recs), expect, expect * 1e-12);
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, RateGrid,
    ::testing::Combine(
        ::testing::Values<std::size_t>(0, 1, 2, 3, 20, 101),
        ::testing::Values<util::TimeNs>(1, 1000, kNsPerSec / 561,
                                        kNsPerSec / 10, kNsPerSec,
                                        50 * kNsPerSec)));

// Property: the rate is invariant under time translation.
class RateTranslation : public ::testing::TestWithParam<util::TimeNs> {};

TEST_P(RateTranslation, ShiftInvariant) {
  const auto base = evenly_spaced(20, 12345);
  const auto shifted = evenly_spaced(20, 12345, GetParam());
  EXPECT_DOUBLE_EQ(window_rate(base), window_rate(shifted));
}

INSTANTIATE_TEST_SUITE_P(Sweep, RateTranslation,
                         ::testing::Values<util::TimeNs>(
                             1, 1'000'000, kNsPerSec, 86400 * kNsPerSec));

// ------------------------------------------- window-handling edge cases

struct WindowEdgeFixture : ::testing::Test {
  std::shared_ptr<util::ManualClock> clock =
      std::make_shared<util::ManualClock>();

  /// Channel over a fresh store of the given capacity/default window.
  std::pair<std::shared_ptr<MemoryStore>, std::shared_ptr<Channel>> make(
      std::size_t capacity, std::uint32_t default_window) {
    auto store = std::make_shared<MemoryStore>(capacity, default_window);
    return {store, std::make_shared<Channel>(store, clock)};
  }

  void beats(Channel& ch, int n, util::TimeNs interval) {
    for (int i = 0; i < n; ++i) {
      clock->advance(interval);
      ch.beat();
    }
  }
};

TEST_F(WindowEdgeFixture, ZeroDefaultWindowClampsToOne) {
  // Stores normalize a default window of 0 to 1, and rate(window=1) still
  // reads 2 records so it means "instantaneous", not "always zero".
  auto [store, ch] = make(16, 0);
  EXPECT_EQ(store->default_window(), 1u);
  store->set_default_window(0);
  EXPECT_EQ(store->default_window(), 1u);

  beats(*ch, 1, kNsPerSec);
  EXPECT_DOUBLE_EQ(ch->rate(0), 0.0);  // one beat: no interval yet
  beats(*ch, 1, kNsPerSec / 4);
  EXPECT_DOUBLE_EQ(ch->rate(0), 4.0);  // default(=1) window: last interval
  EXPECT_DOUBLE_EQ(ch->rate(1), 4.0);
}

TEST_F(WindowEdgeFixture, WindowOfOneIsInstantaneous) {
  auto [store, ch] = make(16, 8);
  beats(*ch, 5, kNsPerSec);      // slow era
  beats(*ch, 1, kNsPerSec / 10); // one fast interval
  EXPECT_DOUBLE_EQ(ch->rate(1), 10.0);
  EXPECT_DOUBLE_EQ(ch->rate(1), 1.0 / util::to_seconds(kNsPerSec / 10));
  EXPECT_DOUBLE_EQ(ch->rate(2), 10.0);  // 2 beats = the same single interval
}

TEST_F(WindowEdgeFixture, FewerBeatsThanWindowUsesWhatExists) {
  auto [store, ch] = make(64, 20);
  beats(*ch, 3, kNsPerSec);  // 3 beats, window wants 20
  // 2 intervals over 2s — not 19 intervals, not zero.
  EXPECT_DOUBLE_EQ(ch->rate(0), 1.0);
  EXPECT_DOUBLE_EQ(ch->rate(20), 1.0);
  EXPECT_DOUBLE_EQ(HeartbeatReader(store, clock).current_rate(20), 1.0);
}

TEST_F(WindowEdgeFixture, WindowLargerThanCapacityClipsToCapacity) {
  // Paper, Section 3: history may be silently clipped. Capacity 4 keeps the
  // last 4 records = 3 intervals, however big the requested window is.
  auto [store, ch] = make(4, 20);
  beats(*ch, 10, kNsPerSec);       // slow beats fall out of the ring...
  beats(*ch, 4, kNsPerSec / 100);  // ...only fast ones remain
  EXPECT_DOUBLE_EQ(ch->rate(1000), 100.0);
  EXPECT_DOUBLE_EQ(ch->rate(0), 100.0);  // default 20 also exceeds capacity
  EXPECT_DOUBLE_EQ(HeartbeatReader(store, clock).current_rate(1000), 100.0);
}

TEST_F(WindowEdgeFixture, WindowExactlyCountUsesAllIntervals) {
  // A w-beat window must span w records = w-1 intervals (the off-by-one
  // this suite guards): 5 beats at 1 beat/s, window 5 -> exactly 1.0.
  auto [store, ch] = make(64, 20);
  beats(*ch, 5, kNsPerSec);
  EXPECT_DOUBLE_EQ(ch->rate(5), 1.0);
  // Window 4 drops the oldest interval but the even spacing keeps rate 1.0.
  EXPECT_DOUBLE_EQ(ch->rate(4), 1.0);
}

TEST_F(WindowEdgeFixture, ReaderAndChannelAgreeOnEveryWindow) {
  auto [store, ch] = make(32, 7);
  beats(*ch, 20, 123 * kNsPerSec / 100);
  HeartbeatReader reader(store, clock);
  for (std::uint32_t w : {0u, 1u, 2u, 3u, 7u, 19u, 20u, 21u, 1000u}) {
    EXPECT_DOUBLE_EQ(ch->rate(w), reader.current_rate(w)) << "window " << w;
  }
}

TEST_F(WindowEdgeFixture, ZeroSpanWindowIsInfinite) {
  // Beats faster than the clock resolves: rate is +inf, not a divide crash.
  auto [store, ch] = make(8, 4);
  ch->beat();
  ch->beat();  // same manual-clock tick
  EXPECT_TRUE(std::isinf(ch->rate(0)));
  EXPECT_TRUE(std::isinf(HeartbeatReader(store, clock).current_rate(2)));
}

}  // namespace
}  // namespace hb::core
