// Unit tests for hb::util — clocks, ring buffer, statistics, RNG, thread
// ids.
#include <gtest/gtest.h>

#include <atomic>
#include <bit>
#include <cmath>
#include <cstdint>
#include <limits>
#include <set>
#include <thread>
#include <vector>

#include "util/clock.hpp"
#include "util/exact_moments.hpp"
#include "util/ring_buffer.hpp"
#include "util/rng.hpp"
#include "util/stats.hpp"
#include "util/thread_id.hpp"
#include "util/time.hpp"

namespace hb::util {
namespace {

// ---------------------------------------------------------------- time.hpp

TEST(Time, SecondsRoundTrip) {
  EXPECT_DOUBLE_EQ(to_seconds(kNsPerSec), 1.0);
  EXPECT_DOUBLE_EQ(to_seconds(kNsPerMs), 1e-3);
  EXPECT_DOUBLE_EQ(to_seconds(kNsPerUs), 1e-6);
  EXPECT_EQ(from_seconds(2.5), 2'500'000'000);
  EXPECT_EQ(from_seconds(0.0), 0);
}

TEST(Time, NegativeIntervalsAreSigned) {
  EXPECT_DOUBLE_EQ(to_seconds(-kNsPerSec), -1.0);
}

// ----------------------------------------------------------------- clocks

TEST(MonotonicClock, NeverGoesBackwards) {
  MonotonicClock clock;
  TimeNs prev = clock.now();
  for (int i = 0; i < 1000; ++i) {
    TimeNs t = clock.now();
    EXPECT_GE(t, prev);
    prev = t;
  }
}

TEST(MonotonicClock, SharedInstanceIsSingleton) {
  EXPECT_EQ(MonotonicClock::instance().get(), MonotonicClock::instance().get());
}

TEST(ManualClock, StartsAtGivenTime) {
  ManualClock clock(42);
  EXPECT_EQ(clock.now(), 42);
}

TEST(ManualClock, AdvanceMovesAndReturnsNewTime) {
  ManualClock clock;
  EXPECT_EQ(clock.advance(10), 10);
  EXPECT_EQ(clock.advance(5), 15);
  EXPECT_EQ(clock.now(), 15);
}

TEST(ManualClock, SetJumpsAnywhere) {
  ManualClock clock(100);
  clock.set(7);
  EXPECT_EQ(clock.now(), 7);
}

TEST(ManualClock, ConcurrentAdvancesAllLand) {
  ManualClock clock;
  constexpr int kThreads = 4;
  constexpr int kPerThread = 10000;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&clock] {
      for (int i = 0; i < kPerThread; ++i) clock.advance(1);
    });
  }
  for (auto& t : threads) t.join();
  EXPECT_EQ(clock.now(), kThreads * kPerThread);
}

// ------------------------------------------------------------ ring buffer

TEST(RingBuffer, StartsEmpty) {
  RingBuffer<int> rb(4);
  EXPECT_TRUE(rb.empty());
  EXPECT_EQ(rb.size(), 0u);
  EXPECT_EQ(rb.capacity(), 4u);
  EXPECT_EQ(rb.total_pushed(), 0u);
}

TEST(RingBuffer, PushesUpToCapacity) {
  RingBuffer<int> rb(3);
  rb.push(1);
  rb.push(2);
  EXPECT_EQ(rb.size(), 2u);
  EXPECT_EQ(rb.back(0), 2);
  EXPECT_EQ(rb.back(1), 1);
}

TEST(RingBuffer, OverwritesOldestWhenFull) {
  RingBuffer<int> rb(3);
  for (int i = 1; i <= 5; ++i) rb.push(i);
  EXPECT_EQ(rb.size(), 3u);
  EXPECT_EQ(rb.total_pushed(), 5u);
  EXPECT_EQ(rb.back(0), 5);
  EXPECT_EQ(rb.back(1), 4);
  EXPECT_EQ(rb.back(2), 3);
}

TEST(RingBuffer, LastNOldestFirst) {
  RingBuffer<int> rb(4);
  for (int i = 1; i <= 6; ++i) rb.push(i);
  const auto v = rb.last_n(3);
  ASSERT_EQ(v.size(), 3u);
  EXPECT_EQ(v[0], 4);
  EXPECT_EQ(v[1], 5);
  EXPECT_EQ(v[2], 6);
}

TEST(RingBuffer, LastNClipsToSize) {
  RingBuffer<int> rb(8);
  rb.push(10);
  rb.push(20);
  const auto v = rb.last_n(100);
  ASSERT_EQ(v.size(), 2u);
  EXPECT_EQ(v[0], 10);
  EXPECT_EQ(v[1], 20);
}

TEST(RingBuffer, LastNSpanRespectsOutputSize) {
  RingBuffer<int> rb(8);
  for (int i = 0; i < 8; ++i) rb.push(i);
  std::vector<int> out(3);
  const std::size_t n = rb.last_n(5, std::span<int>(out));
  EXPECT_EQ(n, 3u);
  EXPECT_EQ(out[0], 5);
  EXPECT_EQ(out[2], 7);
}

TEST(RingBuffer, ClearResets) {
  RingBuffer<int> rb(2);
  rb.push(1);
  rb.clear();
  EXPECT_TRUE(rb.empty());
  EXPECT_EQ(rb.total_pushed(), 0u);
}

// Property: for any capacity and push count, last_n returns the most recent
// min(n, size) values in order.
class RingBufferProperty
    : public ::testing::TestWithParam<std::tuple<std::size_t, std::size_t>> {};

TEST_P(RingBufferProperty, RetainsNewestInOrder) {
  const auto [capacity, pushes] = GetParam();
  RingBuffer<std::size_t> rb(capacity);
  for (std::size_t i = 0; i < pushes; ++i) rb.push(i);
  const std::size_t expect_size = std::min(capacity, pushes);
  EXPECT_EQ(rb.size(), expect_size);
  const auto v = rb.last_n(expect_size);
  ASSERT_EQ(v.size(), expect_size);
  for (std::size_t i = 0; i < expect_size; ++i) {
    EXPECT_EQ(v[i], pushes - expect_size + i);
  }
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, RingBufferProperty,
    ::testing::Combine(::testing::Values<std::size_t>(1, 2, 3, 7, 64, 1024),
                       ::testing::Values<std::size_t>(0, 1, 5, 63, 64, 65,
                                                      4096)));

// ----------------------------------------------------------- exact moments

TEST(ExactMoments, MeanAndStddevOfSmallSets) {
  ExactMoments m;
  EXPECT_EQ(m.mean(), 0.0);
  EXPECT_EQ(m.stddev(), 0.0);
  for (std::uint64_t v : {2, 4, 4, 4, 5, 5, 7, 9}) m.add(v);
  EXPECT_EQ(m.count(), 8u);
  EXPECT_EQ(m.mean(), 5.0);
  EXPECT_EQ(m.stddev(), 2.0);
  m.remove(9);
  m.remove(2);
  EXPECT_EQ(m.mean(), 29.0 / 6.0);
  EXPECT_NEAR(m.stddev(), std::sqrt(147.0 / 6.0 - (29.0 / 6.0) * (29.0 / 6.0)),
              1e-12);
}

TEST(ExactMoments, IdenticalValuesHaveZeroSpreadAtAnyMagnitude) {
  for (const std::uint64_t v :
       {std::uint64_t{0}, std::uint64_t{1000}, std::uint64_t{1} << 62,
        std::numeric_limits<std::uint64_t>::max()}) {
    ExactMoments m;
    for (int i = 0; i < 300; ++i) m.add(v);
    EXPECT_EQ(m.mean(), static_cast<double>(v));
    EXPECT_EQ(m.stddev(), 0.0) << v;
  }
}

TEST(ExactMoments, RemoveCancelsExactlyAfterHugeValues) {
  // 2^64 - 1 squared overflows 128 bits after two adds; the 192-bit sum of
  // squares must still cancel to nothing.
  ExactMoments m;
  const std::uint64_t huge = std::numeric_limits<std::uint64_t>::max();
  for (int i = 0; i < 255; ++i) m.add(huge - static_cast<std::uint64_t>(i));
  m.add(10);
  m.add(20);
  for (int i = 0; i < 255; ++i) m.remove(huge - static_cast<std::uint64_t>(i));
  EXPECT_EQ(m.count(), 2u);
  EXPECT_EQ(m.mean(), 15.0);
  EXPECT_EQ(m.stddev(), 5.0);
}

TEST(ExactMoments, SpreadOfHugeValuesIsExactToDoublePrecision) {
  // {2^63 - 1, 0} alternating: mean 2^62 - 0.5, stddev the same.
  ExactMoments m;
  const std::uint64_t top = (std::uint64_t{1} << 63) - 1;
  for (int i = 0; i < 128; ++i) {
    m.add(top);
    m.add(0);
  }
  const double half = static_cast<double>(top) / 2.0;
  EXPECT_EQ(m.mean(), half);
  EXPECT_NEAR(m.stddev() / half, 1.0, 1e-15);
}

// The mean and stddev formulas at full width, the way ExactMoments computed
// them before its 64-bit fast path: a u128 divide and a u128 -> double
// conversion. Valid while the sum of squares fits in 128 bits.
struct WideMoments {
  using U128 = unsigned __int128;
  std::uint64_t n = 0;
  U128 sum = 0;
  U128 sumsq = 0;

  explicit WideMoments(const std::vector<std::uint64_t>& values) {
    for (const std::uint64_t v : values) {
      ++n;
      sum += v;
      sumsq += static_cast<U128>(v) * v;
    }
  }
  double mean() const {
    return static_cast<double>(sum) / static_cast<double>(n);
  }
  double stddev() const {
    const auto m = static_cast<std::uint64_t>(sum / n);
    const auto r = static_cast<std::uint64_t>(sum % n);
    const U128 d = sumsq - static_cast<U128>(m) * (sum + r);
    const double dn = static_cast<double>(n);
    const double frac = static_cast<double>(r) / dn;
    return std::sqrt(std::fmax(0.0, static_cast<double>(d) / dn - frac * frac));
  }
};

TEST(ExactMoments, FastPathMatchesTheWidePathBitForBit) {
  constexpr std::uint64_t kTop = std::uint64_t{1} << 63;
  const std::vector<std::vector<std::uint64_t>> cases = {
      // Sums just below 2^64: the fast path.
      {kTop - 1, kTop - 2},
      {kTop - 1, kTop - 1 - 12345, 12345},
      {kTop - 3, kTop + 2},
      // Sums just above 2^64: the wide path.
      {kTop, kTop},
      {kTop + 1, kTop + 2},
      {kTop + 7, kTop - 3, 1},
      // Values near 2^63 with a sum far from 2^64.
      {kTop - 1},
      {kTop + 1, 3},
      // A realistic window: 255 intervals of about 20 ms.
      {20'000'000, 20'000'317, 19'999'001, 20'004'999, 19'990'000},
  };
  for (const auto& values : cases) {
    ExactMoments m;
    for (const std::uint64_t v : values) m.add(v);
    const WideMoments wide(values);
    EXPECT_EQ(std::bit_cast<std::uint64_t>(m.mean()),
              std::bit_cast<std::uint64_t>(wide.mean()))
        << m.mean() << " vs " << wide.mean();
    if (values.size() >= 2) {
      EXPECT_EQ(std::bit_cast<std::uint64_t>(m.stddev()),
                std::bit_cast<std::uint64_t>(wide.stddev()))
          << m.stddev() << " vs " << wide.stddev();
    }
  }
}

TEST(ExactMoments, CrossingTwoToTheSixtyFourKeepsTheWideResults) {
  // Step a window's sum up through 2^64 and back down: every read on
  // either side equals the full-width formula.
  constexpr std::uint64_t kTop = std::uint64_t{1} << 63;
  ExactMoments m;
  m.add(kTop);
  for (std::uint64_t v = kTop - 3; v <= kTop + 3; ++v) {
    m.add(v);
    const WideMoments wide({kTop, v});
    EXPECT_EQ(std::bit_cast<std::uint64_t>(m.mean()),
              std::bit_cast<std::uint64_t>(wide.mean()));
    EXPECT_EQ(std::bit_cast<std::uint64_t>(m.stddev()),
              std::bit_cast<std::uint64_t>(wide.stddev()));
    m.remove(v);
  }
}

// ------------------------------------------------------------- statistics

TEST(RunningStats, EmptyIsZero) {
  RunningStats s;
  EXPECT_EQ(s.count(), 0u);
  EXPECT_DOUBLE_EQ(s.mean(), 0.0);
  EXPECT_DOUBLE_EQ(s.variance(), 0.0);
}

TEST(RunningStats, SingleValue) {
  RunningStats s;
  s.add(5.0);
  EXPECT_EQ(s.count(), 1u);
  EXPECT_DOUBLE_EQ(s.mean(), 5.0);
  EXPECT_DOUBLE_EQ(s.variance(), 0.0);
  EXPECT_DOUBLE_EQ(s.min(), 5.0);
  EXPECT_DOUBLE_EQ(s.max(), 5.0);
}

TEST(RunningStats, KnownMoments) {
  RunningStats s;
  for (double x : {2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0}) s.add(x);
  EXPECT_DOUBLE_EQ(s.mean(), 5.0);
  // Population variance is 4; sample variance = 32/7.
  EXPECT_NEAR(s.variance(), 32.0 / 7.0, 1e-12);
  EXPECT_DOUBLE_EQ(s.min(), 2.0);
  EXPECT_DOUBLE_EQ(s.max(), 9.0);
  EXPECT_DOUBLE_EQ(s.sum(), 40.0);
}

TEST(RunningStats, MergeMatchesSequential) {
  RunningStats a, b, all;
  for (int i = 0; i < 50; ++i) {
    const double x = std::sin(i) * 10.0;
    (i % 2 ? a : b).add(x);
    all.add(x);
  }
  a.merge(b);
  EXPECT_EQ(a.count(), all.count());
  EXPECT_NEAR(a.mean(), all.mean(), 1e-9);
  EXPECT_NEAR(a.variance(), all.variance(), 1e-9);
  EXPECT_DOUBLE_EQ(a.min(), all.min());
  EXPECT_DOUBLE_EQ(a.max(), all.max());
}

TEST(RunningStats, MergeWithEmptySides) {
  RunningStats a, b;
  a.add(1.0);
  a.merge(b);  // empty rhs: no-op
  EXPECT_EQ(a.count(), 1u);
  b.merge(a);  // empty lhs: copy
  EXPECT_EQ(b.count(), 1u);
  EXPECT_DOUBLE_EQ(b.mean(), 1.0);
}

TEST(Percentile, NearestRank) {
  std::vector<double> v{1, 2, 3, 4, 5, 6, 7, 8, 9, 10};
  EXPECT_DOUBLE_EQ(percentile(v, 50), 5.0);
  EXPECT_DOUBLE_EQ(percentile(v, 90), 9.0);
  EXPECT_DOUBLE_EQ(percentile(v, 100), 10.0);
  EXPECT_DOUBLE_EQ(percentile(v, 0), 1.0);
  EXPECT_DOUBLE_EQ(percentile({}, 50), 0.0);
}

TEST(Ewma, FirstSampleSeeds) {
  Ewma e(0.5);
  EXPECT_FALSE(e.seeded());
  EXPECT_DOUBLE_EQ(e.add(10.0), 10.0);
  EXPECT_TRUE(e.seeded());
}

TEST(Ewma, ConvergesToConstantInput) {
  Ewma e(0.3);
  for (int i = 0; i < 100; ++i) e.add(7.0);
  EXPECT_NEAR(e.value(), 7.0, 1e-9);
}

TEST(Ewma, BlendsByAlpha) {
  Ewma e(0.25);
  e.add(0.0);
  EXPECT_DOUBLE_EQ(e.add(8.0), 2.0);
}

// -------------------------------------------------------------------- rng

TEST(Rng, Deterministic) {
  Rng a(123), b(123);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.next_u64(), b.next_u64());
}

TEST(Rng, DifferentSeedsDiffer) {
  Rng a(1), b(2);
  int same = 0;
  for (int i = 0; i < 64; ++i) same += (a.next_u64() == b.next_u64());
  EXPECT_LT(same, 2);
}

TEST(Rng, DoublesInUnitInterval) {
  Rng r(7);
  for (int i = 0; i < 10000; ++i) {
    const double x = r.next_double();
    EXPECT_GE(x, 0.0);
    EXPECT_LT(x, 1.0);
  }
}

TEST(Rng, UniformRespectsBounds) {
  Rng r(7);
  for (int i = 0; i < 10000; ++i) {
    const double x = r.uniform(-3.0, 5.0);
    EXPECT_GE(x, -3.0);
    EXPECT_LT(x, 5.0);
  }
}

TEST(Rng, UniformMeanIsCentered) {
  Rng r(99);
  RunningStats s;
  for (int i = 0; i < 100000; ++i) s.add(r.next_double());
  EXPECT_NEAR(s.mean(), 0.5, 0.01);
}

TEST(Rng, NormalMoments) {
  Rng r(42);
  RunningStats s;
  for (int i = 0; i < 100000; ++i) s.add(r.normal(10.0, 2.0));
  EXPECT_NEAR(s.mean(), 10.0, 0.05);
  EXPECT_NEAR(s.stddev(), 2.0, 0.05);
}

TEST(Rng, ChanceProbability) {
  Rng r(5);
  int hits = 0;
  for (int i = 0; i < 100000; ++i) hits += r.chance(0.25);
  EXPECT_NEAR(hits / 100000.0, 0.25, 0.01);
}

TEST(Rng, NextBelowInRange) {
  Rng r(11);
  for (int i = 0; i < 1000; ++i) EXPECT_LT(r.next_below(17), 17u);
}

// -------------------------------------------------------------- thread id

TEST(ThreadId, StableWithinThread) {
  EXPECT_EQ(current_thread_id(), current_thread_id());
  EXPECT_EQ(current_thread_index(), current_thread_index());
}

TEST(ThreadId, DistinctAcrossThreads) {
  const std::uint32_t main_id = current_thread_id();
  std::set<std::uint32_t> ids{main_id};
  std::mutex mu;
  std::vector<std::thread> threads;
  for (int i = 0; i < 8; ++i) {
    threads.emplace_back([&] {
      const std::uint32_t id = current_thread_id();
      std::lock_guard<std::mutex> lock(mu);
      ids.insert(id);
    });
  }
  for (auto& t : threads) t.join();
  EXPECT_EQ(ids.size(), 9u);
}

}  // namespace
}  // namespace hb::util
