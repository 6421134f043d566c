// Unit tests for hb::util — clocks, ring buffer, beat window, statistics,
// RNG, thread ids.
#include <gtest/gtest.h>

#include <atomic>
#include <bit>
#include <algorithm>
#include <cmath>
#include <cstdint>
#include <limits>
#include <set>
#include <thread>
#include <utility>
#include <vector>

#include "util/beat_window.hpp"
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

// ------------------------------------------------------------ beat window

TEST(BeatWindow, ABackwardStampIsRaisedToTheNewestBeat) {
  // 100 ms cadence; the fifth beat is stamped 30 ms before the fourth. It
  // reads as the fourth beat's twin (interval 0), and the next interval
  // is measured from the fourth: 70 ms.
  BeatWindow w(16);
  for (const TimeNs ms : {100, 200, 300, 400, 370, 470}) {
    w.push(ms * kNsPerMs);
  }
  EXPECT_EQ(w.newest_ns(), 470 * kNsPerMs);
  const WindowSummary s = w.summary();
  EXPECT_EQ(s.beats, 6u);
  EXPECT_EQ(s.rate_bps, 5.0 / 0.37);
  EXPECT_EQ(s.interval_mean_ns, 74.0 * kNsPerMs);
}

/// The window a fresh fold of every stamp pushed since the last clear()
/// leaves: each stamp raised to the running maximum, then the last
/// `capacity` of them.
std::vector<TimeNs> fold(const std::vector<TimeNs>& pushed,
                         std::size_t capacity) {
  std::vector<TimeNs> out;
  for (const TimeNs ts : pushed) {
    out.push_back(out.empty() ? ts : std::max(ts, out.back()));
  }
  if (out.size() > capacity) {
    out.erase(out.begin(), out.end() - static_cast<std::ptrdiff_t>(capacity));
  }
  return out;
}

void expect_fold(const BeatWindow& w, const std::vector<TimeNs>& window) {
  using U128 = unsigned __int128;
  const WindowSummary s = w.summary();
  ASSERT_EQ(s.beats, window.size());
  std::vector<std::uint64_t> iv;
  for (std::size_t i = 1; i < window.size(); ++i) {
    iv.push_back(static_cast<std::uint64_t>(window[i]) -
                 static_cast<std::uint64_t>(window[i - 1]));
  }
  if (iv.empty()) {
    EXPECT_EQ(s.rate_bps, 0.0);
    EXPECT_EQ(s.interval_mean_ns, 0.0);
    EXPECT_EQ(s.interval_stddev_ns, 0.0);
    return;
  }
  // Rate: (n - 1) over the span between the window's ends.
  const std::uint64_t span = static_cast<std::uint64_t>(window.back()) -
                             static_cast<std::uint64_t>(window.front());
  const double n = static_cast<double>(iv.size());
  EXPECT_EQ(s.rate_bps,
            span > 0 ? n / (static_cast<double>(span) /
                            static_cast<double>(kNsPerSec))
                     : std::numeric_limits<double>::infinity());
  U128 sum = 0;
  for (const std::uint64_t v : iv) sum += v;
  EXPECT_EQ(s.interval_mean_ns, static_cast<double>(sum) / n);
  // Population stddev, two-pass with exact integer deviations n*v - sum.
  long double sq = 0.0L;
  for (const std::uint64_t v : iv) {
    const auto d = static_cast<long double>(
        static_cast<__int128>(iv.size()) * v - static_cast<__int128>(sum));
    sq += d * d;
  }
  const auto nl = static_cast<long double>(iv.size());
  const auto stddev = static_cast<double>(std::sqrt(sq / (nl * nl * nl)));
  if (stddev == 0.0) {
    EXPECT_EQ(s.interval_stddev_ns, 0.0);
  } else {
    EXPECT_NEAR(s.interval_stddev_ns / stddev, 1.0, 1e-9);
  }
}

// Push by push, the incremental window equals a from-scratch fold of the
// same stamps: forward, repeated and backward steps, jumps to both ends
// of the int64 range (intervals near 2^63 and up to 2^64 - 1), and clear()
// followed by a revival that starts a fresh window at any stamp.
class BeatWindowFold : public ::testing::TestWithParam<std::size_t> {};

TEST_P(BeatWindowFold, EveryPushMatchesAFreshFold) {
  constexpr TimeNs kTick = 20'000'000;
  constexpr TimeNs kMin = std::numeric_limits<TimeNs>::min();
  constexpr TimeNs kMax = std::numeric_limits<TimeNs>::max();
  constexpr TimeNs kQuarter = TimeNs{1} << 62;
  const std::size_t cap = GetParam();
  BeatWindow w(cap);
  Rng rng(cap);
  std::vector<TimeNs> pushed;  // since the last clear()
  TimeNs last = 0;             // the previous stamp, as stamped
  TimeNs newest = 0;
  for (int op = 0; op < 4000; ++op) {
    if (rng.chance(0.003)) {
      w.clear();
      pushed.clear();
    } else {
      const auto j = static_cast<TimeNs>(rng.next_below(4));
      const auto step = static_cast<TimeNs>(rng.next_below(kTick));
      switch (rng.next_below(pushed.empty() ? 8 : 400)) {
        case 0: last = kMin + j; break;
        case 1: last = -kQuarter + j; break;
        case 2: last = kQuarter - j; break;
        case 3: last = kMax - j; break;
        default:
          // Forward, repeat or back, a tick at most, inside +-2^62.
          if (rng.next_below(3) == 0 && last > -kQuarter) {
            last -= step;
          } else if (rng.chance(0.5) && last < kQuarter) {
            last += step;
          }
      }
      w.push(last);
      pushed.push_back(last);
      newest = fold(pushed, cap).back();
    }
    EXPECT_EQ(w.newest_ns(), newest);
    expect_fold(w, fold(pushed, cap));
    if (HasFailure()) FAIL() << "diverged at op " << op;
  }
}

INSTANTIATE_TEST_SUITE_P(Capacities, BeatWindowFold,
                         ::testing::Values(2, 3, 256));

// A full 50 Hz window sees one 5 s pause, an interval past 2^32 ns, and
// then 300 more beats: push by push, the window matches a fresh fold
// while the long interval enters, while it is held and once it has left.
TEST(BeatWindow, APauseLongerThan32BitsEntersAndLeavesTheWindow) {
  constexpr std::size_t kCap = 256;
  constexpr TimeNs kTick = 20 * kNsPerMs;
  BeatWindow w(kCap);
  std::vector<TimeNs> pushed;
  TimeNs t = 1'000 * kNsPerSec;
  const auto beat = [&](TimeNs ts) {
    w.push(ts);
    pushed.push_back(ts);
    EXPECT_EQ(w.newest_ns(), ts);
    expect_fold(w, fold(pushed, kCap));
  };
  for (std::size_t i = 0; i < kCap && !HasFailure(); ++i) beat(t += kTick);
  beat(t += 5 * kNsPerSec);
  for (int i = 0; i < 300 && !HasFailure(); ++i) beat(t += kTick);
  const WindowSummary s = w.summary();
  EXPECT_EQ(s.beats, kCap);
  EXPECT_EQ(s.rate_bps, 50.0);
  EXPECT_EQ(s.interval_mean_ns, static_cast<double>(kTick));
  EXPECT_EQ(s.interval_stddev_ns, 0.0);
}

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
  // 300 values each, summing up to nearly 2^64.
  for (const std::uint64_t v :
       {std::uint64_t{0}, std::uint64_t{1000}, (std::uint64_t{1} << 55) - 1,
        std::uint64_t{1} << 55}) {
    ExactMoments m;
    for (int i = 0; i < 300; ++i) m.add(v);
    EXPECT_EQ(m.mean(), static_cast<double>(v));
    EXPECT_EQ(m.stddev(), 0.0) << v;
  }
}

TEST(ExactMoments, RemoveCancelsExactlyAfterHugeValues) {
  // Values near 2^64 wrap the sum at the second add and the sum of squares
  // at the first few; removing them must still cancel to nothing.
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
  // {top, 0} alternating: mean top / 2, stddev the same. 128 pairs sum to
  // nearly 2^63; one pair of 2^64 - 1 and 0 has a sum of squares of
  // nearly 2^128.
  const std::pair<std::uint64_t, int> cases[] = {
      {(std::uint64_t{1} << 56) - 1, 128},
      {std::numeric_limits<std::uint64_t>::max(), 1}};
  for (const auto& [top, pairs] : cases) {
    ExactMoments m;
    for (int i = 0; i < pairs; ++i) {
      m.add(top);
      m.add(0);
    }
    const double half = static_cast<double>(top) / 2.0;
    EXPECT_EQ(m.mean(), half);
    EXPECT_NEAR(m.stddev() / half, 1.0, 1e-15) << top;
  }
}

// The mean and stddev formulas at full width: a u128 divide and a u128 ->
// double conversion. Valid while the sum of squares fits in 128 bits.
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

TEST(ExactMoments, MatchesTheFullWidthFormulasBitForBit) {
  // ExactMoments divides and converts its sum at 64 bits.
  constexpr std::uint64_t kTop = std::uint64_t{1} << 63;
  const std::vector<std::vector<std::uint64_t>> cases = {
      // Sums just below 2^64.
      {kTop - 1, kTop - 2},
      {kTop - 1, kTop - 1 - 12345, 12345},
      {kTop - 3, kTop + 2},
      {std::numeric_limits<std::uint64_t>::max()},
      {std::numeric_limits<std::uint64_t>::max() - 1, 1},
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

TEST(ExactMoments, SumsThatWrapReadExactOnceTheHeldValuesFit) {
  // While values come and go the sum may pass 2^64 and wrap: every read
  // after it falls below 2^64 again equals the full-width formula.
  constexpr std::uint64_t kTop = std::uint64_t{1} << 63;
  ExactMoments m;
  m.add(kTop - 1);
  for (std::uint64_t v = kTop - 3; v <= kTop + 3; ++v) {
    m.add(v);  // the sum wraps for v > kTop
    m.add(12345);
    m.remove(v);
    const WideMoments wide({kTop - 1, 12345});
    EXPECT_EQ(std::bit_cast<std::uint64_t>(m.mean()),
              std::bit_cast<std::uint64_t>(wide.mean()));
    EXPECT_EQ(std::bit_cast<std::uint64_t>(m.stddev()),
              std::bit_cast<std::uint64_t>(wide.stddev()));
    m.remove(12345);
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
