// util::LatencyHistogram — the fixed-bucket percentile sketch backing the
// hub's per-app latency summaries.
#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <cmath>
#include <cstdint>
#include <limits>
#include <vector>

#include "util/histogram.hpp"
#include "util/rng.hpp"

namespace hb::util {
namespace {

TEST(LatencyHistogram, EmptyIsAllZero) {
  LatencyHistogram h;
  EXPECT_EQ(h.count(), 0u);
  EXPECT_EQ(h.min(), 0u);
  EXPECT_EQ(h.max(), 0u);
  EXPECT_DOUBLE_EQ(h.mean(), 0.0);
  EXPECT_EQ(h.percentile(50), 0u);
}

TEST(LatencyHistogram, BucketIndexIsMonotone) {
  std::size_t prev = 0;
  for (std::uint64_t v : std::vector<std::uint64_t>{
           0, 1, 7, 8, 9, 15, 16, 100, 1000, 4095, 4096, 1u << 20,
           std::uint64_t{1} << 40, ~std::uint64_t{0}}) {
    const std::size_t idx = LatencyHistogram::bucket_index(v);
    EXPECT_GE(idx, prev) << "v=" << v;
    EXPECT_LT(idx, LatencyHistogram::kBucketCount);
    prev = idx;
  }
}

TEST(LatencyHistogram, BucketUpperBoundsContainTheirValues) {
  for (std::uint64_t v : std::vector<std::uint64_t>{
           0, 1, 7, 8, 12, 255, 256, 1000, 123456789,
           std::uint64_t{1} << 50, ~std::uint64_t{0}}) {
    const std::size_t idx = LatencyHistogram::bucket_index(v);
    EXPECT_GE(LatencyHistogram::bucket_upper(idx), v);
    if (idx > 0) {
      EXPECT_LT(LatencyHistogram::bucket_upper(idx - 1), v);
    }
  }
}

TEST(LatencyHistogram, SmallValuesAreExact) {
  LatencyHistogram h;
  for (std::uint64_t v = 0; v < 8; ++v) h.record(v);
  EXPECT_EQ(h.count(), 8u);
  EXPECT_EQ(h.min(), 0u);
  EXPECT_EQ(h.max(), 7u);
  EXPECT_EQ(h.percentile(100), 7u);
  EXPECT_EQ(h.percentile(50), 3u);  // nearest rank 4 of 8 -> value 3
}

TEST(LatencyHistogram, MinMaxMeanAreExact) {
  LatencyHistogram h;
  h.record(10);
  h.record(1000);
  h.record(100000);
  EXPECT_EQ(h.min(), 10u);
  EXPECT_EQ(h.max(), 100000u);
  EXPECT_DOUBLE_EQ(h.mean(), (10.0 + 1000.0 + 100000.0) / 3.0);
}

TEST(LatencyHistogram, PercentileWithinRelativeError) {
  // 1..1000 recorded once each: p-th percentile is ~10*p, with <= 12.5%
  // bucket error on top.
  LatencyHistogram h;
  for (std::uint64_t v = 1; v <= 1000; ++v) h.record(v);
  for (double p : {10.0, 50.0, 95.0, 99.0}) {
    const double exact = 10.0 * p;
    const double got = static_cast<double>(h.percentile(p));
    EXPECT_GE(got, exact - 1.0) << "p=" << p;       // upper-bound convention
    EXPECT_LE(got, exact * 1.125 + 1.0) << "p=" << p;
  }
  EXPECT_EQ(h.percentile(0), 1u);
  EXPECT_EQ(h.percentile(100), 1000u);
}

TEST(LatencyHistogram, PercentileClampedToObservedRange) {
  LatencyHistogram h;
  h.record(1000);  // single value: every percentile is that value's bucket,
  h.record(1001);  // clamped into [min, max]
  EXPECT_GE(h.percentile(50), 1000u);
  EXPECT_LE(h.percentile(50), 1001u);
  EXPECT_EQ(h.percentile(99), 1001u);
}

TEST(LatencyHistogram, MergeMatchesCombinedRecording) {
  LatencyHistogram a, b, both;
  for (std::uint64_t v = 1; v <= 500; ++v) {
    a.record(v * 3);
    both.record(v * 3);
  }
  for (std::uint64_t v = 1; v <= 500; ++v) {
    b.record(v * 7);
    both.record(v * 7);
  }
  a.merge(b);
  EXPECT_EQ(a.count(), both.count());
  EXPECT_EQ(a.min(), both.min());
  EXPECT_EQ(a.max(), both.max());
  EXPECT_DOUBLE_EQ(a.mean(), both.mean());
  for (double p : {1.0, 25.0, 50.0, 95.0, 99.0}) {
    EXPECT_EQ(a.percentile(p), both.percentile(p)) << "p=" << p;
  }
}

TEST(LatencyHistogram, MergeEmptyIsIdentity) {
  LatencyHistogram a, empty;
  a.record(42);
  a.merge(empty);
  EXPECT_EQ(a.count(), 1u);
  EXPECT_EQ(a.min(), 42u);
  EXPECT_EQ(a.max(), 42u);
  empty.merge(a);
  EXPECT_EQ(empty.min(), 42u);
}

TEST(LatencyHistogram, MergeDisjointRangesKeepsExtremes) {
  LatencyHistogram lo, hi;
  for (std::uint64_t v = 1; v <= 100; ++v) lo.record(v);
  for (std::uint64_t v = 1000000; v <= 1000100; ++v) hi.record(v);
  lo.merge(hi);
  EXPECT_EQ(lo.count(), 201u);
  EXPECT_EQ(lo.min(), 1u);
  EXPECT_EQ(lo.max(), 1000100u);
  EXPECT_LE(lo.percentile(25), 100u);       // low half stays low
  EXPECT_GE(lo.percentile(75), 1000000u);   // high half stays high
}

TEST(LatencyHistogram, SingleSampleEveryPercentileIsTheSample) {
  LatencyHistogram h;
  h.record(777);
  for (double p : {0.0, 0.001, 50.0, 99.999, 100.0}) {
    EXPECT_EQ(h.percentile(p), 777u) << "p=" << p;
  }
  EXPECT_EQ(h.min(), 777u);
  EXPECT_EQ(h.max(), 777u);
  EXPECT_DOUBLE_EQ(h.mean(), 777.0);
}

TEST(LatencyHistogram, PercentileOutOfRangeClampsAndNanIsDefined) {
  LatencyHistogram h;
  h.record(10);
  h.record(20);
  h.record(30);
  // Out-of-range p clamps to the observed extremes instead of indexing
  // a nonexistent rank.
  EXPECT_EQ(h.percentile(-5.0), 10u);
  EXPECT_EQ(h.percentile(150.0), 30u);
  // NaN must not reach the rank cast (casting NaN to an integer is UB and
  // returned garbage before the guard); it reads as p<=0.
  const double nan = std::numeric_limits<double>::quiet_NaN();
  EXPECT_EQ(h.percentile(nan), 10u);
  LatencyHistogram empty;
  EXPECT_EQ(empty.percentile(nan), 0u);
}

TEST(LatencyHistogram, ForgetToEmptyThenRecordAgain) {
  LatencyHistogram h;
  h.record(5);
  h.record(500);
  h.forget(5);
  h.forget(500);
  EXPECT_EQ(h.count(), 0u);
  // Empty-by-forgetting reports like empty-by-construction for count-driven
  // summaries (min/max track lifetime extremes only while non-empty).
  EXPECT_EQ(h.min(), 0u);
  EXPECT_EQ(h.max(), 0u);
  EXPECT_DOUBLE_EQ(h.mean(), 0.0);
  EXPECT_EQ(h.percentile(50), 0u);
  h.record(7);
  EXPECT_EQ(h.count(), 1u);
  EXPECT_EQ(h.percentile(50), 7u);
}

TEST(LatencyHistogram, ResetClears) {
  LatencyHistogram h;
  h.record(99);
  h.reset();
  EXPECT_EQ(h.count(), 0u);
  EXPECT_EQ(h.percentile(50), 0u);
}

TEST(LatencyHistogram, DeterministicAcrossRuns) {
  // Same sequence -> bit-identical summary (the hub's determinism contract).
  auto build = [] {
    LatencyHistogram h;
    std::uint64_t x = 88172645463325252ULL;
    for (int i = 0; i < 10000; ++i) {
      x ^= x << 13;
      x ^= x >> 7;
      x ^= x << 17;
      h.record(x % 1000000);
    }
    return h;
  };
  const LatencyHistogram h1 = build(), h2 = build();
  for (double p : {50.0, 90.0, 95.0, 99.0, 99.9}) {
    EXPECT_EQ(h1.percentile(p), h2.percentile(p));
  }
  EXPECT_EQ(h1.min(), h2.min());
  EXPECT_EQ(h1.max(), h2.max());
}

// ------------------------------------------------ sliding-window helpers

// Values spread over many octaves, with repeats: ~1 ns to ~2^40 ns.
std::vector<std::uint64_t> spread_values(std::uint64_t seed, std::size_t n) {
  Rng rng(seed);
  std::vector<std::uint64_t> out;
  for (std::size_t i = 0; i < n; ++i) {
    out.push_back(rng.next_u64() >> (24 + rng.next_below(40)));
  }
  return out;
}

TEST(LatencyHistogram, SubtractUndoesMerge) {
  for (std::uint64_t seed = 1; seed <= 5; ++seed) {
    LatencyHistogram a, b;
    for (std::uint64_t v : spread_values(seed, 300)) a.record(v);
    for (std::uint64_t v : spread_values(seed + 100, 200)) b.record(v);
    LatencyHistogram ab = a;
    ab.merge(b);
    ab.subtract(b);
    EXPECT_EQ(ab.count(), a.count());
    EXPECT_TRUE(ab.counts() == a.counts());
    for (double p : {1.0, 50.0, 99.0}) {
      EXPECT_EQ(ab.percentile(p), a.percentile(p)) << p;
    }
    // Subtracting everything leaves an empty histogram.
    ab.subtract(a);
    EXPECT_EQ(ab.count(), 0u);
    EXPECT_TRUE(ab.counts() == LatencyHistogram{}.counts());
  }
}

// A uint16-count histogram (the hub's per-app one) answers like a uint64
// one over the same values, and subtracts exactly from a uint64 total that
// recorded them.
TEST(LatencyHistogram, NarrowCountsSubtractFromAWideTotal) {
  for (std::uint64_t seed = 1; seed <= 5; ++seed) {
    BasicLatencyHistogram<std::uint16_t> narrow;
    LatencyHistogram total;
    for (std::uint64_t v : spread_values(seed + 100, 200)) total.record(v);
    const LatencyHistogram before = total;
    for (std::uint64_t v : spread_values(seed, 300)) {
      narrow.record(v);
      total.record(v);
    }
    LatencyHistogram wide;
    for (std::uint64_t v : spread_values(seed, 300)) wide.record(v);
    for (double p : {1.0, 50.0, 99.0}) {
      EXPECT_EQ(narrow.percentile(p), wide.percentile(p)) << p;
    }
    total.subtract(narrow);
    EXPECT_EQ(total.count(), before.count());
    EXPECT_TRUE(total.counts() == before.counts());
  }
  // A full bucket: 65535 copies of one value fit the count type.
  BasicLatencyHistogram<std::uint16_t> full;
  LatencyHistogram total;
  for (int i = 0; i < 65535; ++i) {
    full.record(1000);
    total.record(1000);
  }
  EXPECT_EQ(full.counts()[LatencyHistogram::bucket_index(1000)], 65535u);
  total.subtract(full);
  EXPECT_EQ(total.count(), 0u);
  EXPECT_TRUE(total.counts() == LatencyHistogram{}.counts());
}

// The grid every multi-percentile check walks: the edges, NaN, and the
// interior, ascending (NaN reads as p <= 0, so it leads).
const std::vector<double> kPercentileGrid = {
    std::numeric_limits<double>::quiet_NaN(), -5.0, 0.0, 0.001, 0.5, 1.0, 5.0,
    10.0, 25.0, 33.3, 50.0, 66.7, 75.0, 90.0, 95.0, 99.0, 99.9, 99.999,
    100.0, 250.0};

// Brute-force nearest-rank percentile of `values` (non-empty), as the
// histogram reports it: the upper bound of the bucket holding the
// ceil(p/100 * n)'th smallest value, clamped to the values' exact
// [min, max]; p <= 0 and NaN read min, p >= 100 reads max.
std::uint64_t reference_percentile(std::vector<std::uint64_t> values,
                                   double p) {
  std::sort(values.begin(), values.end());
  const std::uint64_t lo = values.front(), hi = values.back();
  if (!(p > 0.0)) return lo;
  if (p >= 100.0) return hi;
  const auto n = static_cast<double>(values.size());
  const auto rank = std::clamp<std::size_t>(
      static_cast<std::size_t>(std::ceil(p / 100.0 * n)), 1, values.size());
  return std::clamp(LatencyHistogram::bucket_upper(
                        LatencyHistogram::bucket_index(values[rank - 1])),
                    lo, hi);
}

TEST(LatencyHistogram, PercentilesEqualBruteForceNearestRank) {
  for (std::uint64_t seed = 1; seed <= 20; ++seed) {
    LatencyHistogram h;
    const auto values = spread_values(seed, 1 + seed * 37);
    for (std::uint64_t v : values) h.record(v);
    std::vector<std::uint64_t> out(kPercentileGrid.size());
    h.percentiles(kPercentileGrid, h.min(), h.max(), out);
    for (std::size_t k = 0; k < kPercentileGrid.size(); ++k) {
      const std::uint64_t want = reference_percentile(values, kPercentileGrid[k]);
      EXPECT_EQ(out[k], want) << "seed " << seed << " p " << kPercentileGrid[k];
      EXPECT_EQ(h.percentile(kPercentileGrid[k]), want)
          << "seed " << seed << " p " << kPercentileGrid[k];
    }
  }
}

TEST(LatencyHistogram, BoundedPercentilesClampToTheWindowAfterForget) {
  // A sliding window: record 400 values, forget the oldest 250. The
  // histogram's own min()/max() still remember the forgotten extremes; the
  // walk bounded by the window's exact [lo, hi] answers as if only the
  // window had ever been recorded.
  for (std::uint64_t seed = 1; seed <= 20; ++seed) {
    const auto values = spread_values(seed, 400);
    LatencyHistogram h;
    for (std::uint64_t v : values) h.record(v);
    for (std::size_t i = 0; i < 250; ++i) h.forget(values[i]);
    const std::vector<std::uint64_t> window(values.begin() + 250, values.end());
    const auto [lo, hi] = std::minmax_element(window.begin(), window.end());
    std::vector<std::uint64_t> out(kPercentileGrid.size());
    h.percentiles(kPercentileGrid, *lo, *hi, out);
    for (std::size_t k = 0; k < kPercentileGrid.size(); ++k) {
      EXPECT_EQ(out[k], reference_percentile(window, kPercentileGrid[k]))
          << "seed " << seed << " p " << kPercentileGrid[k];
    }
  }
}

TEST(LatencyHistogram, BoundedPercentilesOfEmptyAreZero) {
  const LatencyHistogram h;
  std::array<std::uint64_t, 3> out{1, 1, 1};
  h.percentiles(std::array<double, 3>{0.0, 50.0, 100.0}, 0, 0, out);
  EXPECT_EQ(out, (std::array<std::uint64_t, 3>{0, 0, 0}));
}

}  // namespace
}  // namespace hb::util
