// util::LatencyHistogram — the fixed-bucket percentile sketch backing the
// telemetry plane's latency histograms (obs::Histogram).
#include <gtest/gtest.h>

#include <algorithm>
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

TEST(LatencyHistogram, ResetClears) {
  LatencyHistogram h;
  h.record(99);
  h.reset();
  EXPECT_EQ(h.count(), 0u);
  EXPECT_EQ(h.percentile(50), 0u);
}

TEST(LatencyHistogram, DeterministicAcrossRuns) {
  // Same sequence -> bit-identical summary on every run.
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

// ------------------------------------------- brute-force percentiles

// Values spread over many octaves, with repeats: ~1 ns to ~2^40 ns.
std::vector<std::uint64_t> spread_values(std::uint64_t seed, std::size_t n) {
  Rng rng(seed);
  std::vector<std::uint64_t> out;
  for (std::size_t i = 0; i < n; ++i) {
    out.push_back(rng.next_u64() >> (24 + rng.next_below(40)));
  }
  return out;
}

// The grid the brute-force check walks: the edges, NaN, and the interior.
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
    for (const double p : kPercentileGrid) {
      EXPECT_EQ(h.percentile(p), reference_percentile(values, p))
          << "seed " << seed << " p " << p;
    }
  }
}

}  // namespace
}  // namespace hb::util
