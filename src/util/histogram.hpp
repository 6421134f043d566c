// Fixed-bucket log-scale histogram for latency-style values.
//
// The telemetry plane (obs::Histogram) needs cheap percentiles
// (p50/p95/p99) over unbounded value ranges — nanoseconds to minutes —
// without storing samples. This is the standard fixed-bucket recipe (cf.
// HdrHistogram): log2 bucketing with 8 linear sub-buckets per octave,
// giving <= 12.5% relative error per bucket at a fixed 496 bucket counts
// of state. record() is a couple of bit ops plus one increment.
//
// Deterministic: identical value sequences produce identical summaries on
// every host.
#pragma once

#include <algorithm>
#include <array>
#include <bit>
#include <cmath>
#include <cstdint>

namespace hb::util {

class LatencyHistogram {
 public:
  /// 8 exact buckets for values 0..7, then 8 sub-buckets per octave up to
  /// 2^64-1: (60 + 1) * 8 + 8 = 496 buckets total.
  static constexpr std::size_t kBucketCount = 496;
  static constexpr std::uint64_t kSubBuckets = 8;  // per octave

  /// Index of the bucket containing `v`. Monotone in `v`.
  static constexpr std::size_t bucket_index(std::uint64_t v) {
    if (v < kSubBuckets) return static_cast<std::size_t>(v);
    const int msb = 63 - std::countl_zero(v);
    const int shift = msb - 3;  // keep the top 4 bits: 1xxx
    const std::uint64_t top = v >> shift;  // in [8, 15]
    return static_cast<std::size_t>(shift + 1) * 8 +
           static_cast<std::size_t>(top - 8);
  }

  /// Inclusive upper bound of bucket `idx` (the value percentile() reports).
  static constexpr std::uint64_t bucket_upper(std::size_t idx) {
    if (idx < kSubBuckets) return idx;
    const std::size_t shift = idx / 8 - 1;
    const std::uint64_t lower = (std::uint64_t{8} + idx % 8) << shift;
    return lower + ((std::uint64_t{1} << shift) - 1);
  }

  void record(std::uint64_t v) {
    ++counts_[bucket_index(v)];
    ++count_;
    sum_ += static_cast<double>(v);
    if (v < min_) min_ = v;
    if (v > max_) max_ = v;
  }

  void reset() { *this = LatencyHistogram{}; }

  std::uint64_t count() const { return count_; }
  std::uint64_t min() const { return count_ ? min_ : 0; }  ///< exact
  std::uint64_t max() const { return count_ ? max_ : 0; }  ///< exact
  double mean() const { return count_ ? sum_ / static_cast<double>(count_) : 0.0; }

  /// Nearest-rank percentile, p in [0, 100]: the upper bound of the bucket
  /// holding the ceil(p/100 * count)'th smallest value, clamped to the exact
  /// observed [min, max]. Returns 0 when empty. Out-of-range p clamps to
  /// [min, max]; a NaN p reads as 0 (casting NaN to an integer rank would
  /// be undefined behavior, so it must not reach the rank math).
  std::uint64_t percentile(double p) const {
    if (count_ == 0) return 0;
    if (!(p > 0.0)) return min_;  // p <= 0, and NaN
    if (p >= 100.0) return max_;
    const auto rank = std::clamp<std::uint64_t>(
        static_cast<std::uint64_t>(
            std::ceil(p / 100.0 * static_cast<double>(count_))),
        1, count_);
    // rank <= count_, so the walk stops at or before max_'s bucket.
    std::size_t i = bucket_index(min_);
    std::uint64_t seen = 0;  // values in buckets before i
    while (seen + counts_[i] < rank) seen += counts_[i++];
    return std::clamp(bucket_upper(i), min_, max_);
  }

 private:
  std::array<std::uint64_t, kBucketCount> counts_{};
  std::uint64_t count_ = 0;
  double sum_ = 0.0;
  std::uint64_t min_ = ~std::uint64_t{0};
  std::uint64_t max_ = 0;
};

}  // namespace hb::util
