// Fixed-bucket log-scale histogram for latency-style values.
//
// The hub's per-app sliding-window summaries need cheap, mergeable
// percentiles (p50/p95/p99 of inter-beat intervals) over unbounded value
// ranges — nanoseconds to minutes — without storing samples. This is the
// standard fixed-bucket recipe (cf. HdrHistogram): log2 bucketing with 8
// linear sub-buckets per octave, giving <= 12.5% relative error per bucket
// at a fixed 496 bucket counts of state. record() is a couple of bit ops
// plus one increment, so it is safe inside a shard's ingest critical
// section.
//
// The bucket count type is a template parameter. LatencyHistogram counts
// in uint64 (496 * 8 bytes); a per-app window histogram, which never holds
// more than the window's intervals, counts in uint16 (496 * 2 bytes) and
// is subtracted from the uint64 shard total when the app is evicted.
//
// Deterministic: identical value sequences produce identical summaries on
// every host, which is what lets hub tests pin exact expectations under a
// ManualClock.
#pragma once

#include <algorithm>
#include <array>
#include <bit>
#include <cassert>
#include <cmath>
#include <cstdint>
#include <span>
#include <type_traits>

namespace hb::util {

template <typename Count>
class BasicLatencyHistogram {
 public:
  static_assert(std::is_unsigned_v<Count>, "bucket counts are unsigned");

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

  /// Remove one previously record()ed value (sliding-window eviction).
  /// min()/max() keep tracking the extremes seen since the last reset();
  /// callers that need window-exact bounds track them themselves and pass
  /// them to percentiles(). Precondition: `v` was recorded and not yet
  /// forgotten.
  void forget(std::uint64_t v) {
    --counts_[bucket_index(v)];
    --count_;
    sum_ -= static_cast<double>(v);
  }

  /// Pointwise sum of two histograms (shard -> cluster rollups).
  void merge(const BasicLatencyHistogram& other) {
    for (std::size_t i = 0; i < kBucketCount; ++i) counts_[i] += other.counts_[i];
    count_ += other.count_;
    sum_ += other.sum_;
    if (other.count_ > 0) {
      if (other.min_ < min_) min_ = other.min_;
      if (other.max_ > max_) max_ = other.max_;
    }
  }

  /// Pointwise difference: undoes a merge(other), or the records of a
  /// narrower-count histogram (a shard rollup dropping one evicted app). min()/max() keep the extremes seen since reset(), as
  /// after forget(). Precondition: every value counted in `other` is still
  /// counted here.
  template <typename C>
  void subtract(const BasicLatencyHistogram<C>& other) {
    for (std::size_t i = 0; i < kBucketCount; ++i) {
      counts_[i] -= other.counts()[i];
    }
    count_ -= other.count();
    sum_ -= other.sum();
  }

  void reset() { *this = BasicLatencyHistogram{}; }

  std::uint64_t count() const { return count_; }
  std::uint64_t min() const { return count_ ? min_ : 0; }  ///< exact
  std::uint64_t max() const { return count_ ? max_ : 0; }  ///< exact
  double mean() const { return count_ ? sum_ / static_cast<double>(count_) : 0.0; }
  /// Running sum of the counted values (what mean() divides).
  double sum() const { return sum_; }
  /// Per-bucket counts, indexed by bucket_index().
  const std::array<Count, kBucketCount>& counts() const { return counts_; }

  /// Nearest-rank percentile, p in [0, 100]: the upper bound of the bucket
  /// holding the ceil(p/100 * count)'th smallest value, clamped to the exact
  /// observed [min, max]. Returns 0 when empty. Out-of-range p clamps to
  /// [min, max]; a NaN p reads as 0 (casting NaN to an integer rank would
  /// be undefined behavior, so it must not reach the rank math). Every
  /// counted value lies in the since-reset [min, max], so this is the
  /// bounded walk below with those bounds.
  std::uint64_t percentile(double p) const {
    std::uint64_t out = 0;
    percentiles({&p, 1}, min(), max(), {&out, 1});
    return out;
  }

  /// Nearest-rank percentiles for several ascending `ps` in one walk that
  /// visits only the buckets of [lo, hi], each answer clamped into [lo, hi]
  /// (p <= 0 and NaN read lo, p >= 100 reads hi). A sliding window passes
  /// its exact min and max: then every counted value lies in [lo, hi] (the
  /// precondition) and out[k] == clamp(percentile(ps[k]), lo, hi), however
  /// wide the since-reset min()/max() have drifted. Empty histograms answer
  /// 0. Precondition: out.size() >= ps.size().
  void percentiles(std::span<const double> ps, std::uint64_t lo,
                   std::uint64_t hi, std::span<std::uint64_t> out) const {
    assert(out.size() >= ps.size() && lo <= hi);
    std::size_t i = bucket_index(lo);
    const std::size_t last = bucket_index(hi);
    std::uint64_t seen = 0;  // values in buckets before i
    for (std::size_t k = 0; k < ps.size(); ++k) {
      const double p = ps[k];
      if (count_ == 0) {
        out[k] = 0;
      } else if (!(p > 0.0)) {  // p <= 0, and NaN
        out[k] = lo;
      } else if (p >= 100.0) {
        out[k] = hi;
      } else {
        const std::uint64_t rank = rank_of(p);
        while (i < last && seen + counts_[i] < rank) seen += counts_[i++];
        out[k] = std::clamp(bucket_upper(i), lo, hi);
      }
    }
  }

 private:
  /// Nearest rank of percentile p in (0, 100), within [1, count_].
  std::uint64_t rank_of(double p) const {
    const auto rank = static_cast<std::uint64_t>(
        std::ceil(p / 100.0 * static_cast<double>(count_)));
    return std::clamp<std::uint64_t>(rank, 1, count_);
  }

  std::array<Count, kBucketCount> counts_{};
  std::uint64_t count_ = 0;
  double sum_ = 0.0;
  std::uint64_t min_ = ~std::uint64_t{0};
  std::uint64_t max_ = 0;
};

using LatencyHistogram = BasicLatencyHistogram<std::uint64_t>;

}  // namespace hb::util
