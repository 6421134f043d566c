// Exact first and second moments of a sliding multiset of uint64 values:
// the mean and population stddev of a beat window's intervals. A running
// double sum, added to and subtracted from forever, keeps the rounding
// residue of every huge interval that has come and gone. ExactMoments
// keeps the sum and the sum of squares as integers, so add() and remove()
// cancel exactly and a read is a pure function of the values held.
//
// Precondition on a read: the values held sum to less than 2^64, so their
// squares sum to less than 2^128. The intervals of a monotone window of
// int64 stamps telescope to its span, so they always do (util::BeatWindow).
// Between reads both sums may wrap.
#pragma once

#include <cmath>
#include <cstdint>

namespace hb::util {

class ExactMoments {
 public:
  void add(std::uint64_t v) {
    ++count_;
    sum_ += v;
    sumsq_ += static_cast<U128>(v) * v;
  }

  /// Precondition: `v` was add()ed and not yet removed.
  void remove(std::uint64_t v) {
    --count_;
    sum_ -= v;
    sumsq_ -= static_cast<U128>(v) * v;
  }

  void clear() { *this = ExactMoments{}; }

  std::uint64_t count() const { return count_; }

  /// The exact integer sum, rounded once to double.
  double sum() const { return static_cast<double>(sum_); }

  /// Arithmetic mean: the exact sum, rounded once to double, over the
  /// count. 0 when empty.
  double mean() const {
    return count_ ? sum() / static_cast<double>(count_) : 0.0;
  }

  /// Population standard deviation, exactly 0 for identical values and
  /// otherwise within a few ulps of the true value.
  double stddev() const {
    if (count_ < 2) return 0.0;
    // With m = floor(mean) and r = sum mod n:
    //   D = sum (v - m)^2 = sumsq - m * (sum + r)    (an exact integer)
    //   variance = D / n - (r / n)^2.
    // D <= sumsq < 2^128, so it is exact; only the doubles at the end
    // round.
    const std::uint64_t m = sum_ / count_;
    const std::uint64_t r = sum_ % count_;
    const U128 d =
        sumsq_ - static_cast<U128>(m) * (static_cast<U128>(sum_) + r);
    const double dn = static_cast<double>(count_);
    const double frac = static_cast<double>(r) / dn;
    return std::sqrt(std::fmax(0.0, static_cast<double>(d) / dn - frac * frac));
  }

 private:
  using U128 = unsigned __int128;

  U128 sumsq_ = 0;
  std::uint64_t sum_ = 0;
  std::uint64_t count_ = 0;
};

static_assert(sizeof(ExactMoments) == 32);

}  // namespace hb::util
