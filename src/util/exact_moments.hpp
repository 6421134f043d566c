// Exact first and second moments of a sliding multiset of uint64 values.
//
// The hub keeps, per app, the mean and population stddev of the inter-beat
// intervals in its sliding window. A running double sum that is added to
// and subtracted from forever drifts: after one huge interval has come and
// gone, its rounding residue stays in the sum, and the mean of a window of
// identical intervals no longer equals that interval. ExactMoments keeps
// the sum and the sum of squares as integers instead, so add() and
// remove() cancel exactly and the summary is a pure function of the
// values currently held.
//
// Producer timestamps are untrusted, so every value up to 2^64-1 must be
// safe: the sum needs 64 + log2(count) bits (128 are kept) and the sum of
// squares 128 + log2(count) bits, which overflows even unsigned __int128
// for ~2^60 ns intervals over a 255-beat window — hence the 192-bit
// accumulator. Both updates are a few adds and one 64x64 multiply.
//
// Reads take a 64-bit fast path whenever the wide values fit in 64 bits
// — every realistic window does: 255 intervals of 20 ms sum to ~5e9 —
// with bit-identical results: a u64 divide gives the same quotient and
// remainder as a u128 one, and a value below 2^64 converts to the same
// double from either width.
#pragma once

#include <cmath>
#include <cstdint>

namespace hb::util {

class ExactMoments {
 public:
  void add(std::uint64_t v) {
    ++count_;
    sum_ += v;
    const U128 sq = static_cast<U128>(v) * v;
    sumsq_lo_ += sq;
    sumsq_hi_ += sumsq_lo_ < sq;
  }

  /// Precondition: `v` was add()ed and not yet removed.
  void remove(std::uint64_t v) {
    --count_;
    sum_ -= v;
    const U128 sq = static_cast<U128>(v) * v;
    sumsq_hi_ -= sumsq_lo_ < sq;
    sumsq_lo_ -= sq;
  }

  void clear() { *this = ExactMoments{}; }

  std::uint64_t count() const { return count_; }

  /// Arithmetic mean: the exact integer sum, rounded once to double, over
  /// the count. 0 when empty.
  double mean() const {
    return count_ ? to_double(sum_) / static_cast<double>(count_) : 0.0;
  }

  /// Population standard deviation, exactly 0 for identical values and
  /// otherwise within a few ulps of the true value.
  double stddev() const {
    if (count_ < 2) return 0.0;
    // With m = floor(mean) and r = sum mod n:
    //   D = sum (v - m)^2 = sumsq - m * (sum + r)    (an exact integer)
    //   variance = D / n - (r / n)^2.
    // Every intermediate wraps mod 2^192 but D itself fits, so D is exact;
    // only the two doubles at the end round.
    std::uint64_t m, r;
    if (fits_u64(sum_)) {
      const auto sum = static_cast<std::uint64_t>(sum_);
      m = sum / count_;
      r = sum % count_;
    } else {
      const U128 n = count_;
      m = static_cast<std::uint64_t>(sum_ / n);
      r = static_cast<std::uint64_t>(sum_ % n);
    }
    U192 d{sumsq_lo_, sumsq_hi_};
    d.sub(U192::mul(m, sum_ + r));
    const double dn = static_cast<double>(count_);
    const double frac = static_cast<double>(r) / dn;
    return std::sqrt(std::fmax(0.0, d.to_double() / dn - frac * frac));
  }

 private:
  using U128 = unsigned __int128;

  static bool fits_u64(U128 v) { return (v >> 64) == 0; }
  static double to_double(U128 v) {
    return fits_u64(v) ? static_cast<double>(static_cast<std::uint64_t>(v))
                       : static_cast<double>(v);
  }

  /// Unsigned 192-bit integer, arithmetic mod 2^192.
  struct U192 {
    U128 lo = 0;
    std::uint64_t hi = 0;

    void sub(const U192& x) {
      hi -= x.hi + (lo < x.lo);
      lo -= x.lo;
    }
    static U192 mul(std::uint64_t a, U128 b) {
      const U128 p0 = static_cast<U128>(a) * static_cast<std::uint64_t>(b);
      const U128 p1 = static_cast<U128>(a) * static_cast<std::uint64_t>(b >> 64);
      U192 out;
      out.lo = p0 + (p1 << 64);
      out.hi = static_cast<std::uint64_t>(p1 >> 64) + (out.lo < p0);
      return out;
    }
    double to_double() const {
      if (hi == 0) return ExactMoments::to_double(lo);
      return std::ldexp(static_cast<double>(hi), 128) + static_cast<double>(lo);
    }
  };

  // The sum of squares is a U192 kept as its two words, so the count
  // fills what would be the U192's tail padding: 48 bytes in all.
  U128 sum_ = 0;
  U128 sumsq_lo_ = 0;
  std::uint64_t sumsq_hi_ = 0;
  std::uint64_t count_ = 0;
};

static_assert(sizeof(ExactMoments) == 48);

}  // namespace hb::util
