#include "kernels/blackscholes.hpp"

#include <cmath>

#include "util/rng.hpp"

namespace hb::kernels {

namespace {
// Standard normal CDF via erfc (numerically stable in both tails).
double norm_cdf(double x) { return 0.5 * std::erfc(-x / std::sqrt(2.0)); }
}  // namespace

double black_scholes_call(double spot, double strike, double rate,
                          double volatility, double time) {
  const double sigma_sqrt_t = volatility * std::sqrt(time);
  const double d1 =
      (std::log(spot / strike) + (rate + 0.5 * volatility * volatility) * time) /
      sigma_sqrt_t;
  const double d2 = d1 - sigma_sqrt_t;
  return spot * norm_cdf(d1) - strike * std::exp(-rate * time) * norm_cdf(d2);
}

BlackScholes::BlackScholes(Scale scale)
    : options_(scale == Scale::kNative ? 2'000'000 : 100'000) {}

void BlackScholes::run(core::Heartbeat& hb) {
  util::Rng rng(101);
  double acc = 0.0;
  for (std::uint64_t i = 0; i < options_; ++i) {
    const double spot = rng.uniform(20.0, 120.0);
    const double strike = rng.uniform(20.0, 120.0);
    const double rate = rng.uniform(0.01, 0.06);
    const double vol = rng.uniform(0.10, 0.60);
    const double t = rng.uniform(0.25, 2.0);
    acc += black_scholes_call(spot, strike, rate, vol, t);
    if ((i + 1) % kBeatEvery == 0) hb.beat((i + 1) / kBeatEvery);
  }
  checksum_ = acc / static_cast<double>(options_);
}

}  // namespace hb::kernels
