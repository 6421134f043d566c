// blackscholes: closed-form Black-Scholes option pricing.
//
// PARSEC's blackscholes prices a portfolio of European options with the
// closed-form solution. Paper, Table 2: heartbeat "Every 25000 options" —
// and Section 5.1 notes that beating every *single* option added an order
// of magnitude of overhead (reproduced by bench/overhead_heartbeat).
#pragma once

#include "kernels/kernel.hpp"

namespace hb::kernels {

class BlackScholes final : public Kernel {
 public:
  /// Heartbeat granularity (paper, Table 2).
  static constexpr std::uint64_t kBeatEvery = 25000;

  explicit BlackScholes(Scale scale);

  std::string name() const override { return "blackscholes"; }
  std::string heartbeat_location() const override {
    return "Every " + std::to_string(kBeatEvery) + " options";
  }
  void run(core::Heartbeat& hb) override;
  double checksum() const override { return checksum_; }

 private:
  std::uint64_t options_;
  double checksum_ = 0.0;
};

/// Black-Scholes call price (exposed for unit testing against known values).
double black_scholes_call(double spot, double strike, double rate,
                          double volatility, double time);

}  // namespace hb::kernels
