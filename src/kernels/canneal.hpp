// canneal: simulated-annealing netlist placement.
//
// PARSEC's canneal minimizes the routing cost of a chip netlist via
// simulated annealing with swap moves. Scaled-down core: elements on a 2D
// grid connected by random nets; anneal by swapping element positions.
// Paper, Table 2: heartbeat "Every 1875 moves".
#pragma once

#include "kernels/kernel.hpp"

namespace hb::kernels {

class Canneal final : public Kernel {
 public:
  /// Heartbeat granularity (paper, Table 2).
  static constexpr std::uint64_t kBeatEvery = 1875;

  explicit Canneal(Scale scale);

  std::string name() const override { return "canneal"; }
  std::string heartbeat_location() const override {
    return "Every " + std::to_string(kBeatEvery) + " moves";
  }
  void run(core::Heartbeat& hb) override;
  double checksum() const override { return checksum_; }

  double initial_cost() const { return initial_cost_; }
  double final_cost() const { return final_cost_; }

 private:
  int grid_;            ///< grid side (grid_^2 element slots)
  std::uint64_t moves_;
  double checksum_ = 0.0;
  double initial_cost_ = 0.0;
  double final_cost_ = 0.0;
};

}  // namespace hb::kernels
