// SimulatedHost: converts encoder work units into simulated time.
//
// Substitution (DESIGN.md §4): the paper measures wall-clock frame rates on
// an 8-core Xeon. Our encoder counts its work honestly (every SAD and
// transform), and this host model converts those counts into virtual time on
// a machine with a configurable core count — so "8.8 beats/s with the
// demanding preset on 8 cores" is reproducible on any build machine, and
// killing a core (Figure 8) slows the encoder exactly the way the paper's
// experiment does.
#pragma once

#include <cstdint>
#include <memory>

#include "sim/speedup.hpp"
#include "util/clock.hpp"

namespace hb::codec {

class SimulatedHost {
 public:
  /// Amdahl fraction of encoder work that scales with cores (x264
  /// parallelizes well but not perfectly).
  static constexpr double kParallelFraction = 0.95;

  /// `units_per_second_per_core`: single-core execution rate of encoder
  /// work units.
  SimulatedHost(std::shared_ptr<util::ManualClock> clock,
                double units_per_second_per_core, int cores);

  /// Advance virtual time by the duration `work_units` takes on the current
  /// core count. Returns the elapsed simulated seconds.
  double run(std::uint64_t work_units);

  int cores() const { return cores_; }
  void set_cores(int cores) { cores_ = cores < 0 ? 0 : cores; }
  /// Fail one core (no-op at zero). Returns the new count.
  int fail_core() { return cores_ = cores_ > 0 ? cores_ - 1 : 0; }

  /// Pick units_per_second_per_core such that work arriving at
  /// `mean_work_per_frame` sustains `target_fps` on `cores` cores.
  static double calibrate_rate(double mean_work_per_frame, double target_fps,
                               int cores);

 private:
  std::shared_ptr<util::ManualClock> clock_;
  double units_per_second_per_core_;
  int cores_;
};

}  // namespace hb::codec
