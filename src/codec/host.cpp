#include "codec/host.hpp"

#include <cassert>
#include <stdexcept>

#include "util/time.hpp"

namespace hb::codec {

SimulatedHost::SimulatedHost(std::shared_ptr<util::ManualClock> clock,
                             double units_per_second_per_core, int cores)
    : clock_(std::move(clock)),
      units_per_second_per_core_(units_per_second_per_core),
      cores_(cores) {
  assert(clock_);
  if (units_per_second_per_core_ <= 0.0) {
    throw std::invalid_argument("SimulatedHost: rate must be positive");
  }
}

double SimulatedHost::run(std::uint64_t work_units) {
  const double tput = units_per_second_per_core_ *
                      sim::amdahl_speedup(cores_, kParallelFraction);
  if (tput <= 0.0) {
    // No cores left: time passes but nothing completes. Advance by a large
    // stall quantum so staleness detectors can notice.
    clock_->advance(util::kNsPerSec);
    return 1.0;
  }
  const double seconds = static_cast<double>(work_units) / tput;
  clock_->advance(util::from_seconds(seconds));
  return seconds;
}

double SimulatedHost::calibrate_rate(double mean_work_per_frame,
                                     double target_fps, int cores) {
  if (mean_work_per_frame <= 0.0 || target_fps <= 0.0 || cores <= 0) {
    throw std::invalid_argument("SimulatedHost::calibrate_rate: bad inputs");
  }
  // units/s/core * amdahl(cores) == mean_work_per_frame * target_fps.
  return mean_work_per_frame * target_fps /
         sim::amdahl_speedup(cores, kParallelFraction);
}

}  // namespace hb::codec
