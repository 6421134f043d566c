// Shared helpers for the heartbeat test suites.
#pragma once

#include <cstdint>
#include <memory>
#include <utility>
#include <vector>

#include "cloud/cloud_sim.hpp"
#include "core/record.hpp"
#include "fault/fleet_detector.hpp"
#include "hub/hub.hpp"
#include "util/clock.hpp"
#include "util/time.hpp"

namespace hb::test {

/// Build a history of `n` records spaced `interval_ns` apart starting at
/// `start_ns`, with seq 0..n-1.
inline std::vector<core::HeartbeatRecord> evenly_spaced(
    std::size_t n, util::TimeNs interval_ns, util::TimeNs start_ns = 0) {
  std::vector<core::HeartbeatRecord> out(n);
  for (std::size_t i = 0; i < n; ++i) {
    out[i].timestamp_ns = start_ns + static_cast<util::TimeNs>(i) * interval_ns;
    out[i].seq = i;
  }
  return out;
}

/// Records at explicit timestamps.
inline std::vector<core::HeartbeatRecord> at_times(
    std::initializer_list<util::TimeNs> times) {
  std::vector<core::HeartbeatRecord> out;
  std::uint64_t seq = 0;
  for (auto t : times) {
    core::HeartbeatRecord r;
    r.timestamp_ns = t;
    r.seq = seq++;
    out.push_back(r);
  }
  return out;
}

// ------------------------------------------------- fleet spinup helpers
//
// The idioms every hub/fleet suite used to re-declare: a ManualClock hub
// config, the beat-N-apps loop, the step-the-sim loop, the rack-major
// CloudSim fleet, and sweep-until-stable.

/// HubOptions on a ManualClock with test-sized shards/window.
inline hub::HubOptions manual_hub_opts(
    std::shared_ptr<util::ManualClock> clock, std::size_t shards = 4,
    std::size_t window = 64) {
  hub::HubOptions opts;
  opts.shard_count = shards;
  opts.window_capacity = window;
  opts.clock = std::move(clock);
  return opts;
}

/// Beat every listed app once per round, advancing the virtual clock by
/// `interval_ns` BEFORE each round (so the first beats land one interval
/// past the current time, matching the hand-rolled loops this replaces).
inline void beat_apps(hub::HeartbeatHub& hub, util::ManualClock& clock,
                      const std::vector<hub::AppId>& apps, int rounds,
                      util::TimeNs interval_ns) {
  for (int i = 0; i < rounds; ++i) {
    clock.advance(interval_ns);
    for (const hub::AppId id : apps) hub.beat(id);
  }
}

/// Advance a CloudSim fleet `steps` x `dt_s` of virtual time.
inline void step_sim(cloud::CloudSim& sim, int steps, double dt_s = 0.1) {
  for (int i = 0; i < steps; ++i) sim.step(dt_s);
}

/// Step the sim until two successive sweeps agree on the fleet rollup
/// (apps/healthy/slow/erratic/dead all equal) or `max_steps` elapse;
/// returns the last report. `settle_steps` sim steps separate the sweeps.
inline fault::FleetReport sweep_until_stable(cloud::CloudSim& sim,
                                             const fault::FleetDetector& det,
                                             int max_steps = 1000,
                                             int settle_steps = 10,
                                             double dt_s = 0.1) {
  fault::FleetReport last = sim.fleet_health(det);
  for (int taken = 0; taken < max_steps; taken += settle_steps) {
    step_sim(sim, settle_steps, dt_s);
    fault::FleetReport next = sim.fleet_health(det);
    const auto& a = last.fleet;
    const auto& b = next.fleet;
    const bool stable = a.apps == b.apps && a.healthy == b.healthy &&
                        a.slow == b.slow && a.erratic == b.erratic &&
                        a.dead == b.dead;
    last = std::move(next);
    if (stable) break;
  }
  return last;
}

}  // namespace hb::test
