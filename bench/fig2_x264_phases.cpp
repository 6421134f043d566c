// Figure 2 reproduction: "Heart rate of the x264 PARSEC benchmark executing
// native input on an eight-core x86 server."
//
// The x264-shaped workload runs on the simulated 8-core machine with a fixed
// full-machine allocation; the printed series is the 20-beat moving-average
// heart rate per beat. Expected shape (paper): three distinct regions —
// ~12-14 beats/s for the first ~100 beats, ~23-29 beats/s to ~330, then back
// to ~12-14.
#include <cstdio>
#include <memory>

#include "core/memory_store.hpp"
#include "core/reader.hpp"
#include "sim/machine.hpp"
#include "sim/workloads.hpp"
#include "util/clock.hpp"

int main() {
  auto clock = std::make_shared<hb::util::ManualClock>();
  hb::sim::Machine machine(8, clock);
  auto store = std::make_shared<hb::core::MemoryStore>(4096, 20);
  auto channel = std::make_shared<hb::core::Channel>(store, clock);
  const int app =
      machine.add_app(hb::sim::workloads::x264_phases_like(), channel);
  machine.set_allocation(app, 8);

  hb::core::HeartbeatReader reader(store, clock);
  std::printf("beat,heart_rate_bps_window20\n");
  std::uint64_t printed = 0;
  while (!machine.app(app).finished() && machine.now_seconds() < 600.0) {
    machine.step(0.005);
    const std::uint64_t beats = machine.app(app).beats_emitted();
    if (beats > printed) {
      printed = beats;
      std::printf("%llu,%.2f\n", static_cast<unsigned long long>(beats),
                  reader.current_rate(20));
    }
  }
  return 0;
}
