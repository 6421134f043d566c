// Ablation A: window size vs responsiveness and noise (paper, Section 3).
//
// "Different applications and observers may be concerned with either long-
// or short-term trends. Therefore, it should be possible to specify the
// number of heartbeats used to calculate the moving average."
//
// A workload halves its beat rate mid-run (4 -> 2 beats/s, with throughput
// noise). For each window size we measure:
//   * detection delay — beats after the change until the windowed rate is
//     within 10% of the new true rate;
//   * steady jitter  — stddev of the windowed rate over the stable tail.
// Expected: small windows detect fast but read noisy; large windows are
// smooth but lag. The paper's examples pick 20-40 beat windows — the knee
// of this curve.
#include <cstdio>
#include <memory>
#include <vector>

#include "core/memory_store.hpp"
#include "core/reader.hpp"
#include "sim/machine.hpp"
#include "util/clock.hpp"
#include "util/stats.hpp"

int main() {
  constexpr double kRateBefore = 4.0;
  constexpr double kRateAfter = 2.0;
  constexpr std::uint64_t kChangeBeat = 400;

  std::printf("window,detection_delay_beats,steady_jitter_bps\n");
  for (const std::uint32_t window : {1u, 2u, 5u, 10u, 20u, 40u, 80u, 160u}) {
    auto clock = std::make_shared<hb::util::ManualClock>();
    hb::sim::Machine machine(8, clock);
    auto store = std::make_shared<hb::core::MemoryStore>(4096, 20);
    auto channel = std::make_shared<hb::core::Channel>(store, clock);
    hb::sim::WorkloadSpec spec;
    spec.phases = {
        {kChangeBeat, 1.0 / kRateBefore, 1.0},
        {hb::sim::Phase::kEndless, 1.0 / kRateAfter, 1.0},
    };
    spec.noise = 0.08;
    spec.seed = 9;
    const int app = machine.add_app(spec, channel);
    machine.set_allocation(app, 1);

    hb::core::HeartbeatReader reader(store, clock);
    std::uint64_t printed = 0;
    std::uint64_t detected_at = 0;
    hb::util::RunningStats steady;
    while (machine.app(app).beats_emitted() < kChangeBeat + 600 &&
           machine.now_seconds() < 10000.0) {
      machine.step(0.01);
      const std::uint64_t beats = machine.app(app).beats_emitted();
      if (beats <= printed) continue;
      printed = beats;
      const double rate = reader.current_rate(window);
      if (beats > kChangeBeat && detected_at == 0 &&
          std::abs(rate - kRateAfter) <= 0.1 * kRateAfter) {
        detected_at = beats;
      }
      if (beats > kChangeBeat + 300) steady.add(rate);  // settled tail
    }
    std::printf("%u,%llu,%.4f\n", window,
                static_cast<unsigned long long>(
                    detected_at > 0 ? detected_at - kChangeBeat : 0),
                steady.stddev());
  }
  return 0;
}
