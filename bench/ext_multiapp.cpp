// Extension F (paper §1, §2.4): multiple heartbeat applications sharing one
// machine under the GlobalScheduler.
//
// "When running multiple Heartbeat-enabled applications, it also allows
// system resources ... to be reallocated to provide the best global outcome."
//
// Two phased applications on an 8-core machine, each with a 1.8-2.6 beats/s
// goal. App A is heavy first and light later; app B is the mirror image. A
// static half/half split starves the heavy app in both halves; the global
// scheduler shifts cores across the phase swap. Printed series: per total
// beat, each app's rate and allocation for both policies.
#include <cstdio>
#include <memory>

#include "core/memory_store.hpp"
#include "core/reader.hpp"
#include "sched/global_scheduler.hpp"
#include "sim/machine.hpp"
#include "util/clock.hpp"
#include "util/stats.hpp"

namespace {

struct Series {
  std::vector<double> rate_a, rate_b;
  std::vector<int> alloc_a, alloc_b;
  double in_band_pct = 0.0;
};

constexpr double kMin = 1.8, kMax = 2.6;

Series run(bool managed) {
  auto clock = std::make_shared<hb::util::ManualClock>();
  hb::sim::Machine machine(8, clock);
  auto store_a = std::make_shared<hb::core::MemoryStore>(4096, 10);
  auto store_b = std::make_shared<hb::core::MemoryStore>(4096, 10);
  auto ch_a = std::make_shared<hb::core::Channel>(store_a, clock);
  auto ch_b = std::make_shared<hb::core::Channel>(store_b, clock);
  ch_a->set_target(kMin, kMax);
  ch_b->set_target(kMin, kMax);

  hb::sim::WorkloadSpec spec_a;
  spec_a.name = "a";
  spec_a.phases = {{160, 2.6, 1.0}, {240, 0.9, 1.0}};
  spec_a.noise = 0.02;
  hb::sim::WorkloadSpec spec_b;
  spec_b.name = "b";
  spec_b.phases = {{160, 0.9, 1.0}, {240, 2.6, 1.0}};
  spec_b.noise = 0.02;
  spec_b.seed = 3;
  const int app_a = machine.add_app(spec_a, ch_a);
  const int app_b = machine.add_app(spec_b, ch_b);

  hb::sched::GlobalScheduler scheduler(
      {.total_cores = 8, .min_cores_per_app = 1, .window = 8});
  scheduler.add_app("a", hb::core::HeartbeatReader(store_a, clock),
                    [&](int c) { machine.set_allocation(app_a, c); });
  scheduler.add_app("b", hb::core::HeartbeatReader(store_b, clock),
                    [&](int c) { machine.set_allocation(app_b, c); });
  if (!managed) {
    // Static policy: an even 4/4 split for the whole run.
    machine.set_allocation(app_a, 4);
    machine.set_allocation(app_b, 4);
  }

  hb::core::HeartbeatReader ra(store_a, clock), rb(store_b, clock);
  Series out;
  std::uint64_t seen = 0, in_band = 0, samples = 0;
  while ((!machine.app(app_a).finished() || !machine.app(app_b).finished()) &&
         machine.now_seconds() < 1000.0) {
    machine.step(0.02);
    const std::uint64_t beats =
        machine.app(app_a).beats_emitted() + machine.app(app_b).beats_emitted();
    if (beats <= seen) continue;
    seen = beats;
    if (managed) scheduler.poll();
    const double rate_a = ra.current_rate(8);
    const double rate_b = rb.current_rate(8);
    out.rate_a.push_back(rate_a);
    out.rate_b.push_back(rate_b);
    out.alloc_a.push_back(managed ? scheduler.allocation(0) : 4);
    out.alloc_b.push_back(managed ? scheduler.allocation(1) : 4);
    for (const double r :
         {machine.app(app_a).finished() ? -1.0 : rate_a,
          machine.app(app_b).finished() ? -1.0 : rate_b}) {
      if (r < 0) continue;
      ++samples;
      if (r >= kMin) ++in_band;  // meeting the minimum goal
    }
  }
  out.in_band_pct =
      samples ? 100.0 * static_cast<double>(in_band) / samples : 0.0;
  return out;
}

}  // namespace

int main() {
  const Series fixed = run(false);
  const Series managed = run(true);
  std::printf(
      "beat,static_rate_a,static_rate_b,managed_rate_a,managed_rate_b,"
      "managed_cores_a,managed_cores_b\n");
  const std::size_t n = std::min(fixed.rate_a.size(), managed.rate_a.size());
  for (std::size_t i = 0; i < n; ++i) {
    std::printf("%zu,%.2f,%.2f,%.2f,%.2f,%d,%d\n", i + 1, fixed.rate_a[i],
                fixed.rate_b[i], managed.rate_a[i], managed.rate_b[i],
                managed.alloc_a[i], managed.alloc_b[i]);
  }
  std::fprintf(stderr, "meeting min-target: static=%.1f%% managed=%.1f%%\n",
               fixed.in_band_pct, managed.in_band_pct);
  return 0;
}
