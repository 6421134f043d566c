// Policy overhead: FleetDetector::sweep alone vs sweep + PolicyEngine.
//
// The decide layer runs on every sweep of the monitoring loop, so its cost
// must be noise on top of the observe layer it feeds. This bench pins that
// down at fleet scale: a racked fleet (64 VMs per "rackN/" failure domain)
// is warmed on a ManualClock, then the same sweep loop runs (a) bare and
// (b) through a persistent PolicyEngine doing transition tracking, flap
// bookkeeping, and correlated grouping. The steady-state case is the one
// that matters — and the one measured: a settled fleet emits no events, so
// the delta is pure per-app state tracking. Both modes take the minimum
// over interleaved repetitions.
//
// Since the snapshot plane landed, a sweep with nothing new is a pointer
// read — measuring against THAT baseline would report the engine's cost
// relative to a no-op. Each measured iteration therefore ticks the fleet
// first (every app beats, off the timer), so every sweep observes a fresh
// snapshot epoch and pays the real republish + classify cost a live
// monitoring loop pays; only the sweep (+ observe) portion is timed.
//
// A correctness coda (also the CI `--smoke` gate) then kills one whole
// rack and revives it, asserting the engine folds the deaths into ONE
// correlated event, stays silent on the unchanged sweeps in between
// (edge, not level, semantics), and sees every revival.
//
//   ./bench_policy_sweep [apps] [sweeps]     (default 4000 x 50)
//   ./bench_policy_sweep --smoke             (small + correctness only)
//   ./bench_policy_sweep --json PATH         (write a BENCH json record)
//
// CSV on stdout; `# policy_overhead_pct=` is the headline number
// (acceptance shape: < 10% at 4k apps). Exit: 0 ok, 2 on a correctness
// failure, 3 on blown overhead (full mode only).
#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <memory>
#include <string>
#include <vector>

#include "bench_json.hpp"
#include "fault/fleet_detector.hpp"
#include "hub/hub.hpp"
#include "policy/action_sink.hpp"
#include "policy/policy_engine.hpp"
#include "util/clock.hpp"
#include "util/time.hpp"

namespace {

using hb::util::kNsPerMs;
using hb::util::kNsPerSec;

constexpr int kPerRack = 64;

double timed(const auto& fn) {
  const auto start = std::chrono::steady_clock::now();
  fn();
  return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                       start)
      .count();
}

}  // namespace

int main(int argc, char** argv) {
  bool smoke = false;
  const char* json_path = nullptr;
  int apps = 4000;
  int sweeps = 50;
  std::vector<const char*> positional;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--smoke") == 0) {
      smoke = true;
    } else if (std::strcmp(argv[i], "--json") == 0 && i + 1 < argc) {
      json_path = argv[++i];
    } else {
      positional.push_back(argv[i]);
    }
  }
  if (smoke) {
    apps = 400;
    sweeps = 10;
  } else {
    if (positional.size() > 0) apps = std::atoi(positional[0]);
    if (positional.size() > 1) sweeps = std::atoi(positional[1]);
    // Short timing loops read scheduler noise as policy overhead on a
    // shared 1-core host; keep each measured run a few hundred ms so the
    // best-of minimum is a real floor (4k apps republish + sweep in
    // ~1-2 ms per fresh-epoch iteration).
    if (sweeps < 200) sweeps = 200;
  }
  if (apps < 2 * kPerRack || sweeps < 1) {
    std::fprintf(stderr, "usage: %s [apps>=%d] [sweeps>=1] | --smoke\n",
                 argv[0], 2 * kPerRack);
    return 1;
  }

  auto clock = std::make_shared<hb::util::ManualClock>();
  hb::hub::HubOptions opts;
  opts.shard_count = 16;
  opts.batch_capacity = 64;
  opts.window_capacity = 64;
  opts.clock = clock;
  hb::hub::HeartbeatHub hub(opts);

  // Racked fleet, everyone healthy at 10 b/s.
  std::vector<hb::hub::AppId> ids;
  for (int i = 0; i < apps; ++i) {
    ids.push_back(hub.register_app("rack" + std::to_string(i / kPerRack) +
                                       "/vm-" + std::to_string(i % kPerRack),
                                   {4.0, 1000.0}));
  }
  auto beat_all = [&](int ticks, int skip_rack) {
    for (int tick = 0; tick < ticks; ++tick) {
      clock->advance(100 * kNsPerMs);
      for (int i = 0; i < apps; ++i) {
        if (i / kPerRack == skip_rack) continue;
        hub.beat(ids[static_cast<std::size_t>(i)]);
      }
    }
  };
  beat_all(100, /*skip_rack=*/-1);  // 10 s: warm and healthy

  const hb::fault::FleetDetector detector(
      {.absolute_staleness_ns = 3 * kNsPerSec});
  hb::policy::PolicyEngine engine;  // sinkless: measure the engine itself
  engine.observe(detector.sweep(hub.snapshot()));  // prime per-app state

  // Interleave the two measured loops best-of-5, so slow drift on a busy
  // host (frequency scaling, a neighbor waking up) hits both sides alike
  // instead of masquerading as policy overhead. Each iteration ticks the
  // fleet off the timer (fresh snapshot epoch, everyone stays healthy —
  // still zero events), then times the sweep (+ observe) alone.
  hb::fault::FleetReport report;
  double bare_s = 1e18, policy_s = 1e18;
  const auto measured_loop = [&](bool with_policy) {
    double total = 0.0;
    for (int s = 0; s < sweeps; ++s) {
      beat_all(1, /*skip_rack=*/-1);  // not timed: keep epochs advancing
      total += timed([&] {
        report = detector.sweep(hub.snapshot());
        if (with_policy) engine.observe(report);
      });
    }
    return total;
  };
  for (int run = 0; run < 5; ++run) {
    // (a) the observe layer alone.
    bare_s = std::min(bare_s, measured_loop(/*with_policy=*/false));
    // (b) observe + decide, steady state (no events on a settled fleet).
    policy_s = std::min(policy_s, measured_loop(/*with_policy=*/true));
  }
  const double overhead_pct =
      bare_s > 0.0 ? (policy_s - bare_s) / bare_s * 100.0 : 0.0;

  std::printf("mode,apps,sweeps,seconds,sweeps_per_sec\n");
  std::printf("bare_sweep,%d,%d,%.4f,%.1f\n", apps, sweeps, bare_s,
              bare_s > 0 ? sweeps / bare_s : 0.0);
  std::printf("sweep_plus_policy,%d,%d,%.4f,%.1f\n", apps, sweeps, policy_s,
              policy_s > 0 ? sweeps / policy_s : 0.0);

  // ---- correctness coda: kill rack1, hold, revive -----------------------
  auto sink = std::make_shared<hb::policy::TestSink>();
  engine.add_sink(sink);

  beat_all(35, /*skip_rack=*/1);  // 3.5 s of silence for rack1: all dead
  engine.observe(detector.sweep(hub.snapshot()));
  const auto folded = sink->count(hb::policy::EventKind::kCorrelatedFailure);
  std::size_t folded_apps = 0;
  for (const auto& ev : sink->events()) {
    if (ev.kind == hb::policy::EventKind::kCorrelatedFailure) {
      folded_apps += ev.apps.size();
    }
  }
  // Edge semantics: nothing changes, nothing fires.
  engine.observe(detector.sweep(hub.snapshot()));
  engine.observe(detector.sweep(hub.snapshot()));
  const auto after_holds = sink->events().size();
  beat_all(100, /*skip_rack=*/-1);  // rack1 revives and re-warms
  engine.observe(detector.sweep(hub.snapshot()));
  const auto revived =
      engine.stats().revivals;  // every rack1 member came back from dead

  // after_holds: the two hold observes must have added nothing beyond the
  // single correlated event already recorded.
  const bool ok = folded == 1 && folded_apps == kPerRack && after_holds == 1 &&
                  revived == static_cast<std::uint64_t>(kPerRack);

  std::printf("\n# policy_overhead_pct=%.2f\n", overhead_pct);
  std::printf("# correlated_events=%llu members=%zu revived=%llu\n",
              static_cast<unsigned long long>(folded), folded_apps,
              static_cast<unsigned long long>(revived));
  std::printf("# correctness=%s\n", ok ? "ok" : "FAILED");

  if (json_path) {
    hb::bench::JsonRecord rec("policy_sweep");
    rec.config("apps", apps);
    rec.config("sweeps", sweeps);
    rec.config("smoke", smoke);
    rec.metric("bare_sweeps_per_sec", bare_s > 0 ? sweeps / bare_s : 0.0);
    rec.metric("policy_sweeps_per_sec",
               policy_s > 0 ? sweeps / policy_s : 0.0);
    rec.metric("policy_overhead_pct", overhead_pct);
    rec.metric("correctness", ok);
    rec.write(json_path);
  }

  if (!ok) return 2;
  if (!smoke && overhead_pct >= 10.0) {
    std::printf("# overhead_ok=no\n");
    return 3;
  }
  std::printf("# overhead_ok=%s\n", overhead_pct < 10.0 ? "yes" : "n/a(smoke)");
  return 0;
}
