// Fleet health: per-app polling vs one hub sweep.
//
// The per-producer shape asks one question per app: 1000 apps means 1000
// queries, each taking a shard lock, forcing a flush, and copying one
// summary. The hub-backed FleetDetector::sweep answers the
// same question for the whole fleet in ONE HeartbeatHub::snapshot(): one
// publish per shard, then pure math over the summaries. This bench pins
// the gap down at fleet scale on a deterministic ManualClock fleet with
// injected dead / slow / erratic producers, and verifies both approaches
// agree on every verdict.
//
//   ./bench_fleet_sweep [apps] [sweeps]
//
// CSV on stdout; final summary prints the speedup (acceptance shape: the
// sweep beats per-app polling).
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <memory>
#include <string>
#include <vector>

#include "fault/fleet_detector.hpp"
#include "hub/hub.hpp"
#include "util/clock.hpp"
#include "util/time.hpp"

namespace {

using hb::util::kNsPerMs;
using hb::util::kNsPerSec;

double seconds_since(std::chrono::steady_clock::time_point start) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - start)
      .count();
}

}  // namespace

int main(int argc, char** argv) {
  int apps = 1000;
  int sweeps = 50;
  if (argc > 1) apps = std::atoi(argv[1]);
  if (argc > 2) sweeps = std::atoi(argv[2]);
  if (apps < 4 || sweeps < 1) {
    std::fprintf(stderr, "usage: %s [apps>=4] [sweeps>=1]\n", argv[0]);
    return 1;
  }

  auto clock = std::make_shared<hb::util::ManualClock>();
  hb::hub::HubOptions opts;
  opts.shard_count = 16;
  opts.window_capacity = 64;
  opts.clock = clock;
  hb::hub::HeartbeatHub hub(opts);

  // A mixed fleet on 25ms ticks: every 10th app dies halfway (stops
  // beating), every 7th is slow (2.5 b/s against a 4.0 min), every 5th is
  // erratic (alternating 25ms/375ms intervals, CoV ~0.9), the rest beat
  // healthy at 10 b/s.
  std::vector<hb::hub::AppId> ids;
  std::vector<std::string> names;
  for (int i = 0; i < apps; ++i) {
    names.push_back("vm-" + std::to_string(i));
    ids.push_back(hub.register_app(names.back(), {4.0, 1000.0}));
  }
  for (int tick = 0; tick < 400; ++tick) {
    clock->advance(25 * kNsPerMs);
    for (int i = 0; i < apps; ++i) {
      if (i % 10 == 0 && tick >= 200) continue;  // dead: silent ever after
      bool beat;
      if (i % 7 == 0) {
        beat = tick % 16 == 0;                   // slow: one beat per 400ms
      } else if (i % 5 == 0) {
        beat = tick % 16 <= 1;                   // erratic: 25ms then 375ms
      } else {
        beat = tick % 4 == 0;                    // healthy: 10 b/s
      }
      if (beat) hub.beat(ids[static_cast<std::size_t>(i)]);
    }
  }

  const hb::fault::FleetDetectorOptions detector_opts{
      .absolute_staleness_ns = 3 * kNsPerSec};
  const hb::fault::FleetDetector detector(detector_opts);

  // Per-app polling baseline: one hub query per app per sweep, by NAME —
  // the reader-per-producer shape ported onto hub summaries. Legacy
  // consumers hold app names, not AppIds, so every poll pays the name-table
  // lock + hash + a shard lock + a flush; both sides run identical verdict
  // math, so the delta is purely query structure.
  std::vector<hb::fault::Health> polled(static_cast<std::size_t>(apps));
  const auto poll_start = std::chrono::steady_clock::now();
  for (int s = 0; s < sweeps; ++s) {
    for (int i = 0; i < apps; ++i) {
      polled[static_cast<std::size_t>(i)] =
          detector.classify(
              hub.summary(hub.id_of(names[static_cast<std::size_t>(i)])));
    }
  }
  const double poll_s = seconds_since(poll_start);

  // One-pass fleet sweep.
  hb::fault::FleetReport report;
  const auto sweep_start = std::chrono::steady_clock::now();
  for (int s = 0; s < sweeps; ++s) report = detector.sweep(hub.snapshot());
  const double sweep_s = seconds_since(sweep_start);

  // Both approaches must agree on every verdict.
  std::uint64_t mismatches = 0;
  for (const auto& app : report.apps) {
    const int i = std::atoi(app.name.c_str() + 3);
    if (app.health != polled[static_cast<std::size_t>(i)]) ++mismatches;
  }

  std::printf("approach,apps,sweeps,seconds,app_verdicts_per_sec\n");
  std::printf("per_app_polling,%d,%d,%.4f,%.0f\n", apps, sweeps, poll_s,
              poll_s > 0 ? apps * static_cast<double>(sweeps) / poll_s : 0.0);
  std::printf("fleet_sweep,%d,%d,%.4f,%.0f\n", apps, sweeps, sweep_s,
              sweep_s > 0 ? apps * static_cast<double>(sweeps) / sweep_s : 0.0);
  std::printf("\n# fleet: %llu healthy, %llu slow, %llu erratic, %llu dead, "
              "%llu warming-up (of %llu)\n",
              static_cast<unsigned long long>(report.fleet.healthy),
              static_cast<unsigned long long>(report.fleet.slow),
              static_cast<unsigned long long>(report.fleet.erratic),
              static_cast<unsigned long long>(report.fleet.dead),
              static_cast<unsigned long long>(report.fleet.warming_up),
              static_cast<unsigned long long>(report.fleet.apps));
  std::printf("# verdict_mismatches=%llu\n",
              static_cast<unsigned long long>(mismatches));
  std::printf("# sweep_speedup=%.2fx\n", sweep_s > 0 ? poll_s / sweep_s : 0.0);
  return mismatches == 0 ? 0 : 2;
}
