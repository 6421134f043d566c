// Snapshot-plane query cost: repeated snapshot grabs and sweeps between
// flushes, cached FleetSnapshot vs per-query rebuild.
//
// Before the snapshot plane, EVERY hub query forced a flush-and-copy under
// each shard's stripe lock: N observers polling between flushes paid N
// full-fleet walks and contended with ingest. Now a query grabs the
// published FleetSnapshot; if no shard epoch advanced it is a pointer read.
// This bench pins the win down at fleet scale on a deterministic
// ManualClock fleet:
//
//   cached:   the clock is frozen between queries — every query after the
//             first reuses the published snapshot (the "repeated snapshot
//             grabs between flushes" case the snapshot plane targets);
//   rebuild:  the clock advances 1ms before every query, forcing a full
//             per-shard republish each time — the per-query walk the
//             pre-snapshot hub performed on EVERY query, cache or not
//             (maintenance restamps staleness for all apps), so this side
//             doubles as the seed-cost proxy.
//
// A correctness coda cross-checks the cached and rebuilt answers and the
// cache-hit counters, and a short multi-producer ingest section reports
// ingest throughput with a concurrent query-spinning reader (the
// "observers must not block ingest" shape; the ±5% ingest gate vs the
// pre-refactor hub is tracked through bench_hub_throughput's CI smoke).
//
//   ./bench_snapshot_query [apps] [queries]   (default 4000 x 2000)
//   ./bench_snapshot_query --smoke            (fewer reps, same gates)
//   ./bench_snapshot_query --json PATH        (write a BENCH json record)
//
// CSV on stdout; `# snapshot_speedup=` is the headline (acceptance shape:
// >= 5x at 4k apps). Exit: 0 ok, 2 on a correctness failure, 3 on a blown
// speedup gate.
#include <atomic>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "bench_json.hpp"
#include "fault/fleet_detector.hpp"
#include "hub/hub.hpp"
#include "util/clock.hpp"
#include "util/time.hpp"

namespace {

using hb::util::kNsPerMs;
using hb::util::kNsPerSec;

/// Registered apps (evicted included) and their summed total_beats.
struct FleetTotals {
  std::uint64_t apps = 0;
  std::uint64_t total_beats = 0;
};

FleetTotals totals_of(const hb::hub::FleetSnapshot& snap) {
  FleetTotals t;
  snap.for_each_app(
      [&t](const hb::hub::AppSummary& s) {
        ++t.apps;
        t.total_beats += s.total_beats;
      },
      /*include_evicted=*/true);
  return t;
}

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
  int queries = 2000;
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
    queries = 200;
  } else {
    if (positional.size() > 0) apps = std::atoi(positional[0]);
    if (positional.size() > 1) queries = std::atoi(positional[1]);
  }
  if (apps < 16 || queries < 10) {
    std::fprintf(stderr, "usage: %s [apps>=16] [queries>=10] | --smoke\n",
                 argv[0]);
    return 1;
  }

  auto clock = std::make_shared<hb::util::ManualClock>();
  hb::hub::HubOptions opts;
  opts.shard_count = 16;
  opts.window_capacity = 64;
  opts.clock = clock;
  hb::hub::HeartbeatHub hub(opts);

  // Warm fleet: everyone beating 10 b/s against a [4, 1000] band.
  std::vector<hb::hub::AppId> ids;
  ids.reserve(static_cast<std::size_t>(apps));
  for (int i = 0; i < apps; ++i) {
    ids.push_back(hub.register_app("app-" + std::to_string(i), {4.0, 1000.0}));
  }
  for (int tick = 0; tick < 30; ++tick) {
    clock->advance(100 * kNsPerMs);
    for (const auto id : ids) hub.beat(id);
  }

  const hb::fault::FleetDetector detector(
      {.absolute_staleness_ns = 3 * kNsPerSec});

  // --- cached: frozen clock, no new beats -> every query after the first
  // is served from the published FleetSnapshot.
  std::shared_ptr<const hb::hub::FleetSnapshot> cached_snap;
  hb::fault::FleetReport cached_report;
  const auto hits_before = hub.snapshot_stats();
  const double cached_snapshot_s = timed([&] {
    for (int q = 0; q < queries; ++q) cached_snap = hub.snapshot();
  });
  const double cached_sweep_s = timed([&] {
    for (int q = 0; q < queries / 10; ++q) {
      cached_report = detector.sweep(hub.snapshot());
    }
  });
  const auto hits_after = hub.snapshot_stats();

  // --- rebuild: advance the clock before every query, forcing full
  // per-shard maintenance + republish each time (the pre-snapshot
  // per-query cost, and what a real-clock poller pays per query).
  std::shared_ptr<const hb::hub::FleetSnapshot> rebuilt_snap;
  hb::fault::FleetReport rebuilt_report;
  const double rebuild_snapshot_s = timed([&] {
    for (int q = 0; q < queries; ++q) {
      clock->advance(kNsPerMs);
      rebuilt_snap = hub.snapshot();
    }
  });
  const double rebuild_sweep_s = timed([&] {
    for (int q = 0; q < queries / 10; ++q) {
      clock->advance(kNsPerMs);
      rebuilt_report = detector.sweep(hub.snapshot());
    }
  });

  const double snapshot_speedup =
      cached_snapshot_s > 0.0 ? rebuild_snapshot_s / cached_snapshot_s : 0.0;
  const double sweep_speedup =
      cached_sweep_s > 0.0 ? rebuild_sweep_s / cached_sweep_s : 0.0;

  // --- ingest with a concurrent query-spinning observer: the pointer-read
  // read side must leave multi-producer ingest throughput intact.
  constexpr int kProducers = 4;
  const std::uint64_t per_thread = smoke ? 50000 : 200000;
  std::vector<std::thread> threads;
  std::thread observer;
  std::atomic<bool> stop{false};
  const double ingest_s = timed([&] {
    observer = std::thread([&] {
      // relaxed: stop flag only; join() is the synchronization point.
      while (!stop.load(std::memory_order_relaxed)) {
        (void)hub.snapshot();
        clock->advance(kNsPerMs);  // keep the cache honest: epochs advance
      }
    });
    for (int t = 0; t < kProducers; ++t) {
      threads.emplace_back([&, t] {
        const std::size_t offset =
            static_cast<std::size_t>(t) * ids.size() / kProducers;
        for (std::uint64_t k = 0; k < per_thread; ++k) {
          hub.beat(ids[(offset + k) % ids.size()]);
        }
      });
    }
    for (auto& th : threads) th.join();
    // relaxed: stop flag only; join() is the synchronization point.
    stop.store(true, std::memory_order_relaxed);
    observer.join();
  });
  const double ingest_bps =
      ingest_s > 0.0 ? static_cast<double>(per_thread) * kProducers / ingest_s
                     : 0.0;

  // --- correctness: cached and rebuilt answers describe the same fleet,
  // the cache actually hit, sweeps carry a coherent epoch, and no beat was
  // lost under the concurrent observer.
  const FleetTotals cached = totals_of(*cached_snap);
  const FleetTotals rebuilt = totals_of(*rebuilt_snap);
  const FleetTotals final_totals = totals_of(*hub.snapshot());
  const std::uint64_t expected_beats =
      static_cast<std::uint64_t>(apps) * 30 + per_thread * kProducers;
  const std::uint64_t cached_hits =
      hits_after.fleet_hits - hits_before.fleet_hits;
  const bool ok =
      cached.apps == static_cast<std::uint64_t>(apps) &&
      rebuilt.apps == static_cast<std::uint64_t>(apps) &&
      cached.total_beats == rebuilt.total_beats &&
      cached_report.apps.size() == static_cast<std::size_t>(apps) &&
      cached_report.snapshot_epoch > 0 &&
      rebuilt_report.snapshot_epoch > cached_report.snapshot_epoch &&
      cached_hits >= static_cast<std::uint64_t>(queries - 2) &&
      final_totals.total_beats == expected_beats;

  std::printf("mode,apps,queries,seconds,queries_per_sec\n");
  std::printf("snapshot_cached,%d,%d,%.6f,%.0f\n", apps, queries,
              cached_snapshot_s,
              cached_snapshot_s > 0 ? queries / cached_snapshot_s : 0.0);
  std::printf("snapshot_rebuild,%d,%d,%.6f,%.0f\n", apps, queries,
              rebuild_snapshot_s,
              rebuild_snapshot_s > 0 ? queries / rebuild_snapshot_s : 0.0);
  std::printf("sweep_cached,%d,%d,%.6f,%.0f\n", apps, queries / 10,
              cached_sweep_s,
              cached_sweep_s > 0 ? (queries / 10) / cached_sweep_s : 0.0);
  std::printf("sweep_rebuild,%d,%d,%.6f,%.0f\n", apps, queries / 10,
              rebuild_sweep_s,
              rebuild_sweep_s > 0 ? (queries / 10) / rebuild_sweep_s : 0.0);
  std::printf("ingest_with_observer,%d,%llu,%.4f,%.0f\n", apps,
              static_cast<unsigned long long>(per_thread * kProducers),
              ingest_s, ingest_bps);
  std::printf("\n# snapshot_speedup=%.1f\n", snapshot_speedup);
  std::printf("# sweep_speedup=%.1f\n", sweep_speedup);
  std::printf("# cache_hits=%llu of %d cached queries\n",
              static_cast<unsigned long long>(cached_hits), queries);
  std::printf("# ingest_beats_per_sec=%.0f (with concurrent observer)\n",
              ingest_bps);
  std::printf("# correctness=%s\n", ok ? "ok" : "FAILED");

  if (json_path) {
    hb::bench::JsonRecord rec("snapshot_query");
    rec.config("apps", apps);
    rec.config("queries", queries);
    rec.config("smoke", smoke);
    rec.metric("snapshot_cached_qps",
               cached_snapshot_s > 0 ? queries / cached_snapshot_s : 0.0);
    rec.metric("snapshot_rebuild_qps",
               rebuild_snapshot_s > 0 ? queries / rebuild_snapshot_s : 0.0);
    rec.metric("snapshot_speedup", snapshot_speedup);
    rec.metric("sweep_speedup", sweep_speedup);
    rec.metric("ingest_beats_per_sec_with_observer", ingest_bps);
    rec.metric("correctness", ok);
    rec.write(json_path);
  }

  if (!ok) return 2;
  if (snapshot_speedup < 5.0) {
    std::printf("# speedup_ok=no\n");
    return 3;
  }
  std::printf("# speedup_ok=yes\n");
  return 0;
}
