// Telemetry-plane overhead: the instrumented ingest hot path with the
// registry enabled vs runtime-disabled.
//
// The self-telemetry plane wires counters and spans through every pipeline
// stage, and its charter is to be invisible: Counter::add is one relaxed
// fetch_add on a thread-sharded slot, and the master switch reduces every
// instrument site to one relaxed load. This bench holds the plane to that
// charter on the hottest path it touches — multi-producer hub ingest at
// fleet scale (4k apps, 4 producer threads, each applying 64 beats per
// shard at a time through ingest_batch, the shape the shm ingest pump
// feeds the hub) — by running the SAME workload
// with obs::set_enabled(true) and (false), interleaved best-of so host
// drift hits both sides alike.
//
// What the two sides measure:
//   * enabled:  the real cost of live telemetry on ingest (counters fire
//               on every apply and publish).
//   * disabled: the floor — every site pays only the enabled() check.
//
// A correctness coda verifies the no-op claim directly: while disabled,
// every registry counter must FREEZE (ingest runs, totals stand still),
// and on re-enable the counters must resume from where they stopped —
// disabled means "not counted", never "counted late" or "corrupted".
//
//   ./bench_obs_overhead [apps] [beats_per_producer]   (default 4000 x 600000)
//   ./bench_obs_overhead --smoke        (small run; overhead informational)
//   ./bench_obs_overhead --json PATH    (write a BENCH json record)
//
// CSV on stdout; `# obs_overhead_pct=` is the headline (acceptance shape:
// < 5% on ingest at 4k apps). Exit: 0 ok, 2 on a correctness failure, 3 on
// a blown overhead gate (full mode only — smoke runs on shared CI cores
// report the number without gating on it).
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "ab.hpp"
#include "hub/hub.hpp"
#include "obs/metrics.hpp"
#include "shard_runs.hpp"

namespace {

constexpr int kProducers = 4;

// One full multi-producer ingest pass: kProducers threads beat the fleet
// round-robin from staggered offsets in per-shard runs, then a flush
// publishes every shard.
double ingest_pass(hb::hub::HeartbeatHub& hub,
                   const std::vector<hb::hub::AppId>& ids,
                   std::uint64_t per_thread) {
  return hb::bench::timed([&] {
    std::vector<std::thread> threads;
    threads.reserve(kProducers);
    for (int t = 0; t < kProducers; ++t) {
      threads.emplace_back([&, t] {
        const std::size_t offset =
            static_cast<std::size_t>(t) * ids.size() / kProducers;
        hb::bench::ShardRuns runs(hub);
        for (std::uint64_t k = 0; k < per_thread; ++k) {
          runs.beat(ids[(offset + k) % ids.size()]);
        }
        runs.flush();
      });
    }
    for (auto& th : threads) th.join();
    hub.flush();
  });
}

}  // namespace

int main(int argc, char** argv) {
  const hb::bench::AbArgs args = hb::bench::parse_ab_args(argc, argv);
  int apps = 4000;
  // Bulk runs apply ~20M beats/s on a 4-vCPU host: 600k beats per
  // producer keeps a pass near 100 ms, long enough that thread start-up
  // and scheduler noise stay well inside the 5% gate.
  std::uint64_t per_thread = 600000;
  if (args.smoke) {
    per_thread = 30000;
  } else {
    if (args.positional.size() > 0) apps = std::atoi(args.positional[0]);
    if (args.positional.size() > 1) {
      per_thread = std::strtoull(args.positional[1], nullptr, 10);
    }
  }
  if (apps < 16 || per_thread < 1000) {
    std::fprintf(stderr,
                 "usage: %s [apps>=16] [beats_per_producer>=1000] | --smoke\n",
                 argv[0]);
    return 1;
  }

  hb::hub::HubOptions opts;
  opts.shard_count = 16;
  opts.window_capacity = 64;
  hb::hub::HeartbeatHub hub(opts);

  std::vector<hb::hub::AppId> ids;
  ids.reserve(static_cast<std::size_t>(apps));
  for (int i = 0; i < apps; ++i) {
    ids.push_back(hub.register_app("app-" + std::to_string(i), {4.0, 1e6}));
  }
  ingest_pass(hub, ids, 2000);  // warm-up: windows filled, allocations done

  const int reps = args.smoke ? 4 : 6;
  const double total = static_cast<double>(per_thread) * kProducers;
  std::printf("mode,rep,apps,beats,seconds,beats_per_sec\n");
  const hb::bench::AbResult result = hb::bench::run_ab(
      reps, [&] { return ingest_pass(hub, ids, per_thread); },
      [&](int rep, double on, double off) {
        std::printf("obs_on,%d,%d,%.0f,%.4f,%.0f\n", rep, apps, total, on,
                    on > 0 ? total / on : 0.0);
        std::printf("obs_off,%d,%d,%.0f,%.4f,%.0f\n", rep, apps, total, off,
                    off > 0 ? total / off : 0.0);
      });

  // ---- correctness coda: disabled means frozen, not deferred ------------
  auto& reg = hb::obs::MetricsRegistry::global();
  const std::uint64_t before = reg.counter("hb.hub.ingested").value();
  hb::obs::set_enabled(false);
  ingest_pass(hub, ids, 2000);
  const std::uint64_t frozen = reg.counter("hb.hub.ingested").value();
  hb::obs::set_enabled(true);
  ingest_pass(hub, ids, 2000);
  const std::uint64_t resumed = reg.counter("hb.hub.ingested").value();
  const std::uint64_t frozen_delta = frozen - before;
  // Frozen while disabled; resumed counting at least the re-enabled pass's
  // beats (other instrument sites may add more).
  bool ok = frozen == before &&
            resumed >= frozen + static_cast<std::uint64_t>(kProducers) * 2000;
  // Ingest totals are tracked by the hub itself regardless of telemetry:
  // no beat may be lost in either mode.
  const std::uint64_t expected =
      static_cast<std::uint64_t>(kProducers) *
      (2000 +  // warm-up
       static_cast<std::uint64_t>(reps) * 2 * per_thread +
       2 * 2000);  // the coda's two passes
  std::uint64_t ingested = 0;
  hub.snapshot()->for_each_app(
      [&ingested](const hb::hub::AppSummary& s) { ingested += s.total_beats; },
      /*include_evicted=*/true);
  if (ingested != expected) ok = false;

  hb::bench::JsonRecord rec("obs_overhead");
  rec.config("apps", apps);
  rec.config("beats_per_producer", per_thread);
  rec.config("producers", kProducers);
  return hb::bench::finish_ab(args, result, std::move(rec), "obs_overhead_pct",
                              "disabled_counter_delta", frozen_delta, ok);
}
