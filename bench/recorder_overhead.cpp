// Flight-recorder overhead: the full observe-decide pipeline with the
// history plane recording vs runtime-disabled.
//
// The FlightRecorder rides the pipeline's existing cadences — one
// note_publish per hub snapshot rebuild, one record_report per detector
// sweep, one record_event per policy edge — and its charter is the same
// as the rest of the telemetry plane: invisible. This bench holds it to
// that at fleet scale (4k apps, 4 producer threads, a sweep per simulated
// second) by running the SAME workload with obs::set_enabled(true) and
// (false), interleaved best-of so host drift hits both sides alike.
//
// What the two sides measure:
//   * enabled:  ingest + publish + sweep + record_report + observe, with
//               frames cut on every sweep (ManualClock advances one fine
//               interval per sweep — the recorder's worst case).
//   * disabled: the identical pipeline; every recorder entry point reduces
//               to one relaxed enabled() load.
//
// A correctness coda verifies the kill-switch claim directly: while
// disabled the recorder's frame/report/publish counters must FREEZE (the
// pipeline keeps sweeping, history stands still), and on re-enable frames
// must resume cutting — disabled means "not recorded", never "recorded
// late".
//
//   ./bench_recorder_overhead [apps] [beats_per_producer_per_sweep]
//                                       (default 4000 x 20000)
//   ./bench_recorder_overhead --smoke   (small run; overhead informational)
//   ./bench_recorder_overhead --json PATH  (write a BENCH json record)
//
// CSV on stdout; `# recorder_overhead_pct=` is the headline (acceptance
// shape: < 5% on the pipeline at 4k apps). Exit: 0 ok, 2 on a correctness
// failure, 3 on a blown overhead gate (full mode only — smoke runs on
// shared CI cores report the number without gating on it).
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <memory>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "ab.hpp"
#include "hub/hub.hpp"
#include "obs/flight_recorder.hpp"
#include "obs/metrics.hpp"
#include "policy/monitor.hpp"
#include "util/clock.hpp"

namespace {

constexpr int kProducers = 4;

struct Pipeline {
  std::shared_ptr<hb::util::ManualClock> clock;
  std::unique_ptr<hb::policy::Monitor> monitor;
  std::vector<hb::hub::AppId> ids;
};

// One timed pass: `sweeps` rounds of multi-producer ingest followed by the
// full decide tick — clock advance, flush, publish (note_publish fires on
// the snapshot rebuild), sweep, record_report, observe. This is the
// recorder's worst case: the clock advances one fine interval per sweep,
// so EVERY sweep cuts a frame when recording is enabled.
double pipeline_pass(Pipeline& p, int sweeps, std::uint64_t per_thread) {
  hb::hub::HeartbeatHub& hub = *p.monitor->hub();
  return hb::bench::timed([&] {
    for (int s = 0; s < sweeps; ++s) {
      std::vector<std::thread> threads;
      threads.reserve(kProducers);
      for (int t = 0; t < kProducers; ++t) {
        threads.emplace_back([&, t] {
          const std::size_t offset =
              static_cast<std::size_t>(t) * p.ids.size() / kProducers;
          for (std::uint64_t k = 0; k < per_thread; ++k) {
            hub.beat(p.ids[(offset + k) % p.ids.size()]);
          }
        });
      }
      for (auto& th : threads) th.join();
      p.clock->advance(hb::util::kNsPerSec);
      hub.flush();
      p.monitor->tick();  // the rebuild fires note_publish on the recorder
    }
  });
}

}  // namespace

int main(int argc, char** argv) {
  const hb::bench::AbArgs args = hb::bench::parse_ab_args(argc, argv);
  int apps = 4000;
  std::uint64_t per_thread = 20000;
  int sweeps = 8;
  if (args.smoke) {
    per_thread = 4000;
    sweeps = 4;
  } else {
    if (args.positional.size() > 0) apps = std::atoi(args.positional[0]);
    if (args.positional.size() > 1) {
      per_thread = std::strtoull(args.positional[1], nullptr, 10);
    }
  }
  if (apps < 16 || per_thread < 1000) {
    std::fprintf(
        stderr,
        "usage: %s [apps>=16] [beats_per_producer_per_sweep>=1000] | "
        "--smoke\n",
        argv[0]);
    return 1;
  }

  Pipeline p;
  p.clock = std::make_shared<hb::util::ManualClock>(1);
  hb::hub::HubOptions opts;
  opts.shard_count = 16;
  opts.window_capacity = 64;
  opts.clock = p.clock;
  p.monitor = std::make_unique<hb::policy::Monitor>(
      std::make_shared<hb::hub::HeartbeatHub>(opts));
  p.ids.reserve(static_cast<std::size_t>(apps));
  for (int i = 0; i < apps; ++i) {
    p.ids.push_back(p.monitor->hub()->register_app("app-" + std::to_string(i),
                                                   {4.0, 1e6}));
  }
  const auto& recorder = p.monitor->recorder();

  pipeline_pass(p, 4, 2000);  // warm-up: windows filled, fleet healthy

  const int reps = args.smoke ? 4 : 6;
  const double total =
      static_cast<double>(per_thread) * kProducers * sweeps;
  std::printf("mode,rep,apps,sweeps,beats,seconds,beats_per_sec\n");
  const hb::bench::AbResult result = hb::bench::run_ab(
      reps, [&] { return pipeline_pass(p, sweeps, per_thread); },
      [&](int rep, double on, double off) {
        std::printf("recorder_on,%d,%d,%d,%.0f,%.4f,%.0f\n", rep, apps,
                    sweeps, total, on, on > 0 ? total / on : 0.0);
        std::printf("recorder_off,%d,%d,%d,%.0f,%.4f,%.0f\n", rep, apps,
                    sweeps, total, off, off > 0 ? total / off : 0.0);
      });

  // ---- correctness coda: disabled means frozen, not deferred ------------
  const hb::obs::FlightRecorderStats before = recorder->stats();
  hb::obs::set_enabled(false);
  pipeline_pass(p, 2, 2000);
  const hb::obs::FlightRecorderStats frozen = recorder->stats();
  hb::obs::set_enabled(true);
  pipeline_pass(p, 2, 2000);
  const hb::obs::FlightRecorderStats resumed = recorder->stats();
  const std::uint64_t frozen_delta =
      (frozen.frames_cut - before.frames_cut) +
      (frozen.reports_recorded - before.reports_recorded) +
      (frozen.publishes_noted - before.publishes_noted);
  const bool ok = frozen_delta == 0 &&
                  resumed.frames_cut >= frozen.frames_cut + 2 &&
                  resumed.reports_recorded >= frozen.reports_recorded + 2 &&
                  !recorder->timeline().empty();  // history exists

  hb::bench::JsonRecord rec("recorder_overhead");
  rec.config("apps", apps);
  rec.config("beats_per_producer_per_sweep", per_thread);
  rec.config("producers", kProducers);
  rec.config("sweeps", sweeps);
  return hb::bench::finish_ab(args, result, std::move(rec),
                              "recorder_overhead_pct",
                              "disabled_recorder_delta", frozen_delta, ok);
}
