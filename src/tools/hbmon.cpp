// hbmon: a DTrace-style command-line heartbeat monitor.
//
// Paper, Section 2.3: "Heartbeats can be incorporated into system
// administrative tools ... heartbeats might be used to detect application
// hangs or crashes ... Heartbeats also provide a way for an external
// observer to monitor which phase a program is in."
//
// Usage:
//   hbmon list                         # applications in the registry
//   hbmon show <app>                   # one-shot status
//   hbmon watch <app> [-n samples] [-i interval_ms] [-w window]
//   hbmon history <app> [-n beats]     # recent beats (seq, time, tag, tid)
//   hbmon fleet [-s dead_ms]           # one-sweep health verdict table
//   hbmon fleet --live [-d run_ms] [-s dead_ms]
//                                      # sweep LIVE external producers via the
//                                      # shm ingest ring (no registry replay)
//   hbmon fleet --watch [-d run_ms] [-s dead_ms] [-p sweep_ms]
//                                      # continuous decide loop: stream policy
//                                      # events until SIGINT/SIGTERM (-d 0)
//   hbmon metrics [--json] [-d run_ms]
//                                      # run the live pipeline briefly, then
//                                      # dump the self-telemetry registry
//   hbmon trace [-o trace.json] [-d run_ms]
//                                      # same, exporting the stage-span ring
//                                      # as Chrome trace-event JSON
//   hbmon timeline [-d run_ms] [-p sweep_ms]
//                  [--since ms] [--app NAME] [--json]
//                                      # run the live pipeline with a
//                                      # FlightRecorder attached and render
//                                      # the fleet-history timeline
//   hbmon postmortem [--list | <id>] [--dir DIR]
//                                      # list / print captured incident
//                                      # bundles ($HB_DIR/postmortems);
//                                      # exit 5 on malformed, 1 on absent
//   hbmon scenario --list              # named deterministic fleet drills
//   hbmon scenario <name> [--seed N] [--perf] [--json] [--capture DIR]
//                                      # run one drill on the virtual clock;
//                                      # stdout is the replayable event
//                                      # stream (byte-stable per seed).
//                                      # --capture arms the PostmortemSink
//                                      # (bundle bytes are seed-stable too).
//                                      # exit 0 ok / 4 invariant violation
//
// Fleet modes accept --metrics to append the registry table after the
// verdict table. The ring-fed modes (--live, --watch, metrics, trace,
// timeline) run with HubOptions::self_beat: the hub registers itself as
// "__hub/self" and its own publish cadence is classified right alongside
// the fleet it watches. The one-shot replay mode does not (one sweep of
// historical beats would only ever show the self app warming up).
//
// Registry directory: $HB_DIR or <tmp>/heartbeats.
#include <algorithm>
#include <atomic>
#include <cctype>
#include <chrono>
#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <memory>
#include <sstream>
#include <string>
#include <string_view>
#include <thread>
#include <vector>

#include "core/tags.hpp"
#include "fault/fleet_detector.hpp"
#include "hub/hub.hpp"
#include "hub/shm_pump.hpp"
#include "obs/flight_recorder.hpp"
#include "obs/metrics.hpp"
#include "obs/postmortem.hpp"
#include "obs/trace.hpp"
#include "policy/action_sink.hpp"
#include "policy/monitor.hpp"
#include "policy/policy_engine.hpp"
#include "sim/scenario.hpp"
#include "transport/registry.hpp"
#include "transport/shm_ingest.hpp"

namespace {

int usage() {
  std::fprintf(stderr,
               "usage: hbmon list\n"
               "       hbmon show <app>\n"
               "       hbmon watch <app> [-n samples] [-i interval_ms] "
               "[-w window]\n"
               "       hbmon history <app> [-n beats]\n"
               "       hbmon fleet [-s dead_ms] [-n history_beats] "
               "[--metrics]\n"
               "       hbmon fleet --live [-d run_ms] [-s dead_ms] "
               "[--metrics]\n"
               "       hbmon fleet --watch [-d run_ms] [-s dead_ms] "
               "[-p sweep_ms] [--metrics]\n"
               "       hbmon metrics [--json] [-d run_ms]\n"
               "       hbmon trace [-o trace.json] [-d run_ms]\n"
               "       hbmon timeline [-d run_ms] [-p sweep_ms] "
               "[--since ms] [--app NAME] [--json]\n"
               "       hbmon postmortem [--list | <id>] [--dir DIR]\n"
               "       hbmon scenario --list\n"
               "       hbmon scenario <name> [--seed N] [--perf] "
               "[--json] [--capture DIR]\n");
  return 2;
}

hb::util::TimeNs ms(int v) {
  return static_cast<hb::util::TimeNs>(v) * hb::util::kNsPerMs;
}

std::atomic<bool> g_stop{false};  // lock-free: safe to set from a signal
static_assert(std::atomic<bool>::is_always_lock_free);
// relaxed: the flag only ends Monitor::run's loop; it publishes no data.
void handle_stop(int) { g_stop.store(true, std::memory_order_relaxed); }

// The transport-loss footer both ring-fed fleet modes print under the
// verdict table: ring drops/torn slots are lost evidence, and rejected
// records (the hub's reserved name, or a frame its directory entry does
// not cover) are evidence refused — an operator who cannot see either
// would misread it as producer staleness.
void print_transport_footer(const hb::hub::ShmIngestPumpStats& stats) {
  std::printf("transport: %llu beats ingested from %llu producers, "
              "%llu dropped (ring lapped), %llu torn (producer died "
              "mid-publish)%s\n",
              static_cast<unsigned long long>(stats.consumed),
              static_cast<unsigned long long>(stats.apps),
              static_cast<unsigned long long>(stats.dropped),
              static_cast<unsigned long long>(stats.torn),
              stats.dropped || stats.torn ? "  <-- ring loss" : "");
  std::printf("rejected: %llu beats (reserved name or bad directory "
              "entry)%s\n",
              static_cast<unsigned long long>(stats.rejected),
              stats.rejected ? "  <-- rejected" : "");
  std::printf("doorbell: %llu parks, %llu wakes (%llu spurious), "
              "%llu timeouts\n",
              static_cast<unsigned long long>(stats.parks),
              static_cast<unsigned long long>(stats.doorbell_wakes),
              static_cast<unsigned long long>(stats.spurious_wakes),
              static_cast<unsigned long long>(stats.wait_timeouts));
}

const char* kind_name(hb::obs::MetricValue::Kind kind) {
  switch (kind) {
    case hb::obs::MetricValue::Kind::kCounter: return "counter";
    case hb::obs::MetricValue::Kind::kGauge: return "gauge";
    case hb::obs::MetricValue::Kind::kHistogram: return "histogram";
  }
  return "?";
}

void print_metrics_table(const hb::obs::MetricsSnapshot& snap) {
  std::printf("%-26s %-9s %14s  %s\n", "metric", "kind", "value",
              "distribution(ns)");
  for (const auto& m : snap.metrics) {
    switch (m.kind) {
      case hb::obs::MetricValue::Kind::kCounter:
        std::printf("%-26s %-9s %14llu\n", m.name.c_str(), kind_name(m.kind),
                    static_cast<unsigned long long>(m.count));
        break;
      case hb::obs::MetricValue::Kind::kGauge:
        std::printf("%-26s %-9s %14lld\n", m.name.c_str(), kind_name(m.kind),
                    static_cast<long long>(m.gauge));
        break;
      case hb::obs::MetricValue::Kind::kHistogram:
        std::printf("%-26s %-9s %14llu  p50=%llu p95=%llu p99=%llu "
                    "max=%llu mean=%.0f\n",
                    m.name.c_str(), kind_name(m.kind),
                    static_cast<unsigned long long>(m.count),
                    static_cast<unsigned long long>(m.p50),
                    static_cast<unsigned long long>(m.p95),
                    static_cast<unsigned long long>(m.p99),
                    static_cast<unsigned long long>(m.max), m.mean);
        break;
    }
  }
  std::printf("metrics: %zu registered, registry epoch %llu, "
              "wall time %llu ns\n",
              snap.metrics.size(),
              static_cast<unsigned long long>(snap.epoch),
              static_cast<unsigned long long>(snap.taken_at_wall_ns));
}

void print_metrics_json(std::FILE* out, const hb::obs::MetricsSnapshot& snap) {
  // taken_at_wall_ns (Unix epoch) is what makes scraped records orderable
  // OFFLINE — taken_at_ns is monotonic, an epoch private to this process.
  std::fprintf(out, "{\n  \"epoch\": %llu,\n  \"taken_at_ns\": %llu,\n"
               "  \"taken_at_wall_ns\": %llu,\n"
               "  \"metrics\": {",
               static_cast<unsigned long long>(snap.epoch),
               static_cast<unsigned long long>(snap.taken_at_ns),
               static_cast<unsigned long long>(snap.taken_at_wall_ns));
  bool first = true;
  for (const auto& m : snap.metrics) {
    std::fprintf(out, "%s\n    \"%s\": ", first ? "" : ",", m.name.c_str());
    switch (m.kind) {
      case hb::obs::MetricValue::Kind::kCounter:
        std::fprintf(out, "%llu", static_cast<unsigned long long>(m.count));
        break;
      case hb::obs::MetricValue::Kind::kGauge:
        std::fprintf(out, "%lld", static_cast<long long>(m.gauge));
        break;
      case hb::obs::MetricValue::Kind::kHistogram:
        std::fprintf(out,
                     "{\"kind\": \"histogram\", \"count\": %llu, "
                     "\"min\": %llu, \"max\": %llu, \"mean\": %.3f, "
                     "\"p50\": %llu, \"p95\": %llu, \"p99\": %llu}",
                     static_cast<unsigned long long>(m.count),
                     static_cast<unsigned long long>(m.min),
                     static_cast<unsigned long long>(m.max), m.mean,
                     static_cast<unsigned long long>(m.p50),
                     static_cast<unsigned long long>(m.p95),
                     static_cast<unsigned long long>(m.p99));
        break;
    }
    first = false;
  }
  std::fprintf(out, "\n  }\n}\n");
}

// The snapshot-plane footer every fleet mode prints: the report's epoch
// plus the cache hit/rebuild split, read from the telemetry registry (the
// process-wide truth).
void print_snapshot_footer(std::uint64_t epoch) {
  auto& reg = hb::obs::MetricsRegistry::global();
  const unsigned long long hits =
      reg.counter("hb.hub.snapshot_hits").value();
  const unsigned long long rebuilds =
      reg.counter("hb.hub.snapshot_rebuilds").value();
  std::printf("snapshot: epoch %llu, cache %llu hits / %llu rebuilds\n",
              static_cast<unsigned long long>(epoch), hits, rebuilds);
}

// --metrics on any fleet mode: the registry table under the footers.
void maybe_print_metrics_footer(bool want) {
  if (!want) return;
  std::printf("\n");
  print_metrics_table(hb::obs::MetricsRegistry::global().snapshot());
}

int cmd_list(const hb::transport::Registry& registry) {
  const auto apps = registry.list_applications();
  if (apps.empty()) {
    std::printf("no heartbeat applications in %s\n",
                registry.dir().c_str());
    return 0;
  }
  std::printf("%-24s %10s %12s %10s %10s\n", "application", "beats",
              "rate(b/s)", "tgt_min", "tgt_max");
  for (const auto& app : apps) {
    try {
      const auto reader = registry.reader(app);
      std::printf("%-24s %10llu %12.2f %10.2f %10.2g\n", app.c_str(),
                  static_cast<unsigned long long>(reader.count()),
                  reader.current_rate(), reader.target_min(),
                  reader.target_max());
    } catch (const std::exception& e) {
      std::printf("%-24s <unreadable: %s>\n", app.c_str(), e.what());
    }
  }
  return 0;
}

int cmd_show(const hb::transport::Registry& registry, const std::string& app,
             std::uint32_t window) {
  const auto reader = registry.reader(app);
  // One reading: the staleness, interval and health lines all come from
  // the summary the verdict judges.
  const hb::hub::AppSummary summary = hb::fault::summarize(reader);
  const double rate = reader.current_rate(window);
  std::printf("application:    %s\n", app.c_str());
  std::printf("beats:          %llu\n",
              static_cast<unsigned long long>(summary.total_beats));
  std::printf("rate:           %.2f beats/s (window %u)\n", rate,
              window == 0 ? reader.default_window() : window);
  std::printf("target:         [%.2f, %g] beats/s\n", summary.target.min_bps,
              summary.target.max_bps);
  std::printf("meeting target: %s\n",
              summary.target.contains(rate) ? "yes" : "no");
  std::printf("staleness:      %.1f ms\n",
              static_cast<double>(summary.staleness_ns) / 1e6);
  std::printf(
      "interval:       %.3f ms mean, %.3f ms jitter (last %llu beats)\n",
      summary.interval_mean_ns / 1e6, summary.interval_stddev_ns / 1e6,
      static_cast<unsigned long long>(summary.window_beats));
  std::printf("health:         %s\n",
              hb::fault::to_string(
                  hb::fault::FleetDetector().classify(summary)));
  return 0;
}

int cmd_watch(const hb::transport::Registry& registry, const std::string& app,
              int samples, int interval_ms, std::uint32_t window) {
  hb::fault::FleetDetector detector;
  std::printf("sample,beats,rate_bps,staleness_ms,health\n");
  for (int s = 0; s < samples; ++s) {
    const auto reader = registry.reader(app);
    std::printf("%d,%llu,%.2f,%.1f,%s\n", s,
                static_cast<unsigned long long>(reader.count()),
                reader.current_rate(window),
                static_cast<double>(reader.staleness_ns()) / 1e6,
                hb::fault::to_string(detector.classify(reader)));
    std::fflush(stdout);
    if (s + 1 < samples) {
      std::this_thread::sleep_for(std::chrono::milliseconds(interval_ms));
    }
  }
  return 0;
}

int cmd_history(const hb::transport::Registry& registry,
                const std::string& app, int beats) {
  const auto reader = registry.reader(app);
  const auto history = reader.history(static_cast<std::size_t>(beats));
  std::printf("seq,timestamp_ns,tag,thread_id\n");
  for (const auto& r : history) {
    std::printf("%llu,%lld,%llu,%u\n",
                static_cast<unsigned long long>(r.seq),
                static_cast<long long>(r.timestamp_ns),
                static_cast<unsigned long long>(r.tag), r.thread_id);
  }
  const auto histogram = hb::core::tag_histogram(history);
  std::fprintf(stderr, "tags:");
  for (const auto& [tag, count] : histogram) {
    std::fprintf(stderr, " %llu x%llu", static_cast<unsigned long long>(tag),
                 static_cast<unsigned long long>(count));
  }
  std::fprintf(stderr, "\n");
  return 0;
}

// One sweep over every registered application: feed each app's recent
// history into an in-process HeartbeatHub, then let the FleetDetector
// classify the whole fleet from that single aggregated snapshot (the
// fleet-scale reading of §2.6: health comes from one rollup, not from
// polling apps one by one).
int cmd_fleet(const hb::transport::Registry& registry, int dead_ms,
              int history_beats, bool metrics) {
  const auto apps = registry.list_applications();
  if (apps.empty()) {
    std::printf("no heartbeat applications in %s\n", registry.dir().c_str());
    return 0;
  }

  hb::hub::HubOptions opts;
  opts.shard_count = 8;
  opts.window_capacity =
      static_cast<std::size_t>(history_beats > 2 ? history_beats : 2);
  hb::hub::HeartbeatHub hub(opts);  // monotonic clock, same epoch as producers
  for (const auto& app : apps) {
    try {
      // Read everything BEFORE registering, so an app whose registry data
      // cannot be read is truly skipped — not left behind as a beat-less
      // registration that the table would still list as warming-up.
      const auto reader = registry.reader(app);
      const auto target = reader.target();
      const auto history =
          reader.history(static_cast<std::size_t>(history_beats));
      const hb::hub::AppId id = hub.register_app(app, target);
      std::vector<hb::util::TimeNs> timestamps;
      timestamps.reserve(history.size());
      for (const auto& rec : history) timestamps.push_back(rec.timestamp_ns);
      const hb::hub::AppRun run{id, timestamps};
      hub.ingest_batch({&run, 1});
    } catch (const std::exception& e) {
      std::fprintf(stderr, "hbmon: skipping %s: %s\n", app.c_str(), e.what());
    }
  }

  hb::fault::FleetDetector detector(
      {.absolute_staleness_ns =
           static_cast<hb::util::TimeNs>(dead_ms) * 1000000});
  hb::fault::FleetReport report = detector.sweep(hub.snapshot());
  const int code = hb::fault::print_fleet_report(stdout, report);
  print_snapshot_footer(report.snapshot_epoch);
  maybe_print_metrics_footer(metrics);
  return code;
}

// The staleness every ring-fed mode forgives as transport lag: 50 ms for
// the pump to deliver a beat, plus the producer-side batch hold. A fixed
// allowance, not a measured lag.
constexpr hb::util::TimeNs kTransportSlackNs =
    50 * hb::util::kNsPerMs + hb::transport::ShmHubSinkOptions{}.max_hold_ns;

// Shared wiring for every ring-fed mode: a policy::Monitor over the
// ingest queue at the registry's well-known path, a hub on the producers'
// monotonic epoch, a pump that each sweep's snapshot drains and that naps
// to the arrival rate behind a busy ring and parks on the doorbell while
// it is quiet, and a detector whose staleness slack is
// kTransportSlackNs. One function, so the modes can never diverge.
hb::policy::Monitor make_live_pipeline(const hb::transport::Registry& registry,
                                       int dead_ms,
                                       hb::util::TimeNs evict_after_ns = 0) {
  hb::hub::HubOptions opts;
  opts.shard_count = 8;
  opts.evict_after_ns = evict_after_ns;
  // The monitor monitors itself: a wedged pump/snapshot loop in THIS
  // process reads as "__hub/self" going stale in the very table it serves.
  opts.self_beat = true;
  return hb::policy::Monitor(
      hb::transport::ShmIngestQueue::open(
          registry.ingest_queue_path(),
          hb::transport::Registry::kDefaultIngestCapacity),
      std::make_shared<hb::hub::HeartbeatHub>(opts), {},
      {.absolute_staleness_ns = ms(dead_ms),
       .staleness_slack_ns = kTransportSlackNs});
}

// Sweep LIVE producers: external processes publish beats into the fleet
// ingest ring (transport/ShmIngestQueue, well-known path in the registry
// dir); we pump the ring into a hub for run_ms and classify the fleet from
// real-time state — no registry history replay, producers never linked.
int cmd_fleet_live(const hb::transport::Registry& registry, int run_ms,
                   int dead_ms, bool metrics) {
  if (run_ms <= 0) run_ms = 2000;
  hb::policy::Monitor monitor = make_live_pipeline(registry, dead_ms);
  // Tick during the run: each tick publishes the shards AND fires the self
  // heartbeat, so by the final sweep "__hub/self" has a cadence to be
  // judged on instead of one lone beat.
  monitor.run(ms(run_ms), ms(250));

  const auto stats = monitor.pump()->stats();
  const std::string& ring = monitor.pump()->queue()->file();
  const hb::fault::FleetReport& report = *monitor.last_report();
  std::fprintf(stderr, "live: %llu beats from %llu producers via %s\n",
               static_cast<unsigned long long>(stats.consumed),
               static_cast<unsigned long long>(stats.apps), ring.c_str());
  // Nothing ingested does NOT mean nothing happened: a lapped ring or a
  // producer that died mid-publish still leaves loss counters to report.
  int code = 0;
  if (stats.consumed == 0) {
    std::printf("no live producers on %s\n", ring.c_str());
  } else {
    code = hb::fault::print_fleet_report(stdout, report);
  }
  print_transport_footer(stats);
  print_snapshot_footer(report.snapshot_epoch);
  maybe_print_metrics_footer(metrics);
  return code;
}

// Continuous observe-decide loop over the live ring: pump it, run a
// FleetDetector sweep every sweep_ms, and stream the PolicyEngine's
// edge-triggered events (transitions, correlated failures, flap
// quarantines) to stdout as they happen — level-triggered spam is exactly
// what the engine exists to remove. Runs until SIGINT/SIGTERM (or -d ms if
// positive); the final table + transport footer print on exit, with the
// usual fleet exit-code contract.
int cmd_fleet_watch(const hb::transport::Registry& registry, int run_ms,
                    int dead_ms, int sweep_ms, bool metrics) {
  if (sweep_ms <= 0) sweep_ms = 1000;
  // Long watches accumulate dead producers; evict them once they are far
  // beyond the death bound so sweeps do not slow down over hours. Evicted
  // apps still classify dead (and revive on their next beat).
  hb::policy::Monitor monitor =
      make_live_pipeline(registry, dead_ms, 20 * ms(dead_ms));
  hb::policy::PolicyEngine& engine = monitor.engine();
  // Event stamps live on the hub's monotonic clock (machine uptime);
  // anchor the printed lines to the start of this watch.
  engine.add_sink(std::make_shared<hb::policy::LogSink>(
      stdout, monitor.hub()->clock()->now()));
  // Incident edges freeze fleet history into bundles under the registry dir.
  hb::obs::PostmortemOptions pm_opts;
  pm_opts.dir = (registry.dir() / "postmortems").string();
  pm_opts.source = "hbmon fleet --watch";
  pm_opts.live = true;
  auto postmortem =
      std::make_shared<hb::obs::PostmortemSink>(monitor.recorder(), pm_opts);
  engine.add_sink(postmortem);

  std::signal(SIGINT, handle_stop);
  std::signal(SIGTERM, handle_stop);
  std::fprintf(stderr, "watch: ring %s, sweep every %d ms, %s\n",
               monitor.pump()->queue()->file().c_str(), sweep_ms,
               run_ms > 0 ? "bounded run" : "until SIGINT/SIGTERM");

  monitor.run(ms(run_ms), ms(sweep_ms), &g_stop);
  const hb::fault::FleetReport& report = *monitor.last_report();
  std::printf("\n");
  const int code = hb::fault::print_fleet_report(stdout, report);
  print_transport_footer(monitor.pump()->stats());
  const auto& pstats = engine.stats();
  std::printf("policy: %llu sweeps, %llu transitions, %llu correlated "
              "failures, %llu quarantines (%zu active)\n",
              static_cast<unsigned long long>(pstats.sweeps),
              static_cast<unsigned long long>(pstats.transitions),
              static_cast<unsigned long long>(pstats.correlated_failures),
              static_cast<unsigned long long>(pstats.quarantines),
              engine.quarantined_apps().size());
  const auto rstats = monitor.recorder()->stats();
  const auto& pmstats = postmortem->stats();
  std::printf("history: %llu frames cut (%llu fine + %llu coarse retained), "
              "%llu postmortems from %llu triggers -> %s\n",
              static_cast<unsigned long long>(rstats.frames_cut),
              static_cast<unsigned long long>(rstats.fine_frames),
              static_cast<unsigned long long>(rstats.coarse_frames),
              static_cast<unsigned long long>(pmstats.captured),
              static_cast<unsigned long long>(pmstats.triggers),
              pm_opts.dir.c_str());
  if (pmstats.write_failures > 0) {
    std::fprintf(stderr, "hbmon: %llu postmortem bundle writes FAILED\n",
                 static_cast<unsigned long long>(pmstats.write_failures));
  }
  print_snapshot_footer(report.snapshot_epoch);
  maybe_print_metrics_footer(metrics);
  return code;
}

// Shared body for `hbmon metrics` and `hbmon trace`: tick the full stack
// every 100 ms for run_ms, so every stage's instrument sites have fired.
void run_pipeline_briefly(const hb::transport::Registry& registry,
                          int run_ms) {
  make_live_pipeline(registry, 5000)
      .run(ms(run_ms > 0 ? run_ms : 500), ms(100));
}

int cmd_metrics(const hb::transport::Registry& registry, int run_ms,
                bool json) {
  run_pipeline_briefly(registry, run_ms);
  const hb::obs::MetricsSnapshot snap =
      hb::obs::MetricsRegistry::global().snapshot();
  if (json) {
    print_metrics_json(stdout, snap);
  } else {
    print_metrics_table(snap);
  }
  return 0;
}

int cmd_trace(const hb::transport::Registry& registry, int run_ms,
              const char* out_path) {
  run_pipeline_briefly(registry, run_ms);
  const auto& ring = hb::obs::TraceRing::global();
  std::FILE* out = std::strcmp(out_path, "-") == 0
                       ? stdout
                       : std::fopen(out_path, "w");
  if (!out) {
    std::fprintf(stderr, "hbmon: cannot open %s for writing\n", out_path);
    return 1;
  }
  ring.export_chrome_json(out);
  if (out != stdout) std::fclose(out);
  std::uint64_t skipped = 0;
  const std::size_t in_window = ring.snapshot(&skipped).size();
  std::fprintf(stderr,
               "trace: %llu spans recorded (ring keeps the last %zu), "
               "%zu in window, %llu skipped mid-write, "
               "Chrome trace JSON -> %s\n",
               static_cast<unsigned long long>(ring.recorded()),
               ring.capacity(), in_window,
               static_cast<unsigned long long>(skipped), out_path);
  return 0;
}

// ----------------------------------------------------------- history plane

// Run the live pipeline with a FlightRecorder attached and render the
// timeline it accumulates: hub snapshot rebuilds feed the publish
// counters, every detector sweep records its FleetReport (frames cut on
// the recorder's fine interval), and the PolicyEngine's edges land in
// frames through the recorder's own ActionSink. --since trims to the
// trailing window of the run; --app keeps only the frames whose events
// mention that app (with only the matching event lines).
int cmd_timeline(const hb::transport::Registry& registry, int run_ms,
                 int sweep_ms, int since_ms, const char* app_filter,
                 bool json) {
  if (run_ms <= 0) run_ms = 2000;
  if (sweep_ms <= 0) sweep_ms = 500;
  hb::policy::Monitor monitor = make_live_pipeline(registry, 5000);

  // Anchor rendered stamps to the start of the run (event times live on
  // the hub's monotonic clock — machine uptime — which nobody wants raw).
  const hb::util::TimeNs base_ns = monitor.hub()->clock()->now();
  monitor.run(ms(run_ms), ms(sweep_ms));

  hb::util::TimeNs since_ns = 0;
  if (since_ms > 0) {
    const hb::util::TimeNs now_ns = monitor.hub()->clock()->now();
    const hb::util::TimeNs span = ms(since_ms);
    since_ns = now_ns > span ? now_ns - span : 0;
  }
  auto frames = monitor.recorder()->timeline(since_ns);
  if (app_filter && *app_filter) {
    std::vector<std::shared_ptr<const hb::obs::TimelineFrame>> kept;
    for (const auto& frame : frames) {
      auto filtered = std::make_shared<hb::obs::TimelineFrame>(*frame);
      filtered->events.clear();
      for (const auto& ev : frame->events) {
        const bool hit =
            ev.app == app_filter || ev.group == app_filter ||
            std::find(ev.apps.begin(), ev.apps.end(), app_filter) !=
                ev.apps.end();
        if (hit) filtered->events.push_back(ev);
      }
      if (!filtered->events.empty()) kept.push_back(std::move(filtered));
    }
    frames = std::move(kept);
  }

  if (json) {
    std::fputs(hb::obs::render_timeline_json(frames, base_ns).c_str(),
               stdout);
  } else {
    if (frames.empty()) {
      std::printf("no timeline frames%s\n",
                  hb::obs::enabled() ? "" : " (telemetry disabled: HB_OBS=0)");
    } else {
      std::fputs(hb::obs::render_timeline_text(frames, base_ns).c_str(),
                 stdout);
    }
  }
  const auto stats = monitor.recorder()->stats();
  std::fprintf(stderr,
               "timeline: %llu frames cut over %d ms (%llu fine + %llu "
               "coarse retained), %llu sweeps recorded, %llu publishes\n",
               static_cast<unsigned long long>(stats.frames_cut), run_ms,
               static_cast<unsigned long long>(stats.fine_frames),
               static_cast<unsigned long long>(stats.coarse_frames),
               static_cast<unsigned long long>(stats.reports_recorded),
               static_cast<unsigned long long>(stats.publishes_noted));
  return 0;
}

// Minimal field extraction from a bundle's flat JSON: find `"key":` and
// return the value token after it (quoted string unescaped, or the bare
// integer/bool). Good enough for the fixed keys our own renderer emits;
// real parsing belongs to jq / scripts/check_postmortem_json.py.
std::string bundle_field(const std::string& text, const std::string& key) {
  const std::string needle = "\"" + key + "\":";
  const std::size_t at = text.find(needle);
  if (at == std::string::npos) return "";
  std::size_t i = at + needle.size();
  if (i >= text.size()) return "";
  if (text[i] == '"') {
    std::string out;
    for (++i; i < text.size() && text[i] != '"'; ++i) {
      if (text[i] == '\\' && i + 1 < text.size()) ++i;
      out += text[i];
    }
    return out;
  }
  std::string out;
  while (i < text.size() &&
         (std::isalnum(static_cast<unsigned char>(text[i])) ||
          text[i] == '-' || text[i] == '.')) {
    out += text[i++];
  }
  return out;
}

// Structural sanity for one bundle: readable, well-formed UTF-8, one
// brace-balanced JSON object with no raw control byte inside a string
// (JSON forbids both, and scripts/check_postmortem_json.py rejects both),
// and carries our schema marker. Returns false with a reason.
bool validate_bundle(const std::filesystem::path& path, std::string* text,
                     std::string* why) {
  std::ifstream f(path, std::ios::binary);
  if (!f.good()) {
    *why = "cannot open";
    return false;
  }
  std::ostringstream buf;
  buf << f.rdbuf();
  *text = buf.str();
  std::string_view body(*text);
  while (!body.empty() && (body.back() == '\n' || body.back() == ' ')) {
    body.remove_suffix(1);
  }
  if (body.empty() || body.front() != '{' || body.back() != '}') {
    *why = "not a JSON object";
    return false;
  }
  for (std::size_t i = 0, n = 0; i < body.size(); i += n) {
    if ((n = hb::obs::utf8_sequence_length(body.substr(i))) == 0) {
      *why = "raw invalid UTF-8";
      return false;
    }
  }
  // Brace balance outside strings: catches a truncated bundle (which the
  // atomic rename should make impossible — this is the check that notices
  // when it was not).
  int depth = 0;
  bool in_str = false;
  for (std::size_t i = 0; i < body.size(); ++i) {
    const char c = body[i];
    if (in_str) {
      if (static_cast<unsigned char>(c) < 0x20) {
        *why = "raw control byte inside a string";
        return false;
      }
      if (c == '\\') ++i;
      else if (c == '"') in_str = false;
    } else if (c == '"') {
      in_str = true;
    } else if (c == '{' || c == '[') {
      ++depth;
    } else if (c == '}' || c == ']') {
      if (--depth < 0) break;
    }
  }
  if (depth != 0 || in_str) {
    *why = "unbalanced braces (truncated bundle?)";
    return false;
  }
  if (bundle_field(*text, "schema") != "hb.postmortem.v1") {
    *why = "missing or unknown schema (want hb.postmortem.v1)";
    return false;
  }
  return true;
}

// List / print captured incident bundles. Exit contract (CI leans on it):
// 0 ok, 1 absent (no such directory, no such bundle), 5 malformed.
int cmd_postmortem(const std::string& dir, const std::string& id) {
  namespace fs = std::filesystem;
  if (!fs::is_directory(dir)) {
    std::fprintf(stderr, "hbmon: no postmortem directory at %s\n",
                 dir.c_str());
    return 1;
  }

  if (!id.empty()) {
    // `hbmon postmortem <id>` accepts the bare id or the file name.
    fs::path path = fs::path(dir) / id;
    if (path.extension() != ".json") path += ".json";
    if (!fs::is_regular_file(path)) {
      std::fprintf(stderr, "hbmon: no bundle %s in %s\n", id.c_str(),
                   dir.c_str());
      return 1;
    }
    std::string text, why;
    if (!validate_bundle(path, &text, &why)) {
      std::fprintf(stderr, "hbmon: malformed bundle %s: %s\n",
                   path.c_str(), why.c_str());
      return 5;
    }
    std::fputs(text.c_str(), stdout);
    if (!text.empty() && text.back() != '\n') std::printf("\n");
    return 0;
  }

  std::vector<fs::path> bundles;
  for (const auto& entry : fs::directory_iterator(dir)) {
    if (entry.is_regular_file() && entry.path().extension() == ".json") {
      bundles.push_back(entry.path());
    }
  }
  std::sort(bundles.begin(), bundles.end());  // pm-<seq> names sort by seq
  if (bundles.empty()) {
    std::printf("no postmortem bundles in %s\n", dir.c_str());
    return 1;
  }
  std::printf("%-36s %-20s %-14s %s\n", "id", "trigger", "captured_at",
              "source");
  int malformed = 0;
  for (const auto& path : bundles) {
    std::string text, why;
    if (!validate_bundle(path, &text, &why)) {
      std::printf("%-36s MALFORMED: %s\n", path.stem().c_str(), why.c_str());
      ++malformed;
      continue;
    }
    const std::string at = bundle_field(text, "captured_at_ns");
    char stamp[32] = "?";
    if (!at.empty()) {
      std::snprintf(stamp, sizeof(stamp), "%.3fs",
                    static_cast<double>(std::strtoll(at.c_str(), nullptr,
                                                     10)) /
                        1e9);
    }
    std::printf("%-36s %-20s %-14s %s\n", bundle_field(text, "id").c_str(),
                bundle_field(text, "kind").c_str(), stamp,
                bundle_field(text, "source").c_str());
  }
  std::printf("%zu bundle%s in %s%s\n", bundles.size(),
              bundles.size() == 1 ? "" : "s", dir.c_str(),
              malformed ? " (MALFORMED bundles present)" : "");
  return malformed ? 5 : 0;
}

// ---------------------------------------------------------- scenario mode

int cmd_scenario_list() {
  std::printf("%-16s %-11s %-11s %s\n", "scenario", "correctness", "perf",
              "summary");
  for (const auto& spec : hb::sim::scenarios()) {
    char correctness[32], perf[32];
    std::snprintf(correctness, sizeof(correctness), "%dx%d",
                  spec.correctness.racks, spec.correctness.vms_per_rack);
    std::snprintf(perf, sizeof(perf), "%dx%d", spec.perf.racks,
                  spec.perf.vms_per_rack);
    std::printf("%-16s %-11s %-11s %s\n", spec.name.c_str(), correctness,
                perf, spec.summary.c_str());
  }
  return 0;
}

int cmd_scenario(const std::string& name, std::uint64_t seed, bool perf,
                 bool json, const char* capture_dir) {
  const hb::sim::ScenarioSpec* spec = hb::sim::find_scenario(name);
  if (!spec) {
    std::fprintf(stderr,
                 "hbmon: unknown scenario '%s' (hbmon scenario --list)\n",
                 name.c_str());
    return 2;
  }
  hb::sim::ScenarioRunner runner(*spec, perf ? spec->perf : spec->correctness,
                                 seed);
  if (capture_dir && *capture_dir) runner.enable_capture(capture_dir);
  const hb::sim::ScenarioResult& res = runner.run();
  if (const hb::obs::PostmortemSink* pm = runner.postmortem()) {
    // Capture provenance on stderr: stdout stays the byte-stable event
    // stream the goldens pin.
    const auto& stats = pm->stats();
    std::fprintf(stderr,
                 "capture: %llu bundles from %llu triggers "
                 "(%llu cooldown-suppressed, %llu over budget) -> %s\n",
                 static_cast<unsigned long long>(stats.captured),
                 static_cast<unsigned long long>(stats.triggers),
                 static_cast<unsigned long long>(stats.suppressed_cooldown),
                 static_cast<unsigned long long>(stats.suppressed_budget),
                 capture_dir);
    if (!pm->last_bundle_path().empty()) {
      std::fprintf(stderr, "capture: last bundle %s\n",
                   pm->last_bundle_path().c_str());
    }
    if (stats.write_failures > 0) {
      std::fprintf(stderr, "hbmon: %llu bundle writes FAILED\n",
                   static_cast<unsigned long long>(stats.write_failures));
      return 1;
    }
  }
  if (json) {
    std::printf("{\n  \"scenario\": \"%s\",\n  \"seed\": %llu,\n"
                "  \"apps\": %d,\n  \"steps\": %llu,\n"
                "  \"log_hash\": \"%016llx\",\n  \"ok\": %s,\n",
                res.name.c_str(), static_cast<unsigned long long>(res.seed),
                res.config.apps(),
                static_cast<unsigned long long>(res.steps),
                static_cast<unsigned long long>(res.log_hash),
                res.ok() ? "true" : "false");
    std::printf("  \"fleet\": {\"healthy\": %llu, \"warming_up\": %llu, "
                "\"slow\": %llu, \"erratic\": %llu, \"dead\": %llu, "
                "\"evicted\": %llu},\n",
                static_cast<unsigned long long>(res.final_fleet.healthy),
                static_cast<unsigned long long>(res.final_fleet.warming_up),
                static_cast<unsigned long long>(res.final_fleet.slow),
                static_cast<unsigned long long>(res.final_fleet.erratic),
                static_cast<unsigned long long>(res.final_fleet.dead),
                static_cast<unsigned long long>(res.final_fleet.evicted));
    std::printf("  \"facts\": {");
    bool first = true;
    for (const auto& [key, value] : res.facts) {  // std::map: sorted, stable
      std::printf("%s\"%s\": \"%s\"", first ? "" : ", ", key.c_str(),
                  value.c_str());
      first = false;
    }
    std::printf("},\n  \"violations\": [");
    for (std::size_t i = 0; i < res.violations.size(); ++i) {
      std::printf("%s\"%s\"", i ? ", " : "", res.violations[i].c_str());
    }
    std::printf("]\n}\n");
  } else {
    std::fputs(runner.log().canonical_text().c_str(), stdout);
  }
  return res.ok() ? 0 : 4;  // 4: drill ran but an invariant was violated
}

const char* parse_sflag(int argc, char** argv, const char* flag,
                        const char* fallback) {
  for (int i = 0; i + 1 < argc; ++i) {
    if (std::strcmp(argv[i], flag) == 0) return argv[i + 1];
  }
  return fallback;
}

int parse_flag(int argc, char** argv, const char* flag, int fallback) {
  for (int i = 0; i + 1 < argc; ++i) {
    if (std::strcmp(argv[i], flag) == 0) return std::atoi(argv[i + 1]);
  }
  return fallback;
}

bool has_flag(int argc, char** argv, const char* flag) {
  for (int i = 0; i < argc; ++i) {
    if (std::strcmp(argv[i], flag) == 0) return true;
  }
  return false;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) return usage();
  const std::string cmd = argv[1];
  hb::transport::Registry registry;
  try {
    if (cmd == "list") return cmd_list(registry);
    if (cmd == "metrics") {
      return cmd_metrics(registry, parse_flag(argc, argv, "-d", 500),
                         has_flag(argc, argv, "--json"));
    }
    if (cmd == "trace") {
      return cmd_trace(registry, parse_flag(argc, argv, "-d", 500),
                       parse_sflag(argc, argv, "-o", "trace.json"));
    }
    if (cmd == "timeline") {
      return cmd_timeline(registry, parse_flag(argc, argv, "-d", 2000),
                          parse_flag(argc, argv, "-p", 500),
                          parse_flag(argc, argv, "--since", 0),
                          parse_sflag(argc, argv, "--app", ""),
                          has_flag(argc, argv, "--json"));
    }
    if (cmd == "postmortem") {
      const std::string id =
          argc >= 3 && argv[2][0] != '-' ? argv[2] : "";
      const std::string default_dir =
          (registry.dir() / "postmortems").string();
      return cmd_postmortem(
          parse_sflag(argc, argv, "--dir", default_dir.c_str()), id);
    }
    if (cmd == "fleet" || cmd == "--fleet") {
      const bool metrics = has_flag(argc, argv, "--metrics");
      if (has_flag(argc, argv, "--watch")) {
        return cmd_fleet_watch(registry, parse_flag(argc, argv, "-d", 0),
                               parse_flag(argc, argv, "-s", 5000),
                               parse_flag(argc, argv, "-p", 1000), metrics);
      }
      if (has_flag(argc, argv, "--live")) {
        return cmd_fleet_live(registry, parse_flag(argc, argv, "-d", 2000),
                              parse_flag(argc, argv, "-s", 5000), metrics);
      }
      // -n sizes the hub window, so it must fit one before any app is read.
      const int history_beats = parse_flag(argc, argv, "-n", 64);
      if (history_beats < 1 ||
          static_cast<std::size_t>(history_beats) >
              hb::hub::kMaxWindowCapacity) {
        std::fprintf(stderr, "hbmon: -n history_beats must be in [1, %zu]\n",
                     hb::hub::kMaxWindowCapacity);
        return usage();
      }
      return cmd_fleet(registry, parse_flag(argc, argv, "-s", 5000),
                       history_beats, metrics);
    }
    if (cmd == "scenario") {
      if (has_flag(argc, argv, "--list")) return cmd_scenario_list();
      if (argc < 3 || argv[2][0] == '-') return usage();
      return cmd_scenario(
          argv[2],
          std::strtoull(parse_sflag(argc, argv, "--seed", "42"), nullptr, 10),
          has_flag(argc, argv, "--perf"), has_flag(argc, argv, "--json"),
          parse_sflag(argc, argv, "--capture", ""));
    }
    if (argc < 3) return usage();
    const std::string app = argv[2];
    if (cmd == "show") {
      return cmd_show(registry, app,
                      static_cast<std::uint32_t>(
                          parse_flag(argc, argv, "-w", 0)));
    }
    if (cmd == "watch") {
      return cmd_watch(registry, app, parse_flag(argc, argv, "-n", 10),
                       parse_flag(argc, argv, "-i", 500),
                       static_cast<std::uint32_t>(
                           parse_flag(argc, argv, "-w", 0)));
    }
    if (cmd == "history") {
      return cmd_history(registry, app, parse_flag(argc, argv, "-n", 32));
    }
  } catch (const std::exception& e) {
    std::fprintf(stderr, "hbmon: %s\n", e.what());
    return 1;
  }
  return usage();
}
