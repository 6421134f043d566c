#include "fault/fleet_detector.hpp"

#include <algorithm>
#include <cmath>

#include "hub/hub.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "util/beat_window.hpp"

namespace hb::fault {

namespace {

struct SweepMetrics {
  obs::Counter* count;
  obs::Histogram* ns;

  static const SweepMetrics& get() {
    static const SweepMetrics m = [] {
      auto& r = obs::MetricsRegistry::global();
      return SweepMetrics{&r.counter("hb.sweep.count"),
                          &r.histogram("hb.sweep.ns")};
    }();
    return m;
  }
};

// Beats of reader history per verdict: enough intervals for a stable mean
// and jitter, few enough to follow a cadence change within a second or so.
constexpr std::size_t kReaderWindow = 16;

}  // namespace

const char* to_string(Health h) {
  switch (h) {
    case Health::kWarmingUp: return "warming-up";
    case Health::kHealthy: return "healthy";
    case Health::kSlow: return "slow";
    case Health::kErratic: return "erratic";
    case Health::kDead: return "dead";
  }
  return "unknown";
}

hub::AppSummary summarize(const core::HeartbeatReader& reader) {
  // The hub's window step, so the same beats read the same from a reader
  // and from a hub.
  util::BeatWindow window(kReaderWindow);
  for (const core::HeartbeatRecord& rec : reader.history(kReaderWindow)) {
    window.push(rec.timestamp_ns);
  }
  const util::WindowSummary w = window.summary();
  hub::AppSummary s;
  s.total_beats = reader.count();
  s.staleness_ns = reader.staleness_ns();
  s.window_beats = w.beats;
  s.rate_bps = w.rate_bps;
  s.target = reader.target();
  s.interval_mean_ns = w.interval_mean_ns;
  s.interval_stddev_ns = w.interval_stddev_ns;
  return s;
}

Health FleetDetector::classify(const core::HeartbeatReader& reader) const {
  return classify(summarize(reader));
}

Health FleetDetector::classify(const hub::AppSummary& s) const {
  // An evicted app was already judged dead by the hub's staleness bound.
  if (s.evicted) return Health::kDead;

  // Discount transport lag (pump delivery lag + producer batch hold)
  // before judging silence; see FleetDetectorOptions::staleness_slack_ns.
  const util::TimeNs staleness = s.staleness_ns > opts_.staleness_slack_ns
                                     ? s.staleness_ns - opts_.staleness_slack_ns
                                     : 0;

  // Absolute bound first: the only check that can fire for apps that never
  // beat or whose windowed beats all share one tick (mean interval 0).
  if (opts_.absolute_staleness_ns > 0 &&
      staleness > opts_.absolute_staleness_ns) {
    return Health::kDead;
  }

  if (s.total_beats < opts_.min_beats) return Health::kWarmingUp;

  // Staleness vs cadence. (By design, a producer that slows to a cadence
  // far beyond its windowed one reads dead until its next beat revives it
  // — silence past staleness_factor times the known cadence IS the §2.6
  // failure signal.)
  if (s.interval_mean_ns > 0.0 &&
      static_cast<double>(staleness) >
          opts_.staleness_factor * s.interval_mean_ns) {
    return Health::kDead;
  }

  // Warmed up by lifetime beats, but the window holds too little evidence
  // for a rate or jitter verdict (e.g. revived by one beat after an
  // eviction): not provably dead, not provably anything.
  if (s.window_beats < 2) return Health::kWarmingUp;

  // A zero-span window reads as an infinite rate — unmeasurably fast is
  // not "slow", so the isfinite guard only ever helps the app here.
  if (s.target.min_bps > 0.0 && std::isfinite(s.rate_bps) &&
      s.rate_bps < s.target.min_bps) {
    return Health::kSlow;
  }

  if (s.interval_mean_ns > 0.0 &&
      s.interval_stddev_ns > kJitterFactor * s.interval_mean_ns) {
    return Health::kErratic;
  }
  return Health::kHealthy;
}

int print_fleet_report(std::FILE* out, const FleetReport& report) {
  std::vector<const AppHealth*> rows;
  rows.reserve(report.apps.size());
  for (const AppHealth& app : report.apps) rows.push_back(&app);
  std::sort(rows.begin(), rows.end(),
            [](const AppHealth* a, const AppHealth* b) {
              return a->name < b->name;
            });

  std::fprintf(out, "%-24s %10s %12s %10s %14s %-10s\n", "application",
               "beats", "rate(b/s)", "tgt_min", "staleness(ms)", "health");
  for (const AppHealth* app : rows) {
    std::fprintf(out, "%-24s %10llu %12.2f %10.2f %14.1f %-10s\n",
                 app->name.c_str(),
                 static_cast<unsigned long long>(app->total_beats),
                 app->rate_bps, app->target.min_bps,
                 static_cast<double>(app->staleness_ns) / 1e6,
                 to_string(app->health));
  }
  const FleetHealth& fleet = report.fleet;
  std::fprintf(out,
               "\nfleet: %llu apps | %llu healthy, %llu slow, %llu erratic, "
               "%llu dead, %llu warming-up\n",
               static_cast<unsigned long long>(fleet.apps),
               static_cast<unsigned long long>(fleet.healthy),
               static_cast<unsigned long long>(fleet.slow),
               static_cast<unsigned long long>(fleet.erratic),
               static_cast<unsigned long long>(fleet.dead),
               static_cast<unsigned long long>(fleet.warming_up));
  if (!fleet.dead_apps.empty()) {
    std::fprintf(out, "dead:");
    for (const auto& name : fleet.dead_apps) {
      std::fprintf(out, " %s", name.c_str());
    }
    std::fprintf(out, "\n");
  }
  return fleet.dead == 0 ? 0 : 3;  // scripts can alert on the exit code
}

FleetReport FleetDetector::sweep(
    const std::shared_ptr<const hub::FleetSnapshot>& snap) const {
  const SweepMetrics& metrics = SweepMetrics::get();
  obs::ObsSpan span("fleet.sweep", snap->app_count(), metrics.ns);
  metrics.count->add(1);
  FleetReport report;

  // One coherent epoch for the whole report: every summary below comes
  // from the same FleetSnapshot — evicted apps included, so a death the
  // hub already confirmed (auto-eviction) stays in the report — in shard
  // order (no name sort — at fleet scale the sort would cost more than
  // the verdict math; the order is still deterministic for a fixed
  // registration order). Everything below is local math over immutable
  // data; no hub lock is held anywhere in this function.
  report.snapshot_epoch = snap->epoch();
  report.apps.reserve(snap->app_count());

  FleetHealth& fleet = report.fleet;
  fleet.swept_at_ns = snap->composed_at_ns();

  snap->for_each_app(
      [&](const hub::AppSummary& s) {
        AppHealth app;
        app.id = s.id;
        app.health = classify(s);
        app.staleness_ns = s.staleness_ns;
        app.total_beats = s.total_beats;
        app.rate_bps = s.rate_bps;
        app.target = s.target;
        app.name = s.name;

        ++fleet.apps;
        switch (app.health) {
          case Health::kWarmingUp: ++fleet.warming_up; break;
          case Health::kHealthy: ++fleet.healthy; break;
          case Health::kSlow: ++fleet.slow; break;
          case Health::kErratic: ++fleet.erratic; break;
          case Health::kDead:
            ++fleet.dead;
            if (s.evicted) ++fleet.evicted;
            fleet.dead_apps.push_back(app.name);
            break;
        }
        report.apps.push_back(std::move(app));
      },
      /*include_evicted=*/true);

  return report;
}

}  // namespace hb::fault
