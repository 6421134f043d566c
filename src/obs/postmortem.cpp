#include "obs/postmortem.hpp"

#include <algorithm>
#include <chrono>
#include <cinttypes>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <stdexcept>

#include "fault/fleet_detector.hpp"
#include "obs/trace.hpp"
#include "policy/policy_engine.hpp"

namespace hb::obs {

namespace {

namespace fs = std::filesystem;

void append_escaped(std::string& out, std::string_view s) {
  for (const char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\t': out += "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x", c);
          out += buf;
        } else {
          out += c;
        }
    }
  }
}

void append_str(std::string& out, std::string_view key, std::string_view val,
                bool comma = true) {
  out += '"';
  out += key;
  out += "\":\"";
  append_escaped(out, val);
  out += '"';
  if (comma) out += ',';
}

void append_u64(std::string& out, std::string_view key, std::uint64_t val,
                bool comma = true) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%" PRIu64, val);
  out += '"';
  out += key;
  out += "\":";
  out += buf;
  if (comma) out += ',';
}

void append_i64(std::string& out, std::string_view key, std::int64_t val,
                bool comma = true) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%" PRId64, val);
  out += '"';
  out += key;
  out += "\":";
  out += buf;
  if (comma) out += ',';
}

void append_bool(std::string& out, std::string_view key, bool val,
                 bool comma = true) {
  out += '"';
  out += key;
  out += "\":";
  out += val ? "true" : "false";
  if (comma) out += ',';
}

void append_fleet(std::string& out, const fault::FleetHealth& f) {
  out += '{';
  append_u64(out, "apps", f.apps);
  append_u64(out, "healthy", f.healthy);
  append_u64(out, "warming_up", f.warming_up);
  append_u64(out, "slow", f.slow);
  append_u64(out, "erratic", f.erratic);
  append_u64(out, "dead", f.dead);
  append_u64(out, "evicted", f.evicted, /*comma=*/false);
  out += '}';
}

/// Names the trigger implicates: the single app, or every member of a
/// correlated failure (emission order — deterministic).
std::vector<std::string> implicated_names(const policy::FleetEvent& event) {
  if (event.kind == policy::EventKind::kCorrelatedFailure) return event.apps;
  if (!event.app.empty()) return {event.app};
  return {};
}

}  // namespace

std::string postmortem_id(const policy::FleetEvent& event,
                          std::uint64_t seq) {
  std::string subject =
      event.kind == policy::EventKind::kCorrelatedFailure ? event.group
                                                          : event.app;
  if (subject.empty()) subject = "fleet";
  std::replace(subject.begin(), subject.end(), '/', '_');
  char head[32];
  std::snprintf(head, sizeof(head), "pm-%03" PRIu64 "-", seq);
  return head + std::string(policy::to_string(event.kind)) + "-" + subject;
}

PostmortemSink::PostmortemSink(std::shared_ptr<FlightRecorder> recorder,
                               PostmortemOptions opts)
    : recorder_(std::move(recorder)), opts_(std::move(opts)) {
  if (!recorder_)
    throw std::invalid_argument("PostmortemSink: recorder is required");
  if (opts_.dir.empty())
    throw std::invalid_argument("PostmortemSink: options.dir is required");
}

bool PostmortemSink::should_trigger(const policy::FleetEvent& event) {
  switch (event.kind) {
    case policy::EventKind::kCorrelatedFailure:
    case policy::EventKind::kQuarantine:
      return true;
    case policy::EventKind::kTransition:
      return event.to_health == fault::Health::kDead;
    case policy::EventKind::kQuarantineLifted:
      return false;
  }
  return false;
}

void PostmortemSink::on_event(const policy::PolicyEngine& /*engine*/,
                              const policy::FleetEvent& event) {
  if (!enabled()) return;
  if (!should_trigger(event)) return;
  ++stats_.triggers;
  // Cooldown applies only once something was captured: the sentinel init
  // of last_capture_at_ns_ would make the subtraction wrap otherwise.
  if (stats_.captured > 0 &&
      event.at_ns - last_capture_at_ns_ < kPostmortemCooldownNs) {
    ++stats_.suppressed_cooldown;
    return;
  }
  if (stats_.captured >= kPostmortemMaxBundles) {
    ++stats_.suppressed_budget;
    return;
  }
  const std::uint64_t seq = stats_.captured + 1;
  const std::string id = postmortem_id(event, seq);
  const std::string bundle = render_bundle(event, seq);
  const std::string path = opts_.dir + "/" + id + ".json";
  if (!write_atomically(path, bundle)) {
    ++stats_.write_failures;
    return;
  }
  ++stats_.captured;
  last_capture_at_ns_ = event.at_ns;
  last_path_ = path;
}

std::string PostmortemSink::render_bundle(const policy::FleetEvent& event,
                                          std::uint64_t seq) const {
  // Key order is fixed and every value is an integer, bool, or
  // pre-rendered string — the bundle must be byte-identical across runs
  // and sanitizer tiers for deterministic sources (the seed-42 golden).
  // Notably: no floating-point fields (AppHealth::rate_bps stays out;
  // FMA contraction could flip a low bit between -O0 and -O2 builds).
  std::string out = "{";
  append_str(out, "schema", "hb.postmortem.v1");
  append_str(out, "id", postmortem_id(event, seq));
  append_u64(out, "seq", seq);
  append_str(out, "source", opts_.source);
  append_i64(out, "captured_at_ns", event.at_ns);
  if (opts_.live) {
    append_i64(out, "captured_wall_ns",
               std::chrono::duration_cast<std::chrono::nanoseconds>(
                   std::chrono::system_clock::now().time_since_epoch())
                   .count());
  }

  out += "\"trigger\":{";
  append_str(out, "kind", policy::to_string(event.kind));
  append_i64(out, "at_ns", event.at_ns);
  append_str(out, "app", event.app);
  append_str(out, "group", event.group);
  append_bool(out, "quarantined", event.quarantined);
  out += "\"apps\":[";
  for (std::size_t i = 0; i < event.apps.size(); ++i) {
    if (i) out += ',';
    out += '"';
    append_escaped(out, event.apps[i]);
    out += '"';
  }
  out += "],";
  append_str(out, "line", policy::to_line(event), /*comma=*/false);
  out += "},";

  // The triggering report: dispatch is running right now, so last_report()
  // is the sweep that emitted this event.
  const std::shared_ptr<const fault::FleetReport> report =
      recorder_->last_report();
  out += "\"report\":";
  if (!report) {
    out += "null,";
  } else {
    out += '{';
    append_u64(out, "snapshot_epoch", report->snapshot_epoch);
    append_i64(out, "swept_at_ns", report->fleet.swept_at_ns);
    out += "\"fleet\":";
    append_fleet(out, report->fleet);
    out += ",\"implicated\":[";
    bool first = true;
    for (const std::string& name : implicated_names(event)) {
      const fault::AppHealth* found = nullptr;
      for (const auto& a : report->apps) {
        if (a.name == name) {
          found = &a;
          break;
        }
      }
      if (!first) out += ',';
      first = false;
      out += '{';
      append_str(out, "app", name);
      if (found) {
        append_str(out, "health", fault::to_string(found->health));
        append_i64(out, "staleness_ms",
                   found->staleness_ns / util::kNsPerMs);
        append_u64(out, "total_beats", found->total_beats, /*comma=*/false);
      } else {
        append_str(out, "health", "unknown", /*comma=*/false);
      }
      out += '}';
    }
    out += "]},";
  }

  // The history: every retained frame inside the lookback window, plus the
  // edges of the trigger's own sweep that have not been framed yet.
  const auto frames = recorder_->timeline(event.at_ns - kPostmortemLookbackNs);
  out += "\"timeline\":";
  out += render_timeline_json(frames);
  // render_timeline_json ends with "\n]\n" — keep the bundle one line per
  // section, not pretty-printed; trim the trailing newline only.
  while (!out.empty() && out.back() == '\n') out.pop_back();
  out += ",\"pending_events\":[";
  const auto pending = recorder_->pending_events();
  for (std::size_t i = 0; i < pending.size(); ++i) {
    if (i) out += ',';
    out += '"';
    append_escaped(out, policy::to_line(pending[i]));
    out += '"';
  }
  out += "],";

  out += "\"spans\":{";
  append_bool(out, "captured", opts_.live);
  if (opts_.live) {
    std::uint64_t skipped = 0;
    std::vector<SpanRecord> spans = TraceRing::global().snapshot(&skipped);
    if (spans.size() > kPostmortemMaxSpans) {
      spans.erase(spans.begin(), spans.end() - static_cast<std::ptrdiff_t>(
                                                   kPostmortemMaxSpans));
    }
    append_u64(out, "count", spans.size());
    append_u64(out, "skipped", skipped);
    out += "\"entries\":[";
    for (std::size_t i = 0; i < spans.size(); ++i) {
      const SpanRecord& s = spans[i];
      if (i) out += ',';
      out += '{';
      append_str(out, "name", s.name ? s.name : "?");
      append_i64(out, "start_ns", s.start_ns);
      append_i64(out, "end_ns", s.end_ns);
      append_u64(out, "tid", s.tid);
      append_u64(out, "arg", s.arg, /*comma=*/false);
      out += '}';
    }
    out += ']';
  } else {
    append_u64(out, "count", 0);
    append_u64(out, "skipped", 0);
    out += "\"entries\":[]";
  }
  out += "},";

  out += "\"metrics\":";
  if (opts_.live) {
    const MetricsSnapshot snap = MetricsRegistry::global().snapshot();
    out += '{';
    append_u64(out, "epoch", snap.epoch);
    append_i64(out, "taken_at_ns", snap.taken_at_ns);
    append_i64(out, "taken_at_wall_ns", snap.taken_at_wall_ns);
    out += "\"counters\":{";
    bool first = true;
    for (const auto& m : snap.metrics) {
      if (m.kind != MetricValue::Kind::kCounter) continue;
      if (!first) out += ',';
      first = false;
      out += '"';
      append_escaped(out, m.name);
      out += "\":";
      char buf[32];
      std::snprintf(buf, sizeof(buf), "%" PRIu64, m.count);
      out += buf;
    }
    out += "}},";
  } else {
    out += "null,";
  }

  const FlightRecorderStats rs = recorder_->stats();
  out += "\"recorder\":{";
  append_u64(out, "frames_cut", rs.frames_cut);
  append_u64(out, "frames_dropped", rs.frames_dropped);
  append_u64(out, "fine_frames", rs.fine_frames);
  append_u64(out, "coarse_frames", rs.coarse_frames);
  append_u64(out, "reports_recorded", rs.reports_recorded);
  append_u64(out, "events_recorded", rs.events_recorded);
  append_u64(out, "publishes_noted", rs.publishes_noted, /*comma=*/false);
  out += "}}\n";
  return out;
}

bool PostmortemSink::write_atomically(const std::string& path,
                                      const std::string& contents) const {
  std::error_code ec;
  fs::create_directories(opts_.dir, ec);  // ok if it already exists
  // Temp file in the SAME directory so the rename cannot cross devices;
  // rename is atomic on POSIX — a concurrent reader sees the whole bundle
  // or no bundle, never a prefix.
  const std::string tmp = path + ".tmp";
  {
    std::ofstream f(tmp, std::ios::binary | std::ios::trunc);
    if (!f.good()) return false;
    f << contents;
    f.flush();
    if (!f.good()) return false;
  }
  fs::rename(tmp, path, ec);
  if (ec) {
    fs::remove(tmp, ec);
    return false;
  }
  return true;
}

}  // namespace hb::obs
