#include "obs/flight_recorder.hpp"

#include <algorithm>
#include <cinttypes>
#include <cstdio>
#include <utility>

namespace hb::obs {

namespace {

/// The recorder's event_sink() adapter. Borrows the recorder (the
/// registering caller owns both and the engine outlives neither).
class RecorderSink : public policy::ActionSink {
 public:
  explicit RecorderSink(FlightRecorder* recorder) : recorder_(recorder) {}

  void on_event(const policy::PolicyEngine& /*engine*/,
                const policy::FleetEvent& event) override {
    recorder_->record_event(event);
  }

 private:
  FlightRecorder* recorder_;
};

}  // namespace

void FlightRecorder::note_publish() {
  if (!enabled()) return;
  // relaxed: independent publish-tick telemetry; frames copy whatever
  // count is current at cut time, and a skew of one tick is harmless (the
  // frame's authoritative stamp is the sweep's).
  publishes_.fetch_add(1, std::memory_order_relaxed);
}

void FlightRecorder::record_report(
    std::shared_ptr<const fault::FleetReport> report) {
  if (!enabled() || !report) return;
  util::MutexLock lock(mu_);
  ++reports_recorded_;
  const bool first = last_report_ == nullptr && fine_.empty();
  last_report_ = std::move(report);
  const util::TimeNs at = last_report_->fleet.swept_at_ns;
  const util::TimeNs last_cut =
      fine_.empty() ? std::numeric_limits<util::TimeNs>::min()
                    : fine_.back()->at_ns;
  // Cut when events are waiting (edges are never subsampled away), on the
  // very first sweep, or once the fine interval elapsed since the last cut.
  if (pending_.empty() && !first && at - last_cut < kFineIntervalNs)
    return;
  cut_frame_locked(*last_report_);
}

void FlightRecorder::record_event(const policy::FleetEvent& event) {
  if (!enabled()) return;
  util::MutexLock lock(mu_);
  ++events_recorded_;
  pending_.push_back(event);
}

std::shared_ptr<policy::ActionSink> FlightRecorder::event_sink() {
  return std::make_shared<RecorderSink>(this);
}

void FlightRecorder::cut_frame_locked(const fault::FleetReport& report) {
  auto frame = std::make_shared<TimelineFrame>();
  frame->seq = frames_cut_++;
  frame->at_ns = report.fleet.swept_at_ns;
  frame->snapshot_epoch = report.snapshot_epoch;
  // relaxed: see note_publish.
  frame->publishes = publishes_.load(std::memory_order_relaxed);
  frame->fleet = report.fleet;
  frame->events = std::move(pending_);
  pending_.clear();
  fine_.push_back(std::move(frame));
  retire_locked();
}

void FlightRecorder::retire_locked() {
  const util::TimeNs horizon = fine_.back()->at_ns - kFineWindowNs;
  while (fine_.size() > 1 && fine_.front()->at_ns < horizon) {
    auto old = std::move(fine_.front());
    fine_.pop_front();
    // Demote onto the coarse grid; off-grid frames drop. Event-carrying
    // frames always demote — the edges are what postmortems come back for.
    const bool on_grid =
        coarse_.empty() ||
        old->at_ns - coarse_.back()->at_ns >= kCoarseIntervalNs;
    if (on_grid || !old->events.empty()) {
      coarse_.push_back(std::move(old));
    } else {
      ++frames_dropped_;
    }
  }
  while (coarse_.size() > kMaxCoarseFrames) {
    coarse_.pop_front();
    ++frames_dropped_;
  }
}

std::vector<std::shared_ptr<const TimelineFrame>> FlightRecorder::timeline(
    util::TimeNs since_ns, util::TimeNs until_ns) const {
  util::MutexLock lock(mu_);
  std::vector<std::shared_ptr<const TimelineFrame>> out;
  out.reserve(coarse_.size() + fine_.size());
  for (const auto& f : coarse_) {
    if (f->at_ns >= since_ns && f->at_ns <= until_ns) out.push_back(f);
  }
  for (const auto& f : fine_) {
    if (f->at_ns >= since_ns && f->at_ns <= until_ns) out.push_back(f);
  }
  return out;
}

std::shared_ptr<const fault::FleetReport> FlightRecorder::last_report() const {
  util::MutexLock lock(mu_);
  return last_report_;
}

std::vector<policy::FleetEvent> FlightRecorder::pending_events() const {
  util::MutexLock lock(mu_);
  return pending_;
}

FlightRecorderStats FlightRecorder::stats() const {
  util::MutexLock lock(mu_);
  FlightRecorderStats s;
  s.frames_cut = frames_cut_;
  s.frames_dropped = frames_dropped_;
  s.fine_frames = fine_.size();
  s.coarse_frames = coarse_.size();
  s.reports_recorded = reports_recorded_;
  s.events_recorded = events_recorded_;
  // relaxed: see note_publish.
  s.publishes_noted = publishes_.load(std::memory_order_relaxed);
  return s;
}

std::string render_timeline_text(
    const std::vector<std::shared_ptr<const TimelineFrame>>& frames,
    util::TimeNs base_ns) {
  std::string out;
  char buf[256];
  for (const auto& f : frames) {
    if (!f) continue;
    std::snprintf(
        buf, sizeof(buf),
        "[%.3fs] frame %" PRIu64 " epoch=%" PRIu64 " publishes=%" PRIu64
        " apps=%" PRIu64 " healthy=%" PRIu64 " warming=%" PRIu64
        " slow=%" PRIu64 " erratic=%" PRIu64 " dead=%" PRIu64
        " events=%zu\n",
        util::to_seconds(f->at_ns - base_ns), f->seq, f->snapshot_epoch,
        f->publishes, f->fleet.apps, f->fleet.healthy, f->fleet.warming_up,
        f->fleet.slow, f->fleet.erratic, f->fleet.dead, f->events.size());
    out += buf;
    for (const auto& e : f->events) {
      out += "  ";
      out += policy::to_line(e, base_ns);
      out += '\n';
    }
  }
  return out;
}

std::string render_timeline_json(
    const std::vector<std::shared_ptr<const TimelineFrame>>& frames,
    util::TimeNs base_ns) {
  // Hand-rolled like the rest of the tree (bench_json, chrome export):
  // integers and pre-rendered event-line strings only, so the output is
  // byte-stable across platforms and sanitizer tiers.
  std::string out = "[\n";
  char buf[256];
  bool first_frame = true;
  for (const auto& f : frames) {
    if (!f) continue;
    if (!first_frame) out += ",\n";
    first_frame = false;
    std::snprintf(
        buf, sizeof(buf),
        "{\"seq\":%" PRIu64 ",\"at_ns\":%" PRId64 ",\"snapshot_epoch\":%" PRIu64
        ",\"publishes\":%" PRIu64 ",\"fleet\":{\"apps\":%" PRIu64
        ",\"healthy\":%" PRIu64 ",\"warming_up\":%" PRIu64 ",\"slow\":%" PRIu64
        ",\"erratic\":%" PRIu64 ",\"dead\":%" PRIu64 ",\"evicted\":%" PRIu64
        "},\"events\":[",
        f->seq, static_cast<std::int64_t>(f->at_ns - base_ns),
        f->snapshot_epoch, f->publishes, f->fleet.apps, f->fleet.healthy,
        f->fleet.warming_up, f->fleet.slow, f->fleet.erratic, f->fleet.dead,
        f->fleet.evicted);
    out += buf;
    bool first_event = true;
    for (const auto& e : f->events) {
      if (!first_event) out += ',';
      first_event = false;
      out += '"';
      append_json_escaped(out, policy::to_line(e, base_ns));
      out += '"';
    }
    out += "]}";
  }
  out += "\n]\n";
  return out;
}

void append_json_escaped(std::string& out, std::string_view s) {
  char buf[8];
  for (std::size_t i = 0; i < s.size();) {
    const auto byte = static_cast<unsigned char>(s[i]);
    const std::size_t n = utf8_sequence_length(s.substr(i));
    if (n > 1) {
      out.append(s, i, n);
      i += n;
      continue;
    }
    ++i;
    switch (byte) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\t': out += "\\t"; break;
      default:
        if (byte < 0x20 || n == 0) {
          std::snprintf(buf, sizeof(buf), "\\u%04x", byte);
          out += buf;
        } else {
          out += static_cast<char>(byte);
        }
    }
  }
}

std::size_t utf8_sequence_length(std::string_view s) {
  const auto at = [&](std::size_t i) -> unsigned {
    return i < s.size() ? static_cast<unsigned char>(s[i]) : 0;
  };
  const unsigned lead = at(0);
  if (!s.empty() && lead < 0x80) return 1;
  // The lead byte fixes the length and the second byte's range, which
  // rules out overlong forms, surrogates and code points past U+10FFFF.
  const std::size_t n = lead < 0xC2 ? 0 : lead < 0xE0 ? 2 : lead < 0xF0 ? 3
                        : lead < 0xF5 ? 4 : 0;
  const unsigned lo = lead == 0xE0 ? 0xA0 : lead == 0xF0 ? 0x90 : 0x80;
  const unsigned hi = lead == 0xED ? 0x9F : lead == 0xF4 ? 0x8F : 0xBF;
  if (n == 0 || at(1) < lo || at(1) > hi) return 0;
  for (std::size_t i = 2; i < n; ++i) {
    if (at(i) < 0x80 || at(i) > 0xBF) return 0;
  }
  return n;
}

}  // namespace hb::obs
