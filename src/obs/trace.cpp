#include "obs/trace.hpp"

#include <algorithm>

#include "util/clock.hpp"
#include "util/thread_id.hpp"

namespace hb::obs {

TraceRing::TraceRing(std::size_t capacity)
    : slots_(std::max<std::size_t>(capacity, 16)),
      ring_(&head_, slots_.data(), slots_.size()) {}

TraceRing& TraceRing::global() {
  // Leaked on purpose: spans may close during static destruction.
  static TraceRing* ring = new TraceRing();
  return *ring;
}

void TraceRing::record(const SpanRecord& rec) {
  ring_.push([&rec](std::uint64_t) { return rec; });
}

std::vector<SpanRecord> TraceRing::snapshot(std::uint64_t* skipped) const {
  return ring_.last(ring_.capacity(), skipped);
}

void TraceRing::export_chrome_json(std::FILE* out) const {
  // Chrome trace-event format, object form: complete ("X") events with
  // microsecond timestamps under "traceEvents", plus an "otherData"
  // honesty footer. One synthetic pid; tids are the real kernel tids so
  // spans line up with external profilers. Slots a concurrent writer was
  // overwriting are skipped and counted (otherData.skipped) — the export
  // never emits a torn span.
  std::uint64_t skipped = 0;
  std::vector<SpanRecord> spans = snapshot(&skipped);
  std::sort(spans.begin(), spans.end(),
            [](const SpanRecord& a, const SpanRecord& b) {
              return a.start_ns < b.start_ns;
            });
  std::fputs("{\"traceEvents\":[\n", out);
  bool first = true;
  std::uint64_t exported = 0;
  for (const SpanRecord& s : spans) {
    if (!s.name) continue;
    const double ts_us = static_cast<double>(s.start_ns) / 1e3;
    const util::TimeNs dur_ns = s.end_ns > s.start_ns ? s.end_ns - s.start_ns : 0;
    const double dur_us = static_cast<double>(dur_ns) / 1e3;
    std::fprintf(out,
                 "%s{\"name\":\"%s\",\"ph\":\"X\",\"pid\":1,\"tid\":%u,"
                 "\"ts\":%.3f,\"dur\":%.3f,\"args\":{\"arg\":%llu}}",
                 first ? "" : ",\n", s.name, s.tid, ts_us, dur_us,
                 static_cast<unsigned long long>(s.arg));
    first = false;
    ++exported;
  }
  std::fprintf(out,
               "\n],\"otherData\":{\"recorded\":%llu,\"exported\":%llu,"
               "\"skipped\":%llu}}\n",
               static_cast<unsigned long long>(recorded()),
               static_cast<unsigned long long>(exported),
               static_cast<unsigned long long>(skipped));
}

void ObsSpan::finish() {
  if (!name_) return;
  SpanRecord rec;
  rec.name = name_;
  rec.start_ns = start_ns_;
  rec.end_ns = now_ns();
  rec.tid = util::current_thread_id();
  rec.arg = arg_;
  name_ = nullptr;
  if (hist_) {
    hist_->record(rec.end_ns > rec.start_ns
                      ? static_cast<std::uint64_t>(rec.end_ns - rec.start_ns)
                      : 0);
  }
  TraceRing::global().record(rec);
}

util::TimeNs ObsSpan::now_ns() {
  return util::MonotonicClock::instance()->now();
}

}  // namespace hb::obs
