#include "obs/trace.hpp"

#include <algorithm>
#include <bit>

#include "util/clock.hpp"
#include "util/thread_id.hpp"
#include "util/tsan.hpp"

namespace hb::obs {

TraceRing::TraceRing(std::size_t capacity) {
  capacity = std::max<std::size_t>(capacity, 16);
  slots_ = std::vector<Slot>(std::bit_ceil(capacity));
}

TraceRing& TraceRing::global() {
  // Leaked on purpose: spans may close during static destruction.
  static TraceRing* ring = new TraceRing();
  return *ring;
}

void TraceRing::record(const SpanRecord& rec) {
  const std::uint64_t seq = head_.fetch_add(1, std::memory_order_acq_rel);
  Slot& slot = slots_[seq & (slots_.size() - 1)];
  // Seqlock write, same order as the shm ingest ring: invalidate, payload,
  // publish — a concurrent snapshot() re-checks commit after its copy and
  // discards anything we were mid-overwrite on.
  slot.commit.store(0, std::memory_order_release);
  std::atomic_thread_fence(std::memory_order_release);
  util::tsan_relaxed_copy(slot.rec, rec);
  slot.commit.store(seq + 1, std::memory_order_release);
}

std::vector<SpanRecord> TraceRing::snapshot(std::uint64_t* skipped) const {
  const std::uint64_t cap = slots_.size();
  const std::uint64_t head = head_.load(std::memory_order_acquire);
  const std::uint64_t first = head > cap ? head - cap : 0;
  std::uint64_t skips = 0;
  std::vector<SpanRecord> out;
  out.reserve(static_cast<std::size_t>(head - first));
  for (std::uint64_t seq = first; seq < head; ++seq) {
    const Slot& slot = slots_[seq & (cap - 1)];
    const std::uint64_t c1 = slot.commit.load(std::memory_order_acquire);
    if (c1 != seq + 1) {  // in flight, or a concurrent writer lapped it
      ++skips;
      continue;
    }
    SpanRecord rec;
    util::tsan_relaxed_copy(rec, slot.rec);
    std::atomic_thread_fence(std::memory_order_acquire);
    // relaxed: the fence above orders the copy before this re-check.
    if (slot.commit.load(std::memory_order_relaxed) != c1) {
      ++skips;  // torn out from under the copy — dropped, never emitted
      continue;
    }
    out.push_back(rec);
  }
  if (skipped) *skipped = skips;
  return out;
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
