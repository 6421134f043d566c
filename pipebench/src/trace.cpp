#include "trace.hpp"

#include <algorithm>

namespace pipebench {

bool write_chrome_trace(const std::string& path, const std::vector<Span>& spans,
                        std::int64_t base_ns, const std::string& other) {
  std::FILE* out = std::fopen(path.c_str(), "w");
  if (!out) return false;
  std::vector<const Span*> order;
  order.reserve(spans.size());
  for (const Span& s : spans) order.push_back(&s);
  std::sort(order.begin(), order.end(), [](const Span* a, const Span* b) {
    return a->start_ns < b->start_ns;
  });
  std::fputs("{\"traceEvents\":[\n", out);
  bool first = true;
  for (const Span* s : order) {
    const double ts_us = static_cast<double>(s->start_ns - base_ns) / 1e3;
    const double dur_us =
        static_cast<double>(s->end_ns > s->start_ns ? s->end_ns - s->start_ns : 0) / 1e3;
    std::fprintf(out,
                 "%s{\"name\":\"%s\",\"ph\":\"X\",\"pid\":%u,\"tid\":%u,"
                 "\"ts\":%.3f,\"dur\":%.3f,\"args\":{\"id\":%u,\"parent\":%u,"
                 "\"arg\":%llu}}",
                 first ? "" : ",\n", s->name, s->pid, s->tid, ts_us, dur_us,
                 s->id, s->parent, static_cast<unsigned long long>(s->arg));
    first = false;
  }
  std::fprintf(out, "\n],\"otherData\":%s}\n", other.empty() ? "{}" : other.c_str());
  const bool ok = std::ferror(out) == 0;
  return std::fclose(out) == 0 && ok;
}

double calibrate_span_cost_ns() {
  constexpr int kIters = 200000;
  SpanLog log(0, 0, kIters);
  const std::int64_t t0 = mono_ns();
  for (int i = 0; i < kIters; ++i) {
    const std::int64_t a = mono_ns();
    log.add("calibrate", a, mono_ns());
  }
  const std::int64_t t1 = mono_ns();
  return static_cast<double>(t1 - t0) / kIters;
}

}  // namespace pipebench
