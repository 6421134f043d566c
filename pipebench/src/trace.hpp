// The traced run's span recorder.
//
// Spans are recorded by the benchmark around its calls into each layer's
// public functions (the program itself is not instrumented for this). Each
// thread owns one SpanLog, so recording takes no lock: two clock reads and
// a vector append. Spans stay in memory and are written out once, at the
// end of the run, in the Chrome trace-event object form `hbmon trace`
// emits, so the same viewer opens both.
#pragma once

#include <cstdint>
#include <cstdio>
#include <string>
#include <vector>

#include "stats.hpp"

namespace pipebench {

struct Span {
  const char* name = nullptr;  ///< static string
  std::int64_t start_ns = 0;
  std::int64_t end_ns = 0;
  std::uint32_t id = 0;      ///< unique within its log; 0 = none
  std::uint32_t parent = 0;  ///< id of the enclosing span in the same log
  std::uint32_t tid = 0;     ///< display thread (1 pipeline, 2 probe, 10+ generator)
  std::uint32_t pid = 0;     ///< display process (1 monitor, 2 generator)
  std::uint64_t arg = 0;     ///< tick / poll number, or records for a poll
};

class SpanLog {
 public:
  SpanLog(std::uint32_t pid, std::uint32_t tid, std::size_t keep)
      : pid_(pid), tid_(tid), keep_(keep) {
    spans_.reserve(keep < 65536 ? keep : 65536);
  }

  /// Record a finished span; returns its id. Once `keep` spans are stored,
  /// further ones are counted (for the overhead estimate) but stored only
  /// when they belong to a parent (tick children always stay).
  std::uint32_t add(const char* name, std::int64_t start_ns, std::int64_t end_ns,
                    std::uint32_t parent = 0, std::uint64_t arg = 0) {
    ++recorded_;
    const std::uint32_t id = static_cast<std::uint32_t>(recorded_);
    if (parent != 0 || spans_.size() < keep_) {
      spans_.push_back({name, start_ns, end_ns, id, parent, tid_, pid_, arg});
    }
    return id;
  }
  /// Reserve an id for a parent span whose end is not known yet; finish it
  /// with close(). Parent spans are always stored.
  std::uint32_t open() { return static_cast<std::uint32_t>(++recorded_); }
  void close(std::uint32_t id, const char* name, std::int64_t start_ns,
             std::int64_t end_ns, std::uint64_t arg = 0) {
    spans_.push_back({name, start_ns, end_ns, id, 0, tid_, pid_, arg});
  }

  const std::vector<Span>& spans() const { return spans_; }
  std::uint64_t recorded() const { return recorded_; }

 private:
  std::uint32_t pid_;
  std::uint32_t tid_;
  std::size_t keep_;
  std::uint64_t recorded_ = 0;
  std::vector<Span> spans_;
};

/// Write spans as a Chrome trace JSON object ("traceEvents" of complete
/// "X" events, microsecond stamps relative to `base_ns`), with `other` as
/// the raw JSON body of "otherData". Returns false when the file cannot be
/// written.
bool write_chrome_trace(const std::string& path, const std::vector<Span>& spans,
                        std::int64_t base_ns, const std::string& other);

/// Cost of recording one span (two clock reads + append), measured by a
/// calibration loop: the traced run's overhead estimate multiplies it by
/// the spans it recorded.
double calibrate_span_cost_ns();

}  // namespace pipebench
