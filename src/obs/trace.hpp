// TraceRing + ObsSpan: stage tracing for the heartbeat pipeline.
//
// Counters say HOW MUCH; spans say WHEN and HOW LONG. Every coarse stage
// of the pipeline (pump poll, shard publish, fleet snapshot composition,
// detector sweep, policy observe/dispatch) opens an RAII ObsSpan; closed
// spans land in a fixed-size process-wide ring of SpanRecords that
// `hbmon trace` exports as Chrome trace-event JSON (load it in
// chrome://tracing or https://ui.perfetto.dev).
//
// The ring is util::SeqlockRing, the record ring of the `.hb` segments,
// over process-local slots: a concurrent writer can never hand a reader a
// torn record — the same "performance-metric machine never corrupts the
// correctness machine" split as the metrics registry. Old spans are
// overwritten once the ring laps: tracing keeps the freshest window, it
// never backpressures the pipeline.
//
// Span names must be string literals (the ring stores the pointer, not
// the bytes). Runtime-gated by obs::enabled(): a disabled plane records
// nothing.
#pragma once

#include <atomic>
#include <cstdint>
#include <cstdio>
#include <memory>
#include <vector>

#include "obs/metrics.hpp"
#include "util/seqlock_ring.hpp"
#include "util/time.hpp"

namespace hb::obs {

/// One closed span. `name` must point at a string literal.
struct SpanRecord {
  const char* name = nullptr;
  util::TimeNs start_ns = 0;  ///< monotonic clock
  util::TimeNs end_ns = 0;
  std::uint32_t tid = 0;  ///< util::current_thread_id of the recording thread
  std::uint64_t arg = 0;  ///< stage-specific payload (records drained, ...)
};

class TraceRing {
 public:
  /// `capacity` is clamped to >= 16.
  explicit TraceRing(std::size_t capacity = kDefaultCapacity);

  TraceRing(const TraceRing&) = delete;
  TraceRing& operator=(const TraceRing&) = delete;

  /// The process-wide ring every ObsSpan records into (never destroyed).
  static TraceRing& global();

  /// Record one closed span: one fetch_add + a seqlock slot write.
  /// Wait-free, thread-safe, lossy once lapped.
  void record(const SpanRecord& rec);

  /// Copy out every committed span, oldest first. Safe concurrent with
  /// writers: slots overwritten mid-copy are skipped, never torn. When
  /// `skipped` is non-null it receives the number of in-window slots the
  /// copy had to skip (in-flight writes or re-check mismatches) — the
  /// honesty counter export footers surface so a lossy window is visible
  /// instead of silently smaller.
  std::vector<SpanRecord> snapshot(std::uint64_t* skipped = nullptr) const;

  /// Spans ever recorded (monotone; may exceed capacity).
  std::uint64_t recorded() const { return ring_.count(); }

  std::size_t capacity() const { return slots_.size(); }

  /// Chrome trace-event JSON ("X" complete events, one pid, tids kept) in
  /// the object form both chrome://tracing and Perfetto load:
  ///   {"traceEvents":[...],"otherData":{recorded,exported,skipped}}
  /// `otherData.skipped` counts slots a concurrent writer tore out from
  /// under the export — those spans are omitted, never emitted corrupt.
  void export_chrome_json(std::FILE* out) const;

  static constexpr std::size_t kDefaultCapacity = 8192;

 private:
  struct Slot {
    /// 0 = empty/being written, seq + 1 = committed record with ring seq.
    std::atomic<std::uint64_t> commit{0};
    SpanRecord rec;
  };

  std::atomic<std::uint64_t> head_{0};
  std::vector<Slot> slots_;
  util::SeqlockRing<Slot> ring_;  ///< over head_ and slots_
};

/// RAII stage span: stamps start on construction, records into
/// TraceRing::global() on destruction (or finish()). Optionally mirrors
/// its duration into a Histogram metric so one clock read pair serves
/// both the trace and the latency distribution.
class ObsSpan {
 public:
  explicit ObsSpan(const char* name, std::uint64_t arg = 0,
                   Histogram* duration_hist = nullptr) {
    if (!enabled()) return;
    name_ = name;
    arg_ = arg;
    hist_ = duration_hist;
    start_ns_ = now_ns();
  }

  ObsSpan(const ObsSpan&) = delete;
  ObsSpan& operator=(const ObsSpan&) = delete;

  ~ObsSpan() { finish(); }

  /// Update the stage payload (e.g. records drained) before the span closes.
  void set_arg(std::uint64_t arg) { arg_ = arg; }

  /// Close and record the span now (idempotent).
  void finish();

 private:
  static util::TimeNs now_ns();

  const char* name_ = nullptr;  ///< null = disabled at construction / closed
  util::TimeNs start_ns_ = 0;
  std::uint64_t arg_ = 0;
  Histogram* hist_ = nullptr;
};

}  // namespace hb::obs
