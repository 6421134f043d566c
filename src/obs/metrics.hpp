// MetricsRegistry: the process-wide self-telemetry plane.
//
// The paper's thesis is that applications should expose their own progress
// as heartbeats so an external observer can act on them — yet until this
// layer existed the hub, ingest ring, pump, detector, and policy engine
// were themselves opaque: their health lived in ad-hoc per-instance stats
// structs each reader had to know about and poll separately. The registry
// is the one place every pipeline stage publishes its counters, gauges,
// and latency histograms, and the one place hbmon (and the hub's own
// self-heartbeat) reads them back.
//
// Design, following the massively-parallel aggregate-then-compose shape
// (PAPERS.md) and the PR 5 snapshot-plane idiom:
//
//   * The WRITE side is wait-free and thread-sharded: Counter::add is one
//     relaxed fetch_add on a cache-line-padded per-thread-group slot (no
//     mutex, no contention between producer threads on different slots).
//   * The READ side composes: MetricsRegistry::snapshot() sums every
//     counter's slots and summarizes every histogram into one immutable,
//     epoch-stamped MetricsSnapshot — cheap local aggregation on the hot
//     path, periodic global composition on the read path.
//   * Instrument sites cache cell pointers once (registration takes the
//     registry mutex; the hot path never does).
//
// Off switch: obs::set_enabled(false) (or env HB_OBS=0) freezes every
// cell at run time — one relaxed load per instrument site
// (bench/obs_overhead measures that cost against the enabled plane).
#pragma once

#include <array>
#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "util/histogram.hpp"
#include "util/mutex.hpp"
#include "util/thread_annotations.hpp"
#include "util/thread_id.hpp"
#include "util/time.hpp"

namespace hb::obs {

namespace detail {
/// Master runtime switch; constant-initialized ON, overridden once from
/// env HB_OBS at static-init time (metrics.cpp), and by set_enabled().
extern std::atomic<bool> g_enabled;
}  // namespace detail

/// Runtime master switch: when false, every Counter/Gauge/Histogram write
/// and every ObsSpan is skipped (one relaxed load on the hot path).
inline bool enabled() {
  // relaxed: hot-path gate; see set_enabled (a stale read is harmless).
  return detail::g_enabled.load(std::memory_order_relaxed);
}
void set_enabled(bool on);

/// Monotone process-wide event counter. Writes are wait-free: one relaxed
/// fetch_add on the calling thread's slot (threads map onto kSlots padded
/// cache lines by dense thread index, so concurrent producers rarely
/// share a line). value() sums the slots — reads may be concurrent with
/// writes and observe any valid intermediate total (monotone per slot).
class Counter {
 public:
  static constexpr std::size_t kSlots = 16;  // power of two

  void add(std::uint64_t n = 1) {
    if (!enabled()) return;
    // relaxed: per-slot monotone count; value() tolerates any interleaving.
    slots_[util::current_thread_index() & (kSlots - 1)].v.fetch_add(
        n, std::memory_order_relaxed);
  }

  std::uint64_t value() const {
    std::uint64_t sum = 0;
    // relaxed: statistical read; each slot is monotone, skew is bounded.
    for (const Slot& s : slots_) sum += s.v.load(std::memory_order_relaxed);
    return sum;
  }

 private:
  struct alignas(64) Slot {
    std::atomic<std::uint64_t> v{0};
  };
  std::array<Slot, kSlots> slots_{};
};

/// Last-writer-wins signed level (queue depths, registered-app counts).
class Gauge {
 public:
  void set(std::int64_t v) {
    if (!enabled()) return;
    // relaxed: last-writer-wins level; readers need no ordering with it.
    v_.store(v, std::memory_order_relaxed);
  }

  void add(std::int64_t d) {
    if (!enabled()) return;
    // relaxed: commutative delta on an isolated level; no data published.
    v_.fetch_add(d, std::memory_order_relaxed);
  }

  std::int64_t value() const {
    // relaxed: statistical read of an isolated level.
    return v_.load(std::memory_order_relaxed);
  }

 private:
  std::atomic<std::int64_t> v_{0};
};

/// Latency distribution (log-bucket util::LatencyHistogram under a short
/// mutex). record() is meant for publish/sweep-grade paths — once per
/// batch or per sweep, not once per beat; the per-beat paths use Counters.
class Histogram {
 public:
  void record(std::uint64_t v) {
    if (!enabled()) return;
    util::MutexLock lock(mu_);
    hist_.record(v);
  }

  /// Coherent copy of the distribution (one lock, one struct copy).
  util::LatencyHistogram read() const {
    util::MutexLock lock(mu_);
    return hist_;
  }

 private:
  mutable util::Mutex mu_;
  util::LatencyHistogram hist_ HB_GUARDED_BY(mu_);
};

/// One metric's composed value inside a MetricsSnapshot.
struct MetricValue {
  enum class Kind { kCounter, kGauge, kHistogram };

  std::string name;
  Kind kind = Kind::kCounter;
  std::uint64_t count = 0;  ///< counter total / histogram sample count
  std::int64_t gauge = 0;   ///< gauge level (kGauge only)
  // Histogram summary (kHistogram only), nanoseconds by convention.
  std::uint64_t min = 0, max = 0, p50 = 0, p95 = 0, p99 = 0;
  double mean = 0.0;
};

/// Immutable composed view of every registered metric, sorted by name —
/// the PR 5 epoch idiom applied to telemetry: writers keep appending to
/// their sharded slots while readers hold a stable, coherent-enough copy
/// (each metric is internally consistent; cross-metric skew is bounded by
/// the composition walk).
struct MetricsSnapshot {
  /// Composition sequence number of the owning registry (monotone).
  std::uint64_t epoch = 0;
  util::TimeNs taken_at_ns = 0;  ///< monotonic-clock stamp of the compose
  /// Wall-clock stamp of the compose (Unix epoch, ns). The monotonic
  /// stamp orders snapshots within one process run; this one makes
  /// exported records orderable OFFLINE, across processes and restarts
  /// (hbmon metrics --json / --metrics footers print it).
  util::TimeNs taken_at_wall_ns = 0;
  std::vector<MetricValue> metrics;  ///< ascending by name

  /// The metric named `name`, or nullptr. O(log n).
  const MetricValue* find(std::string_view name) const;
};

/// Named metric registry. Thread-safe: registration and snapshot take one
/// mutex; returned cell references are stable for the registry's lifetime,
/// so call sites resolve once and write lock-free ever after. Metric
/// names are dot-separated lowercase, prefixed "hb.<subsystem>."
/// (docs/ARCHITECTURE.md "The telemetry plane" lists them all).
class MetricsRegistry {
 public:
  MetricsRegistry();   // out of line: Cell is incomplete here
  ~MetricsRegistry();
  MetricsRegistry(const MetricsRegistry&) = delete;
  MetricsRegistry& operator=(const MetricsRegistry&) = delete;

  /// The process-wide registry every built-in pipeline stage publishes
  /// into (never destroyed — instrument sites may fire during shutdown).
  static MetricsRegistry& global();

  /// Get-or-create. Re-requesting a name returns the same cell; requesting
  /// an existing name as a different kind throws std::logic_error.
  Counter& counter(std::string_view name) HB_EXCLUDES(mu_);
  Gauge& gauge(std::string_view name) HB_EXCLUDES(mu_);
  Histogram& histogram(std::string_view name) HB_EXCLUDES(mu_);

  /// Compose every metric into one immutable snapshot (sorted by name).
  MetricsSnapshot snapshot() const HB_EXCLUDES(mu_);

  /// Registered metric count (tests).
  std::size_t size() const HB_EXCLUDES(mu_);

 private:
  struct Cell;
  Cell& cell(std::string_view name, MetricValue::Kind kind) HB_EXCLUDES(mu_);

  mutable util::Mutex mu_;
  /// std::map: stable addresses + already name-sorted for snapshot().
  std::map<std::string, std::unique_ptr<Cell>, std::less<>> cells_
      HB_GUARDED_BY(mu_);
  mutable std::uint64_t snapshot_epoch_ HB_GUARDED_BY(mu_) = 0;
};

}  // namespace hb::obs
