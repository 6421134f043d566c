#include "obs/metrics.hpp"

#include <chrono>
#include <cstdlib>
#include <stdexcept>

#include "util/clock.hpp"

namespace hb::obs {

namespace detail {
std::atomic<bool> g_enabled{true};

namespace {
/// Apply the HB_OBS environment override once at static-init time. Any
/// value other than "0" leaves telemetry on (the default).
struct EnvInit {
  EnvInit() {
    if (const char* e = std::getenv("HB_OBS");
        e && e[0] == '0' && e[1] == '\0') {
      // relaxed: static-init time, before any instrumented thread exists.
      g_enabled.store(false, std::memory_order_relaxed);
    }
  }
} env_init;
}  // namespace
}  // namespace detail

void set_enabled(bool on) {
  // relaxed: kill switch only gates future writes; stragglers that read
  // the old value add one last harmless count, nothing is published.
  detail::g_enabled.store(on, std::memory_order_relaxed);
}

struct MetricsRegistry::Cell {
  MetricValue::Kind kind;
  Counter counter;
  Gauge gauge;
  Histogram histogram;

  explicit Cell(MetricValue::Kind k) : kind(k) {}
};

MetricsRegistry::MetricsRegistry() = default;
MetricsRegistry::~MetricsRegistry() = default;

MetricsRegistry& MetricsRegistry::global() {
  // Deliberately leaked: instrument sites (static destructors, atexit
  // flushes) may still add() while the runtime tears down.
  static MetricsRegistry* registry = new MetricsRegistry();
  return *registry;
}

MetricsRegistry::Cell& MetricsRegistry::cell(std::string_view name,
                                             MetricValue::Kind kind) {
  util::MutexLock lock(mu_);
  auto it = cells_.find(name);
  if (it == cells_.end()) {
    it = cells_.emplace(std::string(name), std::make_unique<Cell>(kind)).first;
  } else if (it->second->kind != kind) {
    throw std::logic_error("MetricsRegistry: metric \"" + std::string(name) +
                           "\" already registered with a different kind");
  }
  return *it->second;
}

Counter& MetricsRegistry::counter(std::string_view name) {
  return cell(name, MetricValue::Kind::kCounter).counter;
}

Gauge& MetricsRegistry::gauge(std::string_view name) {
  return cell(name, MetricValue::Kind::kGauge).gauge;
}

Histogram& MetricsRegistry::histogram(std::string_view name) {
  return cell(name, MetricValue::Kind::kHistogram).histogram;
}

MetricsSnapshot MetricsRegistry::snapshot() const {
  MetricsSnapshot snap;
  snap.taken_at_ns = util::MonotonicClock::instance()->now();
  snap.taken_at_wall_ns = static_cast<util::TimeNs>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::system_clock::now().time_since_epoch())
          .count());
  util::MutexLock lock(mu_);
  snap.epoch = ++snapshot_epoch_;
  snap.metrics.reserve(cells_.size());
  for (const auto& [name, cell] : cells_) {  // std::map: already sorted
    MetricValue v;
    v.name = name;
    v.kind = cell->kind;
    switch (cell->kind) {
      case MetricValue::Kind::kCounter:
        v.count = cell->counter.value();
        break;
      case MetricValue::Kind::kGauge:
        v.gauge = cell->gauge.value();
        break;
      case MetricValue::Kind::kHistogram: {
        const util::LatencyHistogram h = cell->histogram.read();
        v.count = h.count();
        v.min = h.min();
        v.max = h.max();
        v.mean = h.mean();
        v.p50 = h.percentile(50.0);
        v.p95 = h.percentile(95.0);
        v.p99 = h.percentile(99.0);
        break;
      }
    }
    snap.metrics.push_back(std::move(v));
  }
  return snap;
}

std::size_t MetricsRegistry::size() const {
  util::MutexLock lock(mu_);
  return cells_.size();
}

const MetricValue* MetricsSnapshot::find(std::string_view name) const {
  // metrics is sorted by name: binary search.
  std::size_t lo = 0, hi = metrics.size();
  while (lo < hi) {
    const std::size_t mid = lo + (hi - lo) / 2;
    if (metrics[mid].name < name) {
      lo = mid + 1;
    } else {
      hi = mid;
    }
  }
  if (lo < metrics.size() && metrics[lo].name == name) return &metrics[lo];
  return nullptr;
}

}  // namespace hb::obs
