#include "generator.hpp"

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <limits>
#include <memory>
#include <new>
#include <stdexcept>
#include <thread>
#include <vector>

#include <sys/mman.h>
#include <sys/prctl.h>

#include "core/heartbeat.hpp"
#include "transport/shm_ingest.hpp"

namespace pipebench {

Control* map_control() {
  void* p = mmap(nullptr, sizeof(Control), PROT_READ | PROT_WRITE,
                 MAP_SHARED | MAP_ANONYMOUS, -1, 0);
  if (p == MAP_FAILED) throw std::runtime_error("mmap of the control page failed");
  return new (p) Control();
}

void unmap_control(Control* c) {
  if (!c) return;
  c->~Control();
  munmap(c, sizeof(Control));
}

namespace {

using Beats = std::vector<std::unique_ptr<hb::core::Heartbeat>>;

/// Shortest gap between two open-loop emission passes. A beat is emitted
/// at most this late by design; lateness beyond it is the scheduler's.
constexpr std::int64_t kEmitQuantumNs = 500'000;
/// Beats between two updates of Control::emitted (and window checks).
constexpr std::uint64_t kGateStride = 64;

void sleep_until(std::int64_t at_ns) {
  timespec ts{};
  ts.tv_sec = at_ns / 1'000'000'000;
  ts.tv_nsec = at_ns % 1'000'000'000;
  while (clock_nanosleep(CLOCK_MONOTONIC, TIMER_ABSTIME, &ts, nullptr) != 0) {
  }
}

class Emitter {
 public:
  Emitter(const Schedule& s, Control* ctl, Beats& beats, std::uint32_t thread,
          bool trace)
      : s_(s), ctl_(ctl), beats_(beats), thread_(thread), trace_(trace),
        res_(ctl->threads[thread]) {
    for (std::uint32_t a = 0; a < s.apps.size(); ++a) {
      if (s.apps[a].thread == thread) mine_.push_back(a);
    }
  }

  void beat(std::uint32_t app) {
    const std::uint64_t tag = app % 8;
    if (!trace_) {
      beats_[app]->beat(tag);
    } else {
      const std::int64_t b0 = mono_ns();
      beats_[app]->beat(tag);
      const std::int64_t b1 = mono_ns();
      if (b0 >= window_start_ && b0 < stop_) res_.beat_ns.record(b1 - b0);
      if (++traced_ % kGenSpanStride == 0) {
        const std::uint64_t i = ctl_->span_count.fetch_add(1, std::memory_order_relaxed);
        if (i < kGenSpanCap) {
          ctl_->spans[i] = Span{"core.beat", b0, b1, static_cast<std::uint32_t>(i + 1),
                                0, 10 + thread_, 2, app};
        }
      }
    }
    ++ctl_->app_emitted[app];
  }

  void run(std::int64_t t0) {
    pin_to_cpu(static_cast<int>(thread_));  // generators on usable CPUs 0, 1
    window_start_ = t0 + s_.warmup_ns;
    stop_ = t0 + s_.stop_ns();
    run_open(t0);
  }

 private:
  // Open loop: beat k of app a is due at t0 + phase_a + k * period. Each
  // pass emits every beat due by now (oldest first), then sleeps until the
  // next due time, but at least kEmitQuantumNs: passes of tens to hundreds
  // of beats keep the per-pass CPU-clock reads and wake-ups a small share
  // of the emitting cost. All of a thread's apps share one period.
  void run_open(std::int64_t t0) {
    if (mine_.empty()) return;
    const TimeNs period = s_.apps[mine_[0]].period_ns;
    std::vector<std::uint32_t> order = mine_;
    std::stable_sort(order.begin(), order.end(), [&](std::uint32_t a, std::uint32_t b) {
      return s_.apps[a].phase_ns < s_.apps[b].phase_ns;
    });
    // Per-app cursor into the schedule's (app-sorted) silences.
    std::vector<std::size_t> sil(s_.apps.size(), s_.silences.size());
    for (std::size_t i = s_.silences.size(); i-- > 0;) sil[s_.silences[i].app] = i;
    auto silenced = [&](std::uint32_t app, std::uint64_t k) {
      std::size_t& p = sil[app];
      while (p < s_.silences.size() && s_.silences[p].app == app &&
             s_.silences[p].resume_slot <= k) {
        ++p;
      }
      return p < s_.silences.size() && s_.silences[p].app == app &&
             s_.silences[p].first_slot <= k;
    };

    std::uint64_t k = 0;
    std::size_t pos = 0;
    const TimeNs stop_rel = s_.stop_ns();
    auto due_rel = [&] {
      return s_.apps[order[pos]].phase_ns + static_cast<TimeNs>(k) * period;
    };
    std::int64_t wake = t0;
    while (ctl_->abort.load(std::memory_order_relaxed) == 0) {
      sleep_until(wake);
      const TimeNs first_due = due_rel();
      if (first_due >= stop_rel) break;
      const std::int64_t now = mono_ns();
      const TimeNs rel = now - t0;
      if (first_due > rel) {
        wake = t0 + first_due;
        continue;
      }
      const std::int64_t cpu0 = thread_cpu_ns();
      std::uint64_t n = 0, published = 0;
      std::int64_t gate_cpu = 0;
      for (TimeNs d = first_due; d <= rel && d < stop_rel; d = due_rel()) {
        const std::uint32_t app = order[pos];
        if (!silenced(app, k)) {
          beat(app);
          ++n;
        }
        if (++pos == order.size()) {
          pos = 0;
          ++k;
        }
        if (n - published >= kGateStride) {
          ctl_->emitted.fetch_add(n - published, std::memory_order_release);
          published = n;
          gate_cpu += wait_for_pump();
        }
      }
      const std::int64_t cpu1 = thread_cpu_ns();
      ctl_->emitted.fetch_add(n - published, std::memory_order_release);
      if (first_due >= s_.warmup_ns) {
        const int w = sub_window(now, window_start_, s_.window_ns);
        res_.cpu_ns[w] += cpu1 - cpu0 - gate_cpu;
        res_.beats[w] += n;
        res_.late.record(rel - first_due);
      }
      wake = std::max(t0 + due_rel(), now + kEmitQuantumNs);
    }
  }

  // The in-flight window (Schedule::inflight_window): while more beats are
  // generated than the pump has consumed plus the window, wait, so a
  // stalled pump makes beats late instead of letting producers lap their
  // lanes. Returns the CPU the wait took (not emitting cost).
  std::int64_t wait_for_pump() {
    if (s_.inflight_window == 0 || !pump_behind()) return 0;
    const std::int64_t c0 = thread_cpu_ns();
    for (int spins = 0; pump_behind(); ++spins) {
      if (ctl_->abort.load(std::memory_order_relaxed) != 0) break;
      if (spins < 64) {
        std::this_thread::yield();
      } else {
        std::this_thread::sleep_for(std::chrono::microseconds(20));
      }
    }
    return thread_cpu_ns() - c0;
  }
  bool pump_behind() const {
    return ctl_->emitted.load(std::memory_order_acquire) >
           ctl_->consumed.load(std::memory_order_acquire) + s_.inflight_window;
  }

  const Schedule& s_;
  Control* ctl_;
  Beats& beats_;
  std::uint32_t thread_;
  bool trace_;
  GenThreadResult& res_;
  std::vector<std::uint32_t> mine_;
  std::int64_t window_start_ = 0;
  std::int64_t stop_ = std::numeric_limits<std::int64_t>::max();
  std::uint64_t traced_ = 0;
};

}  // namespace

int run_generator(const Schedule& s, const std::string& ring_path, Control* ctl,
                  bool trace) {
  try {
    // Precise sleeps: the default 50 us timer slack would show up as
    // generator lateness.
    prctl(PR_SET_TIMERSLACK, 1000UL, 0, 0, 0);
    auto queue = hb::transport::ShmIngestQueue::attach(ring_path);
    hb::transport::ShmHubSinkOptions sink;
    sink.flush_every = s.flush_every;
    const auto factory = hb::transport::ShmHubSink::wrap_factory(queue, {}, sink);
    Beats beats;
    beats.reserve(s.apps.size());
    // Construction order is app order: the first kIngestLanes apps claim
    // the fast lanes, the rest publish through the shared ring.
    for (const AppPlan& a : s.apps) {
      hb::core::HeartbeatOptions o;
      o.name = a.name;
      o.history_capacity = 64;
      if (a.period_ns > 0) {
        const double rate = 1e9 / static_cast<double>(a.period_ns);
        o.target_min_bps = 0.5 * rate;
      } else {
        o.target_min_bps = 1.0;
      }
      o.store_factory = factory;
      beats.push_back(std::make_unique<hb::core::Heartbeat>(std::move(o)));
    }
    const std::int64_t t0 = mono_ns() + 20'000'000;
    ctl->t0_ns.store(t0, std::memory_order_release);
    ctl->state.store(kGenRunning, std::memory_order_release);
    sleep_until(t0);

    std::vector<std::unique_ptr<Emitter>> emitters;
    for (std::uint32_t t = 0; t < s.gen_threads; ++t) {
      emitters.push_back(std::make_unique<Emitter>(s, ctl, beats, t, trace));
    }
    std::vector<std::thread> threads;
    for (std::uint32_t t = 1; t < s.gen_threads; ++t) {
      threads.emplace_back([&, t] { emitters[t]->run(t0); });
    }
    emitters[0]->run(t0);
    for (auto& th : threads) th.join();
    // Destroying the producers flushes any batch a sink still holds, so
    // everything counted in app_emitted is in the ring before kGenDone.
    beats.clear();
    ctl->state.store(kGenDone, std::memory_order_release);
    return 0;
  } catch (const std::exception& e) {
    std::snprintf(ctl->error, sizeof(ctl->error), "%s", e.what());
    ctl->state.store(kGenFailed, std::memory_order_release);
    return 3;
  }
}

}  // namespace pipebench
