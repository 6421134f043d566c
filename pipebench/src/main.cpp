// pipebench: one beat -> snapshot -> verdict benchmark over the live shm path.
//
//   pipebench --workload fleet_steady|firehose|churn --seed N --seconds S
//             [--trace 0|1]
//
// One run forks a generator process (core::Heartbeat producers publishing
// through transport::ShmHubSink into a transport::ShmIngestQueue) and
// drives, in this process, the monitor `hbmon fleet --watch` builds:
// ShmIngestPump -> HeartbeatHub (8 shards, self_beat) -> FleetDetector ->
// FlightRecorder -> PolicyEngine, on one pipeline thread, plus a probe
// thread that takes HeartbeatHub::snapshot() on a short fixed tick.
//
// The schedule (schedule.hpp) says when every beat was due, so when a
// snapshot or report shows an app's total_beats rise from n to m, beats
// n+1..m get their latency from their due times: no clock is read on the
// producer path for it. See pipebench/README.md for every metric.
//
// Prints `metric <name> <value> <unit>` lines, then as the LAST line one
// JSON object {"correct", "attempted", "failed", "metrics"}: the
// end-to-end metrics with --trace 0, the per-layer metrics with --trace 1.
// Exits 1 when a correctness gate fails, 2 on a usage or set-up error.
#include <sys/prctl.h>
#include <sys/resource.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cinttypes>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <limits>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <unordered_map>
#include <vector>

#include "fault/fleet_detector.hpp"
#include "generator.hpp"
#include "hub/hub.hpp"
#include "hub/shm_pump.hpp"
#include "obs/flight_recorder.hpp"
#include "obs/metrics.hpp"
#include "policy/policy_engine.hpp"
#include "schedule.hpp"
#include "stats.hpp"
#include "trace.hpp"
#include "transport/registry.hpp"
#include "transport/shm_ingest.hpp"

namespace pipebench {
namespace {

namespace fs = std::filesystem;
using hb::util::kNsPerMs;
constexpr std::int64_t kNever = std::numeric_limits<std::int64_t>::max();

// hbmon fleet --watch defaults (-i 50, -s 5000).
constexpr int kPollMs = 50;
constexpr int kDeadMs = 5000;
/// The one pump option that differs from hbmon's: the default budget of 3
/// blocked polls is spent in a few microseconds by a pump whose wait()
/// returns at once while a claimed slot is pending, so a producer that is
/// merely interrupted between claim and publish (a page fault, a timer
/// interrupt) has its frame skipped as torn. ~130k polls keep the
/// crashed-producer skip (tens of milliseconds) without tearing live
/// producers; transport.torn_frames reports any tear that remains.
constexpr std::uint32_t kMaxStallPolls = 1u << 17;
/// The probe's fixed snapshot period: longer than a 4096-app snapshot
/// takes, so the probe never runs back to back and the sampling delay it
/// adds is uniform over one period.
constexpr std::int64_t kProbeTickNs = 20 * kNsPerMs;
/// How long after the stop the monitor keeps running for the final drain
/// and the end-of-run death verdicts before giving up.
constexpr std::int64_t kWindDownNs = 4000 * kNsPerMs;
/// How long after a silence ends its death may still be reported.
constexpr std::int64_t kReviveGraceNs = 1000 * kNsPerMs;
/// Pump poll/wait and probe spans kept per thread in a traced run (all are
/// counted and timed; every tick and its children are kept).
constexpr std::size_t kKeepSpans = 20000;
/// CPUs (indices into the usable set) of the monitor's threads; generator
/// threads take 0 and 1.
constexpr int kPipelineCpu = 2;
constexpr int kProbeCpu = 3;
/// A run whose generator ran this late (p99) measured the scheduler.
constexpr double kLateLimitMs = 5.0;

/// Everything a run writes lives under this directory of the checkout.
constexpr const char* kWorkDir = ".bench_build";
/// Set-ups timed per run; setup_s is their median.
constexpr int kSetupReps = 5;
/// A set-up that takes longer has failed (all five stay far below the
/// 180 s a run may take).
constexpr std::int64_t kSetupLimitNs = 20'000'000'000;

struct Args {
  Workload workload = Workload::kFleetSteady;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
};

// ------------------------------------------------------------ the monitor

/// The monitor under test, wired like hbmon's make_live_pipeline and
/// `fleet --watch` (minus the postmortem sink, whose bundle writes would
/// add disk noise; the flight recorder stays).
struct Monitor {
  std::shared_ptr<hb::transport::ShmIngestQueue> queue;
  std::shared_ptr<hb::hub::HeartbeatHub> hub;
  std::unique_ptr<hb::hub::ShmIngestPump> pump;
  hb::fault::FleetDetector detector;
  std::shared_ptr<hb::obs::FlightRecorder> recorder;
  std::unique_ptr<hb::policy::PolicyEngine> engine;

  explicit Monitor(const fs::path& ring) {
    queue = hb::transport::ShmIngestQueue::create(
        ring, hb::transport::Registry::kDefaultIngestCapacity);
    hb::hub::HubOptions opts;
    opts.shard_count = 8;
    opts.evict_after_ns = 20 * static_cast<std::int64_t>(kDeadMs) * kNsPerMs;
    opts.self_beat = true;
    hub = std::make_shared<hb::hub::HeartbeatHub>(opts);
    pump = std::make_unique<hb::hub::ShmIngestPump>(
        queue, hub,
        hb::hub::ShmIngestPumpOptions{
            .max_stall_polls = kMaxStallPolls,
            .idle_sleep_min_ns = kNsPerMs,
            .idle_sleep_max_ns = static_cast<std::int64_t>(kPollMs) * kNsPerMs});
    detector = hb::fault::FleetDetector(
        {.absolute_staleness_ns = static_cast<std::int64_t>(kDeadMs) * kNsPerMs,
         .staleness_slack_ns = static_cast<std::int64_t>(kPollMs) * kNsPerMs +
                               hb::transport::ShmHubSinkOptions{}.max_hold_ns});
    recorder = std::make_shared<hb::obs::FlightRecorder>();
    hub->set_flight_recorder(recorder);
    engine = std::make_unique<hb::policy::PolicyEngine>();
    engine->add_sink(recorder->event_sink());
  }
};

// ------------------------------------------------------ harness bookkeeping

/// One expected death: a scheduled silence, or the end-of-run stop.
struct Episode {
  std::int64_t start_ns = 0;       ///< first skipped due beat (absolute)
  std::int64_t resume_ns = kNever; ///< first resumed due beat (kNever: stop)
  bool kill = false;               ///< the end-of-run stop
  std::int64_t detected_at = 0;    ///< end of the tick that reported it dead
  std::int64_t revived_at = 0;
};

struct FoldEvent {
  std::int32_t group = -1;
  std::size_t apps = 0;
  std::int64_t at = 0;  ///< end of the tick that emitted it
};

/// What one pipeline tick produced, handed to the probe thread for the
/// harness's bookkeeping so that none of it delays the pump.
struct TickResult {
  std::shared_ptr<const hb::fault::FleetReport> report;
  std::vector<FoldEvent> folds;
  std::int64_t end = 0;  ///< end of the tick (policy observe returned)
};

/// Maps hub AppIds to schedule app indices; one per thread (no sharing).
class AppIndex {
 public:
  explicit AppIndex(const std::unordered_map<std::string, std::int32_t>* names)
      : names_(names) {}
  /// -1 for apps that are not the generator's (the hub's own self app).
  std::int32_t of(hb::hub::AppId id, const std::string& name) {
    const std::uint32_t shard = hb::hub::app_id_shard(id);
    const std::uint32_t slot = hb::hub::app_id_slot(id);
    if (shard >= table_.size()) table_.resize(shard + 1);
    auto& row = table_[shard];
    if (slot >= row.size()) row.resize(slot + 1, -2);
    if (row[slot] == -2) {
      const auto it = names_->find(name);
      row[slot] = it == names_->end() ? -1 : it->second;
    }
    return row[slot];
  }

 private:
  const std::unordered_map<std::string, std::int32_t>* names_;
  std::vector<std::vector<std::int32_t>> table_;
};

/// One monitor thread's CPU clock at each sub-window boundary.
struct ThreadWindow {
  std::int64_t cpu_at[kSubWindows + 1] = {};
  /// Harness bookkeeping CPU per sub-window (subtracted).
  std::int64_t account[kSubWindows] = {};
  int crossed = 0;  ///< boundaries crossed so far
  bool inside() const { return crossed >= 1 && crossed <= kSubWindows; }
  std::int64_t cpu(int k) const { return cpu_at[k + 1] - cpu_at[k] - account[k]; }
};

struct CounterSample {
  std::int64_t at = 0;
  hb::hub::ShmIngestPumpStats pump;
  std::uint64_t rings = 0;
  hb::hub::SnapshotStats snap;
  std::uint64_t publishes = 0, publish_skips = 0;
  hb::policy::PolicyStats policy;
};

std::uint64_t registry_count(const hb::obs::MetricsSnapshot& m, const char* name) {
  const hb::obs::MetricValue* v = m.find(name);
  return v ? v->count : 0;
}

// -------------------------------------------------------------- one rep

/// One set-up of the whole pipeline. Every rep measures its set-up time;
/// the last one goes on to the measured window.
class Rep {
 public:
  Rep(const Args& args, const Schedule& s, const fs::path& ring)
      : args_(args), s_(s), ring_(ring) {
    for (std::uint32_t i = 0; i < s.apps.size(); ++i) {
      names_.emplace(s.apps[i].name, static_cast<std::int32_t>(i));
    }
  }
  Rep(const Rep&) = delete;
  Rep& operator=(const Rep&) = delete;

  ~Rep() { teardown(); }

  /// Ring create, monitor build, fork, first-sight registration of every
  /// app. Returns the set-up time in seconds.
  double setup() {
    const std::int64_t start = mono_ns();
    fs::remove(ring_);
    ctl_ = map_control();
    mon_ = std::make_unique<Monitor>(ring_);
    std::fflush(nullptr);
    child_ = fork();
    if (child_ < 0) throw std::runtime_error("fork failed");
    if (child_ == 0) {
      prctl(PR_SET_PDEATHSIG, SIGKILL);  // never outlive the monitor
      _exit(run_generator(s_, ring_.string(), ctl_, args_.trace));
    }
    while (ctl_->t0_ns.load(std::memory_order_acquire) == 0) {
      if (ctl_->state.load(std::memory_order_acquire) == kGenFailed) {
        throw std::runtime_error(std::string("generator failed: ") + ctl_->error);
      }
      std::this_thread::sleep_for(std::chrono::microseconds(200));
    }
    t0_ = ctl_->t0_ns.load(std::memory_order_acquire);
    window_start_ = t0_ + s_.warmup_ns;
    stop_ = t0_ + s_.stop_ns();
    init_tracking();
    pipeline_ = std::thread([this] { pipeline_loop(); });
    probe_ = std::thread([this] { probe_loop(); });
    while (!setup_done_.load(std::memory_order_acquire)) {
      if (ctl_->state.load(std::memory_order_acquire) == kGenFailed) {
        throw std::runtime_error(std::string("generator failed: ") + ctl_->error);
      }
      if (mono_ns() - start > kSetupLimitNs) {
        throw std::runtime_error("set-up did not finish within 20 s");
      }
      std::this_thread::sleep_for(std::chrono::microseconds(200));
    }
    return static_cast<double>(setup_at_.load() - start) / 1e9;
  }

  /// Run through the measured window, the stop and the wind-down, then
  /// drain and check. Returns false on a harness failure.
  bool measure() {
    while (mono_ns() < stop_) std::this_thread::sleep_for(std::chrono::milliseconds(5));
    const std::int64_t give_up = stop_ + kWindDownNs;
    for (;;) {
      const int st = ctl_->state.load(std::memory_order_acquire);
      if (st == kGenFailed) {
        std::fprintf(stderr, "pipebench: generator failed: %s\n", ctl_->error);
        return false;
      }
      if (st == kGenDone && consumed_.load() >= ctl_->emitted.load() &&
          kills_pending_.load() == 0) {
        break;
      }
      if (mono_ns() > give_up) break;
      std::this_thread::sleep_for(std::chrono::milliseconds(2));
    }
    stop_threads();
    reap();
    account_ticks();  // reports the probe had not picked up yet
    // Final drain: everything emitted must now be in the hub.
    mon_->pump->poll();
    final_snap_ = mon_->hub->snapshot();
    return true;
  }

  // --------------------------------------------------------- results
  Control* ctl() const { return ctl_; }

  std::int64_t t0_ = 0, window_start_ = 0, stop_ = 0;
  std::unique_ptr<Monitor> mon_;
  std::shared_ptr<const hb::hub::FleetSnapshot> final_snap_;

  // measured in the window
  FineHistogram visible_[kSubWindows], verdict_[kSubWindows];
  std::vector<double> detect_;  ///< exact: at most a few thousand samples
  FineHistogram tick_late_;
  CounterSample w0_, w1_;
  /// Pump consumed count and time at each sub-window boundary.
  std::uint64_t consumed_at_[kSubWindows + 1] = {};
  std::int64_t at_[kSubWindows + 1] = {};
  ThreadWindow pipe_win_, probe_win_;
  std::vector<std::vector<Episode>> episodes_;
  std::vector<FoldEvent> folds_;
  std::uint64_t wrong_verdicts_ = 0;
  std::vector<std::string> wrong_notes_;

  // traced run only
  SpanLog pipe_spans_{1, 1, kKeepSpans};
  SpanLog probe_spans_{1, 2, kKeepSpans};
  FineHistogram poll_ns_, wait_ns_, backlog_, probe_snap_ns_, tick_snap_ns_,
      sweep_ns_, record_ns_, observe_ns_;
  std::int64_t poll_busy_ns_ = 0;
  /// Spans and timings taken in the window, per thread.
  std::uint64_t timed_calls_ = 0, timed_calls_probe_ = 0;

 private:
  void init_tracking() {
    const std::size_t n = s_.apps.size();
    probe_cur_.resize(n);
    verdict_cur_.resize(n);
    probe_seen_.assign(n, 0);
    verdict_seen_.assign(n, 0);
    dead_.assign(n, 0);
    next_episode_.assign(n, 0);
    episodes_.assign(n, {});
    for (std::uint32_t a = 0; a < n; ++a) {
      probe_cur_[a] = EmitCursor(&s_, a);
      verdict_cur_[a] = EmitCursor(&s_, a);
    }
    for (const Silence& sil : s_.silences) {
      Episode e;
      e.start_ns = t0_ + s_.due_ns(sil.app, sil.first_slot);
      e.resume_ns = t0_ + s_.due_ns(sil.app, sil.resume_slot);
      episodes_[sil.app].push_back(e);
    }
    for (std::uint32_t a = 0; a < n; ++a) {
      Episode e;
      e.kill = true;  // starts at the first due beat at or after the stop
      e.start_ns = t0_ + s_.due_ns(a, s_.first_slot_at(a, s_.stop_ns()));
      episodes_[a].push_back(e);
    }
    kills_pending_.store(n);
  }

  bool in_window(std::int64_t t) const { return t >= window_start_ && t < stop_; }

  void sample_counters(CounterSample& c, std::int64_t now) {
    c.at = now;
    c.pump = mon_->pump->stats();
    c.rings = mon_->queue->doorbell_rings();
    c.snap = mon_->hub->snapshot_stats();
    if (args_.trace) {
      const auto m = hb::obs::MetricsRegistry::global().snapshot();
      c.publishes = registry_count(m, "hb.hub.publishes");
      c.publish_skips = registry_count(m, "hb.hub.publish_skips");
    }
    c.policy = mon_->engine->stats();
  }

  std::int64_t boundary(int b) const {
    return window_start_ + b * s_.window_ns / kSubWindows;
  }
  int sub(std::int64_t t) const { return sub_window(t, window_start_, s_.window_ns); }

  void window_edges(ThreadWindow& w, std::int64_t now, bool pipeline) {
    while (w.crossed <= kSubWindows && now >= boundary(w.crossed)) {
      w.cpu_at[w.crossed] = thread_cpu_ns();
      if (pipeline) {
        consumed_at_[w.crossed] = consumed_.load(std::memory_order_relaxed);
        at_[w.crossed] = now;
        if (w.crossed == 0) sample_counters(w0_, now);
        if (w.crossed == kSubWindows) sample_counters(w1_, now);
      }
      ++w.crossed;
    }
  }

  // ------------------------------------------------------ pipeline thread

  void pipeline_loop() {
    pin_to_cpu(kPipelineCpu);
    const bool trace = args_.trace;
    std::int64_t next_tick = t0_ + s_.tick_ns;
    while (!quit_.load(std::memory_order_acquire)) {
      const std::int64_t p0 = trace ? mono_ns() : 0;
      const std::size_t got = mon_->pump->poll();
      const std::uint64_t consumed = mon_->pump->stats().consumed;
      consumed_.store(consumed, std::memory_order_release);
      ctl_->consumed.store(consumed, std::memory_order_release);
      std::int64_t now = mono_ns();
      if (trace && in_window(p0)) {
        poll_ns_.record(now - p0);
        poll_busy_ns_ += now - p0;
        pipe_spans_.add("hub.pump_poll", p0, now, 0, got);
        backlog_.record(static_cast<std::int64_t>(
            ctl_->emitted.load(std::memory_order_acquire) - consumed));
        ++timed_calls_;
      }
      window_edges(pipe_win_, now, true);
      if (now >= next_tick) {
        tick(next_tick, now);
        now = mono_ns();
        next_tick += s_.tick_ns;
        if (next_tick <= now) {
          // Fell behind (a stall): skip missed ticks, stay on the t0 grid.
          next_tick = t0_ + ((now - t0_) / s_.tick_ns + 1) * s_.tick_ns;
        }
      }
      const std::int64_t w0 = trace ? mono_ns() : 0;
      mon_->pump->wait(next_tick - mono_ns());
      if (trace && in_window(w0)) {
        const std::int64_t w1 = mono_ns();
        wait_ns_.record(w1 - w0);
        pipe_spans_.add("hub.pump_wait", w0, w1);
        ++timed_calls_;
      }
    }
  }

  void tick(std::int64_t due, std::int64_t start) {
    const bool win = in_window(due);
    if (win) tick_late_.record(start - due);
    const bool trace = args_.trace && win;
    const std::uint32_t tick_id = trace ? pipe_spans_.open() : 0;

    const std::int64_t s0 = mono_ns();
    auto snap = mon_->hub->snapshot();
    const std::int64_t s1 = mono_ns();
    auto report = std::make_shared<const hb::fault::FleetReport>(
        mon_->detector.sweep(snap));
    const std::int64_t s2 = mono_ns();
    mon_->recorder->record_report(report);
    const std::int64_t s3 = mono_ns();
    const auto& events = mon_->engine->observe(*report);
    const std::int64_t end = mono_ns();

    TickResult r{std::move(report), {}, end};
    for (const hb::policy::FleetEvent& ev : events) {
      if (ev.kind != hb::policy::EventKind::kCorrelatedFailure) continue;
      FoldEvent f;
      f.apps = ev.apps.size();
      f.at = end;
      for (std::size_t g = 0; g < s_.groups.size(); ++g) {
        if (s_.groups[g] == ev.group) f.group = static_cast<std::int32_t>(g);
      }
      r.folds.push_back(f);
    }
    {
      std::lock_guard<std::mutex> lock(ticks_mu_);
      ticks_.push_back(std::move(r));
    }

    if (trace) {
      const std::int64_t h_end = mono_ns();
      pipe_spans_.add("hub.snapshot", s0, s1, tick_id);
      pipe_spans_.add("fault.sweep", s1, s2, tick_id);
      pipe_spans_.add("obs.record_report", s2, s3, tick_id);
      pipe_spans_.add("policy.observe", s3, end, tick_id);
      pipe_spans_.add("bench.handoff", end, h_end, tick_id);
      pipe_spans_.close(tick_id, "pipeline.tick", start, h_end,
                        static_cast<std::uint64_t>((due - t0_) / s_.tick_ns));
      tick_snap_ns_.record(s1 - s0);
      sweep_ns_.record(s2 - s1);
      record_ns_.record(s3 - s2);
      observe_ns_.record(end - s3);
      timed_calls_ += 6;
    }
  }

  /// Harness bookkeeping for every tick the pipeline handed over, in tick
  /// order. Runs on the probe thread (and once more after the join).
  void account_ticks() {
    std::vector<TickResult> batch;
    {
      std::lock_guard<std::mutex> lock(ticks_mu_);
      batch.swap(ticks_);
    }
    for (const TickResult& r : batch) {
      account_report(*r.report, r.end);
      folds_.insert(folds_.end(), r.folds.begin(), r.folds.end());
    }
  }

  void account_report(const hb::fault::FleetReport& report, std::int64_t end) {
    for (const hb::fault::AppHealth& h : report.apps) {
      const std::int32_t i = index_.of(h.id, h.name);
      if (i < 0) continue;
      const auto a = static_cast<std::uint32_t>(i);
      if (h.total_beats > verdict_seen_[a]) {
        count_beats(verdict_cur_[a], a, verdict_seen_[a], h.total_beats, end, verdict_);
        verdict_seen_[a] = h.total_beats;
      }
      const bool dead = h.health == hb::fault::Health::kDead;
      if (dead != static_cast<bool>(dead_[a])) {
        dead_[a] = dead ? 1 : 0;
        if (dead) {
          on_death(a, end);
        } else {
          on_revival(a, end);
        }
      }
    }
  }

  /// Latency samples, from their due times, for beats from+1..to of one
  /// app, first seen at `seen_at`.
  void count_beats(EmitCursor& cur, std::uint32_t app, std::uint64_t from,
                   std::uint64_t to, std::int64_t seen_at, FineHistogram* out) {
    for (std::uint64_t n = from; n < to; ++n) {
      const std::int64_t due = t0_ + s_.due_ns(app, cur.next_slot());
      if (in_window(due)) out[sub(due)].record(seen_at - due);
      cur.advance();
    }
  }

  void wrong(std::uint32_t app, const char* what, std::int64_t at) {
    ++wrong_verdicts_;
    if (wrong_notes_.size() < 10) {
      char buf[160];
      std::snprintf(buf, sizeof(buf), "%s %s at t0%+.3fs", s_.apps[app].name.c_str(),
                    what, static_cast<double>(at - t0_) / 1e9);
      wrong_notes_.emplace_back(buf);
    }
  }

  void on_death(std::uint32_t app, std::int64_t at) {
    auto& eps = episodes_[app];
    std::size_t& k = next_episode_[app];
    // A death reported after the silence ended still matches it while the
    // resumed beats may not have reached the hub yet.
    if (k < eps.size() && eps[k].detected_at == 0 && eps[k].start_ns <= at &&
        (eps[k].resume_ns == kNever || at < eps[k].resume_ns + kReviveGraceNs)) {
      eps[k].detected_at = at;
      if (eps[k].kill) kills_pending_.fetch_sub(1);
      return;
    }
    wrong(app, "reported dead while on schedule", at);
  }

  void on_revival(std::uint32_t app, std::int64_t at) {
    auto& eps = episodes_[app];
    std::size_t& k = next_episode_[app];
    if (k < eps.size() && eps[k].detected_at != 0 && at >= eps[k].resume_ns) {
      eps[k].revived_at = at;
      ++k;
      return;
    }
    // A revival the schedule does not explain: either the app came back
    // while still silenced, or the matching death was already counted wrong.
    if (k < eps.size() && eps[k].detected_at != 0) {
      wrong(app, "revived while still silenced", at);
    }
  }

  // --------------------------------------------------------- probe thread

  void probe_loop() {
    pin_to_cpu(kProbeCpu);
    const bool trace = args_.trace;
    const std::size_t want = s_.apps.size() + 1;  // + the hub's self app
    std::int64_t next = 0;
    while (!quit_.load(std::memory_order_acquire)) {
      const std::int64_t p0 = mono_ns();
      const auto snap = mon_->hub->snapshot();
      const std::int64_t p1 = mono_ns();
      window_edges(probe_win_, p1, false);
      if (!setup_done_.load(std::memory_order_relaxed) && snap->app_count() >= want) {
        setup_at_.store(p1);
        setup_done_.store(true, std::memory_order_release);
      }
      if (trace && in_window(p0)) {
        probe_snap_ns_.record(p1 - p0);
        probe_spans_.add("hub.snapshot", p0, p1);
        ++timed_calls_probe_;
      }
      const std::int64_t a0 = thread_cpu_ns();
      account_ticks();
      snap->for_each_app(
          [&](const hb::hub::AppSummary& sum) {
            const std::int32_t i = index_.of(sum.id, sum.name);
            if (i < 0) return;
            const auto a = static_cast<std::uint32_t>(i);
            if (sum.total_beats <= probe_seen_[a]) return;
            count_beats(probe_cur_[a], a, probe_seen_[a], sum.total_beats, p1, visible_);
            probe_seen_[a] = sum.total_beats;
          },
          /*include_evicted=*/true);
      const std::int64_t a1 = thread_cpu_ns();
      if (probe_win_.inside()) probe_win_.account[probe_win_.crossed - 1] += a1 - a0;
      // Fixed rate on a grid offset half a tick from t0, skipping missed
      // slots; until set-up completes, probe every millisecond instead so
      // set-up time is not rounded up to the probe grid.
      const std::int64_t now = mono_ns();
      if (!setup_done_.load(std::memory_order_relaxed)) {
        next = now + kNsPerMs;
      } else {
        const std::int64_t base = t0_ + kProbeTickNs / 2;
        next = base + ((now - base) / kProbeTickNs + 1) * kProbeTickNs;
      }
      std::this_thread::sleep_for(std::chrono::nanoseconds(next - now));
    }
  }

  void stop_threads() {
    quit_.store(true, std::memory_order_release);
    if (pipeline_.joinable()) pipeline_.join();
    if (probe_.joinable()) probe_.join();
  }

  void reap() {
    if (child_ <= 0) return;
    int status = 0;
    waitpid(child_, &status, 0);
    child_ = -1;
  }

  void teardown() {
    if (ctl_) ctl_->abort.store(1);
    stop_threads();
    if (child_ > 0) {
      // Bounded: the generator checks abort at least once per batch.
      const std::int64_t until = mono_ns() + 5'000'000'000;
      int status = 0;
      while (waitpid(child_, &status, WNOHANG) == 0) {
        if (mono_ns() > until) {
          kill(child_, SIGKILL);
          waitpid(child_, &status, 0);
          break;
        }
        std::this_thread::sleep_for(std::chrono::milliseconds(1));
      }
      child_ = -1;
    }
    mon_.reset();
    std::error_code ec;
    fs::remove(ring_, ec);
    unmap_control(ctl_);
    ctl_ = nullptr;
  }

  const Args& args_;
  const Schedule& s_;
  fs::path ring_;
  Control* ctl_ = nullptr;
  pid_t child_ = -1;
  std::unordered_map<std::string, std::int32_t> names_;
  /// Used by the probe thread only (and by the main thread after the join).
  AppIndex index_{&names_};
  std::mutex ticks_mu_;
  std::vector<TickResult> ticks_;  ///< guarded by ticks_mu_

  std::atomic<bool> quit_{false};
  std::atomic<bool> setup_done_{false};
  std::atomic<std::int64_t> setup_at_{0};
  std::atomic<std::uint64_t> consumed_{0};
  std::atomic<std::size_t> kills_pending_{0};

  std::vector<EmitCursor> probe_cur_, verdict_cur_;
  std::vector<std::uint64_t> probe_seen_, verdict_seen_;
  std::vector<std::uint8_t> dead_;
  std::vector<std::size_t> next_episode_;
  /// Last: the threads use every member above (joined in teardown()).
  std::thread pipeline_, probe_;
};

}  // namespace
}  // namespace pipebench

namespace pipebench {
namespace {

struct Metric {
  std::string name;
  double value;
  const char* unit;
};

int usage(const char* argv0) {
  std::fprintf(stderr,
               "usage: %s --workload fleet_steady|firehose|churn --seed N "
               "--seconds S [--trace 0|1]\n",
               argv0);
  return 2;
}

bool parse_args(int argc, char** argv, Args* a) {
  for (int i = 1; i < argc; ++i) {
    const std::string k = argv[i];
    if (i + 1 >= argc) return false;
    const char* v = argv[++i];
    if (k == "--workload") {
      if (!parse_workload(v, &a->workload)) return false;
    } else if (k == "--seed") {
      a->seed = std::strtoull(v, nullptr, 10);
    } else if (k == "--seconds") {
      a->seconds = std::strtod(v, nullptr);
    } else if (k == "--trace") {
      a->trace = std::strcmp(v, "1") == 0;
    } else {
      return false;
    }
  }
  return true;
}

double ratio(double num, double den) { return den > 0 ? num / den : 0.0; }

/// Per-layer self time along the pipeline tick, from the traced run's
/// spans. Returns the tick's unaccounted share (tick minus its children,
/// over the tick) and fills `other` with the table as JSON.
double self_time_table(const std::vector<Span>& spans, std::string* other) {
  std::unordered_map<std::uint32_t, std::int64_t> tick_dur, child_sum;
  for (const Span& s : spans) {
    if (std::strcmp(s.name, "pipeline.tick") == 0) tick_dur[s.id] = s.end_ns - s.start_ns;
  }
  struct Row {
    std::uint64_t calls = 0;
    std::int64_t total = 0;
  };
  std::vector<std::pair<std::string, Row>> rows;
  auto row = [&rows](const char* name) -> Row& {
    for (auto& r : rows) {
      if (r.first == name) return r.second;
    }
    rows.emplace_back(name, Row{});
    return rows.back().second;
  };
  for (const Span& s : spans) {
    if (s.parent == 0 || !tick_dur.count(s.parent)) continue;
    Row& r = row(s.name);
    ++r.calls;
    r.total += s.end_ns - s.start_ns;
    child_sum[s.parent] += s.end_ns - s.start_ns;
  }
  std::int64_t ticks = 0, self = 0;
  for (const auto& [id, d] : tick_dur) {
    ticks += d;
    self += d - child_sum[id];
  }
  std::printf("# self time along pipeline.tick (%zu ticks, %.3f ms total)\n",
              tick_dur.size(), static_cast<double>(ticks) / 1e6);
  std::printf("#   %-20s %8s %12s %8s\n", "span", "calls", "self_ms", "share");
  std::string json = "{";
  for (const auto& [name, r] : rows) {
    std::printf("#   %-20s %8" PRIu64 " %12.3f %7.2f%%\n", name.c_str(), r.calls,
                static_cast<double>(r.total) / 1e6,
                100.0 * ratio(static_cast<double>(r.total), static_cast<double>(ticks)));
    char buf[160];
    std::snprintf(buf, sizeof(buf), "%s\"%s\":{\"calls\":%" PRIu64 ",\"self_ms\":%.6f}",
                  json.size() > 1 ? "," : "", name.c_str(), r.calls,
                  static_cast<double>(r.total) / 1e6);
    json += buf;
  }
  std::printf("#   %-20s %8zu %12.3f %7.2f%%\n", "(tick self)", tick_dur.size(),
              static_cast<double>(self) / 1e6,
              100.0 * ratio(static_cast<double>(self), static_cast<double>(ticks)));
  char buf[160];
  std::snprintf(buf, sizeof(buf), "%s\"pipeline.tick(self)\":{\"calls\":%zu,\"self_ms\":%.6f}}",
                json.size() > 1 ? "," : "", tick_dur.size(), static_cast<double>(self) / 1e6);
  json += buf;
  *other = json;
  return ratio(static_cast<double>(self), static_cast<double>(ticks));
}

void print_result(bool correct, std::uint64_t attempted, std::uint64_t failed,
                  const std::vector<Metric>& metrics) {
  for (const Metric& m : metrics) {
    std::printf("metric %s %.9g %s\n", m.name.c_str(), m.value, m.unit);
  }
  std::printf("{\"correct\": %s, \"attempted\": %" PRIu64 ", \"failed\": %" PRIu64
              ", \"metrics\": {",
              correct ? "true" : "false", attempted, failed);
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    const double v = std::isfinite(metrics[i].value) ? metrics[i].value : 0.0;
    std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}", i ? ", " : "",
                metrics[i].name.c_str(), v, metrics[i].unit);
  }
  std::printf("}}\n");
  std::fflush(stdout);
}

/// One set-up rep in a forked child; returns its set-up seconds, or -1.
double setup_in_child(const Args& args, const Schedule& s, const fs::path& ring) {
  int fds[2];
  if (pipe(fds) != 0) return -1;
  std::fflush(nullptr);
  const pid_t pid = fork();
  if (pid < 0) return -1;
  if (pid == 0) {
    prctl(PR_SET_PDEATHSIG, SIGKILL);
    close(fds[0]);
    double t = -1;
    try {
      Rep rep(args, s, ring);
      t = rep.setup();
    } catch (const std::exception& e) {
      std::fprintf(stderr, "pipebench: set-up rep failed: %s\n", e.what());
    }
    const bool ok = write(fds[1], &t, sizeof(t)) == static_cast<ssize_t>(sizeof(t));
    close(fds[1]);
    _exit(ok && t > 0 ? 0 : 1);
  }
  close(fds[1]);
  double t = -1;
  if (read(fds[0], &t, sizeof(t)) != static_cast<ssize_t>(sizeof(t))) t = -1;
  close(fds[0]);
  int status = 0;
  waitpid(pid, &status, 0);
  if (!WIFEXITED(status) || WEXITSTATUS(status) != 0) return -1;
  return t;
}

int run(const Args& args) {
  const Schedule s = make_schedule(args.workload, args.seed, args.seconds);
  const long nproc = usable_cpus();
  // Generator threads + the pipeline thread + the probe thread.
  const long threads = static_cast<long>(s.gen_threads) + 2;
  std::printf("# workload=%s seed=%" PRIu64 " seconds=%.3f apps=%zu silences=%zu "
              "schedule_hash=%016" PRIx64 " threads=%ld nproc=%ld trace=%d\n",
              workload_name(s.workload), s.seed, args.seconds, s.apps.size(),
              s.silences.size(), s.hash(), threads, nproc, args.trace ? 1 : 0);
  if (threads > nproc) {
    std::fprintf(stderr, "pipebench: %ld threads need %ld CPUs, only %ld usable\n",
                 threads, threads, nproc);
    return 2;
  }
  if (s.apps.size() > kMaxApps || s.gen_threads > kMaxGenThreads) {
    std::fprintf(stderr, "pipebench: schedule exceeds the control page\n");
    return 2;
  }
  const double span_cost = args.trace ? calibrate_span_cost_ns() : 0.0;

  const fs::path run_dir = fs::path(kWorkDir) / "run";
  fs::create_directories(run_dir);
  const fs::path ring = run_dir / ("ring-" + std::to_string(getpid()) + ".hbq");

  // Set-up is timed setup_reps times. All but the last rep run in a forked
  // copy of this process, so their allocations never count toward the
  // measured monitor's peak RSS; the last rep goes on to the measured run.
  std::vector<double> setups;
  for (int r = 0; r + 1 < kSetupReps; ++r) {
    const double t = setup_in_child(args, s, ring);
    if (!(t > 0)) return 2;
    setups.push_back(t);
  }
  auto rep = std::make_unique<Rep>(args, s, ring);
  setups.push_back(rep->setup());
  if (!rep->measure()) return 2;

  Control* ctl = rep->ctl();
  const std::size_t n = s.apps.size();

  // ---- correctness gates
  std::uint64_t emitted = 0, lost = 0, extra = 0;
  std::unordered_map<std::string, std::uint64_t> totals;
  rep->final_snap_->for_each_app(
      [&](const hb::hub::AppSummary& sum) { totals[sum.name] = sum.total_beats; }, true);
  for (std::uint32_t a = 0; a < n; ++a) {
    const std::uint64_t e = ctl->app_emitted[a];
    const auto it = totals.find(s.apps[a].name);
    const std::uint64_t got = it == totals.end() ? 0 : it->second;
    emitted += e;
    if (got < e) lost += e - got;
    if (got > e) extra += got - e;
  }
  const auto pstats = rep->mon_->pump->stats();
  const std::uint64_t lost_frames = pstats.dropped + pstats.torn;

  std::uint64_t wrong = rep->wrong_verdicts_;
  std::uint64_t episodes = 0;
  for (std::uint32_t a = 0; a < n; ++a) {
    for (Episode& e : rep->episodes_[a]) {
      ++episodes;
      if (e.detected_at == 0) {
        ++wrong;
        if (rep->wrong_notes_.size() < 10) {
          rep->wrong_notes_.push_back(s.apps[a].name + " never reported dead");
        }
        continue;
      }
      rep->detect_.push_back(static_cast<double>(e.detected_at - e.start_ns));
      if (e.resume_ns != kNever && e.revived_at == 0) {
        ++wrong;
        if (rep->wrong_notes_.size() < 10) {
          rep->wrong_notes_.push_back(s.apps[a].name + " never revived");
        }
      }
    }
  }
  // Churn: a rack silence's deaths that one sweep reports fold into exactly
  // one kCorrelatedFailure carrying all of them (none when fewer than
  // correlated_min_apps die in that sweep). The schedule makes a rack die
  // in one sweep; a host stall can still split it, which is reported, and
  // each part must then fold correctly on its own.
  std::uint64_t fold_violations = 0, split_racks = 0;
  const std::size_t min_fold = hb::policy::PolicyOptions{}.correlated_min_apps;
  for (const Silence& sil : s.silences) {
    if (!sil.group_wide || sil.app % 16 != 0) continue;  // once per rack silence
    const std::int32_t g = s.apps[sil.app].group;
    const std::int64_t start = rep->t0_ + s.due_ns(sil.app, sil.first_slot);
    std::map<std::int64_t, std::size_t> deaths_at;  // tick end -> members
    for (std::uint32_t a = sil.app; a < sil.app + 16; ++a) {
      for (const Episode& e : rep->episodes_[a]) {
        if (e.start_ns == start && e.detected_at != 0) ++deaths_at[e.detected_at];
      }
    }
    if (deaths_at.size() > 1) ++split_racks;
    for (const auto& [at, members] : deaths_at) {
      std::size_t folds = 0, folded = 0;
      for (const FoldEvent& f : rep->folds_) {
        if (f.group == g && f.at == at) {
          ++folds;
          folded = f.apps;
        }
      }
      const bool ok = members >= min_fold ? folds == 1 && folded == members : folds == 0;
      if (!ok) {
        ++fold_violations;
        std::printf("#   gate: %s: %zu deaths in one sweep gave %zu folds (%zu apps)\n",
                    s.groups[static_cast<std::size_t>(g)].c_str(), members, folds, folded);
      }
    }
  }
  if (split_racks > 0) {
    std::printf("# note: %" PRIu64 " rack silences died across more than one sweep\n",
                split_racks);
  }
  wrong += fold_violations;

  const std::uint64_t attempted = emitted + episodes;
  const std::uint64_t failed = lost + extra + lost_frames + wrong;
  const bool correct = failed == 0 && emitted > 0;
  std::printf("# gates: emitted=%" PRIu64 " lost=%" PRIu64 " extra=%" PRIu64
              " dropped_frames=%" PRIu64 " torn_frames=%" PRIu64
              " wrong_verdicts=%" PRIu64 " (fold_violations=%" PRIu64
              ") episodes=%" PRIu64 " -> %s\n",
              emitted, lost, extra, pstats.dropped, pstats.torn, wrong,
              fold_violations, episodes, correct ? "ok" : "FAILED");
  for (const std::string& note : rep->wrong_notes_) std::printf("#   wrong: %s\n", note.c_str());

  // ---- measured window
  const CounterSample& w0 = rep->w0_;
  const CounterSample& w1 = rep->w1_;
  const double wall_s = static_cast<double>(w1.at - w0.at) / 1e9;
  const double delivered = static_cast<double>(w1.pump.consumed - w0.pump.consumed);
  // Per sub-window figures (see kSubWindows). Latency percentiles report
  // their median; CPU costs their lower quartile and throughput its upper
  // quartile, because outside interference only ever adds cost.
  std::vector<double> rate_k, producer_k, monitor_k, vis50_k, vis99_k, ver50_k, ver99_k;
  double gen_cpu = 0, monitor_cpu = 0;
  FineHistogram late, beat_ns, visible, verdict;
  for (std::uint32_t t = 0; t < s.gen_threads; ++t) {
    late.merge(ctl->threads[t].late);
    beat_ns.merge(ctl->threads[t].beat_ns);
  }
  for (int k = 0; k < kSubWindows; ++k) {
    double cpu = 0, beats = 0;
    for (std::uint32_t t = 0; t < s.gen_threads; ++t) {
      cpu += static_cast<double>(ctl->threads[t].cpu_ns[k]);
      beats += static_cast<double>(ctl->threads[t].beats[k]);
    }
    gen_cpu += cpu;
    const double mon_cpu =
        static_cast<double>(rep->pipe_win_.cpu(k) + rep->probe_win_.cpu(k));
    monitor_cpu += mon_cpu;
    const double got = static_cast<double>(rep->consumed_at_[k + 1] - rep->consumed_at_[k]);
    const double secs = static_cast<double>(rep->at_[k + 1] - rep->at_[k]) / 1e9;
    if (beats > 0) producer_k.push_back(cpu / beats);
    if (got > 0 && secs > 0) {
      rate_k.push_back(got / secs);
      monitor_k.push_back(mon_cpu / got);
    }
    visible.merge(rep->visible_[k]);
    verdict.merge(rep->verdict_[k]);
    if (rep->visible_[k].count() > 0) {
      vis50_k.push_back(rep->visible_[k].percentile(50));
      vis99_k.push_back(rep->visible_[k].percentile(99));
    }
    if (rep->verdict_[k].count() > 0) {
      ver50_k.push_back(rep->verdict_[k].percentile(50));
      ver99_k.push_back(rep->verdict_[k].percentile(99));
    }
  }
  const double gen_late_ms_p99 = late.percentile(99) / 1e6;
  if (gen_late_ms_p99 > kLateLimitMs) {
    std::printf("# WARNING: generator fell behind its schedule (late p99 %.3f ms > "
                "%.1f ms): this run measured the scheduler, not the pipeline\n",
                gen_late_ms_p99, kLateLimitMs);
  }
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  std::printf("# window: %.3f s, %.0f beats delivered, visible n=%" PRIu64
              " verdict n=%" PRIu64 " detect n=%" PRIu64 ", gen late p99 %.3f ms, "
              "tick late p99 %.3f ms, torn frames before/in/after window %" PRIu64
              "/%" PRIu64 "/%" PRIu64 "\n",
              wall_s, delivered, visible.count(), verdict.count(),
              rep->detect_.size(), gen_late_ms_p99, rep->tick_late_.percentile(99) / 1e6,
              w0.pump.torn, w1.pump.torn - w0.pump.torn, pstats.torn - w1.pump.torn);

  auto print_subs = [](const char* name, const std::vector<double>& v, double scale) {
    std::printf("# sub-windows %s:", name);
    for (const double x : v) std::printf(" %.4g", x * scale);
    std::printf("\n");
  };
  print_subs("beats/s", rate_k, 1.0);
  print_subs("producer_ns", producer_k, 1.0);
  print_subs("monitor_us/kbeat", monitor_k, 1.0);
  print_subs("visible_ms_p50", vis50_k, 1e-6);
  print_subs("verdict_ms_p50", ver50_k, 1e-6);

  std::vector<Metric> metrics;
  if (!args.trace) {
    metrics = {
        {"setup_s", median(setups), "s"},
        {"delivered_beats_per_s", quantile(rate_k, 0.75), "beats/s"},
        {"visible_ms_p50", median(vis50_k) / 1e6, "ms"},
        {"visible_ms_p99", median(vis99_k) / 1e6, "ms"},
        {"verdict_ms_p50", median(ver50_k) / 1e6, "ms"},
        {"verdict_ms_p99", median(ver99_k) / 1e6, "ms"},
        {"detect_ms_p50", percentile(rep->detect_, 50) / 1e6, "ms"},
        {"detect_ms_p99", percentile(rep->detect_, 99) / 1e6, "ms"},
        {"producer_ns_per_beat", quantile(producer_k, 0.25), "ns"},
        {"monitor_cpu_us_per_kbeat", quantile(monitor_k, 0.25), "us"},
        {"monitor_rss_mb", static_cast<double>(ru.ru_maxrss) / 1024.0, "MB"},
    };
  } else {
    const auto reg = hb::obs::MetricsRegistry::global().snapshot();
    const hb::obs::MetricValue* publish = reg.find("hb.hub.publish_ns");
    const double rebuilds = static_cast<double>(w1.snap.fleet_rebuilds - w0.snap.fleet_rebuilds);
    const double hits = static_cast<double>(w1.snap.fleet_hits - w0.snap.fleet_hits);
    const double publishes = static_cast<double>(w1.publishes - w0.publishes);
    const double skips = static_cast<double>(w1.publish_skips - w0.publish_skips);
    const double polls = static_cast<double>(w1.pump.polls - w0.pump.polls);

    // Spans from every process, for the dump and the self-time table.
    std::vector<Span> spans = rep->pipe_spans_.spans();
    spans.insert(spans.end(), rep->probe_spans_.spans().begin(),
                 rep->probe_spans_.spans().end());
    const std::uint64_t gen_spans =
        std::min<std::uint64_t>(ctl->span_count.load(), kGenSpanCap);
    spans.insert(spans.end(), ctl->spans, ctl->spans + gen_spans);
    std::string table;
    const double unaccounted = self_time_table(rep->pipe_spans_.spans(), &table);
    const double timed = static_cast<double>(rep->timed_calls_ + rep->timed_calls_probe_ +
                                             beat_ns.count());
    const double overhead =
        ratio(timed * span_cost, monitor_cpu + gen_cpu);

    const fs::path out_dir = fs::path(kWorkDir) / "out";
    fs::create_directories(out_dir);
    const std::string path = (out_dir /
                              (std::string(workload_name(s.workload)) + "-seed" +
                               std::to_string(s.seed) + ".trace.json"))
                                 .string();
    char other[512];
    std::snprintf(other, sizeof(other),
                  "{\"workload\":\"%s\",\"seed\":%" PRIu64 ",\"span_cost_ns\":%.3f,"
                  "\"recorded\":{\"pipeline\":%" PRIu64 ",\"probe\":%" PRIu64
                  ",\"generator\":%" PRIu64 "},\"selftime\":",
                  workload_name(s.workload), s.seed, span_cost,
                  rep->pipe_spans_.recorded(), rep->probe_spans_.recorded(),
                  ctl->span_count.load());
    if (write_chrome_trace(path, spans, rep->t0_, std::string(other) + table + "}")) {
      std::printf("# span dump (%zu spans, Chrome trace JSON) -> %s\n", spans.size(),
                  path.c_str());
    } else {
      std::fprintf(stderr, "pipebench: cannot write %s\n", path.c_str());
    }

    metrics = {
        {"core.beat_ns_p50", beat_ns.percentile(50), "ns"},
        {"core.beat_ns_p99", beat_ns.percentile(99), "ns"},
        {"transport.lane_record_share",
         ratio(static_cast<double>(w1.pump.lane_records - w0.pump.lane_records), delivered), "ratio"},
        {"transport.backlog_records_p99", rep->backlog_.percentile(99), "records"},
        {"transport.dropped_frames", static_cast<double>(pstats.dropped), "count"},
        {"transport.torn_frames", static_cast<double>(pstats.torn), "count"},
        {"transport.doorbell_rings_per_kbeat",
         1000.0 * ratio(static_cast<double>(w1.rings - w0.rings), delivered), "count"},
        {"hub.pump_poll_ns_p50", rep->poll_ns_.percentile(50), "ns"},
        {"hub.pump_poll_ns_p99", rep->poll_ns_.percentile(99), "ns"},
        {"hub.pump_records_per_poll", ratio(delivered, polls), "records"},
        {"hub.pump_busy_share",
         ratio(static_cast<double>(rep->poll_busy_ns_), wall_s * 1e9), "ratio"},
        {"hub.pump_wait_ns_p50", rep->wait_ns_.percentile(50), "ns"},
        {"hub.pump_parks_per_s",
         ratio(static_cast<double>(w1.pump.parks - w0.pump.parks), wall_s), "1/s"},
        {"hub.pump_wakes_per_s",
         ratio(static_cast<double>(w1.pump.doorbell_wakes - w0.pump.doorbell_wakes), wall_s),
         "1/s"},
        {"hub.pump_wait_timeouts",
         static_cast<double>(w1.pump.wait_timeouts - w0.pump.wait_timeouts), "count"},
        {"hub.pump_spurious_wakes",
         static_cast<double>(w1.pump.spurious_wakes - w0.pump.spurious_wakes), "count"},
        {"hub.snapshot_ns_p50", rep->probe_snap_ns_.percentile(50), "ns"},
        {"hub.snapshot_ns_p99", rep->probe_snap_ns_.percentile(99), "ns"},
        {"hub.tick_snapshot_ns_p99", rep->tick_snap_ns_.percentile(99), "ns"},
        {"hub.snapshot_rebuild_share", ratio(rebuilds, rebuilds + hits), "ratio"},
        {"hub.publish_ns_p50", publish ? static_cast<double>(publish->p50) : 0.0, "ns"},
        {"hub.publish_ns_p99", publish ? static_cast<double>(publish->p99) : 0.0, "ns"},
        {"hub.publish_skip_share", ratio(skips, skips + publishes), "ratio"},
        {"fault.sweep_ns_p50", rep->sweep_ns_.percentile(50), "ns"},
        {"fault.sweep_ns_p99", rep->sweep_ns_.percentile(99), "ns"},
        {"policy.observe_ns_p50", rep->observe_ns_.percentile(50), "ns"},
        {"policy.observe_ns_p99", rep->observe_ns_.percentile(99), "ns"},
        {"policy.events_per_s",
         ratio(static_cast<double>(w1.policy.events - w0.policy.events), wall_s), "1/s"},
        {"policy.correlated_failures",
         static_cast<double>(w1.policy.correlated_failures - w0.policy.correlated_failures),
         "count"},
        {"policy.quarantines",
         static_cast<double>(w1.policy.quarantines - w0.policy.quarantines), "count"},
        {"obs.record_report_ns_p99", rep->record_ns_.percentile(99), "ns"},
        {"bench.gen_late_ms_p99", gen_late_ms_p99, "ms"},
        {"bench.tick_late_ms_p99", rep->tick_late_.percentile(99) / 1e6, "ms"},
        {"bench.trace_overhead_share", overhead, "ratio"},
        {"bench.tick_unaccounted_share", unaccounted, "ratio"},
        {"bench.lost_beat_ratio",
         ratio(static_cast<double>(lost + extra), static_cast<double>(emitted)), "ratio"},
        {"bench.wrong_verdicts", static_cast<double>(wrong), "count"},
    };
  }
  rep.reset();
  print_result(correct, attempted, failed, metrics);
  return correct ? 0 : 1;
}

}  // namespace
}  // namespace pipebench

int main(int argc, char** argv) {
  pipebench::Args args;
  if (!pipebench::parse_args(argc, argv, &args)) return pipebench::usage(argv[0]);
  try {
    return pipebench::run(args);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "pipebench: %s\n", e.what());
    return 2;
  }
}
