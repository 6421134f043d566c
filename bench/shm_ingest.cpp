// Ingest A/B on one ring: packed batches vs per-record appends, plus the
// pump's cost per record for a wide fleet of one-beat producers and for a
// packed fleet of batching producers.
//
// Two ways a fleet of producers can push beats into one ShmIngestQueue:
//
//   * per_record — every beat is one append() call: one fetch_add claim
//                  on the ring head, one 64-byte frame holding one
//                  timestamp.
//   * packed     — producers buffer a small batch, and the batch packs up
//                  to kIngestFrameRecords (9) timestamps per frame under
//                  one claim.
//
// A concurrent consumer drains the whole time, so the number reported is
// SUSTAINED delivery — what a live hbmon actually ingests per second —
// not an unconsumed producer-side burst rate. Producers never wait for
// the consumer: when they lap it, the lapped frames are dropped.
//
// The bench also measures the doorbell's reason to exist: a consumer
// parked on an idle ring should cost ~zero CPU. The idle section runs the
// canonical pump loop (poll + wait) over a quiet second and reads
// CLOCK_THREAD_CPUTIME_ID around it; with the futex doorbell available the
// consumer thread must stay under 1% CPU, and the bench FAILS otherwise.
//
// Every run ends with a conservation coda: frames consumed + frames
// dropped + frames torn must equal frames produced (the ring head),
// exactly, in every configuration. Loss is legal under lap pressure;
// miscounted loss is not. No producer crashes, so no frame may be torn
// for a dead owner: a claim names its live owner, a live owner is waited
// for, and a lapped writer drops its frame rather than overwrite or stall
// the newer one. A live owner stalled past kClaimLivenessTimeoutNs on a
// saturated host is still skipped; those frames are counted apart
// (timed_out_frames) and recorded, not gated.
// Packed runs also check packing, a count no host changes: every flush is
// a multiple of kIngestFrameRecords (nine) beats, so each producer must
// publish exactly ceil(beats / 9) frames — all full but its last.
// At 64 producers a full run repeats each mode kRepeatP64 times and keeps
// the median rate with its min and max: 64 threads lap a consumer that
// gets little CPU, so one run's rate is a draw. These rates are a record
// of the spread, not a tripwire.
//
// The fleet sections put ShmHubSink producers (one directory entry each)
// on one ring, beating round-robin, while a live pump (its own thread,
// the canonical poll()/wait() loop, into a HeartbeatHub) drains them. Each
// reports the pump thread's CPU time inside poll() per record: drain,
// route and apply together.
//   * wide_fleet — the monitor's common case: 4096 producers at
//     flush_every 1, one one-beat frame per beat, so every run the pump
//     stages holds one beat;
//   * packed_fleet — the firehose shape: 32 producers at flush_every 12,
//     so each staged run holds one app's 12 consecutive beats, which the
//     hub applies as one run.
// The producer waits for the pump whenever a round would put more than
// kFleetInflight flushed beats in flight, so no frame is lapped, and each
// section gates on every beat being applied: no drop, tear or rejection.
//
//   ./bench_shm_ingest [beats_per_producer] [repeat] [--smoke] [--json PATH]
//
// CSV on stdout; verdict line prints packed_faster_at_64=yes|no.
// Exit 0 unless the conservation, torn-frame, packing, fleet or idle-CPU
// gate fails (exit 2).
#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <ctime>
#include <filesystem>
#include <limits>
#include <memory>
#include <span>
#include <string>
#include <thread>
#include <vector>

#include <unistd.h>

#include "bench_json.hpp"
#include "core/memory_store.hpp"
#include "hub/hub.hpp"
#include "hub/shm_pump.hpp"
#include "transport/shm_ingest.hpp"
#include "util/clock.hpp"
#include "util/time.hpp"

namespace {

namespace fs = std::filesystem;

using SteadyClock = std::chrono::steady_clock;
using hb::transport::AppHandle;
using hb::transport::ShmIngestQueue;

constexpr std::uint32_t kRingFrames = 4096;
/// Runs per mode at 64 producers in a full run, whose rates the record
/// keeps as a median with its min and max.
constexpr int kRepeatP64 = 5;
/// Producers in the wide-fleet section, and its ring (the registry's
/// default capacity, as a monitor opens it).
constexpr std::uint32_t kWideApps = 4096;
constexpr std::uint32_t kWideRingFrames = 1u << 15;
/// Producers in the packed-fleet section, their flush size (firehose's),
/// and its ring.
constexpr std::uint32_t kPackedApps = 32;
constexpr std::size_t kPackedFlushEvery = 12;
constexpr std::uint32_t kPackedRingFrames = 1u << 13;
/// Flushed beats a fleet section's producer lets the pump fall behind by:
/// two rounds of the wide fleet, well inside either ring.
constexpr std::uint64_t kFleetInflight = 2 * kWideApps;
using hb::transport::kIngestFrameRecords;
/// Producer-side buffer per flush in packed mode: a multiple of
/// kIngestFrameRecords so every flush packs into full frames.
constexpr std::size_t kBatch = 3 * kIngestFrameRecords;

hb::util::TimeNs now_ns() {
  return hb::util::MonotonicClock::instance()->now();
}

double thread_cpu_seconds() {
  timespec ts{};
  if (clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts) != 0) return 0.0;
  return static_cast<double>(ts.tv_sec) +
         static_cast<double>(ts.tv_nsec) * 1e-9;
}

struct RunResult {
  double elapsed_s = 0.0;       ///< producers started -> ring fully drained
  std::uint64_t delivered = 0;  ///< records the consumer handed to its sink
  std::uint64_t dropped = 0;    ///< frames lapped past the consumer
  std::uint64_t torn = 0;       ///< frames skipped uncommitted
  std::uint64_t timed_out = 0;  ///< of torn: skipped on the liveness timeout
  double records_per_frame = 0; ///< delivered / frames delivered
  bool conserved = false;       ///< consumed+dropped+torn == produced frames
  bool packed = false;          ///< packed: every frame full but the last
};

/// One A/B run: `producers` threads each push `beats` beats while one
/// consumer drains. packed=false appends one beat per call; packed=true
/// appends kBatch beats per call.
RunResult run_config(const fs::path& dir, int producers, int beats,
                     bool packed) {
  const auto path = dir / "ring.hbq";
  fs::remove(path);
  auto queue = ShmIngestQueue::create(path, kRingFrames);
  const hb::core::TargetRate target{1.0, 1e9};

  std::vector<AppHandle> apps;
  apps.reserve(static_cast<std::size_t>(producers));
  for (int p = 0; p < producers; ++p) {
    apps.push_back(queue->join("prod-" + std::to_string(p), target));
  }

  std::atomic<int> done{0};
  std::atomic<bool> go{false};

  std::vector<std::thread> threads;
  threads.reserve(static_cast<std::size_t>(producers));
  for (int p = 0; p < producers; ++p) {
    threads.emplace_back([&, p] {
      while (!go.load(std::memory_order_acquire)) std::this_thread::yield();
      const AppHandle app = apps[static_cast<std::size_t>(p)];
      if (!packed) {
        for (int i = 0; i < beats; ++i) queue->append(app, now_ns());
      } else {
        hb::util::TimeNs batch[kBatch];
        int i = 0;
        while (i < beats) {
          std::size_t n = 0;
          for (; n < kBatch && i < beats; ++n, ++i) batch[n] = now_ns();
          queue->append_batch(app, {batch, n});
        }
      }
      done.fetch_add(1, std::memory_order_release);
    });
  }

  ShmIngestQueue::Cursor cur;
  std::uint64_t delivered = 0;
  const auto sink = [&delivered](std::uint32_t, std::uint32_t,
                                 std::span<const hb::util::TimeNs> timestamps) {
    delivered += timestamps.size();
  };

  const auto t0 = SteadyClock::now();
  go.store(true, std::memory_order_release);
  for (;;) {
    queue->drain(cur, sink);
    if (done.load(std::memory_order_acquire) == producers &&
        !queue->has_frames(cur)) {
      break;
    }
    queue->wait_for_frames(cur, hb::util::kNsPerMs);
  }
  const auto t1 = SteadyClock::now();
  for (auto& t : threads) t.join();

  const std::uint64_t frames_produced = queue->produced();

  RunResult result;
  result.elapsed_s = std::chrono::duration<double>(t1 - t0).count();
  result.delivered = delivered;
  result.dropped = cur.dropped;
  result.torn = cur.torn;
  result.timed_out = cur.timed_out;
  result.records_per_frame =
      cur.consumed_frames > 0 ? static_cast<double>(cur.consumed) /
                                    static_cast<double>(cur.consumed_frames)
                              : 0.0;
  result.conserved =
      cur.consumed_frames + cur.dropped + cur.torn == frames_produced;
  const std::uint64_t full_frames =
      static_cast<std::uint64_t>(producers) *
      ((static_cast<std::uint64_t>(beats) + kIngestFrameRecords - 1) /
       kIngestFrameRecords);
  result.packed = !packed || frames_produced == full_frames;
  if (!result.packed) {
    std::fprintf(stderr,
                 "PACKING REGRESSION: %llu frames produced, %llu expected\n",
                 static_cast<unsigned long long>(frames_produced),
                 static_cast<unsigned long long>(full_frames));
  }
  if (!result.conserved) {
    std::fprintf(stderr,
                 "CONSERVATION VIOLATION: consumed_frames=%llu dropped=%llu "
                 "torn=%llu produced=%llu\n",
                 static_cast<unsigned long long>(cur.consumed_frames),
                 static_cast<unsigned long long>(cur.dropped),
                 static_cast<unsigned long long>(cur.torn),
                 static_cast<unsigned long long>(frames_produced));
  }
  return result;
}

struct FleetResult {
  double pump_ns_per_record = 0;  ///< pump-thread CPU in poll() per record
  double producer_ns_per_beat = 0;  ///< producer wall time per beat
  std::uint64_t records = 0;        ///< beats the producers sent
  bool whole = false;  ///< every beat applied: no drop, tear or rejection
};

/// One fleet section: `apps` producers at `flush_every`, `rounds` beats
/// each (a multiple of flush_every), into one ring drained by a live pump.
FleetResult run_fleet(const fs::path& dir, const char* name,
                      std::uint32_t apps, std::size_t flush_every,
                      std::uint32_t ring_frames, int rounds) {
  const auto path = dir / (std::string(name) + ".hbq");
  fs::remove(path);
  auto queue = ShmIngestQueue::create(path, ring_frames);
  hb::transport::ShmHubSinkOptions sink_opts;
  sink_opts.flush_every = flush_every;
  // Flush on fill only, so every staged run holds flush_every beats.
  sink_opts.max_hold_ns = std::numeric_limits<hb::util::TimeNs>::max();
  std::vector<std::unique_ptr<hb::transport::ShmHubSink>> sinks;
  sinks.reserve(apps);
  for (std::uint32_t a = 0; a < apps; ++a) {
    sinks.push_back(std::make_unique<hb::transport::ShmHubSink>(
        std::make_shared<hb::core::MemoryStore>(16, 4), queue,
        std::string(name) + "-" + std::to_string(a), sink_opts));
  }
  hb::hub::HubOptions hub_opts;
  hub_opts.shard_count = 8;
  hb::hub::HeartbeatHub hub(hub_opts);
  hb::hub::ShmIngestPump pump(queue, hub);

  std::atomic<std::uint64_t> consumed{0};
  std::atomic<bool> stop{false};
  double poll_cpu_s = 0;
  std::thread pump_thread([&] {
    while (!stop.load(std::memory_order_acquire)) {
      const double c0 = thread_cpu_seconds();
      pump.poll();
      poll_cpu_s += thread_cpu_seconds() - c0;
      consumed.store(pump.stats().consumed, std::memory_order_release);
      pump.wait(hb::util::kNsPerMs);
    }
  });

  const std::uint64_t total = std::uint64_t{apps} * rounds;
  hb::core::HeartbeatRecord rec;
  const auto t0 = SteadyClock::now();
  for (int r = 0; r < rounds; ++r) {
    // Beats flushed once this round is sent: every producer flushes on
    // the same round.
    const std::uint64_t flushed =
        std::uint64_t{apps} * flush_every * ((r + 1) / flush_every);
    while (consumed.load(std::memory_order_acquire) + kFleetInflight <
           flushed) {
      std::this_thread::yield();
    }
    for (auto& sink : sinks) {
      rec.timestamp_ns = now_ns();
      sink->append(rec);
    }
  }
  const auto t1 = SteadyClock::now();
  // Bounded: a lost beat fails the gate below instead of hanging the bench.
  const auto deadline = t1 + std::chrono::seconds(10);
  while (consumed.load(std::memory_order_acquire) < total &&
         SteadyClock::now() < deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  stop.store(true, std::memory_order_release);
  pump_thread.join();

  const hb::hub::ShmIngestPumpStats stats = pump.stats();
  std::uint64_t ingested = 0;
  for (std::size_t i = 0; i < hub.shard_count(); ++i) {
    ingested += hub.shard(i).stats().ingested;
  }
  FleetResult result;
  result.records = total;
  result.pump_ns_per_record =
      stats.consumed > 0 ? 1e9 * poll_cpu_s / static_cast<double>(stats.consumed)
                         : 0.0;
  result.producer_ns_per_beat =
      1e9 * std::chrono::duration<double>(t1 - t0).count() /
      static_cast<double>(total);
  result.whole = stats.consumed == total && stats.dropped == 0 &&
                 stats.torn == 0 && stats.rejected == 0 && ingested == total &&
                 stats.apps == apps;
  if (!result.whole) {
    std::fprintf(stderr,
                 "%s LOSS: consumed=%llu dropped=%llu torn=%llu "
                 "rejected=%llu ingested=%llu sent=%llu apps=%llu\n",
                 name, static_cast<unsigned long long>(stats.consumed),
                 static_cast<unsigned long long>(stats.dropped),
                 static_cast<unsigned long long>(stats.torn),
                 static_cast<unsigned long long>(stats.rejected),
                 static_cast<unsigned long long>(ingested),
                 static_cast<unsigned long long>(total),
                 static_cast<unsigned long long>(stats.apps));
  }
  return result;
}

/// The doorbell's idle bill: the canonical pump loop over a quiet ring for
/// `window_s` of wall time. Returns consumer-thread CPU seconds spent.
double run_idle(const fs::path& dir, double window_s, double* wall_out) {
  const auto path = dir / "idle.hbq";
  fs::remove(path);
  auto queue = ShmIngestQueue::create(path, 256);
  auto hub = std::make_shared<hb::hub::HeartbeatHub>();
  hb::hub::ShmIngestPumpOptions opts;
  opts.doorbell_timeout_ns = 50 * hb::util::kNsPerMs;
  hb::hub::ShmIngestPump pump(queue, hub, opts);

  const auto deadline =
      SteadyClock::now() + std::chrono::duration<double>(window_s);
  const auto w0 = SteadyClock::now();
  const double cpu0 = thread_cpu_seconds();
  while (SteadyClock::now() < deadline) {
    pump.poll();
    const auto left = std::chrono::duration_cast<std::chrono::nanoseconds>(
        deadline - SteadyClock::now());
    pump.wait(left.count());
  }
  const double cpu = thread_cpu_seconds() - cpu0;
  if (wall_out) {
    *wall_out = std::chrono::duration<double>(SteadyClock::now() - w0).count();
  }
  return cpu;
}

/// `repeat` runs of one configuration, sorted by delivered rate. The
/// gates hold only if they held in every run: a violation is never hidden.
struct Repeated {
  std::vector<RunResult> runs;  ///< slowest first
  bool conserved = true;
  bool packed = true;
  std::uint64_t torn = 0;
  std::uint64_t timed_out = 0;

  static double rate(const RunResult& r) {
    return static_cast<double>(r.delivered) / r.elapsed_s;
  }
  const RunResult& best() const { return runs.back(); }
  const RunResult& median() const { return runs[runs.size() / 2]; }
};

template <typename Fn>
Repeated repeat_runs(int repeat, Fn&& fn) {
  Repeated out;
  for (int r = 0; r < repeat; ++r) {
    const RunResult run = fn();
    out.conserved = out.conserved && run.conserved;
    out.packed = out.packed && run.packed;
    out.torn += run.torn;
    out.timed_out += run.timed_out;
    out.runs.push_back(run);
  }
  std::sort(out.runs.begin(), out.runs.end(),
            [](const RunResult& a, const RunResult& b) {
              return Repeated::rate(a) < Repeated::rate(b);
            });
  return out;
}

}  // namespace

int main(int argc, char** argv) {
  int beats = 20000;
  int repeat = 3;
  bool smoke = false;
  const char* json_path = nullptr;
  std::vector<const char*> positional;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--json") == 0 && i + 1 < argc) {
      json_path = argv[++i];
    } else if (std::strcmp(argv[i], "--smoke") == 0) {
      smoke = true;
    } else {
      positional.push_back(argv[i]);
    }
  }
  if (smoke) {
    beats = 2000;
    repeat = 1;
  }
  if (positional.size() > 0) beats = std::atoi(positional[0]);
  if (positional.size() > 1) repeat = std::atoi(positional[1]);
  if (beats < 100 || repeat < 1) {
    std::fprintf(stderr,
                 "usage: %s [beats_per_producer>=100] [repeat>=1] [--smoke] "
                 "[--json PATH]\n",
                 argv[0]);
    return 1;
  }

  const fs::path dir = fs::temp_directory_path() /
                       ("hb_bench_shm_ingest_" + std::to_string(::getpid()));
  fs::create_directories(dir);

  std::printf(
      "config,producers,beats_per_producer,elapsed_s,beats_per_sec,"
      "delivered,dropped_frames,torn_frames,records_per_frame\n");
  const int kProducerCounts[] = {8, 64};
  bool conserved = true;
  bool packed = true;
  std::uint64_t torn = 0;
  std::uint64_t timed_out = 0;
  double packed_records_per_frame = 0.0;
  double per_record_at_64 = 0.0;
  double packed_at_64 = 0.0;
  /// One mode at one producer count: the reported rate (best of `repeat`
  /// at 8 producers, median of kRepeatP64 at 64) and the spread.
  struct Row {
    std::string key;  ///< e.g. "packed_beats_per_sec_p64"
    double rate, min, max;
  };
  std::vector<Row> rows;
  for (const int producers : kProducerCounts) {
    for (const bool packed_mode : {false, true}) {
      // --smoke runs each configuration once: the committed record comes
      // from a full run.
      const int reps = producers == 64 && !smoke ? kRepeatP64 : repeat;
      const Repeated runs =
          repeat_runs(reps, [&] {
            return run_config(dir, producers, beats, packed_mode);
          });
      const RunResult& run = producers == 64 ? runs.median() : runs.best();
      const double rate = Repeated::rate(run);
      std::printf("%s,%d,%d,%.4f,%.0f,%llu,%llu,%llu,%.2f\n",
                  packed_mode ? "packed" : "per_record", producers, beats,
                  run.elapsed_s, rate,
                  static_cast<unsigned long long>(run.delivered),
                  static_cast<unsigned long long>(run.dropped),
                  static_cast<unsigned long long>(run.torn),
                  run.records_per_frame);
      std::fflush(stdout);
      conserved = conserved && runs.conserved;
      packed = packed && runs.packed;
      torn += runs.torn;
      timed_out += runs.timed_out;
      if (packed_mode && producers == 8) {
        packed_records_per_frame = run.records_per_frame;
      }
      rows.push_back({std::string(packed_mode ? "packed" : "per_record") +
                          "_beats_per_sec_p" + std::to_string(producers),
                      rate, Repeated::rate(runs.runs.front()),
                      Repeated::rate(runs.best())});
      if (producers == 64) (packed_mode ? packed_at_64 : per_record_at_64) = rate;
    }
  }

  // Fleet sections: the pump's cost per record at 4096 one-beat apps, and
  // at 32 apps whose staged runs hold 12 beats each.
  const FleetResult wide = run_fleet(dir, "wide_fleet", kWideApps, 1,
                                     kWideRingFrames, smoke ? 10 : 50);
  const FleetResult packed_fleet =
      run_fleet(dir, "packed_fleet", kPackedApps, kPackedFlushEvery,
                kPackedRingFrames, smoke ? 1200 : 48000);
  std::printf(
      "\nconfig,apps,flush_every,beats,pump_ns_per_record,"
      "producer_ns_per_beat\n");
  std::printf("wide_fleet,%u,1,%llu,%.1f,%.1f\n", kWideApps,
              static_cast<unsigned long long>(wide.records),
              wide.pump_ns_per_record, wide.producer_ns_per_beat);
  std::printf("packed_fleet,%u,%zu,%llu,%.1f,%.1f\n", kPackedApps,
              kPackedFlushEvery,
              static_cast<unsigned long long>(packed_fleet.records),
              packed_fleet.pump_ns_per_record,
              packed_fleet.producer_ns_per_beat);

  // Idle-CPU section: a parked consumer over a quiet second.
  double idle_wall = 0.0;
  const double idle_window_s = 1.0;
  const double idle_cpu = run_idle(dir, idle_window_s, &idle_wall);
  const double idle_pct = idle_wall > 0 ? 100.0 * idle_cpu / idle_wall : 0.0;
  const bool doorbell = ShmIngestQueue::doorbell_supported();
  // 1% of the window when the futex doorbell is parking the consumer; the
  // portable backoff fallback wakes every idle_sleep_max_ns and gets a
  // looser informational bill instead of a gate.
  const bool idle_ok = !doorbell || idle_cpu < 0.01 * idle_window_s;

  fs::remove_all(dir);
  const bool packed_wins = packed_at_64 > per_record_at_64;
  std::printf(
      "\n# packed_faster_at_64=%s (sustained: packed %.0f/s vs "
      "per_record %.0f/s)\n",
      packed_wins ? "yes" : "no", packed_at_64, per_record_at_64);
  std::printf("# idle_consumer_cpu_pct=%.3f (doorbell=%s, gate=%s)\n",
              idle_pct, doorbell ? "futex" : "fallback",
              idle_ok ? "ok" : "FAIL");
  std::printf("# frames_conserved=%s\n", conserved ? "yes" : "NO");
  // No producer crashed: every torn frame must be one a live owner held
  // past the liveness timeout.
  const bool torn_ok = torn == timed_out;
  std::printf("# torn_frames=%llu timed_out_frames=%llu (no producer "
              "crashed; gate=%s)\n",
              static_cast<unsigned long long>(torn),
              static_cast<unsigned long long>(timed_out),
              torn_ok ? "ok" : "FAIL");
  std::printf("# packed_frames_packed=%s (%.2f records per frame at 8)\n",
              packed ? "yes" : "NO", packed_records_per_frame);
  std::printf("# wide_fleet_whole=%s (every beat of %u one-beat apps "
              "applied; gate=%s)\n",
              wide.whole ? "yes" : "NO", kWideApps, wide.whole ? "ok" : "FAIL");
  std::printf("# packed_fleet_whole=%s (every beat of %u apps at flush_every "
              "%zu applied; gate=%s)\n",
              packed_fleet.whole ? "yes" : "NO", kPackedApps,
              kPackedFlushEvery, packed_fleet.whole ? "ok" : "FAIL");

  if (json_path) {
    hb::bench::JsonRecord rec("shm_ingest");
    rec.config("beats_per_producer", beats);
    rec.config("repeat", repeat);
    rec.config("smoke", smoke);
    rec.config("doorbell", doorbell ? "futex" : "fallback");
    rec.config("repeat_p64", smoke ? repeat : kRepeatP64);
    for (const Row& row : rows) {
      rec.metric(row.key.c_str(), row.rate);
      // The p64 rates are a median: the record keeps their spread.
      if (row.key.ends_with("_p64")) {
        rec.metric((row.key + "_min").c_str(), row.min);
        rec.metric((row.key + "_max").c_str(), row.max);
      }
    }
    rec.metric("packed_speedup_p64",
               per_record_at_64 > 0 ? packed_at_64 / per_record_at_64 : 0.0);
    rec.metric("packed_faster_at_64", packed_wins);
    rec.metric("idle_consumer_cpu_pct", idle_pct);
    rec.metric("frames_conserved", conserved);
    rec.metric("torn_frames", torn);
    rec.metric("timed_out_frames", timed_out);
    rec.metric("packed_records_per_frame_p8", packed_records_per_frame);
    rec.metric("packed_frames_packed", packed);
    rec.metric("wide_fleet_pump_ns_per_record", wide.pump_ns_per_record);
    rec.metric("wide_fleet_producer_ns_per_beat", wide.producer_ns_per_beat);
    rec.metric("wide_fleet_whole", wide.whole);
    rec.metric("packed_fleet_pump_ns_per_record",
               packed_fleet.pump_ns_per_record);
    rec.metric("packed_fleet_producer_ns_per_beat",
               packed_fleet.producer_ns_per_beat);
    rec.metric("packed_fleet_whole", packed_fleet.whole);
    rec.write(json_path);
  }

  // Exit gates on the invariants only (conservation, no frame torn but on
  // the liveness timeout, packing, whole fleets, idle-CPU); the throughput
  // verdict and the pump's ns per record are noisy-runner-unsafe figures
  // and stay informational (same policy as bench_fleet_sweep's mismatch
  // gate).
  if (!conserved) return 2;
  if (!torn_ok) return 2;
  if (!packed) return 2;
  if (!wide.whole) return 2;
  if (!packed_fleet.whole) return 2;
  if (!idle_ok) return 2;
  return 0;
}
