// Ingest A/B on one ring: packed batches vs per-record appends.
//
// Two ways a fleet of producers can push beats into one ShmIngestQueue:
//
//   * per_record — every beat is one append() call: one fetch_add claim
//                  on the ring head, one 128-byte frame holding one
//                  timestamp.
//   * packed     — producers buffer a small batch, and the batch packs up
//                  to kIngestFrameRecords timestamps per frame under one
//                  claim.
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
// miscounted loss is not. No producer crashes, so no frame may be torn:
// a claim names its live owner, a live owner is waited for, and a lapped
// writer drops its frame rather than overwrite or stall the newer one.
// Packed runs also check packing, a count
// no host changes: every flush is a multiple of kIngestFrameRecords
// beats, so each producer must publish exactly
// ceil(beats / kIngestFrameRecords) frames — all full but its last.
//
//   ./bench_shm_ingest [beats_per_producer] [repeat] [--smoke] [--json PATH]
//
// CSV on stdout; verdict line prints packed_faster_at_64=yes|no.
// Exit 0 unless the conservation, torn-frame, packing or idle-CPU gate
// fails (exit 2).
#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <ctime>
#include <filesystem>
#include <memory>
#include <span>
#include <string>
#include <thread>
#include <vector>

#include <unistd.h>

#include "bench_json.hpp"
#include "hub/hub.hpp"
#include "hub/shm_pump.hpp"
#include "transport/shm_ingest.hpp"
#include "util/clock.hpp"
#include "util/time.hpp"

namespace {

namespace fs = std::filesystem;

using SteadyClock = std::chrono::steady_clock;
using hb::transport::ShmIngestQueue;

constexpr std::uint32_t kRingFrames = 4096;
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

  std::vector<std::string> names;
  names.reserve(static_cast<std::size_t>(producers));
  for (int p = 0; p < producers; ++p) {
    names.push_back("prod-" + std::to_string(p));
  }

  std::atomic<int> done{0};
  std::atomic<bool> go{false};

  std::vector<std::thread> threads;
  threads.reserve(static_cast<std::size_t>(producers));
  for (int p = 0; p < producers; ++p) {
    threads.emplace_back([&, p] {
      while (!go.load(std::memory_order_acquire)) std::this_thread::yield();
      const std::string_view name = names[static_cast<std::size_t>(p)];
      if (!packed) {
        for (int i = 0; i < beats; ++i) queue->append(name, now_ns(), target);
      } else {
        hb::util::TimeNs batch[kBatch];
        int i = 0;
        while (i < beats) {
          std::size_t n = 0;
          for (; n < kBatch && i < beats; ++n, ++i) batch[n] = now_ns();
          queue->append_batch(name, {batch, n}, target);
        }
      }
      done.fetch_add(1, std::memory_order_release);
    });
  }

  ShmIngestQueue::Cursor cur;
  std::uint64_t delivered = 0;
  const auto sink = [&delivered](std::string_view, hb::core::TargetRate,
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

/// The fastest of `repeat` runs, whose gates hold only if they held in
/// every run: a violation is never hidden.
template <typename Fn>
RunResult best_of(int repeat, Fn&& fn) {
  RunResult best;
  bool conserved = true;
  bool packed = true;
  std::uint64_t torn = 0;
  for (int r = 0; r < repeat; ++r) {
    const RunResult run = fn();
    conserved = conserved && run.conserved;
    packed = packed && run.packed;
    torn += run.torn;
    if (r == 0 || run.elapsed_s < best.elapsed_s) best = run;
  }
  best.conserved = conserved;
  best.packed = packed;
  best.torn = torn;
  return best;
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
  double packed_records_per_frame = 0.0;
  double per_record_at_64 = 0.0;
  double packed_at_64 = 0.0;
  struct Row {
    int producers;
    double per_record_rate, packed_rate;
  };
  std::vector<Row> rows;
  for (const int producers : kProducerCounts) {
    double rate[2] = {};
    for (const bool packed_mode : {false, true}) {
      const RunResult run = best_of(repeat, [&] {
        return run_config(dir, producers, beats, packed_mode);
      });
      rate[packed_mode ? 1 : 0] =
          static_cast<double>(run.delivered) / run.elapsed_s;
      std::printf("%s,%d,%d,%.4f,%.0f,%llu,%llu,%llu,%.2f\n",
                  packed_mode ? "packed" : "per_record", producers, beats,
                  run.elapsed_s, rate[packed_mode ? 1 : 0],
                  static_cast<unsigned long long>(run.delivered),
                  static_cast<unsigned long long>(run.dropped),
                  static_cast<unsigned long long>(run.torn),
                  run.records_per_frame);
      std::fflush(stdout);
      conserved = conserved && run.conserved;
      packed = packed && run.packed;
      torn += run.torn;
      if (packed_mode && producers == 8) {
        packed_records_per_frame = run.records_per_frame;
      }
    }
    rows.push_back({producers, rate[0], rate[1]});
    if (producers == 64) {
      per_record_at_64 = rate[0];
      packed_at_64 = rate[1];
    }
  }

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
  std::printf("# torn_frames=%llu (no producer crashed; gate=%s)\n",
              static_cast<unsigned long long>(torn), torn == 0 ? "ok" : "FAIL");
  std::printf("# packed_frames_packed=%s (%.2f records per frame at 8)\n",
              packed ? "yes" : "NO", packed_records_per_frame);

  if (json_path) {
    hb::bench::JsonRecord rec("shm_ingest");
    rec.config("beats_per_producer", beats);
    rec.config("repeat", repeat);
    rec.config("smoke", smoke);
    rec.config("doorbell", doorbell ? "futex" : "fallback");
    for (const Row& row : rows) {
      const std::string p = std::to_string(row.producers);
      rec.metric(("per_record_beats_per_sec_p" + p).c_str(),
                 row.per_record_rate);
      rec.metric(("packed_beats_per_sec_p" + p).c_str(), row.packed_rate);
    }
    rec.metric("packed_speedup_p64",
               per_record_at_64 > 0 ? packed_at_64 / per_record_at_64 : 0.0);
    rec.metric("packed_faster_at_64", packed_wins);
    rec.metric("idle_consumer_cpu_pct", idle_pct);
    rec.metric("frames_conserved", conserved);
    rec.metric("torn_frames", torn);
    rec.metric("packed_records_per_frame_p8", packed_records_per_frame);
    rec.metric("packed_frames_packed", packed);
    rec.write(json_path);
  }

  // Exit gates on the invariants only (conservation, no torn frame without
  // a crash, packing, idle-CPU); the throughput verdict is a
  // noisy-runner-unsafe claim and stays informational (same policy as
  // bench_fleet_sweep's mismatch gate).
  if (!conserved) return 2;
  if (torn != 0) return 2;
  if (!packed) return 2;
  if (!idle_ok) return 2;
  return 0;
}
