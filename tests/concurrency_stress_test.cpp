// Concurrency stress drills for the lock-free / seqlock planes.
//
// These tests exist to give ThreadSanitizer (and, less deterministically,
// plain and ASan builds) real contention to chew on: every drill runs
// writers and readers concurrently on the exact structures whose protocols
// the concurrency contract (docs/ARCHITECTURE.md) documents — the shard's
// three-mutex pipeline, the metrics registry's sharded counters, the trace
// ring's seqlock, and the shm ingest ring's claim/publish/drain protocol.
// Assertions are conservation laws and self-consistency checks that a torn
// read or lost update would violate; the races themselves are TSan's job.
//
// Iteration counts scale down under TSan (util::kTsanBuild): the point is
// interleaving coverage, not wall-clock endurance, and TSan runs ~10x slow.
#include <gtest/gtest.h>

#include <atomic>
#include <bit>
#include <cstdint>
#include <deque>
#include <filesystem>
#include <memory>
#include <set>
#include <span>
#include <string>
#include <string_view>
#include <thread>
#include <vector>

#include "hub/shard.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "test_support.hpp"
#include "transport/shm_ingest.hpp"
#include "util/clock.hpp"
#include "util/tsan.hpp"

namespace fs = std::filesystem;

namespace hb {
namespace {

// One knob for every drill: full size normally, ~1/8 under TSan.
constexpr std::size_t scaled(std::size_t n) {
  return util::kTsanBuild ? (n / 8 == 0 ? 1 : n / 8) : n;
}

// ---------------------------------------------------------------- HubShard
//
// Producers ingest one-record batches while one publisher loops publish()
// and readers spin on published() — both shard mutexes (state, snap) stay
// hot at once, plus set_target churn on the state lock. Each producer beats
// its own app with strictly increasing tickets and the rate spans the whole
// window, so in order the window's intervals add up exactly to its span:
// interval_mean_ns * rate_bps reads 1e9. A beat applied out of arrival
// order clamps an interval to 0 and makes the intervals add up to more
// than the span; a summary refreshed from a half-applied beat counts an
// interval the span lacks (or the reverse). The check is probabilistic: it
// needs a reader to catch such a window, and a lost race may not happen in
// a given run. Readers also hold each snapshot across several publishes:
// the shard recycles snapshot buffers, and a held one must still read as
// the copy taken when it was grabbed (an overwrite of it would also be a
// race for TSan to report).
TEST(ConcurrencyStress, ShardIngestPublishSnapshotReaders) {
  constexpr std::size_t kProducers = 4;
  const std::size_t beats_per_producer = scaled(4000);

  hub::ShardConfig config;
  config.window_capacity = 64;  // the rate spans the whole window
  config.clock = util::MonotonicClock::instance();
  hub::HubShard shard(0, config);

  std::vector<std::uint32_t> slots;
  slots.reserve(kProducers);
  for (std::size_t p = 0; p < kProducers; ++p) {
    slots.push_back(shard.add_app("app" + std::to_string(p),
                                  core::TargetRate{1.0, 1e9}));
  }

  std::atomic<bool> stop{false};
  std::atomic<std::int64_t> fake_ns{1};

  std::vector<std::thread> threads;
  for (std::size_t p = 0; p < kProducers; ++p) {
    threads.emplace_back([&, p] {
      for (std::size_t i = 0; i < beats_per_producer; ++i) {
        // relaxed: a unique-timestamp ticket; the atomic's modification
        // order makes one producer's tickets strictly increasing.
        const util::TimeNs ts = fake_ns.fetch_add(1, std::memory_order_relaxed);
        const hub::AppRun one{hub::make_app_id(0, slots[p]), {&ts, 1}};
        shard.ingest_batch({&one, 1});
      }
    });
  }
  threads.emplace_back([&] {  // publisher
    while (!stop.load(std::memory_order_acquire)) {
      shard.publish();
    }
  });
  for (int r = 0; r < 2; ++r) {
    threads.emplace_back([&] {  // snapshot readers
      // The last kHeld snapshots this reader grabbed, each with a copy
      // taken at the grab: the publisher recycles buffers all the while,
      // and a held one must still read as its copy when it is let go.
      constexpr std::size_t kHeld = 4;
      struct Held {
        std::shared_ptr<const hub::ShardSnapshot> snap;
        std::uint64_t epoch;
        std::vector<hub::AppSummary> apps;
      };
      std::deque<Held> held;
      std::uint64_t last_epoch = 0;
      while (!stop.load(std::memory_order_acquire)) {
        auto snap = shard.published();
        if (!snap) continue;
        // Epochs only move forward, and a snapshot is internally frozen.
        EXPECT_GE(snap->epoch, last_epoch);
        last_epoch = snap->epoch;
        for (const auto& app : snap->apps) {
          EXPECT_LE(app.window_beats, app.total_beats);
          if (app.window_beats >= 2) {
            EXPECT_NEAR(app.interval_mean_ns * app.rate_bps / 1e9, 1.0, 1e-6)
                << app.name;
          }
        }
        if (!held.empty() && held.back().snap == snap) continue;
        held.push_back({snap, snap->epoch, snap->apps});
        if (held.size() > kHeld) {
          const Held& oldest = held.front();
          EXPECT_EQ(oldest.snap->epoch, oldest.epoch);
          EXPECT_TRUE(test::same_summaries(oldest.snap->apps, oldest.apps))
              << "epoch " << oldest.epoch;
          held.pop_front();
        }
      }
    });
  }
  threads.emplace_back([&] {  // target churn on the state lock
    double lo = 1.0;
    while (!stop.load(std::memory_order_acquire)) {
      for (std::uint32_t slot : slots) {
        shard.set_target(slot, core::TargetRate{lo, 1e9});
      }
      lo = lo < 100.0 ? lo + 1.0 : 1.0;
      std::this_thread::yield();
    }
  });

  for (std::size_t p = 0; p < kProducers; ++p) threads[p].join();
  stop.store(true, std::memory_order_release);
  for (std::size_t t = kProducers; t < threads.size(); ++t) threads[t].join();

  // Conservation: every ingested beat is applied exactly once.
  auto snap = shard.publish();
  std::uint64_t total = 0;
  for (const auto& app : snap->apps) total += app.total_beats;
  EXPECT_EQ(total, kProducers * beats_per_producer);
  EXPECT_EQ(shard.stats().ingested, kProducers * beats_per_producer);
}

// ---------------------------------------------------------- MetricsRegistry
//
// Sharded-counter writers, gauge movers, and histogram recorders race
// registry snapshots. Counter totals must conserve; snapshots must stay
// internally ordered (sorted, monotone epochs).
TEST(ConcurrencyStress, MetricsWritersVsSnapshotReaders) {

  constexpr std::size_t kWriters = 4;
  const std::size_t adds_per_writer = scaled(20000);

  obs::MetricsRegistry registry;
  obs::Counter& hits = registry.counter("drill.hits");
  obs::Gauge& depth = registry.gauge("drill.depth");
  obs::Histogram& lat = registry.histogram("drill.lat_ns");

  std::atomic<bool> stop{false};
  std::vector<std::thread> threads;
  for (std::size_t w = 0; w < kWriters; ++w) {
    threads.emplace_back([&] {
      for (std::size_t i = 0; i < adds_per_writer; ++i) {
        hits.add(1);
        depth.add(1);
        if (i % 64 == 0) lat.record(i);
        depth.add(-1);
      }
    });
  }
  for (int r = 0; r < 2; ++r) {
    threads.emplace_back([&] {
      std::uint64_t last_epoch = 0;
      while (!stop.load(std::memory_order_acquire)) {
        obs::MetricsSnapshot snap = registry.snapshot();
        EXPECT_GT(snap.epoch, last_epoch);
        last_epoch = snap.epoch;
        const obs::MetricValue* v = snap.find("drill.hits");
        ASSERT_NE(v, nullptr);
        EXPECT_LE(v->count, kWriters * adds_per_writer);
      }
    });
  }
  for (std::size_t w = 0; w < kWriters; ++w) threads[w].join();
  stop.store(true, std::memory_order_release);
  for (std::size_t t = kWriters; t < threads.size(); ++t) threads[t].join();

  EXPECT_EQ(hits.value(), kWriters * adds_per_writer);
  EXPECT_EQ(depth.value(), 0);
  const obs::MetricsSnapshot snap = registry.snapshot();
  const obs::MetricValue* v = snap.find("drill.hits");
  ASSERT_NE(v, nullptr);
  EXPECT_EQ(v->count, kWriters * adds_per_writer);
}

// ------------------------------------------------------------- TraceRing
//
// Writers lap a deliberately tiny ring while readers snapshot it. Every
// record is written with start == end == arg, so any torn copy that
// survived the seqlock re-check would show up as a field mismatch.
TEST(ConcurrencyStress, TraceRingWrapWritersVsSnapshot) {

  constexpr std::size_t kWriters = 4;
  const std::size_t spans_per_writer = scaled(20000);
  static const char* const kNames[kWriters] = {"w0", "w1", "w2", "w3"};

  obs::TraceRing ring(32);  // tiny: writers lap constantly
  std::atomic<bool> stop{false};

  std::vector<std::thread> threads;
  for (std::size_t w = 0; w < kWriters; ++w) {
    threads.emplace_back([&, w] {
      for (std::size_t i = 0; i < spans_per_writer; ++i) {
        const std::uint64_t stamp = (w << 48) | i;
        obs::SpanRecord rec;
        rec.name = kNames[w];
        rec.start_ns = static_cast<util::TimeNs>(stamp);
        rec.end_ns = static_cast<util::TimeNs>(stamp);
        rec.tid = static_cast<std::uint32_t>(w);
        rec.arg = stamp;
        ring.record(rec);
      }
    });
  }
  const std::set<const char*> valid_names(kNames, kNames + kWriters);
  for (int r = 0; r < 2; ++r) {
    threads.emplace_back([&] {
      while (!stop.load(std::memory_order_acquire)) {
        for (const obs::SpanRecord& rec : ring.snapshot()) {
          // A torn record would mix two writers' stamps.
          EXPECT_TRUE(valid_names.count(rec.name)) << rec.name;
          EXPECT_EQ(rec.arg, static_cast<std::uint64_t>(rec.start_ns));
          EXPECT_EQ(rec.start_ns, rec.end_ns);
          EXPECT_EQ(rec.tid, rec.arg >> 48);
        }
      }
    });
  }
  for (std::size_t w = 0; w < kWriters; ++w) threads[w].join();
  stop.store(true, std::memory_order_release);
  for (std::size_t t = kWriters; t < threads.size(); ++t) threads[t].join();

  EXPECT_EQ(ring.recorded(), kWriters * spans_per_writer);
  for (const obs::SpanRecord& rec : ring.snapshot()) {
    EXPECT_EQ(rec.arg, static_cast<std::uint64_t>(rec.start_ns));
  }
}

// ---------------------------------------------------------- ShmIngestQueue

/// Beat i of producer p as a ring frame stamps it three ways: in its
/// timestamp, in its target ({i, p}) and in its app name ("app<p>").
util::TimeNs stamp_of(std::size_t p, std::size_t i) {
  return static_cast<util::TimeNs>((std::uint64_t{p} << 48) | i);
}
core::TargetRate stamp_target(std::size_t p, std::size_t i) {
  return {static_cast<double>(i), static_cast<double>(p)};
}

/// Producer p joins as "app<p>" and re-targets its entry to
/// stamp_target(p, i) before every beat i, so beat i's frame carries the
/// gen joined + 2 (i + 1).
void stamped_beats(transport::ShmIngestQueue& queue, transport::AppHandle app,
                   std::size_t p, std::size_t beats) {
  for (std::size_t i = 0; i < beats; ++i) {
    queue.set_target(app, stamp_target(p, i));
    queue.append(app, stamp_of(p, i));
  }
}

/// A delivered frame holds one beat whose stamp, entry and gen agree, and
/// its entry names its producer, with the beat's target while the entry
/// is still at the frame's gen: a copy that mixed two frames, or an entry
/// read that mixed two writes, would break the agreement.
void expect_stamped_frame(const transport::ShmIngestQueue& queue,
                          std::span<const transport::AppHandle> apps,
                          std::uint32_t entry, std::uint32_t gen,
                          std::span<const util::TimeNs> timestamps) {
  ASSERT_EQ(timestamps.size(), 1u);
  const auto stamp = static_cast<std::uint64_t>(timestamps[0]);
  const std::size_t p = stamp >> 48;
  const std::size_t i = stamp & ((std::uint64_t{1} << 48) - 1);
  ASSERT_LT(p, apps.size());
  EXPECT_EQ(entry, apps[p].entry);
  EXPECT_EQ(gen, apps[p].gen + 2 * (i + 1));
  // The re-targets never make the name unreadable.
  transport::ShmIngestQueue::AppEntry e;
  ASSERT_TRUE(queue.read_entry(entry, e));
  EXPECT_EQ(std::string_view(e.tenure.name), "app" + std::to_string(p));
  EXPECT_EQ(e.claimed_gen, apps[p].gen);
  EXPECT_GE(e.gen, gen);
  if (e.target_read && e.gen == gen) {
    const core::TargetRate t = stamp_target(p, i);
    EXPECT_EQ(e.target.min_bits, std::bit_cast<std::uint64_t>(t.min_bps));
    EXPECT_EQ(e.target.max_bits, std::bit_cast<std::uint64_t>(t.max_bps));
  }
}

// Multi-process-grade ring exercised in-process: producers append while a
// consumer drains concurrently. The protocol's books must balance exactly:
// every claimed sequence number is eventually consumed, dropped (lapped),
// or skipped as torn — and nothing delivered may be torn (each frame's
// entry, gen and timestamp carry the same stamp, which a copy mixing two
// frames would break). Every beat also re-targets its producer's directory
// entry, so entry writes race the consumer's entry reads.
TEST(ConcurrencyStress, ShmRingProducersVsConsumerConservation) {
  constexpr std::size_t kProducers = 4;
  const std::size_t beats_per_producer = scaled(8000);

  const fs::path dir =
      fs::temp_directory_path() /
      ("hb_conc_stress_" + std::to_string(::getpid()));
  fs::create_directories(dir);
  auto queue = transport::ShmIngestQueue::create(dir / "ring.hbq", 64);

  std::vector<transport::AppHandle> apps;
  apps.reserve(kProducers);
  for (std::size_t p = 0; p < kProducers; ++p) {
    apps.push_back(queue->join("app" + std::to_string(p), {}));
  }
  std::atomic<std::size_t> producers_done{0};
  std::vector<std::thread> threads;
  for (std::size_t p = 0; p < kProducers; ++p) {
    threads.emplace_back([&, p] {
      stamped_beats(*queue, apps[p], p, beats_per_producer);
      producers_done.fetch_add(1, std::memory_order_acq_rel);
    });
  }

  transport::ShmIngestQueue::Cursor cur;
  std::uint64_t delivered = 0;
  const auto sink = [&](std::uint32_t entry, std::uint32_t gen,
                        std::span<const util::TimeNs> timestamps) {
    delivered += timestamps.size();
    expect_stamped_frame(*queue, apps, entry, gen, timestamps);
  };
  while (producers_done.load(std::memory_order_acquire) < kProducers) {
    queue->drain(cur, sink);
  }
  for (std::thread& t : threads) t.join();
  // Producers finished; drain whatever is still committed ahead of us.
  while (cur.next < queue->produced()) {
    queue->drain(cur, sink);
  }

  // Conservation: every claimed frame is accounted for exactly once.
  // append() writes one single-record frame per beat, so frames == beats.
  EXPECT_EQ(queue->produced(), kProducers * beats_per_producer);
  EXPECT_EQ(cur.consumed_frames + cur.dropped + cur.torn, queue->produced());
  EXPECT_EQ(cur.consumed, delivered);
  // Live producers never leave torn slots behind for good: every skipped
  // slot is one a producer later committed — a lap, already counted. A
  // nonzero torn count here is legal (a lapped producer that publishes
  // after the next lap's claim hides that claim's mark, so the slot waits
  // out the liveness timeout) but delivery must still have happened for
  // most of the traffic.
  EXPECT_GT(delivered, 0u);

  queue.reset();
  fs::remove_all(dir);
}

// Park/wake drill: producers racing the consumer's decision to park on the
// futex doorbell. The dangerous interleaving is publish-vs-park — a
// producer's relaxed parked-check missing a consumer that is just sliding
// into FUTEX_WAIT. The protocol's answer is the bounded timeout plus the
// pre-wait re-check; conservation proves no beat is ever lost to a missed
// wake (the ring is sized so nothing can drop, so every record must be
// consumed).
TEST(ConcurrencyStress, ShmRingParkWakeDrill) {
  constexpr std::size_t kProducers = 4;
  const std::size_t beats_per_producer = scaled(4000);
  const auto total = kProducers * beats_per_producer;

  const fs::path dir =
      fs::temp_directory_path() /
      ("hb_conc_parkwake_" + std::to_string(::getpid()));
  fs::create_directories(dir);
  // The ring is sized to hold the full run: with laps impossible,
  // conservation must be exact (dropped == torn == 0).
  auto queue = transport::ShmIngestQueue::create(
      dir / "ring.hbq", static_cast<std::uint32_t>(total));

  std::vector<transport::AppHandle> apps;
  apps.reserve(kProducers);
  for (std::size_t p = 0; p < kProducers; ++p) {
    apps.push_back(queue->join("app" + std::to_string(p), {}));
  }
  std::atomic<std::size_t> producers_done{0};
  std::vector<std::thread> threads;
  for (std::size_t p = 0; p < kProducers; ++p) {
    threads.emplace_back([&, p] {
      stamped_beats(*queue, apps[p], p, beats_per_producer);
      producers_done.fetch_add(1, std::memory_order_acq_rel);
    });
  }

  transport::ShmIngestQueue::Cursor cur;
  std::uint64_t delivered = 0;
  const auto sink = [&](std::uint32_t entry, std::uint32_t gen,
                        std::span<const util::TimeNs> timestamps) {
    delivered += timestamps.size();
    expect_stamped_frame(*queue, apps, entry, gen, timestamps);
  };
  // The consumer parks EVERY time the ring looks empty — maximum exposure
  // of the park window to racing publishes. The 5ms timeout keeps a
  // genuinely missed wake from stalling the drill. The default stall
  // budget: every producer is a live thread that will finish its publish,
  // and a claim naming a live pid is never torn off by scheduler
  // preemption — exact conservation is the point of the drill.
  for (;;) {
    queue->drain(cur, sink);
    if (producers_done.load(std::memory_order_acquire) == kProducers &&
        !queue->has_frames(cur)) {
      break;
    }
    queue->wait_for_frames(cur, 5 * util::kNsPerMs);
  }
  for (std::thread& t : threads) t.join();
  queue->drain(cur, sink);

  // Nothing could drop, so the books must balance to the record.
  EXPECT_EQ(delivered, total);
  EXPECT_EQ(cur.consumed, total);
  EXPECT_EQ(cur.dropped, 0u);
  EXPECT_EQ(cur.torn, 0u);

  queue.reset();
  fs::remove_all(dir);
}

}  // namespace
}  // namespace hb
