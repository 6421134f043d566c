// Cross-process ingest ring: layout guarantees, batch append/drain,
// wraparound overflow accounting, crashed-producer torn-slot skipping (and
// live producers waited for), ShmHubSink mirroring, and the fork-based multi-process pump smoke (hub
// verdicts via the ring must match in-process ingestion exactly).
#include <fcntl.h>
#include <gtest/gtest.h>
#include <sys/prctl.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <bit>
#include <chrono>
#include <cstddef>
#include <cstdint>
#include <cstdio>
#include <filesystem>
#include <initializer_list>
#include <limits>
#include <memory>
#include <random>
#include <span>
#include <string>
#include <thread>
#include <vector>

#include <fstream>

#include "core/heartbeat.hpp"
#include "core/memory_store.hpp"
#include "fault/fleet_detector.hpp"
#include "hub/hub.hpp"
#include "hub/shm_pump.hpp"
#include "obs/metrics.hpp"
#include "transport/registry.hpp"
#include "transport/shm_ingest.hpp"
#include "util/clock.hpp"
#include "util/tsan.hpp"

namespace hb::transport {
namespace {

namespace fs = std::filesystem;
using util::kNsPerMs;

core::HeartbeatRecord rec_at(util::TimeNs ts) {
  core::HeartbeatRecord r;
  r.timestamp_ns = ts;
  return r;
}

struct Drained {
  std::string app;  ///< the entry's name, "" when the entry did not read
  util::TimeNs ts = 0;
  core::TargetRate target;
};

core::TargetRate rate_of(const ShmIngestDirEntry::Target& t) {
  return {std::bit_cast<double>(t.min_bits), std::bit_cast<double>(t.max_bits)};
}

/// Drain and name each record by its directory entry, as read now.
std::vector<Drained> drain_all(ShmIngestQueue& q, ShmIngestQueue::Cursor& cur,
                               std::uint32_t max_stall = 3) {
  std::vector<Drained> out;
  q.drain(
      cur,
      [&q, &out](std::uint32_t entry, std::uint32_t,
                 std::span<const util::TimeNs> timestamps) {
        ShmIngestQueue::AppEntry e;
        const bool read = q.read_entry(entry, e);
        for (const util::TimeNs ts : timestamps) {
          out.push_back({read ? std::string(e.tenure.name) : std::string(),
                         ts, read ? rate_of(e.target) : core::TargetRate{}});
        }
      },
      max_stall);
  return out;
}

/// Overwrite `bytes` bytes at `offset` of the ring file, as a process
/// outside the API would: the MAP_SHARED mappings see it at once.
void poke(const fs::path& ring, std::size_t offset, const void* value,
          std::size_t bytes) {
  std::FILE* f = std::fopen(ring.c_str(), "r+b");
  ASSERT_NE(f, nullptr);
  ASSERT_EQ(std::fseek(f, static_cast<long>(offset), SEEK_SET), 0);
  ASSERT_EQ(std::fwrite(value, bytes, 1, f), 1u);
  std::fclose(f);
}

/// File offset of directory entry `entry`.
std::size_t entry_offset(std::uint32_t entry) {
  return sizeof(ShmIngestHeader) + entry * sizeof(ShmIngestDirEntry);
}

/// Fork a producer that attaches `ring`, claims `claimed` frames,
/// publishes the ones at the offsets in `published` (one beat each under
/// "dead", its offset as the timestamp) and dies without publishing the
/// rest: _exit skips every destructor. The child is reaped before this
/// returns, so its pid is gone when the caller drains.
void crash_mid_claim(const std::filesystem::path& ring, std::uint64_t claimed,
                     std::initializer_list<std::uint64_t> published) {
  const std::uint64_t first = ShmIngestQueue::attach(ring)->produced();
  const pid_t pid = ::fork();
  if (pid == 0) {
    auto q = ShmIngestQueue::attach(ring);
    const AppHandle dead = q->join("dead", {});
    if (q->claim(claimed) != first) ::_exit(2);
    for (const std::uint64_t i : published) {
      q->publish(first + i, dead, static_cast<util::TimeNs>(i));
    }
    ::_exit(0);
  }
  int status = 0;
  EXPECT_GT(pid, 0);
  EXPECT_EQ(::waitpid(pid, &status, 0), pid);
  EXPECT_TRUE(WIFEXITED(status) && WEXITSTATUS(status) == 0);
}

class ShmIngestTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = fs::temp_directory_path() /
           ("hb_shm_ingest_test_" + std::to_string(::getpid()) + "_" +
            ::testing::UnitTest::GetInstance()->current_test_info()->name());
    fs::create_directories(dir_);
  }
  void TearDown() override { fs::remove_all(dir_); }

  fs::path file(const std::string& name = "ring") const {
    return dir_ / (name + ".hbq");
  }

  fs::path dir_;
};

TEST(ShmIngestLayout, SegmentSizes) {
  EXPECT_EQ(sizeof(ShmIngestHeader), 128u);
  EXPECT_EQ(sizeof(ShmIngestDirEntry), 128u);
  EXPECT_EQ(sizeof(ShmIngestSlot), 64u);
  EXPECT_EQ(sizeof(ShmIngestSlot::Body), 56u);
  // header + directory + ring
  EXPECT_EQ(shm_ingest_segment_size(0), 128u);
  EXPECT_EQ(shm_ingest_segment_size(64), 128u + 64u * 128u + 64u * 64u);
}

TEST_F(ShmIngestTest, CreateAttachRoundTrip) {
  auto q = ShmIngestQueue::create(file(), 64);
  EXPECT_EQ(q->capacity(), 64u);
  EXPECT_EQ(q->produced(), 0u);
  EXPECT_EQ(q->creator_pid(), static_cast<std::uint32_t>(::getpid()));

  q->append(q->join("app", {2.0, 9.0}), 1 * kNsPerMs);
  auto observer = ShmIngestQueue::attach(file());
  EXPECT_EQ(observer->produced(), 1u);
  EXPECT_EQ(observer->capacity(), 64u);

  // create() is exclusive; open() attaches instead.
  EXPECT_THROW(ShmIngestQueue::create(file(), 64), std::system_error);
  auto opened = ShmIngestQueue::open(file(), 8);
  EXPECT_EQ(opened->capacity(), 64u);  // attached, not recreated
}

TEST_F(ShmIngestTest, AttachMissingOrCorruptThrows) {
  EXPECT_THROW(ShmIngestQueue::attach(file("nope")), std::runtime_error);

  auto q = ShmIngestQueue::create(file(), 8);
  q.reset();
  std::FILE* f = std::fopen(file().c_str(), "r+b");
  ASSERT_NE(f, nullptr);
  const std::uint64_t junk = 0xdeadbeef;
  std::fwrite(&junk, sizeof(junk), 1, f);
  std::fclose(f);
  EXPECT_THROW(ShmIngestQueue::attach(file()), std::runtime_error);
}

TEST_F(ShmIngestTest, BatchAppendDrainsInOrderWithAppAndTarget) {
  auto q = ShmIngestQueue::create(file(), 32);
  std::vector<util::TimeNs> timestamps;
  for (int i = 0; i < 10; ++i) timestamps.push_back((i + 1) * kNsPerMs);
  EXPECT_EQ(q->append_batch(q->join("encoder", {30.0, 60.0}), timestamps), 0u);

  ShmIngestQueue::Cursor cur;
  const auto out = drain_all(*q, cur);
  ASSERT_EQ(out.size(), 10u);
  EXPECT_EQ(cur.consumed, 10u);
  EXPECT_EQ(cur.dropped, 0u);
  EXPECT_EQ(cur.torn, 0u);
  for (int i = 0; i < 10; ++i) {
    EXPECT_EQ(out[static_cast<std::size_t>(i)].app, "encoder");
    EXPECT_EQ(out[static_cast<std::size_t>(i)].ts, (i + 1) * kNsPerMs);
    EXPECT_DOUBLE_EQ(out[static_cast<std::size_t>(i)].target.min_bps, 30.0);
    EXPECT_DOUBLE_EQ(out[static_cast<std::size_t>(i)].target.max_bps, 60.0);
  }
}

TEST_F(ShmIngestTest, SustainedOverflowCountsDropsNeverCorrupts) {
  auto q = ShmIngestQueue::create(file(), 8);
  // 100 beats into an 8-slot ring with no consumer keeping up: the oldest
  // 92 are overwritten. The timestamp mirrors the ring seq so a corrupt
  // (torn or misattributed) delivery is detectable.
  const AppHandle a = q->join("a", {});
  for (util::TimeNs i = 0; i < 100; ++i) q->append(a, i);
  ShmIngestQueue::Cursor cur;
  const auto out = drain_all(*q, cur);
  ASSERT_EQ(out.size(), 8u);
  EXPECT_EQ(cur.dropped, 92u);
  EXPECT_EQ(cur.consumed, 8u);
  EXPECT_EQ(cur.torn, 0u);
  for (std::size_t i = 0; i < out.size(); ++i) {
    EXPECT_EQ(out[i].ts, static_cast<util::TimeNs>(92 + i));  // the retained suffix
  }

  // The cursor has caught up; later appends drain without further drops.
  q->append(a, 100);
  const auto tail = drain_all(*q, cur);
  ASSERT_EQ(tail.size(), 1u);
  EXPECT_EQ(tail[0].ts, 100);
  EXPECT_EQ(cur.dropped, 92u);
}

TEST_F(ShmIngestTest, CrashedProducerSlotSkippedAfterStallBudget) {
  auto q = ShmIngestQueue::create(file(), 32);
  // A producer process claims a 4-slot batch, publishes 2, and dies.
  crash_mid_claim(file(), 4, {0, 1});
  // A healthy producer appends afterwards.
  q->append(q->join("live", {}), 7);

  ShmIngestQueue::Cursor cur;
  // Drain 1: the two published records come through, then the torn slot
  // blocks progress.
  auto out = drain_all(*q, cur, /*max_stall=*/2);
  ASSERT_EQ(out.size(), 2u);
  EXPECT_EQ(cur.stalls, 1u);
  // Drain 2: still blocked.
  EXPECT_TRUE(drain_all(*q, cur, 2).empty());
  EXPECT_EQ(cur.stalls, 2u);
  // Drain 3: stall budget exhausted — both torn slots are skipped and the
  // live producer's record is delivered. The consumer never wedges.
  out = drain_all(*q, cur, 2);
  ASSERT_EQ(out.size(), 1u);
  EXPECT_EQ(out[0].app, "live");
  EXPECT_EQ(out[0].ts, 7);
  EXPECT_EQ(cur.torn, 2u);
  EXPECT_EQ(cur.consumed, 3u);
}

TEST_F(ShmIngestTest, OpenReclaimsAbandonedCreation) {
  // A creator died between open() and publishing the magic: the file
  // exists but is all zeros. open() must reclaim the rendezvous path
  // instead of wedging every producer forever.
  {
    std::ofstream stale(file(), std::ios::binary);
    const std::vector<char> zeros(sizeof(ShmIngestHeader), '\0');
    stale.write(zeros.data(), static_cast<std::streamsize>(zeros.size()));
  }
  auto q = ShmIngestQueue::open(file(), 16);
  EXPECT_EQ(q->capacity(), 16u);
  q->append(q->join("a", {}), 1);
  EXPECT_EQ(q->produced(), 1u);
}

TEST_F(ShmIngestTest, RegistryFactoryRendezvousesAtWellKnownPath) {
  Registry registry(dir_);
  core::HeartbeatOptions opts;
  opts.name = "worker";
  opts.store_factory = registry.shm_ingest_factory();
  core::Heartbeat hb(opts);
  for (int i = 0; i < 3; ++i) hb.beat(static_cast<std::uint64_t>(i));

  auto q = ShmIngestQueue::attach(registry.ingest_queue_path());
  ShmIngestQueue::Cursor cur;
  const auto out = drain_all(*q, cur);
  ASSERT_EQ(out.size(), 3u);
  EXPECT_EQ(out[0].app, "worker");
}

TEST_F(ShmIngestTest, LongNamesStayDistinctAfterTruncation) {
  auto q = ShmIngestQueue::create(file(), 16);
  const std::string prefix(60, 'x');  // both names exceed the 48-byte slot
  q->append(q->join(prefix + "-worker-A", {}), 1);
  q->append(q->join(prefix + "-worker-B", {}), 2);
  ShmIngestQueue::Cursor cur;
  const auto out = drain_all(*q, cur);
  ASSERT_EQ(out.size(), 2u);
  EXPECT_LT(out[0].app.size(), kIngestNameCap);
  EXPECT_NE(out[0].app, out[1].app);  // hash suffix keeps them apart
  EXPECT_EQ(out[0].app.substr(0, 10), prefix.substr(0, 10));
}

TEST_F(ShmIngestTest, IndependentConsumersSeeTheFullStream) {
  auto q = ShmIngestQueue::create(file(), 16);
  const AppHandle a = q->join("a", {});
  for (util::TimeNs i = 0; i < 5; ++i) q->append(a, i);
  ShmIngestQueue::Cursor c1;
  ShmIngestQueue::Cursor c2;
  EXPECT_EQ(drain_all(*q, c1).size(), 5u);
  EXPECT_EQ(drain_all(*q, c2).size(), 5u);  // non-destructive reads
}

TEST_F(ShmIngestTest, PumpSuggestsIdleBackoffSleeps) {
  // The adaptive poll schedule: a pump that keeps draining nothing should
  // suggest exponentially longer sleeps (up to the cap) so a quiet ring is
  // not busy-spun; one drained record snaps it back to the floor.
  auto q = ShmIngestQueue::create(file(), 32);
  hub::HeartbeatHub hub;
  hub::ShmIngestPump pump(q, hub,
                          {.max_stall_polls = 2,
                           .idle_sleep_min_ns = 1 * kNsPerMs,
                           .idle_sleep_max_ns = 8 * kNsPerMs});

  EXPECT_EQ(pump.suggested_sleep_ns(), 1 * kNsPerMs);  // nothing seen yet
  EXPECT_EQ(pump.poll(), 0u);
  EXPECT_EQ(pump.suggested_sleep_ns(), 2 * kNsPerMs);
  EXPECT_EQ(pump.poll(), 0u);
  EXPECT_EQ(pump.suggested_sleep_ns(), 4 * kNsPerMs);
  EXPECT_EQ(pump.poll(), 0u);
  EXPECT_EQ(pump.suggested_sleep_ns(), 8 * kNsPerMs);
  EXPECT_EQ(pump.poll(), 0u);  // capped, however long the quiet lasts
  EXPECT_EQ(pump.suggested_sleep_ns(), 8 * kNsPerMs);

  const AppHandle a = q->join("a", {});
  q->append(a, kNsPerMs);
  EXPECT_EQ(pump.poll(), 1u);  // records reset the schedule to the floor
  EXPECT_EQ(pump.suggested_sleep_ns(), 1 * kNsPerMs);
  EXPECT_EQ(pump.poll(), 0u);
  EXPECT_EQ(pump.suggested_sleep_ns(), 2 * kNsPerMs);

  // A BLOCKED ring is not an idle ring: a producer claims a slot and dies
  // unpublished with a live record queued behind it. Drains return 0 while
  // the stall budget burns, but the backoff must stay at the floor — the
  // stalled run should be skipped at floor pace, not at the cap, or the
  // records behind a crash wait longest exactly during the failure.
  crash_mid_claim(file(), 1, {});
  q->append(a, 2 * kNsPerMs);
  EXPECT_EQ(pump.poll(), 0u);  // blocked on the unpublished slot
  EXPECT_EQ(pump.suggested_sleep_ns(), 1 * kNsPerMs);
  EXPECT_EQ(pump.poll(), 0u);  // still blocked, still at the floor
  EXPECT_EQ(pump.suggested_sleep_ns(), 1 * kNsPerMs);
  EXPECT_EQ(pump.poll(), 1u);  // stall budget spent: torn skipped, record in
  EXPECT_EQ(pump.suggested_sleep_ns(), 1 * kNsPerMs);
  EXPECT_EQ(pump.stats().torn, 1u);
  EXPECT_EQ(pump.stats().timed_out, 0u);  // a dead owner, not the timeout
}

TEST_F(ShmIngestTest, HubSinkMirrorsSharedChannelOnly) {
  auto q = ShmIngestQueue::create(file(), 64);
  auto clock = std::make_shared<util::ManualClock>();
  core::HeartbeatOptions opts;
  opts.name = "worker";
  opts.clock = clock;
  opts.target_min_bps = 5.0;
  opts.store_factory = ShmHubSink::wrap_factory(q);
  core::Heartbeat hb(opts);

  for (int i = 0; i < 5; ++i) {
    clock->advance(10 * kNsPerMs);
    hb.beat(static_cast<std::uint64_t>(i));
  }
  hb.beat_local(99);  // thread-local channel: must NOT reach the ring

  ShmIngestQueue::Cursor cur;
  const auto out = drain_all(*q, cur);
  ASSERT_EQ(out.size(), 5u);
  for (std::size_t i = 0; i < out.size(); ++i) {
    EXPECT_EQ(out[i].app, "worker");  // ".global" suffix stripped
    EXPECT_EQ(out[i].ts, static_cast<util::TimeNs>(i + 1) * 10 * kNsPerMs);
    EXPECT_DOUBLE_EQ(out[i].target.min_bps, 5.0);
  }
}

TEST_F(ShmIngestTest, SinkBatchesAndHonorsMaxHold) {
  auto q = ShmIngestQueue::create(file(), 64);
  auto inner = std::make_shared<core::MemoryStore>(64, 10);
  ShmHubSink sink(inner, q, "batchy",
                  {.flush_every = 8, .max_hold_ns = 10 * kNsPerMs});

  sink.append(rec_at(0));
  sink.append(rec_at(1 * kNsPerMs));
  EXPECT_EQ(q->produced(), 0u);  // buffered below flush_every
  // 20ms after the oldest buffered beat: the hold bound flushes the batch.
  // The three timestamps are within a u32 delta of the first, so the
  // whole flush packs into ONE frame.
  sink.append(rec_at(20 * kNsPerMs));
  EXPECT_EQ(q->produced(), 1u);

  sink.append(rec_at(21 * kNsPerMs));
  EXPECT_EQ(q->produced(), 1u);
  sink.flush();  // manual flush pushes the partial batch
  EXPECT_EQ(q->produced(), 2u);

  // All four records come through intact despite occupying two frames.
  ShmIngestQueue::Cursor cur;
  const auto out = drain_all(*q, cur);
  ASSERT_EQ(out.size(), 4u);
  EXPECT_EQ(cur.consumed_frames, 2u);
  const util::TimeNs sent[] = {0, 1 * kNsPerMs, 20 * kNsPerMs, 21 * kNsPerMs};
  for (std::size_t i = 0; i < out.size(); ++i) EXPECT_EQ(out[i].ts, sent[i]);
}

TEST_F(ShmIngestTest, PackedFramesRoundTripExactly) {
  auto q = ShmIngestQueue::create(file(), 32);
  // Fourteen packable timestamps (sub-u32 deltas): 9 + 5 across two
  // frames, one claim.
  std::vector<util::TimeNs> timestamps;
  for (util::TimeNs i = 0; i < 14; ++i) {
    timestamps.push_back(100 * kNsPerMs + i * 3333);
  }
  EXPECT_EQ(q->append_batch(q->join("packer", {3.0, 8.0}), timestamps), 0u);
  EXPECT_EQ(q->produced(), 2u);  // ceil(14 / 9) frames, not 14 slots

  ShmIngestQueue::Cursor cur;
  const auto out = drain_all(*q, cur);
  ASSERT_EQ(out.size(), 14u);
  EXPECT_EQ(cur.consumed, 14u);
  EXPECT_EQ(cur.consumed_frames, 2u);
  for (std::size_t i = 0; i < out.size(); ++i) {
    EXPECT_EQ(out[i].app, "packer");
    EXPECT_EQ(out[i].ts, timestamps[i]);
    EXPECT_DOUBLE_EQ(out[i].target.min_bps, 3.0);
    EXPECT_DOUBLE_EQ(out[i].target.max_bps, 8.0);
  }
}

TEST_F(ShmIngestTest, OnlyTimestampDeltasBreakAFrame) {
  auto q = ShmIngestQueue::create(file(), 32);
  // A thread switch and a seq gap broke a frame while the ring carried
  // thread ids and seqs; it carries neither now, so a sink packs them into
  // one frame, and its inner store still keeps both.
  auto inner = std::make_shared<core::MemoryStore>(64, 10);
  ShmHubSink sink(inner, q, "mixed", {.flush_every = 4});
  core::HeartbeatRecord r = rec_at(1 * kNsPerMs);
  r.thread_id = 1;
  r.seq = 10;
  sink.append(r);
  r.timestamp_ns = 2 * kNsPerMs;
  r.thread_id = 2;  // thread switch
  r.seq = 11;
  sink.append(r);
  r.timestamp_ns = 3 * kNsPerMs;
  r.seq = 20;  // seq gap
  sink.append(r);
  r.timestamp_ns = 4 * kNsPerMs;
  r.seq = 21;
  sink.append(r);
  EXPECT_EQ(q->produced(), 1u);
  const auto history = sink.history(4);
  ASSERT_EQ(history.size(), 4u);
  EXPECT_EQ(history[0].thread_id, 1u);
  EXPECT_EQ(history[3].thread_id, 2u);

  // A negative delta and a delta above u32 each still start a frame; a
  // delta of exactly u32 max still packs.
  constexpr util::TimeNs kU32Max = 0xffffffffLL;
  const std::vector<util::TimeNs> timestamps = {
      100, 50 /* negative delta */, 60, 50 + kU32Max,
      50 + kU32Max + 1 /* delta above u32 */};
  EXPECT_EQ(q->append_batch(q->join("a", {}), timestamps), 1u);
  EXPECT_EQ(q->produced(), 4u);  // [100] [50 60 50+max] [50+max+1]

  ShmIngestQueue::Cursor cur;
  const auto out = drain_all(*q, cur);
  EXPECT_EQ(cur.consumed_frames, 4u);
  ASSERT_EQ(out.size(), 9u);
  for (std::size_t i = 0; i < 4; ++i) {
    EXPECT_EQ(out[i].app, "mixed");
    EXPECT_EQ(out[i].ts, static_cast<util::TimeNs>(i + 1) * kNsPerMs);
  }
  for (std::size_t i = 0; i < timestamps.size(); ++i) {
    EXPECT_EQ(out[4 + i].app, "a");
    EXPECT_EQ(out[4 + i].ts, timestamps[i]);
  }
}

TEST_F(ShmIngestTest, VersionMismatchRejectedOnAttach) {
  // Rewrite the header's version field (offset 8, after the u64 magic) to
  // each retired version — exactly what a stale pre-upgrade ring file
  // looks like.
  for (const std::uint32_t old_version : {1u, 2u, 3u, 4u}) {
    fs::remove(file());
    ShmIngestQueue::create(file(), 8).reset();
    std::FILE* f = std::fopen(file().c_str(), "r+b");
    ASSERT_NE(f, nullptr);
    ASSERT_EQ(std::fseek(f, 8, SEEK_SET), 0);
    std::fwrite(&old_version, sizeof(old_version), 1, f);
    std::fclose(f);
    EXPECT_THROW(ShmIngestQueue::attach(file()), std::runtime_error)
        << "version " << old_version;
  }
}

TEST_F(ShmIngestTest, HostileBaseTimestampDecodesWithoutOverflow) {
  // Record i of a frame decodes as base_ts_ns + ts_delta_ns[i]. A hostile
  // segment may carry any base: poked to INT64_MAX, every nonzero delta
  // leaves int64's range. The drain adds in uint64 (two's complement
  // wrap, no signed-overflow UB) and still delivers every record.
  auto q = ShmIngestQueue::create(file(), 8);
  const std::uint32_t deltas[] = {0, 5, 10};
  const util::TimeNs timestamps[] = {0, 5, 10};
  ASSERT_EQ(q->append_batch(q->join("hostile", {}), timestamps), 0u);
  ASSERT_EQ(q->produced(), 1u);  // one packed frame, in slot 0
  q.reset();

  // Rewrite slot 0's committed base timestamp in the file.
  const long offset = static_cast<long>(
      sizeof(ShmIngestHeader) + 8 * sizeof(ShmIngestDirEntry) +
      offsetof(ShmIngestSlot, body) + offsetof(ShmIngestSlot::Body, base_ts_ns));
  std::FILE* f = std::fopen(file().c_str(), "r+b");
  ASSERT_NE(f, nullptr);
  const std::int64_t hostile = std::numeric_limits<std::int64_t>::max();
  ASSERT_EQ(std::fseek(f, offset, SEEK_SET), 0);
  std::fwrite(&hostile, sizeof(hostile), 1, f);
  std::fclose(f);

  auto attached = ShmIngestQueue::attach(file());
  ShmIngestQueue::Cursor cur;
  const auto out = drain_all(*attached, cur);
  ASSERT_EQ(out.size(), 3u);
  EXPECT_EQ(cur.torn, 0u);
  EXPECT_EQ(cur.dropped, 0u);
  for (std::uint32_t i = 0; i < 3; ++i) {
    EXPECT_EQ(out[i].app, "hostile");
    EXPECT_EQ(out[i].ts,
              static_cast<util::TimeNs>(
                  static_cast<std::uint64_t>(hostile) + deltas[i]));
  }
}

TEST_F(ShmIngestTest, ZeroCapacityRejectedOnAttach) {
  auto q = ShmIngestQueue::create(file(), 64);
  q.reset();
  // Zero the header's capacity field (offset 16). Every append indexes the
  // shared ring by seq % capacity, so such a ring must never attach.
  std::FILE* f = std::fopen(file().c_str(), "r+b");
  ASSERT_NE(f, nullptr);
  const std::uint32_t zero = 0;
  ASSERT_EQ(std::fseek(f, 16, SEEK_SET), 0);
  std::fwrite(&zero, sizeof(zero), 1, f);
  std::fclose(f);
  EXPECT_THROW(ShmIngestQueue::attach(file()), std::runtime_error);
}

TEST_F(ShmIngestTest, MidBatchCrashTearsOnlyTheDeadClaim) {
  auto q = ShmIngestQueue::create(file(), 32);
  // A producer process claims a 4-frame batch, publishes frames 0 and 2,
  // and dies; a live producer's record is queued behind the batch.
  crash_mid_claim(file(), 4, {0, 2});
  const AppHandle live_app = q->join("live", {});
  q->append(live_app, 7);

  // Frame 0 arrives, then the dead claim at frame 1 blocks one drain.
  ShmIngestQueue::Cursor cur;
  auto out = drain_all(*q, cur, /*max_stall=*/1);
  ASSERT_EQ(out.size(), 1u);
  EXPECT_EQ(out[0].ts, 0);
  // Budget spent, owner dead: frame 1 is torn, and the skip stops at the
  // published frame 2, which arrives. Frame 3 blocks afresh.
  out = drain_all(*q, cur, 1);
  ASSERT_EQ(out.size(), 1u);
  EXPECT_EQ(out[0].app, "dead");
  EXPECT_EQ(out[0].ts, 2);
  EXPECT_EQ(cur.torn, 1u);
  // Frame 3 is torn in turn, and the live record behind it arrives.
  out = drain_all(*q, cur, 1);
  ASSERT_EQ(out.size(), 1u);
  EXPECT_EQ(out[0].app, "live");
  EXPECT_EQ(cur.torn, 2u);
  EXPECT_EQ(cur.consumed, 3u);
  EXPECT_EQ(cur.consumed_frames + cur.dropped + cur.torn, q->produced());

  // A live claim right behind a dead run is not part of it: the skip
  // stops at the first slot that does not bear the dead pid's mark, and
  // the live claim waits, past the budget, until it is published.
  crash_mid_claim(file(), 2, {});
  const std::uint64_t live = q->claim(1);
  q->append(q->join("after", {}), 9);
  EXPECT_TRUE(drain_all(*q, cur, 1).empty());  // blocked on the dead run
  EXPECT_TRUE(drain_all(*q, cur, 1).empty());  // run torn, live claim blocks
  EXPECT_EQ(cur.torn, 4u);
  EXPECT_EQ(cur.next, live);
  for (int i = 0; i < 10; ++i) EXPECT_TRUE(drain_all(*q, cur, 1).empty());
  EXPECT_EQ(cur.torn, 4u);
  q->publish(live, live_app, 8);
  out = drain_all(*q, cur, 1);
  ASSERT_EQ(out.size(), 2u);
  EXPECT_EQ(out[0].app, "live");
  EXPECT_EQ(out[1].app, "after");
  EXPECT_EQ(cur.torn, 4u);
  // Every tear was a dead owner's: none waited out the liveness timeout.
  EXPECT_EQ(cur.timed_out, 0u);
  EXPECT_EQ(cur.consumed_frames + cur.dropped + cur.torn, q->produced());
}

TEST_F(ShmIngestTest, ForeignPidNamespaceClaimsAreNeverJudgedDead) {
  // A ring whose creator sits in another pid namespace: pids mean nothing
  // across the boundary, so this process claims unmarked and judges no
  // pid dead. A crashed child's claim is then waited on past the budget
  // (the liveness timeout tears it), not torn at once.
  ShmIngestQueue::create(file(), 32).reset();
  std::FILE* f = std::fopen(file().c_str(), "r+b");
  ASSERT_NE(f, nullptr);
  const std::uint64_t foreign_ns = ~std::uint64_t{0};
  ASSERT_EQ(std::fseek(f, offsetof(ShmIngestHeader, pid_ns), SEEK_SET), 0);
  std::fwrite(&foreign_ns, sizeof(foreign_ns), 1, f);
  std::fclose(f);
  auto q = ShmIngestQueue::attach(file());
  crash_mid_claim(file(), 2, {0});
  ShmIngestQueue::Cursor cur;
  auto out = drain_all(*q, cur, 1);
  ASSERT_EQ(out.size(), 1u);
  EXPECT_EQ(out[0].app, "dead");
  for (int i = 0; i < 10; ++i) EXPECT_TRUE(drain_all(*q, cur, 1).empty());
  EXPECT_EQ(cur.torn, 0u);
  EXPECT_EQ(cur.next, 1u);
}

TEST_F(ShmIngestTest, LappedClaimNeverReplacesTheNewerFrame) {
  // A producer claims frame 0 and stalls; eight more frames lap it, and
  // frame 8 now lives in slot 0. Publishing frame 0 late must leave frame
  // 8 whole and committed: frame 0 is dropped unwritten, the consumer
  // counts it lapped, and nothing waits on a stale commit or is torn.
  auto q = ShmIngestQueue::create(file(), 8);
  const AppHandle stale_app = q->join("stale", {});
  const AppHandle newer = q->join("newer", {});
  const std::uint64_t stale = q->claim(1);
  for (util::TimeNs i = 1; i <= 8; ++i) q->append(newer, i);
  q->publish(stale, stale_app, 0);
  ShmIngestQueue::Cursor cur;
  const auto out = drain_all(*q, cur);
  ASSERT_EQ(out.size(), 8u);
  for (std::size_t i = 0; i < out.size(); ++i) {
    EXPECT_EQ(out[i].app, "newer");
    EXPECT_EQ(out[i].ts, static_cast<util::TimeNs>(i + 1));
  }
  EXPECT_EQ(cur.dropped, 1u);
  EXPECT_EQ(cur.torn, 0u);
  EXPECT_EQ(cur.consumed_frames + cur.dropped + cur.torn, q->produced());
}

TEST_F(ShmIngestTest, LappingWriterNeverDeliversAMixedFrame) {
  // One writer laps an 8-frame ring with batches of 40 frames while a
  // consumer drains: frame k's timestamps are (k << 33) + i * (k + 1), so
  // a frame mixed from two writes shows as a base that does not fit its
  // deltas. Frames are lapped (dropped), never delivered mixed, and none
  // is torn: nothing crashed.
  constexpr std::uint32_t kCap = 8;
  constexpr std::uint64_t kFramesPerBatch = 40;
  constexpr std::uint64_t kBatches = 2000;
  auto q = ShmIngestQueue::create(file(), kCap);
  const AppHandle lap = q->join("lap", {});
  std::atomic<bool> done{false};
  std::thread writer([&] {
    std::vector<util::TimeNs> batch;
    for (std::uint64_t b = 0; b < kBatches; ++b) {
      batch.clear();
      for (std::uint64_t j = 0; j < kFramesPerBatch; ++j) {
        const std::uint64_t k = b * kFramesPerBatch + j;
        for (std::uint64_t i = 0; i < kIngestFrameRecords; ++i) {
          batch.push_back(static_cast<util::TimeNs>((k << 33) + i * (k + 1)));
        }
      }
      q->append_batch(lap, batch);
    }
    done.store(true, std::memory_order_release);
  });
  ShmIngestQueue::Cursor cur;
  std::uint64_t mixed = 0;
  const auto check = [&mixed, lap](std::uint32_t entry, std::uint32_t gen,
                                   std::span<const util::TimeNs> ts) {
    const auto base = static_cast<std::uint64_t>(ts[0]);
    const std::uint64_t k = base >> 33;
    bool ok = entry == lap.entry && gen == lap.gen &&
              ts.size() == kIngestFrameRecords &&
              (base & ((std::uint64_t{1} << 33) - 1)) == 0;
    for (std::size_t i = 0; ok && i < ts.size(); ++i) {
      ok = static_cast<std::uint64_t>(ts[i]) == base + i * (k + 1);
    }
    if (!ok) ++mixed;
  };
  while (!done.load(std::memory_order_acquire)) q->drain(cur, check);
  writer.join();
  q->drain(cur, check);
  EXPECT_EQ(mixed, 0u);
  EXPECT_EQ(cur.torn, 0u);
  EXPECT_GT(cur.dropped, 0u);
  EXPECT_EQ(cur.consumed_frames + cur.dropped + cur.torn, q->produced());
}

TEST_F(ShmIngestTest, LiveClaimIsNeverTornByTheStallBudget) {
  constexpr std::uint32_t kStall = 3;
  auto q = ShmIngestQueue::create(file(), 32);
  // A live thread holds a claim for ten stall budgets of drains, then
  // publishes: the frame arrives, nothing is torn.
  std::atomic<bool> release{false};
  std::atomic<std::uint64_t> seq{~std::uint64_t{0}};
  const AppHandle slow = q->join("slow", {});
  std::thread holder([&] {
    seq.store(q->claim(1), std::memory_order_release);
    while (!release.load(std::memory_order_acquire)) std::this_thread::yield();
    q->publish(seq.load(std::memory_order_acquire), slow, kNsPerMs);
  });
  while (seq.load(std::memory_order_acquire) == ~std::uint64_t{0}) {
    std::this_thread::yield();
  }
  ShmIngestQueue::Cursor cur;
  for (std::uint32_t i = 0; i < 10 * kStall; ++i) {
    EXPECT_TRUE(drain_all(*q, cur, kStall).empty());
  }
  EXPECT_EQ(cur.stalls, kStall);
  release.store(true, std::memory_order_release);
  holder.join();
  auto out = drain_all(*q, cur, kStall);
  ASSERT_EQ(out.size(), 1u);
  EXPECT_EQ(out[0].app, "slow");
  EXPECT_EQ(cur.torn, 0u);
  EXPECT_EQ(cur.timed_out, 0u);

  // A live claim that is never published is torn only once the liveness
  // timeout has passed on top of the budget, and the record behind it
  // arrives.
  q->claim(1);
  q->append(q->join("behind", {}), 2 * kNsPerMs);
  const auto clock = util::MonotonicClock::instance();
  const util::TimeNs t0 = clock->now();
  while (cur.torn == 0) {
    ASSERT_LT(clock->now() - t0, 10 * kClaimLivenessTimeoutNs);
    out = drain_all(*q, cur, kStall);
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }
  EXPECT_GE(clock->now() - t0, kClaimLivenessTimeoutNs);
  ASSERT_EQ(out.size(), 1u);
  EXPECT_EQ(out[0].app, "behind");
  EXPECT_EQ(cur.torn, 1u);
  // Its owner is alive: the tear is the timeout's, not a crash's.
  EXPECT_EQ(cur.timed_out, 1u);
}

TEST_F(ShmIngestTest, DoorbellWakesParkedConsumer) {
  if (!ShmIngestQueue::doorbell_supported()) {
    GTEST_SKIP() << "no futex on this platform";
  }
  auto q = ShmIngestQueue::create(file(), 32);
  ShmIngestQueue::Cursor cur;

  // Quiet ring, short timeout: the wait must end in kTimeout, not hang.
  EXPECT_EQ(q->wait_for_frames(cur, 2 * kNsPerMs),
            ShmIngestQueue::WaitResult::kTimeout);

  // Pending frames: never parks at all.
  const AppHandle a = q->join("a", {});
  q->append(a, 1);
  EXPECT_EQ(q->wait_for_frames(cur, 2 * kNsPerMs),
            ShmIngestQueue::WaitResult::kReady);
  drain_all(*q, cur);

  // A producer publishing while we are parked rings the doorbell; the
  // generous timeout only bounds a lost wake, not the expected path.
  std::thread producer([&q, a] {
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
    q->append(a, 2);
  });
  const auto r = q->wait_for_frames(cur, 5000 * kNsPerMs);
  producer.join();
  EXPECT_TRUE(r == ShmIngestQueue::WaitResult::kWoken ||
              r == ShmIngestQueue::WaitResult::kReady);
  EXPECT_GE(q->doorbell_rings(), 1u);
  EXPECT_EQ(drain_all(*q, cur).size(), 1u);
}

TEST_F(ShmIngestTest, PumpWaitBlocksOnDoorbellAndResetsBackoff) {
  if (!ShmIngestQueue::doorbell_supported()) {
    GTEST_SKIP() << "no futex on this platform";
  }
  auto q = ShmIngestQueue::create(file(), 32);
  hub::HeartbeatHub hub;
  // The park may not lapse before the producer rings; phase 1's 2 ms
  // budget still ends its park by timeout.
  hub::ShmIngestPump pump(q, hub,
                          {.idle_sleep_min_ns = 1 * kNsPerMs,
                           .idle_sleep_max_ns = 8 * kNsPerMs,
                           .doorbell_timeout_ns = 5000 * kNsPerMs});

  // Idle: waits end in timeouts; empty polls still grow the backoff.
  EXPECT_EQ(pump.poll(), 0u);
  EXPECT_FALSE(pump.wait(2 * kNsPerMs));
  EXPECT_EQ(pump.poll(), 0u);
  EXPECT_EQ(pump.stats().wait_timeouts, 1u);
  EXPECT_EQ(pump.suggested_sleep_ns(), 4 * kNsPerMs);

  // A producer ringing the doorbell mid-wait: wait() reports work and the
  // backoff schedule snaps back to the floor (the doorbell wake IS the
  // "ring went busy" signal). The producer appends only once the header's
  // `parked` word shows the pump parked, plus a settle: the pump re-checks
  // for frames just after advertising `parked`, and a frame that lands
  // before that re-check ends the wait without a park.
  const AppHandle a = q->join("a", {});
  std::thread producer([&q, a, path = file()] {
    const int fd = ::open(path.c_str(), O_RDONLY);
    std::uint32_t parked = 0;
    for (int i = 0; i < 50000; ++i) {  // up to 5 s
      if (::pread(fd, &parked, sizeof(parked),
                  offsetof(ShmIngestHeader, parked)) == sizeof(parked) &&
          parked != 0) {
        break;
      }
      std::this_thread::sleep_for(std::chrono::microseconds(100));
    }
    ::close(fd);
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
    q->append(a, 1);
  });
  const bool woke = pump.wait(5000 * kNsPerMs);
  producer.join();
  EXPECT_TRUE(woke);
  EXPECT_EQ(pump.suggested_sleep_ns(), 1 * kNsPerMs);
  EXPECT_EQ(pump.poll(), 1u);
  const auto stats = pump.stats();
  EXPECT_GE(stats.parks, 2u);
  EXPECT_GE(stats.doorbell_wakes, 1u);
  EXPECT_EQ(stats.wait_timeouts, 1u);
}

TEST_F(ShmIngestTest, PumpDefaultStallBudgetOutlastsABriefClaim) {
  // A live producer preempted between claim and publish must not lose its
  // frame: its claim names a live pid, so the pump waits for it, whatever
  // the stall budget. A blocked poll counts as busy, so under the default
  // options the pump naps at the floor between stall polls.
  using Clock = std::chrono::steady_clock;
  auto q = ShmIngestQueue::create(file(), 32);
  hub::HeartbeatHub hub;
  hub::ShmIngestPump pump(q, hub);

  const AppHandle slow = q->join("slow", {});
  const std::uint64_t seq = q->claim(1);
  std::thread producer([&q, slow, seq] {
    std::this_thread::sleep_for(std::chrono::microseconds(500));
    q->publish(seq, slow, kNsPerMs);
  });
  pump.poll();  // blocked on the claimed slot (unless already published)
  for (int i = 0; i < 200 && pump.stats().consumed + pump.stats().torn == 0;
       ++i) {
    pump.wait(50 * kNsPerMs);
    pump.poll();
  }
  producer.join();
  EXPECT_EQ(pump.stats().torn, 0u);
  EXPECT_EQ(pump.stats().consumed, 1u);

  // A claim that is never published (the producer crashed) is still
  // skipped as torn within max_stall_polls naps — without ever parking —
  // and the record queued behind it arrives.
  const hub::ShmIngestPumpStats before = pump.stats();
  crash_mid_claim(file(), 1, {});
  q->append(q->join("live", {}), 2 * kNsPerMs);
  const auto t0 = Clock::now();
  int polls = 0;
  while (pump.stats().consumed == before.consumed && polls < 20) {
    pump.poll();
    ++polls;
    if (pump.stats().consumed == before.consumed) pump.wait(50 * kNsPerMs);
  }
  const auto elapsed = Clock::now() - t0;
  EXPECT_EQ(pump.stats().consumed, before.consumed + 1);
  EXPECT_EQ(pump.stats().torn, before.torn + 1);
  EXPECT_EQ(polls, 4);  // max_stall_polls blocked polls, then the skip
  EXPECT_EQ(pump.stats().parks, before.parks);
  EXPECT_GE(elapsed, std::chrono::milliseconds(3));  // three floor naps
  // Nominally ~3 ms; the bound leaves room for a loaded host while staying
  // below the 100 ms doorbell timeout a park would have cost.
  EXPECT_LT(elapsed, std::chrono::milliseconds(50));
}

TEST_F(ShmIngestTest, PumpNapsWhileBusyAndParksWhenEmpty) {
  if (!ShmIngestQueue::doorbell_supported()) {
    GTEST_SKIP() << "no futex on this platform";
  }
  auto q = ShmIngestQueue::create(file(), 32);
  hub::HeartbeatHub hub;
  // A wide floor so the producer's append lands inside the nap.
  constexpr util::TimeNs kFloor = 20 * kNsPerMs;
  hub::ShmIngestPump pump(q, hub, {.idle_sleep_min_ns = kFloor});

  // Busy: after a productive poll, wait() naps the floor without parking,
  // so an append made meanwhile does not ring the doorbell.
  const AppHandle a = q->join("a", {});
  q->append(a, 1);
  ASSERT_EQ(pump.poll(), 1u);
  const std::uint64_t parks = pump.stats().parks;
  const std::uint64_t rings = q->doorbell_rings();
  std::thread producer([&q, a] {
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
    q->append(a, 2);
  });
  const auto t0 = std::chrono::steady_clock::now();
  EXPECT_TRUE(pump.wait(50 * kNsPerMs));
  const auto napped = std::chrono::steady_clock::now() - t0;
  producer.join();
  EXPECT_GE(napped, std::chrono::nanoseconds(kFloor));
  EXPECT_EQ(pump.stats().parks, parks);
  EXPECT_EQ(q->doorbell_rings(), rings);
  EXPECT_EQ(pump.poll(), 1u);  // the append coalesced during the nap

  // Empty: after a poll that found nothing, wait() parks, and a producer's
  // append rings the doorbell and wakes it.
  EXPECT_EQ(pump.poll(), 0u);
  std::thread late([&q, a] {
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
    q->append(a, 3);
  });
  bool woke = false;
  for (int i = 0; i < 100 && !woke; ++i) woke = pump.wait(5000 * kNsPerMs);
  late.join();
  EXPECT_TRUE(woke);
  EXPECT_GE(q->doorbell_rings(), rings + 1);
  EXPECT_GE(pump.stats().parks, parks + 1);
  EXPECT_GE(pump.stats().doorbell_wakes, 1u);
  EXPECT_EQ(pump.poll(), 1u);
}

TEST_F(ShmIngestTest, PumpWaitEndsByItsDeadline) {
  if (!ShmIngestQueue::doorbell_supported()) {
    GTEST_SKIP() << "no futex on this platform";
  }
  auto q = ShmIngestQueue::create(file(), 32);
  hub::HeartbeatHub hub;
  hub::ShmIngestPump pump(q, hub);
  constexpr util::TimeNs kSlack = 2 * kNsPerMs;
  // A thread of its own: wait() reads each thread's timer slack once.
  std::thread([&] {
    ASSERT_EQ(prctl(PR_SET_TIMERSLACK, static_cast<unsigned long>(kSlack), 0, 0, 0),
              0);
    ASSERT_EQ(pump.poll(), 0u);
    // Within one slack of the deadline there is nothing to sleep.
    EXPECT_FALSE(pump.wait(kSlack));
    EXPECT_EQ(pump.stats().parks, 0u);
    // A park the budget cuts short aims one slack early, so even the
    // latest end the kernel may give it is due by the deadline.
    const auto t1 = std::chrono::steady_clock::now();
    EXPECT_FALSE(pump.wait(3 * kSlack));
    EXPECT_GE(std::chrono::steady_clock::now() - t1, std::chrono::nanoseconds(2 * kSlack));
    EXPECT_EQ(pump.stats().parks, 1u);
    EXPECT_EQ(pump.stats().wait_timeouts, 1u);
  }).join();
}

TEST_F(ShmIngestTest, PumpDrillLosesNothingAndRarelyRings) {
  // Default options, four producer threads on the ring beating with short
  // random pauses, and the canonical poll()/wait() loop: every record
  // arrives, none torn or dropped — a producer preempted between claim
  // and publish is alive, so it is waited for — and the pump, napping
  // while the ring is busy, is almost never parked when a producer
  // publishes, so rings stay far below beats.
  constexpr int kProducers = 4;
  constexpr int kBeats = 1000;
  constexpr std::uint64_t kTotal = kProducers * kBeats;
  auto q = ShmIngestQueue::create(file(), 8192);
  hub::HeartbeatHub hub;
  hub::ShmIngestPump pump(q, hub);

  std::atomic<int> done{0};
  std::vector<std::thread> threads;
  for (int p = 0; p < kProducers; ++p) {
    threads.emplace_back([&q, &done, p] {
      const AppHandle app = q->join("drill" + std::to_string(p), {});
      std::mt19937 rng(static_cast<std::uint32_t>(p + 1));
      std::uniform_int_distribution<int> pause_us(0, 200);
      for (int i = 0; i < kBeats; ++i) {
        q->append(app, (i + 1) * kNsPerMs);
        std::this_thread::sleep_for(std::chrono::microseconds(pause_us(rng)));
      }
      done.fetch_add(1, std::memory_order_release);
    });
  }
  // Poll until the producers are done and everything they published is in
  // (bounded, so a lost record fails the test instead of hanging it).
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(30);
  while (std::chrono::steady_clock::now() < deadline) {
    const bool finished = done.load(std::memory_order_acquire) == kProducers;
    pump.poll();
    if (finished && pump.stats().consumed >= kTotal) break;
    pump.wait(50 * kNsPerMs);
  }
  for (auto& t : threads) t.join();

  const auto stats = pump.stats();
  EXPECT_EQ(stats.consumed, kTotal);
  EXPECT_EQ(stats.torn, 0u);
  EXPECT_EQ(stats.dropped, 0u);
  EXPECT_LT(q->doorbell_rings(), kTotal / 10);
}

// The acceptance-shaping smoke: P forked producer processes feed the ring;
// the pump-fed hub must reach exactly the verdicts an in-process hub
// reaches on identical records. Timestamps are synthetic (deterministic) on
// a ManualClock timeline, so verdicts depend on the data alone.
TEST_F(ShmIngestTest, ForkedProducersMatchInProcessVerdicts) {
  constexpr int kProducers = 4;
  constexpr util::TimeNs kEnd = 1000 * kNsPerMs;

  // Per-producer deterministic beat plans:
  //   proc0 healthy: 10ms cadence for the full second
  //   proc1 dead:    10ms cadence, stops at 300ms
  //   proc2 slow:    100ms cadence against a 50 b/s minimum target
  //   proc3 erratic: alternating 5ms/95ms intervals
  auto plan = [](int p) {
    std::vector<util::TimeNs> timestamps;
    util::TimeNs t = 0;
    std::uint64_t i = 0;
    while (true) {
      util::TimeNs step = 0;
      switch (p) {
        case 0: step = 10 * kNsPerMs; break;
        case 1: step = 10 * kNsPerMs; break;
        case 2: step = 100 * kNsPerMs; break;
        default: step = (i % 2 == 0) ? 5 * kNsPerMs : 95 * kNsPerMs; break;
      }
      t += step;
      if (t > kEnd || (p == 1 && t > 300 * kNsPerMs)) break;
      timestamps.push_back(t);
      ++i;
    }
    return timestamps;
  };
  auto target_of = [](int p) {
    return p == 2 ? core::TargetRate{50.0, 1e9} : core::TargetRate{1.0, 1e9};
  };

  auto queue = ShmIngestQueue::create(file(), 4096);
  // Both hubs live on the same ManualClock, frozen at the timeline's end.
  auto clock = std::make_shared<util::ManualClock>(kEnd);
  hub::HubOptions hub_opts;
  hub_opts.shard_count = 4;
  hub_opts.clock = clock;

  // The pump starts at the ring's tail cursor, so build it before any
  // child publishes: on the empty ring that cursor is the start.
  hub::HeartbeatHub via_ring(hub_opts);
  hub::ShmIngestPump pump(queue, via_ring);

  std::vector<pid_t> pids;
  for (int p = 0; p < kProducers; ++p) {
    const pid_t pid = ::fork();
    ASSERT_GE(pid, 0);
    if (pid == 0) {
      // Child: attach independently, push the plan in small batches.
      auto child_q = ShmIngestQueue::attach(file());
      const auto timestamps = plan(p);
      const AppHandle app =
          child_q->join("proc" + std::to_string(p), target_of(p));
      for (std::size_t i = 0; i < timestamps.size(); i += 7) {
        const std::size_t n = std::min<std::size_t>(7, timestamps.size() - i);
        child_q->append_batch(app, std::span(timestamps).subspan(i, n));
      }
      ::_exit(0);
    }
    pids.push_back(pid);
  }
  for (const pid_t pid : pids) {
    int status = 0;
    ASSERT_EQ(::waitpid(pid, &status, 0), pid);
    ASSERT_TRUE(WIFEXITED(status) && WEXITSTATUS(status) == 0);
  }

  std::size_t total = 0;
  for (int i = 0; i < 4; ++i) total += pump.poll();
  const auto pump_stats = pump.stats();
  EXPECT_EQ(pump_stats.consumed, total);
  EXPECT_EQ(pump_stats.dropped, 0u);
  EXPECT_EQ(pump_stats.torn, 0u);
  EXPECT_EQ(pump_stats.apps, static_cast<std::uint64_t>(kProducers));

  hub::HeartbeatHub in_process(hub_opts);
  std::size_t direct_total = 0;
  for (int p = 0; p < kProducers; ++p) {
    const auto timestamps = plan(p);
    direct_total += timestamps.size();
    const hub::AppId id =
        in_process.register_app("proc" + std::to_string(p), target_of(p));
    const hub::AppRun run{id, timestamps};
    in_process.ingest_batch({&run, 1});
  }
  EXPECT_EQ(total, direct_total);

  const fault::FleetDetector detector(
      {.absolute_staleness_ns = 500 * kNsPerMs});
  const auto ring_report = detector.sweep(via_ring.snapshot());
  const auto direct_report = detector.sweep(in_process.snapshot());

  ASSERT_EQ(ring_report.apps.size(), static_cast<std::size_t>(kProducers));
  ASSERT_EQ(direct_report.apps.size(), ring_report.apps.size());
  for (const auto& app : ring_report.apps) {
    const auto match = std::find_if(
        direct_report.apps.begin(), direct_report.apps.end(),
        [&app](const fault::AppHealth& d) { return d.name == app.name; });
    ASSERT_NE(match, direct_report.apps.end()) << app.name;
    EXPECT_EQ(app.health, match->health) << app.name;
    EXPECT_EQ(app.total_beats, match->total_beats) << app.name;
    EXPECT_DOUBLE_EQ(app.rate_bps, match->rate_bps) << app.name;
  }

  // The seeded fleet shape came through the process boundary intact.
  const auto& fleet = ring_report.fleet;
  EXPECT_EQ(fleet.healthy, 1u);
  EXPECT_EQ(fleet.dead, 1u);
  EXPECT_EQ(fleet.slow, 1u);
  EXPECT_EQ(fleet.erratic, 1u);
  EXPECT_EQ(fleet.dead_apps, std::vector<std::string>{"proc1"});
}

// ------------------------------------------------------- pump name routing

TEST_F(ShmIngestTest, PumpRoutesTenThousandNamesThroughTableGrowths) {
  // 10 000 distinct names resolve through the hub's name map, which
  // rehashes several times as they arrive, while the pump's route cache
  // grows to the highest entry. Every name must keep one app, registered
  // once, with every beat it sent. Each live name holds a directory entry,
  // so the ring is sized for 10 000 of them.
  constexpr int kApps = 10000;
  constexpr int kPerPoll = 700;  // frames per poll stay below the ring size
  auto q = ShmIngestQueue::create(file(), 16384);
  hub::HubOptions opts;
  opts.window_capacity = 4;  // keep 10 000 apps small
  hub::HeartbeatHub hub(opts);
  hub::ShmIngestPump pump(q, hub);
  auto name_of = [](int i) { return "app-" + std::to_string(i); };
  auto beats_of = [](int i) { return static_cast<std::size_t>(i % 3 + 1); };
  std::vector<AppHandle> apps;
  apps.reserve(kApps);
  for (int i = 0; i < kApps; ++i) apps.push_back(q->join(name_of(i), {}));

  std::size_t sent = 0;
  for (int first = 0; first < kApps; first += kPerPoll) {
    for (int i = first; i < std::min(kApps, first + kPerPoll); ++i) {
      std::vector<util::TimeNs> timestamps;
      for (std::size_t k = 0; k < beats_of(i); ++k) {
        timestamps.push_back(static_cast<util::TimeNs>(k + 1) * kNsPerMs);
      }
      q->append_batch(apps[static_cast<std::size_t>(i)], timestamps);
      sent += timestamps.size();
    }
    pump.poll();
  }
  // Second pass: every name beats once more, so each lookup now hits.
  for (int i = 0; i < kApps; ++i) {
    q->append(apps[static_cast<std::size_t>(i)], 10 * kNsPerMs);
    ++sent;
    if (i % kPerPoll == kPerPoll - 1) pump.poll();
  }
  pump.poll();

  EXPECT_EQ(pump.stats().consumed, sent);
  EXPECT_EQ(pump.stats().dropped, 0u);
  EXPECT_EQ(pump.stats().apps, static_cast<std::uint64_t>(kApps));
  EXPECT_EQ(hub.app_count(), static_cast<std::size_t>(kApps));
  for (int i = 0; i < kApps; ++i) {
    ASSERT_EQ(hub.summary(hub.id_of(name_of(i))).total_beats, beats_of(i) + 1)
        << name_of(i);
  }
}

TEST_F(ShmIngestTest, PumpKeepsFullLengthNamesApart) {
  // The longest names the ring carries verbatim (kIngestNameCap - 1
  // bytes), differing only in their last byte, are two apps.
  auto q = ShmIngestQueue::create(file(), 64);
  hub::HeartbeatHub hub;
  hub::ShmIngestPump pump(q, hub);
  const std::string a = std::string(kIngestNameCap - 2, 'n') + "a";
  const std::string b = std::string(kIngestNameCap - 2, 'n') + "b";
  ASSERT_EQ(a.size(), 39u);
  const AppHandle app_a = q->join(a, {});
  const AppHandle app_b = q->join(b, {});
  q->append(app_a, 1 * kNsPerMs);
  q->append(app_b, 1 * kNsPerMs);
  q->append(app_a, 2 * kNsPerMs);
  q->append(app_a, 3 * kNsPerMs);
  EXPECT_EQ(pump.poll(), 4u);
  EXPECT_EQ(pump.stats().apps, 2u);
  EXPECT_EQ(hub.summary(hub.id_of(a)).total_beats, 3u);
  EXPECT_EQ(hub.summary(hub.id_of(b)).total_beats, 1u);
}

TEST_F(ShmIngestTest, PumpRoutesTheEmptyNameLikeAnyOther) {
  // Ring names are untrusted, and "" is a name like any other: it is one
  // app, apart from every other name.
  auto q = ShmIngestQueue::create(file(), 64);
  hub::HeartbeatHub hub;
  hub::ShmIngestPump pump(q, hub);
  const AppHandle empty = q->join("", {});
  const AppHandle x = q->join("x", {});
  q->append(empty, 1 * kNsPerMs);
  q->append(x, 1 * kNsPerMs);
  q->append(empty, 2 * kNsPerMs);
  EXPECT_EQ(pump.poll(), 3u);
  q->append(empty, 3 * kNsPerMs);
  EXPECT_EQ(pump.poll(), 1u);
  EXPECT_EQ(pump.stats().apps, 2u);
  EXPECT_EQ(hub.app_count(), 2u);
  EXPECT_EQ(hub.summary(hub.id_of("")).total_beats, 3u);
  EXPECT_EQ(hub.summary(hub.id_of("x")).total_beats, 1u);
}

TEST_F(ShmIngestTest, PumpAppliesATargetChangedMidStream) {
  auto q = ShmIngestQueue::create(file(), 64);
  hub::HeartbeatHub hub;
  hub::ShmIngestPump pump(q, hub);
  AppHandle enc = q->join("enc", {10.0, 20.0});
  q->append(enc, 1 * kNsPerMs);
  EXPECT_EQ(pump.poll(), 1u);
  const hub::AppId id = hub.id_of("enc");
  EXPECT_EQ(hub.summary(id).target.min_bps, 10.0);
  EXPECT_EQ(hub.summary(id).total_beats, 1u);

  // Changed within one poll's stream: the newest target wins, and the
  // beat sent under the old gen still counts.
  q->append(enc, 2 * kNsPerMs);
  q->set_target(enc, {30.0, 40.0});
  q->append(enc, 3 * kNsPerMs);
  EXPECT_EQ(pump.poll(), 2u);
  auto s = hub.summary(id);
  EXPECT_EQ(s.target.min_bps, 30.0);
  EXPECT_EQ(s.target.max_bps, 40.0);
  EXPECT_EQ(s.total_beats, 3u);

  // And back, on the next poll.
  q->set_target(enc, {10.0, 20.0});
  q->append(enc, 4 * kNsPerMs);
  EXPECT_EQ(pump.poll(), 1u);
  s = hub.summary(id);
  EXPECT_EQ(s.target.min_bps, 10.0);
  EXPECT_EQ(s.target.max_bps, 20.0);
  EXPECT_EQ(s.total_beats, 4u);
  EXPECT_EQ(pump.stats().apps, 1u);

  // A sink re-targeted with beats still buffered sends them first, under
  // the old gen: every beat arrives, each poll's count exactly.
  auto inner = std::make_shared<core::MemoryStore>(64, 10);
  ShmHubSink sink(inner, q, "enc", {.flush_every = 4});
  sink.set_target({50.0, 60.0});
  sink.append(rec_at(5 * kNsPerMs));
  sink.append(rec_at(6 * kNsPerMs));
  sink.set_target({70.0, 80.0});
  sink.append(rec_at(7 * kNsPerMs));
  sink.flush();
  EXPECT_EQ(pump.poll(), 3u);
  s = hub.summary(id);
  EXPECT_EQ(s.total_beats, 7u);
  EXPECT_EQ(s.target.min_bps, 70.0);
  EXPECT_EQ(s.target.max_bps, 80.0);
  EXPECT_EQ(pump.stats().rejected, 0u);
  EXPECT_EQ(pump.stats().apps, 1u);
}

TEST_F(ShmIngestTest, PumpJoinsANameTheHubRegisteredAndAppliesItsTarget) {
  // A name the hub registered in-process (or by a registry replay) is the
  // app a ring producer joining under it beats: one app, which takes the
  // producer's target.
  auto q = ShmIngestQueue::create(file(), 64);
  hub::HeartbeatHub hub;
  const hub::AppId id = hub.register_app("enc", {1.0, 2.0});
  hub::ShmIngestPump pump(q, hub);
  const AppHandle enc = q->join("enc", {5.0, 6.0});
  q->append(enc, 1 * kNsPerMs);
  q->append(enc, 2 * kNsPerMs);
  EXPECT_EQ(pump.poll(), 2u);
  EXPECT_EQ(hub.app_count(), 1u);
  EXPECT_EQ(hub.id_of("enc"), id);
  const hub::AppSummary s = hub.summary(id);
  EXPECT_EQ(s.total_beats, 2u);
  EXPECT_EQ(s.target.min_bps, 5.0);
  EXPECT_EQ(s.target.max_bps, 6.0);
  EXPECT_EQ(pump.stats().apps, 1u);
  EXPECT_EQ(pump.stats().rejected, 0u);
}

TEST_F(ShmIngestTest, PumpKeepsAProducerThatRejoinsAsOneApp) {
  // A producer that leaves and joins again under its name, target
  // unchanged, starts a new directory tenure: the pump resolves it afresh
  // to the app it already beat, and every beat of both tenures counts.
  auto q = ShmIngestQueue::create(file(), 64);
  hub::HeartbeatHub hub;
  hub::ShmIngestPump pump(q, hub);
  AppHandle enc = q->join("enc", {10.0, 20.0});
  q->append(enc, 1 * kNsPerMs);
  q->append(enc, 2 * kNsPerMs);
  EXPECT_EQ(pump.poll(), 2u);
  q->leave(enc);
  enc = q->join("enc", {10.0, 20.0});
  q->append(enc, 3 * kNsPerMs);
  EXPECT_EQ(pump.poll(), 1u);
  EXPECT_EQ(hub.app_count(), 1u);
  const hub::AppSummary s = hub.summary(hub.id_of("enc"));
  EXPECT_EQ(s.total_beats, 3u);
  EXPECT_EQ(s.target.min_bps, 10.0);
  EXPECT_EQ(s.target.max_bps, 20.0);
  EXPECT_EQ(pump.stats().apps, 1u);
  EXPECT_EQ(pump.stats().rejected, 0u);
}

TEST_F(ShmIngestTest, PumpRejectsRecordsUnderTheHubsOwnName) {
  // Ring names are untrusted: a producer naming itself kSelfAppName must
  // not refresh the hub's own heartbeat, or a stalled publish loop would
  // never read stale. Its records are dropped and counted; an ordinary
  // app in the same poll still applies.
  obs::Counter& rejected = obs::MetricsRegistry::global().counter(
      "hb.pump.rejected");
  const std::uint64_t rejected0 = rejected.value();
  auto q = ShmIngestQueue::create(file(), 64);
  auto clock = std::make_shared<util::ManualClock>(1'000'000'000);
  hub::HubOptions opts;
  opts.clock = clock;
  opts.self_beat = true;
  hub::HeartbeatHub hub(opts);
  hub::ShmIngestPump pump(q, hub);
  const hub::AppId self = hub.self_app_id();
  const hub::AppSummary before = hub.summary(self);
  hub.set_self_beat_paused(true);
  clock->advance(10'000 * kNsPerMs);

  const std::string self_name(hub::kSelfAppName);
  AppHandle self_app = q->join(self_name, {1.0, 1.0});
  q->append(self_app, clock->now());
  q->append(q->join("enc", {10.0, 20.0}), clock->now());
  EXPECT_EQ(pump.poll(), 2u);

  const hub::AppSummary s = hub.summary(self);
  EXPECT_EQ(s.staleness_ns, 10'000 * kNsPerMs);
  EXPECT_EQ(s.total_beats, before.total_beats);
  EXPECT_EQ(s.target.min_bps, before.target.min_bps);
  EXPECT_EQ(s.target.max_bps, before.target.max_bps);
  EXPECT_EQ(pump.stats().rejected, 1u);
  EXPECT_EQ(rejected.value() - rejected0, 1u);
  const hub::AppSummary enc = hub.summary(hub.id_of("enc"));
  EXPECT_EQ(enc.total_beats, 1u);
  EXPECT_EQ(enc.staleness_ns, 0);
  EXPECT_EQ(enc.target.max_bps, 20.0);

  // The name stays rejected on later polls, with a changed target too.
  q->set_target(self_app, {2.0, 2.0});
  q->append(self_app, clock->now());
  EXPECT_EQ(pump.poll(), 1u);
  EXPECT_EQ(pump.stats().rejected, 2u);
  EXPECT_EQ(hub.summary(self).target.max_bps, before.target.max_bps);
  EXPECT_EQ(hub.app_count(), 2u);
}

// ------------------------------------------------------- the app directory

TEST_F(ShmIngestTest, CrashedHoldersEntryIsReclaimedOnlyAfterALap) {
  // A forked producer joins, publishes two beats and dies holding its
  // directory entry. Its beats reach the hub under its name. Its entry is
  // handed out again only once the ring head has moved a full capacity
  // past the reclaim, and a frame of the old tenure that arrives after
  // that is rejected, never counted under the new holder's name.
  constexpr std::uint32_t kCap = 8;
  auto q = ShmIngestQueue::create(file(), kCap);
  hub::HeartbeatHub hub;
  hub::ShmIngestPump pump(q, hub);
  const pid_t pid = ::fork();
  ASSERT_GE(pid, 0);
  if (pid == 0) {
    auto child = ShmIngestQueue::attach(file());
    const AppHandle crashed = child->join("crashed", {});
    child->append(crashed, 1 * kNsPerMs);
    child->append(crashed, 2 * kNsPerMs);
    ::_exit(crashed.entry == 0 ? 0 : 2);  // no leave(): the entry stays held
  }
  int status = 0;
  ASSERT_EQ(::waitpid(pid, &status, 0), pid);
  ASSERT_TRUE(WIFEXITED(status) && WEXITSTATUS(status) == 0);
  EXPECT_EQ(pump.poll(), 2u);
  EXPECT_EQ(hub.summary(hub.id_of("crashed")).total_beats, 2u);
  ShmIngestQueue::AppEntry old;
  ASSERT_TRUE(q->read_entry(0, old));
  EXPECT_STREQ(old.tenure.name, "crashed");
  const AppHandle old_tenure{0, old.gen};

  // The dead holder's entry is reclaimed but cools for a lap: the other
  // entries fill and the directory is full.
  std::vector<AppHandle> others;
  others.reserve(kCap - 1);
  for (std::uint32_t i = 1; i < kCap; ++i) {
    others.push_back(q->join("other" + std::to_string(i), {}));
    EXPECT_NE(others.back().entry, 0u);
  }
  EXPECT_THROW(q->join("new", {}), std::runtime_error);
  for (std::uint32_t i = 0; i + 1 < kCap; ++i) {
    q->append(others[0], static_cast<util::TimeNs>(i + 1) * kNsPerMs);
  }
  EXPECT_THROW(q->join("new", {}), std::runtime_error);  // one frame short
  q->append(others[0], kCap * kNsPerMs);
  EXPECT_EQ(pump.poll(), kCap);
  const AppHandle fresh = q->join("new", {});
  EXPECT_EQ(fresh.entry, 0u);
  EXPECT_GT(fresh.gen, old_tenure.gen);

  q->append(fresh, 1 * kNsPerMs);
  q->append(old_tenure, 3 * kNsPerMs);  // a late frame of the dead holder
  q->append(fresh, 2 * kNsPerMs);
  EXPECT_EQ(pump.poll(), 3u);
  EXPECT_EQ(hub.summary(hub.id_of("crashed")).total_beats, 2u);
  EXPECT_EQ(hub.summary(hub.id_of("new")).total_beats, 2u);
  EXPECT_EQ(hub.summary(hub.id_of("other1")).total_beats, kCap);
  EXPECT_EQ(pump.stats().rejected, 1u);
  EXPECT_EQ(pump.stats().torn, 0u);
  EXPECT_EQ(pump.stats().dropped, 0u);
}

TEST_F(ShmIngestTest, FullDirectoryThrowsAndKeepsEveryOtherSinksBeats) {
  constexpr std::uint32_t kCap = 4;
  auto q = ShmIngestQueue::create(file(), kCap);
  hub::HeartbeatHub hub;
  hub::ShmIngestPump pump(q, hub);
  std::vector<std::unique_ptr<ShmHubSink>> sinks;
  sinks.reserve(kCap);
  for (std::uint32_t i = 0; i < kCap; ++i) {
    sinks.push_back(std::make_unique<ShmHubSink>(
        std::make_shared<core::MemoryStore>(16, 4), q,
        "sink" + std::to_string(i)));
    sinks.back()->append(rec_at(1 * kNsPerMs));
  }
  EXPECT_EQ(pump.poll(), kCap);
  try {
    ShmHubSink extra(std::make_shared<core::MemoryStore>(16, 4), q, "extra");
    ADD_FAILURE() << "a full directory took another sink";
  } catch (const std::runtime_error& e) {
    EXPECT_NE(std::string(e.what()).find(file().string()), std::string::npos)
        << e.what();
  }
  for (auto& sink : sinks) sink->append(rec_at(2 * kNsPerMs));
  EXPECT_EQ(pump.poll(), kCap);
  EXPECT_EQ(pump.stats().rejected, 0u);
  EXPECT_EQ(hub.app_count(), static_cast<std::size_t>(kCap));
  for (std::uint32_t i = 0; i < kCap; ++i) {
    EXPECT_EQ(hub.summary(hub.id_of("sink" + std::to_string(i))).total_beats,
              2u);
  }
}

TEST_F(ShmIngestTest, PumpRejectsFramesTheDirectoryDoesNotCover) {
  // A frame's entry and gen are untrusted: an entry past the directory,
  // or a gen outside the entry's [claimed_gen, gen], is rejected and
  // counted, and frames around it still apply.
  obs::Counter& rejected = obs::MetricsRegistry::global().counter(
      "hb.pump.rejected");
  const std::uint64_t rejected0 = rejected.value();
  constexpr std::uint32_t kCap = 16;
  auto q = ShmIngestQueue::create(file(), kCap);
  hub::HeartbeatHub hub;
  hub::ShmIngestPump pump(q, hub);
  AppHandle app = q->join("app", {});
  q->set_target(app, {1.0, 2.0});
  q->append(app, 1 * kNsPerMs);
  q->append(AppHandle{kCap, app.gen}, 2 * kNsPerMs);
  q->append(AppHandle{0xffffffffu, app.gen}, 3 * kNsPerMs);
  // Below claimed_gen: a gen no frame of this tenure carries.
  q->append(AppHandle{app.entry, app.gen - 3}, 4 * kNsPerMs);
  q->append(AppHandle{app.entry, app.gen + 2}, 5 * kNsPerMs);  // future
  q->append(AppHandle{app.entry, 0}, 6 * kNsPerMs);
  q->append(AppHandle{app.entry, app.gen - 2}, 7 * kNsPerMs);  // old target
  EXPECT_EQ(pump.poll(), 7u);
  EXPECT_EQ(pump.stats().rejected, 5u);
  EXPECT_EQ(rejected.value() - rejected0, 5u);
  EXPECT_EQ(hub.app_count(), 1u);
  EXPECT_EQ(hub.summary(hub.id_of("app")).total_beats, 2u);
}

TEST_F(ShmIngestTest, PumpLosesNoBeatWhileItsProducerReTargetsEveryBeat) {
  // A producer re-targets its entry before every beat while a pump drains
  // the ring: every beat reaches the hub, none is rejected, and the hub
  // ends on the last target. The ring holds the whole run, so none drops.
  const std::uint32_t beats = util::kTsanBuild ? 4000 : 20000;
  auto q = ShmIngestQueue::create(file(), beats);
  hub::HeartbeatHub hub;
  hub::ShmIngestPump pump(q, hub);
  const auto target_of = [](std::uint32_t i) {
    return core::TargetRate{static_cast<double>(i), static_cast<double>(i + 1)};
  };
  AppHandle app = q->join("retarget", target_of(0));
  std::atomic<bool> done{false};
  std::thread producer([&] {
    for (std::uint32_t i = 1; i <= beats; ++i) {
      q->set_target(app, target_of(i));
      q->append(app, static_cast<util::TimeNs>(i));
    }
    done.store(true, std::memory_order_release);
  });
  std::uint64_t polled = 0;
  while (!done.load(std::memory_order_acquire)) polled += pump.poll();
  producer.join();
  polled += pump.poll();  // the ring holds the whole run: one poll drains it
  EXPECT_EQ(polled, beats);
  const hub::AppSummary s = hub.summary(hub.id_of("retarget"));
  EXPECT_EQ(s.total_beats, beats);
  EXPECT_EQ(s.target.min_bps, target_of(beats).min_bps);
  EXPECT_EQ(s.target.max_bps, target_of(beats).max_bps);
  const hub::ShmIngestPumpStats stats = pump.stats();
  EXPECT_EQ(stats.rejected, 0u);
  EXPECT_EQ(stats.consumed, beats);
  EXPECT_EQ(stats.dropped, 0u);
  EXPECT_EQ(stats.torn, 0u);
}

TEST_F(ShmIngestTest, PumpRoutesTheFramesOfAnEntryLeftMidReTarget) {
  // A holder killed inside set_target leaves its entry's gen odd for
  // good. Its name is still readable, so its frames still route: a known
  // app keeps the target the hub has, a new one starts at its join's
  // target, and no poll waits on the entry.
  auto q = ShmIngestQueue::create(file(), 16);
  hub::HeartbeatHub hub;
  hub::ShmIngestPump pump(q, hub);
  AppHandle known = q->join("known", {1.0, 2.0});
  q->set_target(known, {3.0, 4.0});
  q->append(known, 1 * kNsPerMs);
  EXPECT_EQ(pump.poll(), 1u);
  AppHandle fresh = q->join("fresh", {5.0, 6.0});
  q->set_target(fresh, {7.0, 8.0});

  // Both holders die mid-write: gen odd, the target half written.
  const double torn = 99.0;
  for (const AppHandle& app : {known, fresh}) {
    const std::uint32_t odd = app.gen + 1;
    poke(file(), entry_offset(app.entry) + offsetof(ShmIngestDirEntry, gen),
         &odd, sizeof(odd));
    poke(file(),
         entry_offset(app.entry) + offsetof(ShmIngestDirEntry, target) +
             offsetof(ShmIngestDirEntry::Target, min_bits),
         &torn, sizeof(torn));
  }
  for (util::TimeNs ts = 2; ts <= 4; ++ts) {
    q->append(known, ts * kNsPerMs);
    q->append(fresh, ts * kNsPerMs);
  }
  const auto t0 = std::chrono::steady_clock::now();
  EXPECT_EQ(pump.poll(), 6u);
  q->append(known, 5 * kNsPerMs);
  EXPECT_EQ(pump.poll(), 1u);
  EXPECT_LT(std::chrono::steady_clock::now() - t0, std::chrono::seconds(1));
  const hub::AppSummary k = hub.summary(hub.id_of("known"));
  EXPECT_EQ(k.total_beats, 5u);
  EXPECT_EQ(k.target.min_bps, 3.0);
  EXPECT_EQ(k.target.max_bps, 4.0);
  const hub::AppSummary f = hub.summary(hub.id_of("fresh"));
  EXPECT_EQ(f.total_beats, 3u);
  EXPECT_EQ(f.target.min_bps, 5.0);
  EXPECT_EQ(f.target.max_bps, 6.0);
  EXPECT_EQ(pump.stats().rejected, 0u);
}

TEST_F(ShmIngestTest, EntryHeldFromAnotherPidNamespaceIsNeverReclaimed) {
  // In a ring whose creator sits in another pid namespace, a holder's
  // owner word is a bare kClaimBit: no pid to judge. A forked holder that
  // dies without leave() keeps its entry however far the ring moves on,
  // until the ring file is recreated.
  constexpr std::uint32_t kCap = 4;
  ShmIngestQueue::create(file(), kCap).reset();
  const std::uint64_t foreign_ns = ~std::uint64_t{0};
  poke(file(), offsetof(ShmIngestHeader, pid_ns), &foreign_ns,
       sizeof(foreign_ns));
  auto q = ShmIngestQueue::attach(file());
  const pid_t pid = ::fork();
  ASSERT_GE(pid, 0);
  if (pid == 0) {
    const AppHandle held = ShmIngestQueue::attach(file())->join("held", {});
    ::_exit(held.entry == 0 ? 0 : 2);  // no leave(): the entry stays held
  }
  int status = 0;
  ASSERT_EQ(::waitpid(pid, &status, 0), pid);
  ASSERT_TRUE(WIFEXITED(status) && WEXITSTATUS(status) == 0);
  std::uint64_t owner = 0;
  {
    std::FILE* f = std::fopen(file().c_str(), "rb");
    ASSERT_NE(f, nullptr);
    ASSERT_EQ(std::fseek(f, static_cast<long>(entry_offset(0)), SEEK_SET), 0);
    ASSERT_EQ(std::fread(&owner, sizeof(owner), 1, f), 1u);
    std::fclose(f);
  }
  EXPECT_EQ(owner, kClaimBit);

  std::vector<AppHandle> others;
  for (std::uint32_t i = 1; i < kCap; ++i) {
    others.push_back(q->join("other" + std::to_string(i), {}));
    EXPECT_NE(others.back().entry, 0u);
  }
  EXPECT_THROW(q->join("new", {}), std::runtime_error);
  for (std::uint32_t i = 0; i < 4 * kCap; ++i) {
    q->append(others[0], static_cast<util::TimeNs>(i + 1));
  }
  EXPECT_THROW(q->join("new", {}), std::runtime_error);
  // An entry given back by a live holder is free again a lap later.
  q->leave(others[1]);
  for (std::uint32_t i = 0; i < kCap; ++i) {
    q->append(others[0], static_cast<util::TimeNs>(i + 1));
  }
  EXPECT_EQ(q->join("new", {}).entry, others[1].entry);
}

}  // namespace
}  // namespace hb::transport
