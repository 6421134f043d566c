// Cross-process ingest ring: layout guarantees, batch append/drain,
// wraparound overflow accounting, crashed-producer torn-slot skipping,
// ShmHubSink mirroring, and the fork-based multi-process pump smoke (hub
// verdicts via the ring must match in-process ingestion exactly).
#include <gtest/gtest.h>
#include <sys/prctl.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstddef>
#include <cstdint>
#include <cstdio>
#include <filesystem>
#include <limits>
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

namespace hb::transport {
namespace {

namespace fs = std::filesystem;
using util::kNsPerMs;

core::HeartbeatRecord rec_at(util::TimeNs ts, std::uint64_t tag = 0) {
  core::HeartbeatRecord r;
  r.timestamp_ns = ts;
  r.tag = tag;
  return r;
}

struct Drained {
  std::string app;
  core::HeartbeatRecord rec;
  core::TargetRate target;
};

std::vector<Drained> drain_all(ShmIngestQueue& q, ShmIngestQueue::Cursor& cur,
                               std::uint32_t max_stall = 3) {
  std::vector<Drained> out;
  q.drain(
      cur,
      [&out](std::string_view app, const core::HeartbeatRecord& rec,
             core::TargetRate target) {
        out.push_back({std::string(app), rec, target});
      },
      max_stall);
  return out;
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
  EXPECT_EQ(sizeof(ShmIngestLane), 64u);
  EXPECT_EQ(sizeof(ShmIngestSlot), 128u);
  EXPECT_EQ(sizeof(ShmIngestSlot::Body), 120u);
  // header + lane headers + shared ring + lane rings
  const std::size_t fixed = 128u + kIngestLanes * 64u;
  EXPECT_EQ(shm_ingest_segment_size(0, 2),
            fixed + kIngestLanes * 2u * 128u);
  EXPECT_EQ(shm_ingest_segment_size(64, 16),
            fixed + 64u * 128u + kIngestLanes * 16u * 128u);
}

TEST_F(ShmIngestTest, CreateAttachRoundTrip) {
  auto q = ShmIngestQueue::create(file(), 64);
  EXPECT_EQ(q->capacity(), 64u);
  EXPECT_EQ(q->produced(), 0u);
  EXPECT_EQ(q->creator_pid(), static_cast<std::uint32_t>(::getpid()));

  q->append("app", rec_at(1 * kNsPerMs), {2.0, 9.0});
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
  std::vector<core::HeartbeatRecord> recs;
  for (int i = 0; i < 10; ++i) {
    recs.push_back(rec_at((i + 1) * kNsPerMs, static_cast<std::uint64_t>(i)));
  }
  EXPECT_EQ(q->append_batch("encoder", recs, {30.0, 60.0}), 0u);

  ShmIngestQueue::Cursor cur;
  const auto out = drain_all(*q, cur);
  ASSERT_EQ(out.size(), 10u);
  EXPECT_EQ(cur.consumed, 10u);
  EXPECT_EQ(cur.dropped, 0u);
  EXPECT_EQ(cur.torn, 0u);
  for (int i = 0; i < 10; ++i) {
    EXPECT_EQ(out[static_cast<std::size_t>(i)].app, "encoder");
    EXPECT_EQ(out[static_cast<std::size_t>(i)].rec.tag,
              static_cast<std::uint64_t>(i));
    EXPECT_DOUBLE_EQ(out[static_cast<std::size_t>(i)].target.min_bps, 30.0);
    EXPECT_DOUBLE_EQ(out[static_cast<std::size_t>(i)].target.max_bps, 60.0);
  }
}

TEST_F(ShmIngestTest, SustainedOverflowCountsDropsNeverCorrupts) {
  auto q = ShmIngestQueue::create(file(), 8);
  // 100 beats into an 8-slot ring with no consumer keeping up: the oldest
  // 92 are overwritten. tag mirrors the ring seq so a corrupt (torn or
  // misattributed) delivery is detectable.
  for (std::uint64_t i = 0; i < 100; ++i) {
    q->append("a", rec_at(static_cast<util::TimeNs>(i), i), {});
  }
  ShmIngestQueue::Cursor cur;
  const auto out = drain_all(*q, cur);
  ASSERT_EQ(out.size(), 8u);
  EXPECT_EQ(cur.dropped, 92u);
  EXPECT_EQ(cur.consumed, 8u);
  EXPECT_EQ(cur.torn, 0u);
  for (std::size_t i = 0; i < out.size(); ++i) {
    EXPECT_EQ(out[i].rec.tag, 92u + i);  // exactly the retained suffix
  }

  // The cursor has caught up; later appends drain without further drops.
  q->append("a", rec_at(200, 100), {});
  const auto tail = drain_all(*q, cur);
  ASSERT_EQ(tail.size(), 1u);
  EXPECT_EQ(tail[0].rec.tag, 100u);
  EXPECT_EQ(cur.dropped, 92u);
}

TEST_F(ShmIngestTest, CrashedProducerSlotSkippedAfterStallBudget) {
  auto q = ShmIngestQueue::create(file(), 32);
  // A producer claims a 4-slot batch, publishes 2, and dies.
  const std::uint64_t first = q->claim(4);
  q->publish(first + 0, "dead", rec_at(1, 0), {});
  q->publish(first + 1, "dead", rec_at(2, 1), {});
  // A healthy producer appends afterwards.
  q->append("live", rec_at(3, 7), {});

  ShmIngestQueue::Cursor cur;
  // Drain 1: the two published records come through, then the torn slot
  // blocks progress.
  auto out = drain_all(*q, cur, /*max_stall=*/2);
  ASSERT_EQ(out.size(), 2u);
  EXPECT_EQ(cur.main.stalls, 1u);
  // Drain 2: still blocked.
  EXPECT_TRUE(drain_all(*q, cur, 2).empty());
  EXPECT_EQ(cur.main.stalls, 2u);
  // Drain 3: stall budget exhausted — both torn slots are skipped and the
  // live producer's record is delivered. The consumer never wedges.
  out = drain_all(*q, cur, 2);
  ASSERT_EQ(out.size(), 1u);
  EXPECT_EQ(out[0].app, "live");
  EXPECT_EQ(out[0].rec.tag, 7u);
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
  q->append("a", rec_at(1), {});
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
  q->append(prefix + "-worker-A", rec_at(1, 0), {});
  q->append(prefix + "-worker-B", rec_at(2, 1), {});
  ShmIngestQueue::Cursor cur;
  const auto out = drain_all(*q, cur);
  ASSERT_EQ(out.size(), 2u);
  EXPECT_LT(out[0].app.size(), kIngestNameCap);
  EXPECT_NE(out[0].app, out[1].app);  // hash suffix keeps them apart
  EXPECT_EQ(out[0].app.substr(0, 10), prefix.substr(0, 10));
}

TEST_F(ShmIngestTest, IndependentConsumersSeeTheFullStream) {
  auto q = ShmIngestQueue::create(file(), 16);
  for (std::uint64_t i = 0; i < 5; ++i) q->append("a", rec_at(1, i), {});
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

  q->append("a", rec_at(kNsPerMs), {});
  EXPECT_EQ(pump.poll(), 1u);  // records reset the schedule to the floor
  EXPECT_EQ(pump.suggested_sleep_ns(), 1 * kNsPerMs);
  EXPECT_EQ(pump.poll(), 0u);
  EXPECT_EQ(pump.suggested_sleep_ns(), 2 * kNsPerMs);

  // A BLOCKED ring is not an idle ring: a producer claims a slot and dies
  // unpublished with a live record queued behind it. Drains return 0 while
  // the stall budget burns, but the backoff must stay at the floor — the
  // stalled run should be skipped at floor pace, not at the cap, or the
  // records behind a crash wait longest exactly during the failure.
  q->claim(1);
  q->append("a", rec_at(2 * kNsPerMs), {});
  EXPECT_EQ(pump.poll(), 0u);  // blocked on the unpublished slot
  EXPECT_EQ(pump.suggested_sleep_ns(), 1 * kNsPerMs);
  EXPECT_EQ(pump.poll(), 0u);  // still blocked, still at the floor
  EXPECT_EQ(pump.suggested_sleep_ns(), 1 * kNsPerMs);
  EXPECT_EQ(pump.poll(), 1u);  // stall budget spent: torn skipped, record in
  EXPECT_EQ(pump.suggested_sleep_ns(), 1 * kNsPerMs);
  EXPECT_EQ(pump.stats().torn, 1u);
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
    EXPECT_EQ(out[i].rec.seq, i);     // store-assigned seq carried over
    EXPECT_EQ(out[i].rec.tag, i);
    EXPECT_DOUBLE_EQ(out[i].target.min_bps, 5.0);
  }
}

TEST_F(ShmIngestTest, SinkBatchesAndHonorsMaxHold) {
  auto q = ShmIngestQueue::create(file(), 64);
  auto inner = std::make_shared<core::MemoryStore>(64, true, 10);
  // use_fast_lane off so produced() (shared-ring frames) observes flushes.
  ShmHubSink sink(inner, q, "batchy",
                  {.flush_every = 8, .max_hold_ns = 10 * kNsPerMs,
                   .use_fast_lane = false});
  EXPECT_EQ(sink.lane(), -1);

  sink.append(rec_at(0));
  sink.append(rec_at(1 * kNsPerMs));
  EXPECT_EQ(q->produced(), 0u);  // buffered below flush_every
  // 20ms after the oldest buffered beat: the hold bound flushes the batch.
  // The three records share a thread and consecutive store seqs, so the
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
  for (std::size_t i = 0; i < out.size(); ++i) {
    EXPECT_EQ(out[i].rec.seq, i);  // store-assigned seqs survive packing
  }
}

TEST_F(ShmIngestTest, SinkFastLaneBypassesSharedRing) {
  auto q = ShmIngestQueue::create(file(), 64);
  auto inner = std::make_shared<core::MemoryStore>(64, true, 10);
  ShmHubSink sink(inner, q, "laner", {.flush_every = 3});
  ASSERT_GE(sink.lane(), 0);
  EXPECT_NE(q->lane_owner(static_cast<std::uint32_t>(sink.lane())), 0u);

  for (int i = 0; i < 6; ++i) sink.append(rec_at(i * kNsPerMs));
  // Everything went through the lane: the shared ring never moved, and the
  // two 3-record flushes packed into one lane frame each.
  EXPECT_EQ(q->produced(), 0u);
  EXPECT_EQ(q->lane_produced(static_cast<std::uint32_t>(sink.lane())), 2u);

  ShmIngestQueue::Cursor cur;
  const auto out = drain_all(*q, cur);
  ASSERT_EQ(out.size(), 6u);
  EXPECT_EQ(cur.lane_records, 6u);
  for (std::size_t i = 0; i < out.size(); ++i) {
    EXPECT_EQ(out[i].app, "laner");
    EXPECT_EQ(out[i].rec.seq, i);
  }
}

TEST_F(ShmIngestTest, PackedFramesRoundTripExactly) {
  auto q = ShmIngestQueue::create(file(), 32);
  // Seven packable records (one thread, consecutive seqs, sub-u32 ts
  // deltas): 3+3+1 across three frames, one claim.
  std::vector<core::HeartbeatRecord> recs;
  for (std::uint64_t i = 0; i < 7; ++i) {
    core::HeartbeatRecord r;
    r.timestamp_ns = static_cast<util::TimeNs>(100 * kNsPerMs + i * 3333);
    r.seq = 40 + i;
    r.tag = 0x1000 + i;
    r.thread_id = 77;
    recs.push_back(r);
  }
  EXPECT_EQ(q->append_batch("packer", recs, {3.0, 8.0}), 0u);
  EXPECT_EQ(q->produced(), 3u);  // ceil(7 / 3) frames, not 7 slots

  ShmIngestQueue::Cursor cur;
  const auto out = drain_all(*q, cur);
  ASSERT_EQ(out.size(), 7u);
  EXPECT_EQ(cur.consumed, 7u);
  EXPECT_EQ(cur.consumed_frames, 3u);
  for (std::size_t i = 0; i < out.size(); ++i) {
    EXPECT_EQ(out[i].app, "packer");
    EXPECT_EQ(out[i].rec.timestamp_ns, recs[i].timestamp_ns);
    EXPECT_EQ(out[i].rec.seq, recs[i].seq);
    EXPECT_EQ(out[i].rec.tag, recs[i].tag);
    EXPECT_EQ(out[i].rec.thread_id, 77u);
    EXPECT_DOUBLE_EQ(out[i].target.min_bps, 3.0);
    EXPECT_DOUBLE_EQ(out[i].target.max_bps, 8.0);
  }
}

TEST_F(ShmIngestTest, UnpackableRecordsStartFreshFrames) {
  auto q = ShmIngestQueue::create(file(), 32);
  // Every packing constraint broken in turn: a thread switch, a seq gap,
  // and a timestamp delta that overflows u32 each force a frame break.
  std::vector<core::HeartbeatRecord> recs(4);
  recs[0].timestamp_ns = 1;
  recs[0].seq = 10;
  recs[0].thread_id = 1;
  recs[1] = recs[0];
  recs[1].thread_id = 2;  // thread switch
  recs[1].seq = 11;
  recs[2] = recs[1];
  recs[2].seq = 20;  // seq gap
  recs[3] = recs[2];
  recs[3].seq = 21;
  recs[3].timestamp_ns = recs[2].timestamp_ns + (1LL << 40);  // delta > u32
  q->append_batch("a", recs, {});
  EXPECT_EQ(q->produced(), 4u);  // nothing packed

  ShmIngestQueue::Cursor cur;
  const auto out = drain_all(*q, cur);
  ASSERT_EQ(out.size(), 4u);
  for (std::size_t i = 0; i < 4; ++i) {
    EXPECT_EQ(out[i].rec.seq, recs[i].seq);
    EXPECT_EQ(out[i].rec.timestamp_ns, recs[i].timestamp_ns);
    EXPECT_EQ(out[i].rec.thread_id, recs[i].thread_id);
  }
}

TEST_F(ShmIngestTest, VersionMismatchRejectedOnAttach) {
  auto q = ShmIngestQueue::create(file(), 8);
  q.reset();
  // Rewrite the header's version field (offset 8, after the u64 magic) to
  // the retired v1 — exactly what a stale pre-upgrade ring file looks like.
  std::FILE* f = std::fopen(file().c_str(), "r+b");
  ASSERT_NE(f, nullptr);
  const std::uint32_t old_version = 1;
  ASSERT_EQ(std::fseek(f, 8, SEEK_SET), 0);
  std::fwrite(&old_version, sizeof(old_version), 1, f);
  std::fclose(f);
  EXPECT_THROW(ShmIngestQueue::attach(file()), std::runtime_error);
}

TEST_F(ShmIngestTest, HostileBaseTimestampDecodesWithoutOverflow) {
  // Record i of a frame decodes as base_ts_ns + ts_delta_ns[i]. A hostile
  // segment may carry any base: poked to INT64_MAX, every nonzero delta
  // leaves int64's range. The drain adds in uint64 (two's complement
  // wrap, no signed-overflow UB) and still delivers every record.
  auto q = ShmIngestQueue::create(file(), 8);
  std::vector<core::HeartbeatRecord> recs;
  const std::uint32_t deltas[] = {0, 5, 10};
  for (std::uint32_t i = 0; i < 3; ++i) {
    recs.push_back(rec_at(deltas[i], /*tag=*/i));
    recs.back().seq = i;
  }
  ASSERT_EQ(q->append_batch("hostile", recs, {}), 0u);
  ASSERT_EQ(q->produced(), 1u);  // one packed frame, in shared-ring slot 0
  q.reset();

  // Rewrite slot 0's committed base timestamp in the file.
  const long offset = static_cast<long>(
      sizeof(ShmIngestHeader) + kIngestLanes * sizeof(ShmIngestLane) +
      offsetof(ShmIngestSlot, body) +
      offsetof(ShmIngestSlot::Body, base_ts_ns));
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
    EXPECT_EQ(out[i].rec.tag, i);
    EXPECT_EQ(out[i].rec.timestamp_ns,
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

TEST_F(ShmIngestTest, LaneReclaimAfterProducerCrash) {
  auto q = ShmIngestQueue::create(file(), 32);
  // A child process claims a lane, publishes one record tagged with its
  // lane index, and dies WITHOUT releasing (simulated crash: _exit skips
  // destructors).
  const pid_t pid = ::fork();
  ASSERT_GE(pid, 0);
  if (pid == 0) {
    auto child_q = ShmIngestQueue::attach(file());
    const int lane = child_q->claim_lane();
    if (lane < 0) ::_exit(2);
    const auto rec = rec_at(1, static_cast<std::uint64_t>(lane));
    child_q->append_batch_lane(lane, "victim", {&rec, 1}, {});
    ::_exit(0);
  }
  int status = 0;
  ASSERT_EQ(::waitpid(pid, &status, 0), pid);
  ASSERT_TRUE(WIFEXITED(status) && WEXITSTATUS(status) == 0);

  // The record the dead producer published still drains fine.
  ShmIngestQueue::Cursor cur;
  const auto out = drain_all(*q, cur);
  ASSERT_EQ(out.size(), 1u);
  EXPECT_EQ(out[0].app, "victim");
  const auto dead_lane = static_cast<std::uint32_t>(out[0].rec.tag);
  EXPECT_NE(q->lane_owner(dead_lane), 0u);  // still marked owned by the dead pid

  // Claiming every lane must succeed: kIngestLanes - 1 free ones plus the
  // dead producer's lane, reclaimed because kill(pid, 0) says ESRCH.
  std::vector<int> claimed;
  for (std::uint32_t i = 0; i < kIngestLanes; ++i) {
    const int lane = q->claim_lane();
    ASSERT_GE(lane, 0) << "claim " << i << " failed; reclaim did not fire";
    claimed.push_back(lane);
  }
  EXPECT_NE(std::find(claimed.begin(), claimed.end(),
                      static_cast<int>(dead_lane)),
            claimed.end());
  // All lanes now held by THIS live process: a further claim reports none.
  EXPECT_EQ(q->claim_lane(), -1);

  // The reclaimed lane continues its frame sequence; drains stay exact.
  const auto heir_rec = rec_at(2, 9);
  q->append_batch_lane(static_cast<int>(dead_lane), "heir", {&heir_rec, 1},
                       {});
  const auto heir = drain_all(*q, cur);
  ASSERT_EQ(heir.size(), 1u);
  EXPECT_EQ(heir[0].app, "heir");
  EXPECT_EQ(q->lane_produced(dead_lane), 2u);
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
  q->append("a", rec_at(1), {});
  EXPECT_EQ(q->wait_for_frames(cur, 2 * kNsPerMs),
            ShmIngestQueue::WaitResult::kReady);
  drain_all(*q, cur);

  // A producer publishing while we are parked rings the doorbell; the
  // generous timeout only bounds a lost wake, not the expected path.
  std::thread producer([&q] {
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
    q->append("a", rec_at(2), {});
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
  hub::ShmIngestPump pump(q, hub,
                          {.idle_sleep_min_ns = 1 * kNsPerMs,
                           .idle_sleep_max_ns = 8 * kNsPerMs,
                           .doorbell_timeout_ns = 5 * kNsPerMs});

  // Idle: waits end in timeouts; empty polls still grow the backoff.
  EXPECT_EQ(pump.poll(), 0u);
  EXPECT_FALSE(pump.wait(2 * kNsPerMs));
  EXPECT_EQ(pump.poll(), 0u);
  EXPECT_EQ(pump.stats().wait_timeouts, 1u);
  EXPECT_EQ(pump.suggested_sleep_ns(), 4 * kNsPerMs);

  // A producer ringing the doorbell mid-wait: wait() reports work and the
  // backoff schedule snaps back to the floor (the doorbell wake IS the
  // "ring went busy" signal — satellite fix).
  std::thread producer([&q] {
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
    q->append("a", rec_at(1), {});
  });
  bool woke = false;
  for (int i = 0; i < 2000 && !woke; ++i) woke = pump.wait(5000 * kNsPerMs);
  producer.join();
  EXPECT_TRUE(woke);
  EXPECT_EQ(pump.suggested_sleep_ns(), 1 * kNsPerMs);
  EXPECT_EQ(pump.poll(), 1u);
  const auto stats = pump.stats();
  EXPECT_GE(stats.parks, 2u);
  EXPECT_GE(stats.doorbell_wakes, 1u);
}

TEST_F(ShmIngestTest, PumpDefaultStallBudgetOutlastsABriefClaim) {
  // A live producer preempted between claim and publish must not lose its
  // frame. A blocked poll counts as busy, so under the default options the
  // pump naps at the floor between stall polls: the 3-poll budget lasts
  // ~3 ms, not the microseconds three back-to-back polls take.
  using Clock = std::chrono::steady_clock;
  auto q = ShmIngestQueue::create(file(), 32);
  hub::HeartbeatHub hub;
  hub::ShmIngestPump pump(q, hub);

  const std::uint64_t seq = q->claim(1);
  std::atomic<Clock::rep> published_at{0};
  std::thread producer([&q, &published_at, seq] {
    std::this_thread::sleep_for(std::chrono::microseconds(500));
    q->publish(seq, "slow", rec_at(kNsPerMs, 1), {});
    published_at.store(Clock::now().time_since_epoch().count(),
                       std::memory_order_release);
  });
  pump.poll();  // blocked on the claimed slot (unless already published)
  const Clock::time_point first_poll = Clock::now();
  for (int i = 0; i < 20 && pump.stats().consumed + pump.stats().torn == 0;
       ++i) {
    pump.wait(50 * kNsPerMs);
    pump.poll();
  }
  producer.join();
  EXPECT_EQ(pump.stats().consumed + pump.stats().torn, 1u);
  // Each blocked poll is followed by a nap of at least the 1 ms floor, so
  // the poll that would skip the slot starts >= 3 ms after the first one:
  // a publish that returned before then is always delivered. A host too
  // loaded to run the producer within those 3 ms may tear it legitimately,
  // so only the in-budget case is judged.
  const Clock::time_point published{
      Clock::duration(published_at.load(std::memory_order_acquire))};
  if (published - first_poll < std::chrono::milliseconds(3)) {
    EXPECT_EQ(pump.stats().torn, 0u);
    EXPECT_EQ(pump.stats().consumed, 1u);
  }

  // A claim that is never published (the producer crashed) is still
  // skipped as torn within max_stall_polls naps — without ever parking —
  // and the record queued behind it arrives.
  const hub::ShmIngestPumpStats before = pump.stats();
  q->claim(1);
  q->append("live", rec_at(2 * kNsPerMs, 2), {});
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
  q->append("a", rec_at(1), {});
  ASSERT_EQ(pump.poll(), 1u);
  const std::uint64_t parks = pump.stats().parks;
  const std::uint64_t rings = q->doorbell_rings();
  std::thread producer([&q] {
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
    q->append("a", rec_at(2), {});
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
  std::thread late([&q] {
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
    q->append("a", rec_at(3), {});
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
  // Default options, four producer threads (two on fast lanes, two on the
  // shared ring) beating with short random pauses, and the canonical
  // poll()/wait() loop: every record arrives, none torn or dropped, and
  // the pump — napping while the ring is busy — is almost never parked
  // when a producer publishes, so rings stay far below beats.
  constexpr int kProducers = 4;
  constexpr int kBeats = 1000;
  constexpr std::uint64_t kTotal = kProducers * kBeats;
  auto q = ShmIngestQueue::create(file(), 8192, 2048);
  hub::HeartbeatHub hub;
  hub::ShmIngestPump pump(q, hub);
  const int lanes[kProducers] = {q->claim_lane(), q->claim_lane(), -1, -1};
  ASSERT_GE(lanes[0], 0);
  ASSERT_GE(lanes[1], 0);

  std::atomic<int> done{0};
  std::vector<std::thread> threads;
  for (int p = 0; p < kProducers; ++p) {
    threads.emplace_back([&q, &done, lane = lanes[p], p] {
      const std::string app = "drill" + std::to_string(p);
      std::mt19937 rng(static_cast<std::uint32_t>(p + 1));
      std::uniform_int_distribution<int> pause_us(0, 200);
      for (int i = 0; i < kBeats; ++i) {
        core::HeartbeatRecord rec = rec_at((i + 1) * kNsPerMs);
        rec.seq = static_cast<std::uint64_t>(i);
        if (lane >= 0) {
          q->append_batch_lane(lane, app, std::span(&rec, 1), {});
        } else {
          q->append(app, rec, {});
        }
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
  EXPECT_GT(stats.lane_records, 0u);
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
    std::vector<core::HeartbeatRecord> recs;
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
      recs.push_back(rec_at(t, i++));
    }
    return recs;
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
      const auto recs = plan(p);
      const std::string app = "proc" + std::to_string(p);
      for (std::size_t i = 0; i < recs.size(); i += 7) {
        const std::size_t n = std::min<std::size_t>(7, recs.size() - i);
        child_q->append_batch(app, std::span(recs).subspan(i, n),
                              target_of(p));
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
    const auto recs = plan(p);
    direct_total += recs.size();
    const hub::AppId id =
        in_process.register_app("proc" + std::to_string(p), target_of(p));
    std::vector<hub::AppRecord> batch;
    for (const auto& rec : recs) batch.push_back(hub::AppRecord{id, rec});
    in_process.ingest_batch(batch);
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
  // The pump's name table starts small and doubles as it fills: 10 000
  // distinct names force several growths. Every name must keep one app,
  // registered once, with every beat it sent.
  constexpr int kApps = 10000;
  constexpr int kPerPoll = 700;  // frames per poll stay below the ring size
  auto q = ShmIngestQueue::create(file(), 4096);
  hub::HubOptions opts;
  opts.window_capacity = 4;  // keep 10 000 apps small
  hub::HeartbeatHub hub(opts);
  hub::ShmIngestPump pump(q, hub);
  auto name_of = [](int i) { return "app-" + std::to_string(i); };
  auto beats_of = [](int i) { return static_cast<std::size_t>(i % 3 + 1); };

  std::size_t sent = 0;
  for (int first = 0; first < kApps; first += kPerPoll) {
    for (int i = first; i < std::min(kApps, first + kPerPoll); ++i) {
      std::vector<core::HeartbeatRecord> recs;
      for (std::size_t k = 0; k < beats_of(i); ++k) {
        recs.push_back(rec_at(static_cast<util::TimeNs>(k + 1) * kNsPerMs));
      }
      q->append_batch(name_of(i), recs, {});
      sent += recs.size();
    }
    pump.poll();
  }
  // Second pass: every name beats once more, so each lookup now hits.
  for (int i = 0; i < kApps; ++i) {
    q->append(name_of(i), rec_at(10 * kNsPerMs), {});
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
  q->append(a, rec_at(1 * kNsPerMs), {});
  q->append(b, rec_at(1 * kNsPerMs), {});
  q->append(a, rec_at(2 * kNsPerMs), {});
  q->append(a, rec_at(3 * kNsPerMs), {});
  EXPECT_EQ(pump.poll(), 4u);
  EXPECT_EQ(pump.stats().apps, 2u);
  EXPECT_EQ(hub.summary(hub.id_of(a)).total_beats, 3u);
  EXPECT_EQ(hub.summary(hub.id_of(b)).total_beats, 1u);
}

TEST_F(ShmIngestTest, PumpRoutesTheEmptyNameLikeAnyOther) {
  // Empty table slots are marked by their AppId, not by their name: the
  // empty name is an ordinary key.
  auto q = ShmIngestQueue::create(file(), 64);
  hub::HeartbeatHub hub;
  hub::ShmIngestPump pump(q, hub);
  q->append("", rec_at(1 * kNsPerMs), {});
  q->append("x", rec_at(1 * kNsPerMs), {});
  q->append("", rec_at(2 * kNsPerMs), {});
  EXPECT_EQ(pump.poll(), 3u);
  q->append("", rec_at(3 * kNsPerMs), {});
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
  q->append("enc", rec_at(1 * kNsPerMs), {10.0, 20.0});
  EXPECT_EQ(pump.poll(), 1u);
  const hub::AppId id = hub.id_of("enc");
  EXPECT_EQ(hub.summary(id).target.min_bps, 10.0);

  // Changed within one poll's stream: the newest target wins.
  q->append("enc", rec_at(2 * kNsPerMs), {10.0, 20.0});
  q->append("enc", rec_at(3 * kNsPerMs), {30.0, 40.0});
  EXPECT_EQ(pump.poll(), 2u);
  auto s = hub.summary(id);
  EXPECT_EQ(s.target.min_bps, 30.0);
  EXPECT_EQ(s.target.max_bps, 40.0);
  EXPECT_EQ(s.total_beats, 3u);

  // And back, on the next poll.
  q->append("enc", rec_at(4 * kNsPerMs), {10.0, 20.0});
  EXPECT_EQ(pump.poll(), 1u);
  s = hub.summary(id);
  EXPECT_EQ(s.target.min_bps, 10.0);
  EXPECT_EQ(s.target.max_bps, 20.0);
  EXPECT_EQ(pump.stats().apps, 1u);
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
  q->append(self_name, rec_at(clock->now()), {1.0, 1.0});
  q->append("enc", rec_at(clock->now()), {10.0, 20.0});
  EXPECT_EQ(pump.poll(), 2u);

  const hub::AppSummary s = hub.summary(self);
  EXPECT_EQ(s.staleness_ns, 10'000 * kNsPerMs);
  EXPECT_EQ(s.total_beats, before.total_beats);
  EXPECT_EQ(s.target.min_bps, before.target.min_bps);
  EXPECT_EQ(s.target.max_bps, before.target.max_bps);
  EXPECT_EQ(pump.stats().rejected, 1u);
  if (obs::kCompiledIn) {  // the registry reads 0 with telemetry compiled out
    EXPECT_EQ(rejected.value() - rejected0, 1u);
  }
  const hub::AppSummary enc = hub.summary(hub.id_of("enc"));
  EXPECT_EQ(enc.total_beats, 1u);
  EXPECT_EQ(enc.staleness_ns, 0);
  EXPECT_EQ(enc.target.max_bps, 20.0);

  // The name stays rejected on later polls, with a changed target too.
  q->append(self_name, rec_at(clock->now()), {2.0, 2.0});
  EXPECT_EQ(pump.poll(), 1u);
  EXPECT_EQ(pump.stats().rejected, 2u);
  EXPECT_EQ(hub.summary(self).target.max_bps, before.target.max_bps);
  EXPECT_EQ(hub.app_count(), 2u);
}

}  // namespace
}  // namespace hb::transport
