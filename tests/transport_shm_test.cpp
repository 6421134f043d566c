// Shared-memory transport: layout guarantees, create/attach, cross-process
// visibility (fork), concurrent writers, seqlock behaviour.
#include <gtest/gtest.h>
#include <fcntl.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <cstdlib>
#include <filesystem>
#include <limits>
#include <sstream>
#include <stdexcept>
#include <thread>
#include <vector>

#include "core/channel.hpp"
#include "core/reader.hpp"
#include "transport/shm_layout.hpp"
#include "transport/shm_store.hpp"
#include "util/clock.hpp"
#include "util/rng.hpp"

namespace hb::transport {
namespace {

namespace fs = std::filesystem;
using util::kNsPerSec;

class ShmTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = fs::temp_directory_path() /
           ("hb_shm_test_" + std::to_string(::getpid()) + "_" +
            ::testing::UnitTest::GetInstance()->current_test_info()->name());
    fs::create_directories(dir_);
  }
  void TearDown() override { fs::remove_all(dir_); }

  fs::path file(const std::string& name = "chan") const {
    return dir_ / (name + ".hb");
  }

  fs::path dir_;
};

TEST(ShmLayout, SegmentSizes) {
  EXPECT_EQ(shm_segment_size(0), 128u);
  EXPECT_EQ(shm_segment_size(1), 128u + 64u);
  EXPECT_EQ(shm_segment_size(1024), 128u + 1024u * 64u);
}

TEST_F(ShmTest, CreateInitializesHeader) {
  auto store = ShmStore::create(file(), "myapp.global", 256, 20);
  EXPECT_EQ(store->channel_name(), "myapp.global");
  EXPECT_EQ(store->capacity(), 256u);
  EXPECT_EQ(store->default_window(), 20u);
  EXPECT_EQ(store->count(), 0u);
  EXPECT_EQ(store->producer_pid(), static_cast<std::uint32_t>(::getpid()));
  EXPECT_DOUBLE_EQ(store->target().min_bps, 0.0);
  EXPECT_TRUE(std::isinf(store->target().max_bps));
  EXPECT_EQ(fs::file_size(file()), shm_segment_size(256));
}

TEST_F(ShmTest, CapacityCoercedUpToWindow) {
  auto store = ShmStore::create(file(), "c", 4, 64);
  EXPECT_GE(store->capacity(), 64u);
}

TEST_F(ShmTest, AppendAndHistory) {
  auto store = ShmStore::create(file(), "c", 16, 4);
  core::HeartbeatRecord r;
  for (int i = 0; i < 5; ++i) {
    r.timestamp_ns = 100 * (i + 1);
    r.tag = static_cast<std::uint64_t>(i);
    EXPECT_EQ(store->append(r), static_cast<std::uint64_t>(i));
  }
  EXPECT_EQ(store->count(), 5u);
  const auto h = store->history(3);
  ASSERT_EQ(h.size(), 3u);
  EXPECT_EQ(h[0].seq, 2u);
  EXPECT_EQ(h[0].tag, 2u);
  EXPECT_EQ(h[2].seq, 4u);
  EXPECT_EQ(h[2].timestamp_ns, 500);
}

TEST_F(ShmTest, RingWrapDropsOldest) {
  auto store = ShmStore::create(file(), "c", 8, 2);
  core::HeartbeatRecord r;
  for (int i = 0; i < 20; ++i) {
    r.tag = static_cast<std::uint64_t>(i);
    store->append(r);
  }
  const auto h = store->history(100);
  ASSERT_EQ(h.size(), 8u);
  EXPECT_EQ(h.front().tag, 12u);
  EXPECT_EQ(h.back().tag, 19u);
}

TEST_F(ShmTest, TargetsRoundTripThroughBits) {
  auto store = ShmStore::create(file(), "c", 8, 2);
  store->set_target(core::TargetRate{2.5, 3.5});
  EXPECT_DOUBLE_EQ(store->target().min_bps, 2.5);
  EXPECT_DOUBLE_EQ(store->target().max_bps, 3.5);
}

TEST_F(ShmTest, AttachSeesExistingState) {
  auto producer = ShmStore::create(file(), "app.global", 32, 10);
  core::HeartbeatRecord r;
  r.timestamp_ns = 42;
  r.tag = 7;
  producer->append(r);
  producer->set_target(core::TargetRate{1.0, 2.0});

  auto observer = ShmStore::attach(file());
  EXPECT_EQ(observer->channel_name(), "app.global");
  EXPECT_EQ(observer->count(), 1u);
  EXPECT_EQ(observer->default_window(), 10u);
  const auto h = observer->history(1);
  ASSERT_EQ(h.size(), 1u);
  EXPECT_EQ(h[0].tag, 7u);
  EXPECT_DOUBLE_EQ(observer->target().min_bps, 1.0);
}

TEST_F(ShmTest, AttachSeesLiveUpdates) {
  auto producer = ShmStore::create(file(), "c", 32, 4);
  auto observer = ShmStore::attach(file());
  core::HeartbeatRecord r;
  producer->append(r);
  EXPECT_EQ(observer->count(), 1u);
  producer->append(r);
  EXPECT_EQ(observer->count(), 2u);
}

TEST_F(ShmTest, ExternalObserverCanSetTargets) {
  // Improvement over the paper's file transport: shared-memory targets are
  // writable from the observer side (e.g. an OS lowering an app's goal).
  auto producer = ShmStore::create(file(), "c", 32, 4);
  auto observer = ShmStore::attach(file());
  observer->set_target(core::TargetRate{5.0, 6.0});
  EXPECT_DOUBLE_EQ(producer->target().min_bps, 5.0);
  EXPECT_DOUBLE_EQ(producer->target().max_bps, 6.0);
}

TEST_F(ShmTest, AttachMissingFileThrows) {
  EXPECT_THROW(ShmStore::attach(file("nope")), std::runtime_error);
}

TEST_F(ShmTest, AttachRejectsBadMagic) {
  auto store = ShmStore::create(file(), "c", 8, 2);
  store.reset();
  // Corrupt the magic.
  std::FILE* f = std::fopen(file().c_str(), "r+b");
  ASSERT_NE(f, nullptr);
  const std::uint64_t junk = 0xdeadbeef;
  std::fwrite(&junk, sizeof(junk), 1, f);
  std::fclose(f);
  EXPECT_THROW(ShmStore::attach(file()), std::runtime_error);
}

TEST_F(ShmTest, AttachRejectsTruncatedSegment) {
  auto store = ShmStore::create(file(), "c", 64, 2);
  store.reset();
  fs::resize_file(file(), 64);  // smaller than the header
  EXPECT_THROW(ShmStore::attach(file()), std::runtime_error);
}

/// Overwrite `width` bytes of a segment file at `at` with the low bytes of
/// `value` (little-endian). An attached store's MAP_SHARED mapping sees it
/// at once.
void poke(const fs::path& path, std::size_t at, std::size_t width,
          std::uint64_t value) {
  const int fd = ::open(path.c_str(), O_RDWR);
  ASSERT_GE(fd, 0);
  EXPECT_EQ(::pwrite(fd, &value, width, static_cast<off_t>(at)),
            static_cast<ssize_t>(width));
  ::close(fd);
}

TEST_F(ShmTest, AttachRejectsZeroCapacity) {
  // create() never writes 0, and an attached co-producer's append would
  // divide by it.
  ShmStore::create(file(), "c", 8, 2).reset();
  poke(file(), offsetof(ShmHeader, capacity), 4, 0);
  EXPECT_THROW(ShmStore::attach(file()), std::runtime_error);
}

TEST_F(ShmTest, CapacityRaisedAfterAttachIsNotRead) {
  // The capacity attach() checked against the file size is the one the
  // store keeps: a header raised to 2^30 slots afterwards reads nothing
  // past the 8-slot mapping.
  auto producer = ShmStore::create(file(), "c", 8, 2);
  auto observer = ShmStore::attach(file());
  core::HeartbeatRecord r;
  for (int i = 0; i < 12; ++i) {
    r.tag = static_cast<std::uint64_t>(i);
    producer->append(r);
  }
  poke(file(), offsetof(ShmHeader, capacity), 4, std::uint64_t{1} << 30);
  for (const auto& store : {producer, observer}) {
    EXPECT_EQ(store->capacity(), 8u);
    const auto h = store->history(8);
    ASSERT_EQ(h.size(), 8u);
    EXPECT_EQ(h.front().tag, 4u);
    EXPECT_EQ(h.back().tag, 11u);
  }
  EXPECT_EQ(observer->append(r), 12u);
}

// Hostile-header mutator for the per-app `.hb` segment. Any local process
// may write the file, so for each seed 1-3 header words (capacity, count,
// slot_size, version, default_window, a target bound) are damaged before
// attach(), and 1-3 more once stores have it mapped. attach() either
// rejects the segment with std::runtime_error, or every store's history,
// current_rate, staleness_ns and append stay inside the mapping: each keeps
// the capacity it started with, one the file holds. The segment ends on a
// page boundary, so a read past it is likely to fault.
TEST_F(ShmTest, HostileHeaderIsRejectedOrReadInBounds) {
  constexpr std::uint32_t kCapacity = 62;  // 128 + 62 x 64 = 4096 bytes
  static_assert(shm_segment_size(kCapacity) == 4096);
  struct Word {
    std::size_t at;
    std::size_t width;
  };
  const Word words[] = {
      {offsetof(ShmHeader, capacity), 4},
      {offsetof(ShmHeader, count), 8},
      {offsetof(ShmHeader, slot_size), 4},
      {offsetof(ShmHeader, version), 4},
      {offsetof(ShmHeader, default_window), 4},
      {offsetof(ShmHeader, target_min_bits), 8},
      {offsetof(ShmHeader, target_max_bits), 8},
  };
  constexpr std::uint64_t kTop = std::numeric_limits<std::uint64_t>::max();
  auto clock = std::make_shared<util::ManualClock>();
  clock->set(100 * kNsPerSec);
  std::uint64_t rejected = 0;
  for (std::uint64_t seed = 0; seed < 1000; ++seed) {
    util::Rng rng(seed);
    std::ostringstream done;
    auto damage = [&] {
      for (auto k = 1 + rng.next_below(3); k > 0; --k) {
        const Word w = words[rng.next_below(std::size(words))];
        const std::uint64_t edges[] = {0,
                                       1,
                                       kCapacity - 1,
                                       kCapacity + 1,
                                       std::uint64_t{1} << rng.next_below(64),
                                       0xffffffffULL - rng.next_below(4),
                                       kTop - rng.next_below(2 * kCapacity),
                                       rng.next_u64()};
        const std::uint64_t v = edges[rng.next_below(std::size(edges))];
        poke(file(), w.at, w.width, v);
        done << " " << w.at << "=" << v;
      }
    };
    auto producer = ShmStore::create(file(), "c", kCapacity, 20);
    core::HeartbeatRecord r;
    for (std::uint64_t i = 0; i < kCapacity + 10; ++i) {
      r.timestamp_ns = static_cast<util::TimeNs>(i) * kNsPerSec / 10;
      producer->append(r);
    }
    auto early = ShmStore::attach(file());
    damage();
    std::shared_ptr<ShmStore> late;
    try {
      late = ShmStore::attach(file());
      ASSERT_LE(shm_segment_size(static_cast<std::uint32_t>(late->capacity())),
                fs::file_size(file()))
          << "seed " << seed << done.str();
    } catch (const std::runtime_error&) {
      ++rejected;
    }
    damage();
    for (const auto& store : {producer, early, late}) {
      if (!store) continue;
      const std::size_t cap = store->capacity();
      SCOPED_TRACE("seed " + std::to_string(seed) + done.str());
      ASSERT_LE(cap, kCapacity);
      for (const std::size_t n : {std::size_t{1}, std::size_t{20}, cap,
                                  std::numeric_limits<std::size_t>::max()}) {
        EXPECT_LE(store->history(n).size(), std::min(n, cap));
      }
      core::HeartbeatReader reader(store, clock);
      (void)reader.current_rate();
      (void)reader.current_rate(5);
      (void)reader.staleness_ns();
      (void)store->target();
      store->append(r);
      EXPECT_EQ(store->capacity(), cap);
    }
  }
  // Both outcomes happen: some damage is refused, some attaches.
  EXPECT_GT(rejected, 0u);
  EXPECT_LT(rejected, 1000u);
}

TEST_F(ShmTest, ConcurrentAppendersLoseNothing) {
  auto store = ShmStore::create(file(), "c", 1 << 15, 2);
  constexpr int kThreads = 8;
  constexpr int kEach = 2000;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&store] {
      core::HeartbeatRecord r;
      for (int i = 0; i < kEach; ++i) store->append(r);
    });
  }
  for (auto& t : threads) t.join();
  EXPECT_EQ(store->count(), static_cast<std::uint64_t>(kThreads * kEach));
  const auto h = store->history(kThreads * kEach);
  ASSERT_EQ(h.size(), static_cast<std::size_t>(kThreads * kEach));
  for (std::size_t i = 0; i < h.size(); ++i) EXPECT_EQ(h[i].seq, i);
}

TEST_F(ShmTest, ReaderUnderConcurrentWritesSeesConsistentRecords) {
  auto store = ShmStore::create(file(), "c", 64, 2);
  std::atomic<bool> stop{false};
  std::thread writer([&] {
    core::HeartbeatRecord r;
    std::uint64_t i = 0;
    // relaxed: pure progress flag; the writer publishes nothing through it.
    while (!stop.load(std::memory_order_relaxed)) {
      r.timestamp_ns = static_cast<util::TimeNs>(i);
      r.tag = i;  // tag mirrors seq so readers can check integrity
      store->append(r);
      ++i;
    }
  });
  for (int iter = 0; iter < 2000; ++iter) {
    const auto h = store->history(32);
    for (const auto& rec : h) {
      // A consistent record has tag == seq (writer invariant). Torn reads
      // would violate it.
      EXPECT_EQ(rec.tag, rec.seq);
    }
  }
  // relaxed: stop-flag only; join() below is the synchronization point.
  stop.store(true, std::memory_order_relaxed);
  writer.join();
}

TEST_F(ShmTest, CrossProcessForkChildBeatsParentReads) {
  auto store = ShmStore::create(file(), "c", 128, 4);
  const pid_t pid = ::fork();
  ASSERT_GE(pid, 0);
  if (pid == 0) {
    // Child: attach independently and emit beats with known tags.
    auto child_store = ShmStore::attach(file());
    core::HeartbeatRecord r;
    for (int i = 0; i < 50; ++i) {
      r.timestamp_ns = 1000 * (i + 1);
      r.tag = 0xabcd0000u + static_cast<std::uint64_t>(i);
      child_store->append(r);
    }
    child_store->set_target(core::TargetRate{30.0, 35.0});
    ::_exit(0);
  }
  int status = 0;
  ASSERT_EQ(::waitpid(pid, &status, 0), pid);
  ASSERT_TRUE(WIFEXITED(status) && WEXITSTATUS(status) == 0);

  EXPECT_EQ(store->count(), 50u);
  const auto h = store->history(50);
  ASSERT_EQ(h.size(), 50u);
  EXPECT_EQ(h.front().tag, 0xabcd0000u);
  EXPECT_EQ(h.back().tag, 0xabcd0000u + 49u);
  EXPECT_DOUBLE_EQ(store->target().min_bps, 30.0);
  EXPECT_DOUBLE_EQ(store->target().max_bps, 35.0);
}

TEST_F(ShmTest, ChannelAndReaderWorkOverShm) {
  auto clock = std::make_shared<util::ManualClock>();
  auto store = ShmStore::create(file(), "app.global", 128, 10);
  core::Channel producer(store, clock);
  core::HeartbeatReader reader(ShmStore::attach(file()), clock);
  for (int i = 0; i < 21; ++i) {
    clock->advance(kNsPerSec / 10);
    producer.beat();
  }
  EXPECT_NEAR(reader.current_rate(), 10.0, 1e-9);
  EXPECT_EQ(reader.count(), 21u);
}

}  // namespace
}  // namespace hb::transport
