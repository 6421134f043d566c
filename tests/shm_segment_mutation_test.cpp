// Hostile-segment mutator for the cross-process ingest ring.
//
// The ring file under $HB_DIR is shared memory that any local process may
// write, so its consumer must treat it as untrusted input. For each seed
// this test builds the same small ring of six frames, overwrites 1-3 words
// of it, and holds the consumer to one rule: attach() rejects the segment
// with std::runtime_error, or
//   * every drain stays inside the mapping (the segment ends on a page
//     boundary, and the ASan build checks the consumer's own memory) and
//     accounts for each frame it passes exactly once;
//   * one drain returns after at most capacity frames;
//   * a consumer loop, a raw cursor and a ShmIngestPump alike, goes quiet
//     within a fixed number of polls: it has caught up, or it waits out
//     the liveness timeout on a slot whose owner it cannot prove dead.
// Every seed mutates the file twice: once before attach(), so the attach
// checks see the damage, and once while a pump has the ring mapped, so the
// drain's own defenses must hold. The words hit are the header's capacity,
// version, slot_size and head; a slot's commit, also as a claim mark; its
// entry, gen, count, base_ts_ns and ts_delta_ns; a directory entry's owner
// (also as a claim mark), gen, claimed_gen, current and join target bits;
// and an entry's name bytes, overwritten with no NUL. The values favour the
// edges: huge capacities, heads past the end and near 2^64, record counts
// above kIngestFrameRecords, wrapped deltas, foreign versions, frame
// entries at and past the directory's end, frame gens stale, future, odd
// and 0, entry gens and claimed_gens left odd (an entry mid-write forever),
// and claim marks naming a live pid (this process), no pid (0, and
// 0xffffffff, which is -1 as a pid_t) and a pid above any pid_max
// (0x7fffffff). Half the mapped-ring seeds also join a new app after the
// damage and append through it, so join() meets the damaged directory too.
// A pump must reject every frame whose entry does not check out, and count
// it.
//
// No process or thread is started: the mutations are pwrite()s into the
// ring file, which the consumer's MAP_SHARED mapping sees at once.
#include <gtest/gtest.h>
#include <fcntl.h>
#include <unistd.h>

#include <chrono>
#include <cstddef>
#include <cstdint>
#include <cstring>
#include <filesystem>
#include <limits>
#include <memory>
#include <span>
#include <sstream>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "hub/hub.hpp"
#include "hub/shm_pump.hpp"
#include "transport/shm_ingest.hpp"
#include "util/clock.hpp"
#include "util/rng.hpp"

namespace hb::transport {
namespace {

namespace fs = std::filesystem;

constexpr std::uint32_t kCapacity = 42;
constexpr std::size_t kSegmentBytes = shm_ingest_segment_size(kCapacity);
// 128 + (128 + 64) x 42 bytes: on 4 KB pages a read past the end faults.
static_assert(kSegmentBytes % 4096 == 0);

constexpr std::uint64_t kMaxFramesPerDrain = kCapacity;
/// Frames in the pristine ring, and the apps that wrote them.
constexpr std::uint64_t kFrames = 6;
constexpr std::uint64_t kApps = 4;
constexpr std::uint32_t kStallPolls = 3;
/// Polls a consumer may take to go quiet: a stall budget per slot of the
/// ring, far above what 1-3 damaged words can cost.
constexpr int kMaxPolls = (kStallPolls + 1) * (kCapacity + 1);
constexpr std::uint64_t kSeeds = 4000;

constexpr std::size_t kDirAt = sizeof(ShmIngestHeader);
constexpr std::size_t kSlotsAt = kDirAt + kCapacity * sizeof(ShmIngestDirEntry);
constexpr std::size_t kBodyAt = offsetof(ShmIngestSlot, body);
constexpr std::size_t kTenureAt = offsetof(ShmIngestDirEntry, tenure);

/// What a damaged word gets: an edge value, a claim mark, a frame's entry
/// index, or a frame's gen.
enum class Value : std::uint8_t { kEdge, kMark, kEntry, kGen };

/// One word of the segment: its offset and width in bytes, and the kind
/// of value it gets.
struct Word {
  std::size_t at = 0;
  std::size_t width = 8;
  Value value = Value::kEdge;
};

/// A slot that holds a frame more often than not: one of the ring's
/// first slots, or any slot.
std::size_t pick_slot(util::Rng& rng) {
  const auto i =
      rng.chance(0.75) ? rng.next_below(kFrames + 2) : rng.next_below(kCapacity);
  return kSlotsAt + i * sizeof(ShmIngestSlot);
}

/// An entry that holds an app more often than not: one of the
/// directory's first entries, or any entry.
std::size_t pick_entry(util::Rng& rng) {
  const auto i =
      rng.chance(0.75) ? rng.next_below(kApps + 2) : rng.next_below(kCapacity);
  return kDirAt + i * sizeof(ShmIngestDirEntry);
}

/// A claim mark: this (live) process, no pid, -1, or a pid above any
/// pid_max.
std::uint64_t pick_mark(util::Rng& rng) {
  const std::uint64_t pids[] = {static_cast<std::uint32_t>(::getpid()), 0,
                                0xffffffffULL, 0x7fffffffULL};
  return kClaimBit | pids[rng.next_below(4)];
}

/// The word to damage; kNameBytes stands for an entry's whole name field.
constexpr std::size_t kNameBytes = 0;

Word pick_word(util::Rng& rng) {
  using Body = ShmIngestSlot::Body;
  using Tenure = ShmIngestDirEntry::Tenure;
  using Target = ShmIngestDirEntry::Target;
  switch (rng.next_below(20)) {
    case 0: return {offsetof(ShmIngestHeader, capacity), 4};
    case 1:
    case 5:
    case 6:
      return {pick_slot(rng) + offsetof(ShmIngestSlot, commit), 8, Value::kMark};
    case 2: return {offsetof(ShmIngestHeader, version), 4};
    case 3: return {offsetof(ShmIngestHeader, slot_size), 4};
    case 4: return {offsetof(ShmIngestHeader, head), 8};
    case 7: return {pick_slot(rng) + offsetof(ShmIngestSlot, commit), 8};
    case 8: return {pick_slot(rng) + kBodyAt + offsetof(Body, count), 4};
    case 9: return {pick_slot(rng) + kBodyAt + offsetof(Body, base_ts_ns), 8};
    case 10: {
      const auto k = rng.next_below(kIngestFrameRecords);
      return {pick_slot(rng) + kBodyAt + offsetof(Body, ts_delta_ns) +
                  k * sizeof(std::uint32_t),
              4};
    }
    case 11:
      return {pick_slot(rng) + kBodyAt + offsetof(Body, entry), 4,
              Value::kEntry};
    case 12:
      return {pick_slot(rng) + kBodyAt + offsetof(Body, gen), 4, Value::kGen};
    case 13:
      return {pick_entry(rng) + offsetof(ShmIngestDirEntry, owner), 8,
              rng.chance(0.5) ? Value::kMark : Value::kEdge};
    case 14:
      return {pick_entry(rng) + offsetof(ShmIngestDirEntry, gen), 4,
              rng.chance(0.5) ? Value::kGen : Value::kEdge};
    case 15:
      return {pick_entry(rng) + offsetof(ShmIngestDirEntry, claimed_gen), 4,
              rng.chance(0.5) ? Value::kGen : Value::kEdge};
    case 16: {
      const std::size_t target = rng.chance(0.5)
                                     ? offsetof(ShmIngestDirEntry, target)
                                     : kTenureAt + offsetof(Tenure, join_target);
      return {pick_entry(rng) + target +
                  (rng.chance(0.5) ? offsetof(Target, min_bits)
                                   : offsetof(Target, max_bits)),
              8};
    }
    default:
      return {pick_entry(rng) + kTenureAt + offsetof(Tenure, name), kNameBytes};
  }
}

/// A frame's entry index: at the directory's end, just past it, the top
/// u32, or another entry.
std::uint64_t pick_entry_index(util::Rng& rng) {
  const std::uint64_t entries[] = {kCapacity, kCapacity + 1, 0xffffffffULL,
                                   rng.next_below(kCapacity)};
  return entries[rng.next_below(4)];
}

/// A gen near `old`: stale (below it), future (above it), odd (an entry
/// mid-write), or 0.
std::uint64_t pick_gen(util::Rng& rng, std::uint64_t old) {
  const std::uint64_t gens[] = {old - 2, old - 1, old + 1, old + 2, 0};
  return gens[rng.next_below(5)] & 0xffffffffULL;
}

std::uint64_t pick_value(util::Rng& rng, std::uint64_t old) {
  constexpr std::uint64_t kTop = std::numeric_limits<std::uint64_t>::max();
  switch (rng.next_below(10)) {
    case 0: return 0;
    // Counts above kIngestFrameRecords, foreign versions.
    case 1: return rng.next_below(2 * kIngestFrameRecords + 2);
    case 2: return old + 1 + rng.next_below(2 * kCapacity);  // just past
    case 3: return old - 1 - rng.next_below(4);  // just behind, or wrapped
    case 4: return kTop - rng.next_below(2 * kCapacity);  // heads near 2^64
    case 5: return std::uint64_t{1} << rng.next_below(64);
    case 6: return 0xffffffffULL - rng.next_below(4);  // huge u32, wrapped delta
    case 7: return old ^ (std::uint64_t{1} << rng.next_below(64));
    case 8: return static_cast<std::uint64_t>(
                std::numeric_limits<std::int64_t>::max()) -
                   rng.next_below(4);
    default: return rng.next_u64();
  }
}

/// Overwrite 1-3 words of the ring file. Returns what was done, for the
/// failure message.
std::string mutate(int fd, util::Rng& rng) {
  std::ostringstream done;
  const auto words = 1 + rng.next_below(3);
  for (std::uint64_t w = 0; w < words; ++w) {
    const Word word = pick_word(rng);
    char buf[kIngestNameCap];
    std::size_t n = word.width;
    if (n == kNameBytes) {
      n = kIngestNameCap;
      for (char& c : buf) c = static_cast<char>(1 + rng.next_below(255));
      done << " name@" << word.at;
    } else {
      std::uint64_t old = 0;
      EXPECT_EQ(::pread(fd, &old, n, static_cast<off_t>(word.at)),
                static_cast<ssize_t>(n));
      std::uint64_t value = 0;
      switch (word.value) {
        case Value::kEdge: value = pick_value(rng, old); break;
        case Value::kMark: value = pick_mark(rng); break;
        case Value::kEntry: value = pick_entry_index(rng); break;
        case Value::kGen: value = pick_gen(rng, old); break;
      }
      std::memcpy(buf, &value, n);  // little-endian: the low bytes
      done << " " << word.at << "=" << value;
    }
    EXPECT_EQ(::pwrite(fd, buf, n, static_cast<off_t>(word.at)),
              static_cast<ssize_t>(n));
  }
  return done.str();
}

std::vector<util::TimeNs> beats(std::uint64_t n, util::TimeNs start) {
  std::vector<util::TimeNs> out;
  for (std::uint64_t i = 0; i < n; ++i) {
    out.push_back(start + static_cast<util::TimeNs>(i) * 1000);
  }
  return out;
}

/// A ring file and its pristine image: four joined apps, one re-targeted,
/// and six frames of theirs, both full and partial frames.
class ShmSegmentMutation : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = fs::temp_directory_path() /
           ("hb_shm_mutation_" + std::to_string(::getpid()));
    fs::remove_all(dir_);
    fs::create_directories(dir_);
    const core::TargetRate target{10.0, 100.0};
    {
      auto q = ShmIngestQueue::create(file(), kCapacity);
      const AppHandle a = q->join("shared-a", target);
      const AppHandle b = q->join("shared-b", target);
      shared_c_ = q->join("shared-c", target);
      AppHandle d = q->join("shared-d", {});
      q->set_target(d, target);
      q->append_batch(a, beats(kIngestFrameRecords + 2, 1'000'000));
      q->append(b, 2'000'000);
      q->append_batch(shared_c_, beats(kIngestFrameRecords + 1, 3'000'000));
      q->append_batch(d, beats(3, 4'000'000));
      ASSERT_EQ(q->produced(), kFrames);
      image_.resize(kSegmentBytes);
      const int fd = ::open(file().c_str(), O_RDONLY);
      ASSERT_GE(fd, 0);
      ASSERT_EQ(::pread(fd, image_.data(), image_.size(), 0),
                static_cast<ssize_t>(image_.size()));
      ::close(fd);
    }
  }
  void TearDown() override { fs::remove_all(dir_); }

  fs::path file() const { return dir_ / "ring.hbq"; }

  /// Restore the pristine ring; returns an open read-write descriptor.
  int restore() {
    const int fd = ::open(file().c_str(), O_RDWR);
    EXPECT_GE(fd, 0);
    EXPECT_EQ(::pwrite(fd, image_.data(), image_.size(), 0),
              static_cast<ssize_t>(image_.size()));
    return fd;
  }

  /// Both halves of one seed.
  void run_seed(std::uint64_t seed);

  fs::path dir_;
  std::vector<char> image_;
  AppHandle shared_c_;  ///< "shared-c"'s entry in the pristine image
  std::uint64_t rejected_ = 0;  ///< seeds whose damage attach() refused
  std::uint64_t attached_ = 0;  ///< seeds whose damaged ring attached
  /// Seed halves whose raw cursor drained a frame its directory entry does
  /// not cover, and those whose pump rejected records. A pump starts at
  /// the ring's head, so it meets only frames appended after attach.
  std::uint64_t uncovered_ = 0;
  std::uint64_t pump_rejections_ = 0;
};

/// A raw cursor and a pump with its hub, all on one mapping of the ring.
class Consumers {
 public:
  explicit Consumers(std::shared_ptr<ShmIngestQueue> queue)
      : queue_(std::move(queue)),
        hub_(hub_options()),
        pump_(queue_, hub_, {.max_stall_polls = kStallPolls}) {}

  const ShmIngestQueue::Cursor& cursor() const { return cursor_; }
  std::uint64_t pump_rejected() const { return pump_.stats().rejected; }
  /// Frames the raw cursor drained whose entry does not cover them.
  std::uint64_t uncovered() const { return uncovered_; }

  /// One poll of each consumer.
  void poll() {
    drain();
    const std::size_t n = pump_.poll();
    EXPECT_LE(n, kIngestFrameRecords * kMaxFramesPerDrain);
  }

  /// Poll both consumers until each goes quiet: kStallPolls + 1 polls in a
  /// row change none of its counters. Each must happen within kMaxPolls.
  /// A quiet raw cursor has caught up, or is past its stall budget on a
  /// slot it waits on for the liveness timeout (an owner it cannot prove
  /// dead).
  void run_to_quiet() {
    int calm = 0;
    for (int polls = 0; calm <= static_cast<int>(kStallPolls); ++polls) {
      ASSERT_LT(polls, kMaxPolls) << "raw cursor never went quiet";
      const ShmIngestQueue::Cursor before = cursor_;
      drain();
      if (::testing::Test::HasFailure()) return;
      const bool moved = cursor_.next != before.next ||
                         cursor_.consumed != before.consumed ||
                         cursor_.dropped != before.dropped ||
                         cursor_.torn != before.torn;
      calm = moved ? 0 : calm + 1;
    }
    if (queue_->has_frames(cursor_)) {
      EXPECT_EQ(cursor_.stalls, kStallPolls);
      EXPECT_NE(cursor_.overdue_since_ns, 0);
    }
    calm = 0;
    hub::ShmIngestPumpStats last = pump_.stats();
    for (int polls = 0; calm <= static_cast<int>(kStallPolls); ++polls) {
      ASSERT_LT(polls, kMaxPolls) << "pump never went quiet";
      EXPECT_LE(pump_.poll(), kIngestFrameRecords * kMaxFramesPerDrain);
      const hub::ShmIngestPumpStats now = pump_.stats();
      const bool moved = now.consumed != last.consumed ||
                         now.dropped != last.dropped || now.torn != last.torn;
      calm = moved ? 0 : calm + 1;
      last = now;
    }
    // Every drained record reached the hub, or was rejected: by name, or
    // because its directory entry did not cover it.
    std::uint64_t ingested = 0;
    for (std::size_t i = 0; i < hub_.shard_count(); ++i) {
      ingested += hub_.shard(i).stats().ingested;
    }
    EXPECT_EQ(ingested, last.consumed - last.rejected);
    EXPECT_NE(hub_.snapshot(), nullptr);
  }

 private:
  static hub::HubOptions hub_options() {
    hub::HubOptions opts;
    opts.shard_count = 2;
    opts.clock = std::make_shared<util::ManualClock>(1'000'000'000);
    return opts;
  }

  void drain() {
    const std::uint64_t frames = cursor_.consumed_frames;
    const std::size_t delivered = queue_->drain(
        cursor_,
        [this](std::uint32_t entry, std::uint32_t gen,
               std::span<const util::TimeNs> timestamps) {
          // A readable entry's name ends inside its field, NUL or not.
          ShmIngestQueue::AppEntry e;
          const bool read = queue_->read_entry(entry, e);
          if (read) {
            EXPECT_LT(std::strlen(e.tenure.name), kIngestNameCap);
          }
          if (!read || gen < e.claimed_gen || gen > e.gen) ++uncovered_;
          EXPECT_GE(timestamps.size(), 1u);
          EXPECT_LE(timestamps.size(), kIngestFrameRecords);
        },
        kStallPolls);
    EXPECT_LE(cursor_.consumed_frames - frames, kMaxFramesPerDrain);
    EXPECT_LE(delivered, kIngestFrameRecords * kMaxFramesPerDrain);
    // Every frame the cursor passed is consumed, dropped or torn: exactly
    // once, even at hostile heads (the sums agree modulo 2^64).
    EXPECT_EQ(cursor_.next,
              cursor_.consumed_frames + cursor_.dropped + cursor_.torn);
  }

  std::shared_ptr<ShmIngestQueue> queue_;
  ShmIngestQueue::Cursor cursor_;
  std::uint64_t uncovered_ = 0;
  hub::HeartbeatHub hub_;
  hub::ShmIngestPump pump_;
};

void ShmSegmentMutation::run_seed(std::uint64_t seed) {
  util::Rng rng(seed);
  {
    // Before attach: the attach checks see the damage.
    const int fd = restore();
    const std::string done = mutate(fd, rng);
    ::close(fd);
    SCOPED_TRACE(::testing::Message() << "seed " << seed
                                      << " before attach:" << done);
    std::shared_ptr<ShmIngestQueue> q;
    try {
      q = ShmIngestQueue::attach(file());
    } catch (const std::runtime_error&) {
      // Rejected: the one acceptable outcome besides a safe drain.
      ++rejected_;
    }
    if (q) {
      ++attached_;
      Consumers consumers(q);
      consumers.run_to_quiet();
      if (consumers.uncovered() > 0) ++uncovered_;
      if (consumers.pump_rejected() > 0) ++pump_rejections_;
    }
  }
  {
    // While mapped: attach the pristine ring, maybe poll once and append a
    // re-targeted batch, then damage the mapping under the consumers, and
    // maybe join a new app into the damaged directory and beat once.
    const int fd = restore();
    auto q = ShmIngestQueue::attach(file());
    Consumers consumers(q);
    if (rng.chance(0.5)) {
      consumers.poll();
      AppHandle c = shared_c_;
      q->set_target(c, {1.0, 2.0});
      q->append_batch(c, beats(4, 5'000'000));
    }
    const std::string done = mutate(fd, rng);
    ::close(fd);
    SCOPED_TRACE(::testing::Message() << "seed " << seed
                                      << " while mapped:" << done);
    if (rng.chance(0.5)) {
      try {
        q->append(q->join("late", {}), 6'000'000);
      } catch (const std::runtime_error&) {
        // A directory the damage left full is a refusal, not a fault.
      }
    }
    consumers.run_to_quiet();
    if (consumers.uncovered() > 0) ++uncovered_;
    if (consumers.pump_rejected() > 0) ++pump_rejections_;
  }
}

TEST_F(ShmSegmentMutation, EverySeedIsRejectedOrDrainsSafely) {
  for (std::uint64_t seed = 1; seed <= kSeeds; ++seed) {
    run_seed(seed);
    if (HasFailure()) FAIL() << "seed " << seed;
  }
  // Both outcomes occur, so neither the attach checks nor the drain's
  // defenses go untested, and the directory checks reject records.
  EXPECT_GT(rejected_, kSeeds / 20);
  EXPECT_GT(attached_, kSeeds / 2);
  EXPECT_GT(uncovered_, kSeeds / 20);
  EXPECT_GT(pump_rejections_, 0u);
}

// Seed 82, kept as a named case: a header head 23 frames short of 2^64,
// written while mapped. The drain's lap check computed next + capacity,
// which wrapped once the cursor caught up, so every later drain sent the
// cursor back a lap and the pump never went quiet.
TEST_F(ShmSegmentMutation, Seed82HeadNearTwoToThe64DrainsToQuiet) {
  run_seed(82);
  const int fd = restore();
  auto q = ShmIngestQueue::attach(file());
  Consumers consumers(q);
  const std::uint64_t head = std::numeric_limits<std::uint64_t>::max() - 22;
  ASSERT_EQ(::pwrite(fd, &head, sizeof(head),
                     static_cast<off_t>(offsetof(ShmIngestHeader, head))),
            static_cast<ssize_t>(sizeof(head)));
  ::close(fd);
  consumers.run_to_quiet();
}

// A claim mark naming this live process over a published frame holds
// both consumers past their stall budgets, and the liveness timeout
// releases them: the frame is torn and the rest of the ring drains.
TEST_F(ShmSegmentMutation, LiveMarkDrainsAfterTheLivenessTimeout) {
  const int fd = restore();
  auto q = ShmIngestQueue::attach(file());
  Consumers consumers(q);
  const std::uint64_t mark = kClaimBit | static_cast<std::uint32_t>(::getpid());
  ASSERT_EQ(::pwrite(fd, &mark, sizeof(mark),
                     static_cast<off_t>(kSlotsAt + 2 * sizeof(ShmIngestSlot) +
                                        offsetof(ShmIngestSlot, commit))),
            static_cast<ssize_t>(sizeof(mark)));
  ::close(fd);
  consumers.run_to_quiet();
  EXPECT_TRUE(q->has_frames(consumers.cursor()));
  std::this_thread::sleep_for(std::chrono::nanoseconds(kClaimLivenessTimeoutNs));
  consumers.run_to_quiet();
  EXPECT_FALSE(q->has_frames(consumers.cursor()));
  EXPECT_EQ(consumers.cursor().torn, 1u);
  EXPECT_EQ(consumers.cursor().consumed_frames, kFrames - 1);
}

}  // namespace
}  // namespace hb::transport
