// File-log transport (the paper's Section 4 reference implementation):
// format, producer mirror, observer parsing, target semantics, interop.
#include <gtest/gtest.h>
#include <unistd.h>

#include <cmath>
#include <filesystem>
#include <fstream>
#include <thread>

#include "core/channel.hpp"
#include "core/reader.hpp"
#include "transport/file_log_store.hpp"
#include "util/clock.hpp"

namespace hb::transport {
namespace {

namespace fs = std::filesystem;
using util::kNsPerSec;

class FileLogTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = fs::temp_directory_path() /
           ("hb_log_test_" + std::to_string(::getpid()) + "_" +
            ::testing::UnitTest::GetInstance()->current_test_info()->name());
    fs::create_directories(dir_);
  }
  void TearDown() override { fs::remove_all(dir_); }

  fs::path file(const std::string& name = "chan") const {
    return dir_ / (name + ".hblog");
  }

  fs::path dir_;
};

TEST_F(FileLogTest, CreateWritesHeader) {
  auto store = FileLogStore::create(file(), "enc.global", 64, 40);
  std::ifstream in(file());
  std::string line;
  ASSERT_TRUE(std::getline(in, line));
  EXPECT_EQ(line, "#hblog v1 name=enc.global window=40");
  ASSERT_TRUE(std::getline(in, line));
  EXPECT_EQ(line.rfind("#target min=0", 0), 0u);
  EXPECT_TRUE(store->is_producer());
}

TEST_F(FileLogTest, BeatsAppendLines) {
  auto store = FileLogStore::create(file(), "c", 64, 4);
  core::HeartbeatRecord r;
  r.timestamp_ns = 123;
  r.tag = 9;
  r.thread_id = 77;
  store->append(r);
  std::ifstream in(file());
  std::string line, last;
  while (std::getline(in, line)) last = line;
  EXPECT_EQ(last, "0 123 9 77");
}

TEST_F(FileLogTest, ProducerMirrorServesHistory) {
  auto store = FileLogStore::create(file(), "c", 8, 4);
  core::HeartbeatRecord r;
  for (int i = 0; i < 20; ++i) {
    r.tag = static_cast<std::uint64_t>(i);
    store->append(r);
  }
  EXPECT_EQ(store->count(), 20u);
  const auto h = store->history(4);
  ASSERT_EQ(h.size(), 4u);
  EXPECT_EQ(h.front().tag, 16u);
  EXPECT_EQ(h.back().tag, 19u);
}

TEST_F(FileLogTest, BackwardStampIsRaisedInTheMirrorAndTheFile) {
  // Racing producers stamp before they take the log mutex, so a beat can
  // arrive older than the newest. The producer's mirror raises it to the
  // newest stamp (core::MemoryStore's rule), and the file carries the
  // stamp the mirror stored: both sides read one monotone history.
  auto producer = FileLogStore::create(file(), "c", 8, 4);
  core::HeartbeatRecord r;
  for (const util::TimeNs ts : {100, 300, 200, 400}) {
    r.timestamp_ns = ts;
    producer->append(r);
  }
  auto observer = FileLogStore::attach(file());
  const auto mine = producer->history(4);
  const auto theirs = observer->history(4);
  ASSERT_EQ(mine.size(), 4u);
  ASSERT_EQ(theirs.size(), 4u);
  for (std::size_t i = 0; i < mine.size(); ++i) {
    EXPECT_EQ(mine[i].seq, i);
    EXPECT_EQ(theirs[i].seq, mine[i].seq);
    EXPECT_EQ(theirs[i].timestamp_ns, mine[i].timestamp_ns);
    if (i > 0) {
      EXPECT_GE(mine[i].timestamp_ns, mine[i - 1].timestamp_ns);
    }
  }
  EXPECT_EQ(mine[2].timestamp_ns, 300);
}

TEST_F(FileLogTest, ObserverParsesEverything) {
  auto producer = FileLogStore::create(file(), "myapp.global", 8, 12);
  core::HeartbeatRecord r;
  for (int i = 0; i < 30; ++i) {
    r.timestamp_ns = 1000 * i;
    r.tag = static_cast<std::uint64_t>(i);
    r.thread_id = 5;
    producer->append(r);
  }
  producer->set_target(core::TargetRate{2.5, 3.5});

  auto observer = FileLogStore::attach(file());
  EXPECT_FALSE(observer->is_producer());
  EXPECT_EQ(observer->channel_name(), "myapp.global");
  EXPECT_EQ(observer->default_window(), 12u);
  EXPECT_EQ(observer->count(), 30u);
  EXPECT_DOUBLE_EQ(observer->target().min_bps, 2.5);
  EXPECT_DOUBLE_EQ(observer->target().max_bps, 3.5);

  // Paper: the file holds the *entire* history, beyond the producer's ring.
  const auto all = observer->history(30);
  ASSERT_EQ(all.size(), 30u);
  EXPECT_EQ(all.front().seq, 0u);
  EXPECT_EQ(all.back().tag, 29u);
  EXPECT_EQ(all.back().thread_id, 5u);
}

TEST_F(FileLogTest, ObserverSeesLatestTargetLine) {
  auto producer = FileLogStore::create(file(), "c", 8, 2);
  producer->set_target(core::TargetRate{1.0, 2.0});
  producer->set_target(core::TargetRate{30.0, 35.0});
  auto observer = FileLogStore::attach(file());
  EXPECT_DOUBLE_EQ(observer->target().min_bps, 30.0);
  EXPECT_DOUBLE_EQ(observer->target().max_bps, 35.0);
}

TEST_F(FileLogTest, ObserverCannotSetTargets) {
  // Paper, Section 4: "This implementation does not support changing the
  // target heart rates from an external application."
  auto producer = FileLogStore::create(file(), "c", 8, 2);
  auto observer = FileLogStore::attach(file());
  EXPECT_THROW(observer->set_target(core::TargetRate{1, 2}), std::logic_error);
  EXPECT_THROW(observer->set_default_window(5), std::logic_error);
}

TEST_F(FileLogTest, ObserverCannotAppend) {
  auto producer = FileLogStore::create(file(), "c", 8, 2);
  auto observer = FileLogStore::attach(file());
  core::HeartbeatRecord r;
  EXPECT_THROW(observer->append(r), std::logic_error);
}

TEST_F(FileLogTest, AttachMissingThrows) {
  EXPECT_THROW(FileLogStore::attach(file("nope")), std::runtime_error);
}

TEST_F(FileLogTest, AttachRejectsGarbageFile) {
  std::ofstream out(file());
  out << "not a heartbeat log\n";
  out.close();
  EXPECT_THROW(FileLogStore::attach(file()), std::runtime_error);
}

TEST_F(FileLogTest, ObserverTracksLiveAppends) {
  auto producer = FileLogStore::create(file(), "c", 8, 2);
  auto observer = FileLogStore::attach(file());
  EXPECT_EQ(observer->count(), 0u);
  core::HeartbeatRecord r;
  producer->append(r);
  producer->append(r);
  EXPECT_EQ(observer->count(), 2u);
}

TEST_F(FileLogTest, ConcurrentProducersSerializedByMutex) {
  auto store = FileLogStore::create(file(), "c", 1 << 14, 2);
  constexpr int kThreads = 4;
  constexpr int kEach = 500;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&store] {
      core::HeartbeatRecord r;
      for (int i = 0; i < kEach; ++i) store->append(r);
    });
  }
  for (auto& t : threads) t.join();
  EXPECT_EQ(store->count(), static_cast<std::uint64_t>(kThreads * kEach));
  auto observer = FileLogStore::attach(file());
  const auto h = observer->history(kThreads * kEach);
  ASSERT_EQ(h.size(), static_cast<std::size_t>(kThreads * kEach));
  for (std::size_t i = 0; i < h.size(); ++i) EXPECT_EQ(h[i].seq, i);
}

TEST_F(FileLogTest, RatesMatchAcrossProducerAndObserver) {
  auto clock = std::make_shared<util::ManualClock>();
  auto store = FileLogStore::create(file(), "c", 128, 10);
  core::Channel producer(store, clock);
  for (int i = 0; i < 21; ++i) {
    clock->advance(kNsPerSec / 4);
    producer.beat();
  }
  core::HeartbeatReader reader(FileLogStore::attach(file()), clock);
  EXPECT_NEAR(reader.current_rate(), 4.0, 1e-9);
  EXPECT_NEAR(reader.current_rate(5), producer.rate(5), 1e-9);
}

}  // namespace
}  // namespace hb::transport
