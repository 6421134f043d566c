// Cross-module integration tests that close gaps the per-module suites
// leave: multi-process shm writers, per-thread channel publication through
// the registry, and full produce→publish→observe→decide loops.
#include <gtest/gtest.h>
#include <sys/wait.h>
#include <unistd.h>

#include <cmath>
#include <filesystem>
#include <mutex>
#include <set>
#include <thread>
#include <vector>

#include "util/thread_id.hpp"

#include "control/step_controller.hpp"
#include "core/heartbeat.hpp"
#include "core/reader.hpp"
#include "core/tags.hpp"
#include "fault/fleet_detector.hpp"
#include "transport/registry.hpp"
#include "transport/shm_store.hpp"
#include "util/clock.hpp"

namespace hb {
namespace {

namespace fs = std::filesystem;
using util::kNsPerSec;

class IntegrationTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = fs::temp_directory_path() /
           ("hb_integ_" + std::to_string(::getpid()) + "_" +
            ::testing::UnitTest::GetInstance()->current_test_info()->name());
    fs::create_directories(dir_);
  }
  void TearDown() override { fs::remove_all(dir_); }

  fs::path dir_;
};

// Two child processes beat concurrently into one shm segment; the parent
// verifies nothing is lost and sequence numbers are dense — the multi-writer
// seqlock protocol across real process boundaries.
TEST_F(IntegrationTest, TwoProcessesBeatIntoOneShmChannel) {
  constexpr int kEach = 3000;
  const auto file = dir_ / "shared.hb";
  auto store = transport::ShmStore::create(file, "shared", 1 << 14, 20);

  pid_t pids[2];
  for (int child = 0; child < 2; ++child) {
    pids[child] = ::fork();
    ASSERT_GE(pids[child], 0);
    if (pids[child] == 0) {
      auto child_store = transport::ShmStore::attach(file);
      core::HeartbeatRecord rec;
      rec.thread_id = static_cast<std::uint32_t>(::getpid());
      for (int i = 0; i < kEach; ++i) {
        rec.timestamp_ns = i;
        rec.tag = static_cast<std::uint64_t>(child);
        child_store->append(rec);
      }
      ::_exit(0);
    }
  }
  for (pid_t pid : pids) {
    int status = 0;
    ASSERT_EQ(::waitpid(pid, &status, 0), pid);
    ASSERT_TRUE(WIFEXITED(status) && WEXITSTATUS(status) == 0);
  }

  EXPECT_EQ(store->count(), static_cast<std::uint64_t>(2 * kEach));
  const auto history = store->history(2 * kEach);
  ASSERT_EQ(history.size(), static_cast<std::size_t>(2 * kEach));
  const auto histogram = core::tag_histogram(history);
  EXPECT_EQ(histogram.at(0), static_cast<std::uint64_t>(kEach));
  EXPECT_EQ(histogram.at(1), static_cast<std::uint64_t>(kEach));
  for (std::size_t i = 0; i < history.size(); ++i) {
    EXPECT_EQ(history[i].seq, i);
  }
}

// Per-thread local channels published through the registry are individually
// attachable, and the paper's "threads may read their own buffer" model maps
// to one shm segment per thread.
TEST_F(IntegrationTest, PerThreadChannelsPublishedAndAttachable) {
  transport::Registry registry(dir_);
  core::HeartbeatOptions opts;
  opts.name = "mt";
  opts.store_factory = registry.shm_factory();
  core::Heartbeat hb(opts);

  std::set<std::uint32_t> tids;
  std::mutex mu;
  std::vector<std::thread> threads;
  for (int t = 0; t < 3; ++t) {
    threads.emplace_back([&] {
      for (int i = 0; i < 5; ++i) hb.beat_local(static_cast<std::uint64_t>(i));
      std::lock_guard<std::mutex> lock(mu);
      tids.insert(util::current_thread_id());
    });
  }
  for (auto& t : threads) t.join();

  for (const std::uint32_t tid : tids) {
    auto store = registry.attach("mt.t" + std::to_string(tid));
    EXPECT_EQ(store->count(), 5u);
    for (const auto& rec : store->history(5)) {
      EXPECT_EQ(rec.thread_id, tid);
    }
  }
}

// The Table 1 flow end-to-end on shared memory with a virtual clock: app
// beats and self-adapts with a StepController while an out-of-band observer
// (separate attach) sees the same rates and the registered target.
TEST_F(IntegrationTest, SelfAdaptationAndExternalObservationAgree) {
  transport::Registry registry(dir_);
  auto clock = std::make_shared<util::ManualClock>();
  core::HeartbeatOptions opts;
  opts.name = "app";
  opts.default_window = 10;
  opts.clock = clock;
  opts.target_min_bps = 5.0;
  opts.target_max_bps = 15.0;
  opts.store_factory = registry.shm_factory();
  core::Heartbeat hb(opts);

  core::HeartbeatReader observer(registry.attach("app.global"), clock);
  control::StepController controller;
  // "Work speed" knob: level L gives 2^L beats/s.
  int level = 0;
  for (int step = 0; step < 200; ++step) {
    clock->advance(util::from_seconds(1.0 / std::pow(2.0, level)));
    hb.beat();
    if (hb.global().count() % 10 == 0) {
      level = controller.decide(hb.global().rate(), hb.global().target(),
                                level, 0, 6);
    }
  }
  // 2^3 = 8 beats/s lies in [5, 15]: both sides agree on convergence.
  EXPECT_EQ(level, 3);
  EXPECT_NEAR(observer.current_rate(), 8.0, 0.5);
  EXPECT_TRUE(observer.meeting_target());
  EXPECT_DOUBLE_EQ(observer.target_min(), 5.0);
}

// A hung producer is visible as dead through the registry from a *separate*
// attach, the §2.3 administrative-tool scenario hbmon implements.
TEST_F(IntegrationTest, HangVisibleThroughRegistryAttach) {
  transport::Registry registry(dir_);
  auto clock = std::make_shared<util::ManualClock>();
  core::HeartbeatOptions opts;
  opts.name = "hangs";
  opts.clock = clock;
  opts.store_factory = registry.shm_factory();
  core::Heartbeat hb(opts);
  for (int i = 0; i < 30; ++i) {
    clock->advance(kNsPerSec / 10);
    hb.beat();
  }
  core::HeartbeatReader observer(registry.attach("hangs.global"), clock);
  fault::FleetDetector detector;
  EXPECT_EQ(detector.classify(observer), fault::Health::kHealthy);
  clock->advance(10 * kNsPerSec);  // the app stops beating
  EXPECT_EQ(detector.classify(observer), fault::Health::kDead);
}

}  // namespace
}  // namespace hb
