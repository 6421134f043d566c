// policy::Monitor: the one observe-decide stack. Pins the ordering rules
// postmortems depend on (report recorded before the engine observes it,
// recorder's sink first), run()'s final drain and stop flag, and the
// in-process/ring-fed split.
#include <gtest/gtest.h>
#include <unistd.h>

#include <atomic>
#include <chrono>
#include <filesystem>
#include <memory>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "hub/hub.hpp"
#include "policy/monitor.hpp"
#include "test_support.hpp"
#include "transport/shm_ingest.hpp"
#include "util/clock.hpp"
#include "util/time.hpp"

namespace hb::policy {
namespace {

namespace fs = std::filesystem;
using util::kNsPerMs;
using util::kNsPerSec;

/// Checks, during dispatch, what the recorder has already seen.
class OrderProbe : public ActionSink {
 public:
  explicit OrderProbe(const Monitor& monitor) : monitor_(monitor) {}

  void on_event(const PolicyEngine&, const FleetEvent& event) override {
    const auto& recorder = monitor_.recorder();
    seen_reports.push_back(recorder->last_report());
    const auto pending = recorder->pending_events();
    recorder_saw_event_first.push_back(!pending.empty() &&
                                       pending.back().app == event.app &&
                                       pending.back().kind == event.kind);
    events.push_back(event);
  }

  std::vector<std::shared_ptr<const fault::FleetReport>> seen_reports;
  std::vector<bool> recorder_saw_event_first;
  std::vector<FleetEvent> events;

 private:
  const Monitor& monitor_;
};

TEST(Monitor, RecordsEachReportBeforeTheEngineObservesIt) {
  auto clock = std::make_shared<util::ManualClock>();
  auto hub = std::make_shared<hub::HeartbeatHub>(test::manual_hub_opts(clock));
  Monitor monitor(hub, {.absolute_staleness_ns = kNsPerSec});
  auto probe = std::make_shared<OrderProbe>(monitor);
  monitor.engine().add_sink(probe);

  const hub::AppId id = hub->register_app("solo", {1.0, 1000.0});
  for (int i = 0; i < 20; ++i) {
    clock->advance(100 * kNsPerMs);
    hub->beat(id);
  }
  const auto healthy = monitor.tick();
  ASSERT_EQ(probe->events.size(), 1u);  // warming-up -> healthy
  EXPECT_EQ(probe->events[0].to_health, fault::Health::kHealthy);

  clock->advance(5 * kNsPerSec);  // the app goes silent
  const auto dead = monitor.tick();
  ASSERT_EQ(probe->events.size(), 2u);
  EXPECT_EQ(probe->events[1].to_health, fault::Health::kDead);

  // Each dispatch saw its own report already recorded, and the event
  // already in the recorder (its sink runs first).
  EXPECT_EQ(probe->seen_reports[0], healthy);
  EXPECT_EQ(probe->seen_reports[1], dead);
  EXPECT_EQ(probe->recorder_saw_event_first, (std::vector<bool>{true, true}));
  EXPECT_EQ(monitor.last_report(), dead);
  EXPECT_EQ(monitor.engine().stats().sweeps, 2u);
  EXPECT_EQ(monitor.pump(), nullptr);
}

TEST(Monitor, InProcessRunThrows) {
  Monitor monitor(std::make_shared<hub::HeartbeatHub>());
  EXPECT_THROW(monitor.run(10 * kNsPerMs, 5 * kNsPerMs), std::logic_error);
  EXPECT_EQ(monitor.last_report(), nullptr);
}

class MonitorRingTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = fs::temp_directory_path() /
           ("hb_monitor_test_" + std::to_string(::getpid()) + "_" +
            ::testing::UnitTest::GetInstance()->current_test_info()->name());
    fs::create_directories(dir_);
    queue_ = transport::ShmIngestQueue::create(dir_ / "ring.hbq", 4096);
  }
  void TearDown() override { fs::remove_all(dir_); }

  fs::path dir_;
  std::shared_ptr<transport::ShmIngestQueue> queue_;
};

TEST_F(MonitorRingTest, FinalDrainCatchesBeatsPublishedAtStop) {
  constexpr int kProducers = 4;
  constexpr int kBeats = 250;
  Monitor monitor(queue_, std::make_shared<hub::HeartbeatHub>());
  std::vector<transport::AppHandle> apps;
  apps.reserve(kProducers);
  for (int p = 0; p < kProducers; ++p) {
    apps.push_back(queue_->join("producer-" + std::to_string(p), {1.0, 1e9}));
  }
  const auto publish = [&](int p, int from, int to) {
    for (int i = from; i < to; ++i) {
      queue_->append(apps[static_cast<std::size_t>(p)],
                     monitor.hub()->clock()->now());
    }
  };

  // Producers finish before the run: a frame still being written while
  // the pump polls may be skipped as torn (the crashed-producer rule),
  // which is the ring's contract, not the monitor's.
  std::vector<std::thread> producers;
  for (int p = 0; p < kProducers; ++p) {
    producers.emplace_back(publish, p, 0, kBeats - 1);
  }
  for (auto& t : producers) t.join();
  // The first tick publishes every app's last beat and raises the stop
  // flag: only run()'s final poll can drain those.
  std::atomic<bool> stop{false};
  bool published = false;
  monitor.run(200 * kNsPerMs, 50 * kNsPerMs, &stop, [&] {
    if (published) return;
    for (int p = 0; p < kProducers; ++p) publish(p, kBeats - 1, kBeats);
    published = true;
    // relaxed: the callback runs on the run() thread, the flag's reader.
    stop.store(true, std::memory_order_relaxed);
  });
  ASSERT_TRUE(published);

  hub::HeartbeatHub& ring_hub = *monitor.hub();
  for (int p = 0; p < kProducers; ++p) {
    const hub::AppId id = ring_hub.id_of("producer-" + std::to_string(p));
    EXPECT_EQ(ring_hub.summary(id).total_beats,
              static_cast<std::uint64_t>(kBeats))
        << "producer " << p;
  }
  EXPECT_EQ(monitor.pump()->stats().consumed,
            static_cast<std::uint64_t>(kProducers * kBeats));
  ASSERT_NE(monitor.last_report(), nullptr);
  EXPECT_EQ(monitor.last_report()->fleet.apps,
            static_cast<std::uint64_t>(kProducers));
}

TEST_F(MonitorRingTest, StopFlagEndsRunWithinOnePeriod) {
  Monitor monitor(queue_, std::make_shared<hub::HeartbeatHub>());
  const std::atomic<bool> stop{true};
  const auto start = std::chrono::steady_clock::now();
  monitor.run(0, 500 * kNsPerMs, &stop);  // 0: no run-length bound
  EXPECT_LT(std::chrono::steady_clock::now() - start,
            std::chrono::milliseconds(500));
  EXPECT_NE(monitor.last_report(), nullptr);  // the final tick still ran
  EXPECT_EQ(monitor.engine().stats().sweeps, 1u);
}

}  // namespace
}  // namespace hb::policy
