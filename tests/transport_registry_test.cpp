// Registry: discovery, attach-by-name, store factories, end-to-end
// publish/observe through Heartbeat + HeartbeatReader.
#include <gtest/gtest.h>
#include <stdlib.h>
#include <unistd.h>

#include <filesystem>

#include "core/heartbeat.hpp"
#include "core/reader.hpp"
#include "transport/registry.hpp"
#include "util/clock.hpp"

namespace hb::transport {
namespace {

namespace fs = std::filesystem;
using util::kNsPerSec;

class RegistryTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = fs::temp_directory_path() /
           ("hb_reg_test_" + std::to_string(::getpid()) + "_" +
            ::testing::UnitTest::GetInstance()->current_test_info()->name());
    fs::create_directories(dir_);
  }
  void TearDown() override { fs::remove_all(dir_); }

  fs::path dir_;
};

TEST_F(RegistryTest, DefaultDirHonorsEnv) {
  ::setenv("HB_DIR", "/tmp/custom_hb_dir", 1);
  EXPECT_EQ(Registry::default_dir(), fs::path("/tmp/custom_hb_dir"));
  ::unsetenv("HB_DIR");
  EXPECT_EQ(Registry::default_dir(),
            fs::temp_directory_path() / "heartbeats");
}

TEST_F(RegistryTest, EmptyDirListsNothing) {
  Registry reg(dir_ / "does_not_exist_yet");
  EXPECT_TRUE(reg.list().empty());
  EXPECT_TRUE(reg.list_applications().empty());
}

TEST_F(RegistryTest, ShmFactoryPublishesChannels) {
  Registry reg(dir_);
  core::HeartbeatOptions opts;
  opts.name = "encoder";
  opts.store_factory = reg.shm_factory();
  core::Heartbeat hb(opts);
  hb.beat();
  hb.beat_local();

  const auto channels = reg.list();
  ASSERT_EQ(channels.size(), 2u);
  EXPECT_EQ(channels[0], "encoder.global");
  EXPECT_EQ(channels[1].rfind("encoder.t", 0), 0u);

  const auto apps = reg.list_applications();
  ASSERT_EQ(apps.size(), 1u);
  EXPECT_EQ(apps[0], "encoder");
}

TEST_F(RegistryTest, FilelogFactoryPublishesChannels) {
  Registry reg(dir_);
  core::HeartbeatOptions opts;
  opts.name = "legacy";
  opts.store_factory = reg.filelog_factory();
  core::Heartbeat hb(opts);
  hb.beat();
  EXPECT_EQ(reg.list_applications().size(), 1u);
  auto store = reg.attach("legacy.global");
  EXPECT_EQ(store->count(), 1u);
}

TEST_F(RegistryTest, AttachUnknownChannelThrows) {
  Registry reg(dir_);
  EXPECT_THROW(reg.attach("ghost.global"), std::runtime_error);
}

TEST_F(RegistryTest, ReaderEndToEndOverShm) {
  Registry reg(dir_);
  auto clock = std::make_shared<util::ManualClock>();
  core::HeartbeatOptions opts;
  opts.name = "app";
  opts.default_window = 10;
  opts.clock = clock;
  opts.store_factory = reg.shm_factory();
  core::Heartbeat hb(opts);
  hb.set_target(3.0, 4.0);
  for (int i = 0; i < 15; ++i) {
    clock->advance(kNsPerSec / 3);
    hb.beat();
  }
  auto reader = reg.reader("app", clock);
  EXPECT_EQ(reader.count(), 15u);
  EXPECT_NEAR(reader.current_rate(), 3.0, 1e-6);
  EXPECT_DOUBLE_EQ(reader.target_min(), 3.0);
  EXPECT_TRUE(reader.meeting_target());
}

TEST_F(RegistryTest, RemoveDeletesChannelFiles) {
  Registry reg(dir_);
  core::HeartbeatOptions opts;
  opts.name = "gone";
  opts.store_factory = reg.shm_factory();
  {
    core::Heartbeat hb(opts);
    hb.beat();
  }
  ASSERT_EQ(reg.list().size(), 1u);
  reg.remove("gone.global");
  EXPECT_TRUE(reg.list().empty());
}

}  // namespace
}  // namespace hb::transport
