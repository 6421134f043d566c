// Differential test of the hub's window statistics.
//
// A shard maintains each app's interval mean and stddev incrementally as
// beats arrive, and a publish only reads them off. This
// suite drives a hub with seeded streams chosen to stress that bookkeeping
// and, after every few operations, recomputes every statistic from scratch
// over a model of the same windows:
//   * jittered and constant cadences (the common cases);
//   * monotone drift up and down: every push retires the window's
//     smallest (resp. largest) interval, so no retired interval cancels
//     the one added with it;
//   * out-of-order and repeated timestamps (zero intervals);
//   * intervals near 2^63, whose squares overflow 128-bit sums;
//   * explicit and staleness-driven evictions, revivals, and set_target.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <deque>
#include <memory>
#include <string>
#include <vector>

#include "core/rate.hpp"
#include "hub/hub.hpp"
#include "util/clock.hpp"
#include "util/rng.hpp"

namespace hb::hub {
namespace {

using U128 = unsigned __int128;

enum class Stream {
  kJittered,
  kConstant,
  kDriftUp,
  kDriftDown,
  kDisordered,
  kHuge,
};
constexpr int kStreamKinds = 6;

constexpr util::TimeNs kTick = 20'000'000;  // the 50 Hz cadence, in ns

/// One app: its stream generator and the brute-force model of the state
/// the hub holds for it.
struct App {
  Stream stream;
  AppId id = 0;
  util::TimeNs born_ns = 0;
  util::TimeNs last_ts = 0;  ///< newest timestamp emitted (the staleness basis)
  std::uint64_t beats = 0;   ///< emitted so far; drives the drift streams
  std::deque<core::HeartbeatRecord> window;  ///< oldest first
  core::TargetRate target;
  bool evicted = false;
};

util::TimeNs next_timestamp(App& app, util::TimeNs base, util::Rng& rng) {
  const auto k = static_cast<util::TimeNs>(app.beats);
  switch (app.stream) {
    case Stream::kJittered:
      return base + kTick / 2 +
             static_cast<util::TimeNs>(rng.next_below(kTick));
    case Stream::kConstant:
      return app.last_ts + kTick;
    case Stream::kDriftUp:
      return app.last_ts + 1000 + 7 * k;
    case Stream::kDriftDown:
      return app.last_ts + 1'000'000'000 - 7 * k;
    case Stream::kDisordered:
      // Back, repeat, or forward: a third of the intervals clamp to zero.
      return app.last_ts + static_cast<util::TimeNs>(rng.next_below(3)) *
                               kTick - kTick;
    case Stream::kHuge: {
      // Alternate between the two ends of [-2^62, 2^62): the upward steps
      // are intervals of 2^63-1 minus a small jitter (up to INT64_MAX), the
      // downward ones clamp to 0.
      const auto jitter = static_cast<util::TimeNs>(rng.next_below(4));
      constexpr util::TimeNs kHalf = util::TimeNs{1} << 62;
      return k % 2 == 0 ? -kHalf + jitter : kHalf - 1 - jitter;
    }
  }
  return 0;
}

std::vector<std::uint64_t> intervals_of(const App& app) {
  std::vector<std::uint64_t> out;
  for (std::size_t i = 1; i < app.window.size(); ++i) {
    const util::TimeNs prev = app.window[i - 1].timestamp_ns;
    const util::TimeNs cur = app.window[i].timestamp_ns;
    out.push_back(cur > prev ? static_cast<std::uint64_t>(cur) -
                                   static_cast<std::uint64_t>(prev)
                             : 0);
  }
  return out;
}

/// Population stddev, two-pass with the mean kept exact: each deviation
/// n*v - sum is an exact integer, so only squaring and summing the
/// non-negative terms in long double round.
double brute_stddev(const std::vector<std::uint64_t>& v) {
  const auto n = static_cast<__int128>(v.size());
  __int128 sum = 0;
  for (std::uint64_t x : v) sum += x;
  long double sq = 0.0L;
  for (std::uint64_t x : v) {
    const auto d = static_cast<long double>(n * x - sum);
    sq += d * d;
  }
  const auto nd = static_cast<long double>(v.size());
  return static_cast<double>(std::sqrt(sq / (nd * nd * nd)));
}

/// Operations between sparse checks. Nearly all operations are beats, so
/// 256 of them give each app of the busy half about 15 beats between two
/// publishes (a whole window of 16): a refresh then reads moments that
/// many pushes added to and retired from, not one or two,
/// and the clock moves ~0.6 s, so a publish finds apps far past the
/// 150 ms staleness bound of the last config.
constexpr int kSparseChecks = 256;

struct Config {
  std::size_t window;
  int check_every;  ///< operations between checks
  util::TimeNs evict_after_ns;  ///< 0 = explicit evictions only
  std::uint64_t seed;
};

class HubWindowStats : public ::testing::TestWithParam<Config> {
 protected:
  void SetUp() override {
    const Config& c = GetParam();
    clock_ = std::make_shared<util::ManualClock>(1'000'000'000);
    HubOptions opts;
    opts.shard_count = 3;
    opts.window_capacity = c.window;
    opts.evict_after_ns = c.evict_after_ns;
    opts.clock = clock_;
    hub_ = std::make_unique<HeartbeatHub>(opts);
    for (int i = 0; i < 4 * kStreamKinds; ++i) {
      App app;
      app.stream = static_cast<Stream>(i % kStreamKinds);
      app.target = core::TargetRate{static_cast<double>(i), 100.0};
      app.id = hub_->register_app("app" + std::to_string(i), app.target);
      app.born_ns = clock_->now();
      app.last_ts = clock_->now();
      apps_.push_back(app);
    }
  }

  void beat(App& app) {
    core::HeartbeatRecord rec;
    rec.timestamp_ns = next_timestamp(app, clock_->now(), rng_);
    hub_->ingest(app.id, rec.timestamp_ns);
    app.last_ts = rec.timestamp_ns;
    ++app.beats;
    app.evicted = false;
    app.window.push_back(rec);
    if (app.window.size() > GetParam().window) app.window.pop_front();
  }

  /// Publish, apply the staleness eviction rule to the model exactly as
  /// the hub does at publish time, and compare every statistic.
  void check() {
    const auto snap = hub_->snapshot();
    const util::TimeNs now = clock_->now();
    for (App& app : apps_) {
      // Same basis as the hub: the newest beat, or registration before
      // the first positive timestamp.
      const util::TimeNs since = app.last_ts > 0 ? app.last_ts : app.born_ns;
      const util::TimeNs staleness = now > since ? now - since : 0;
      if (GetParam().evict_after_ns > 0 && !app.evicted &&
          staleness > GetParam().evict_after_ns) {
        app.window.clear();
        app.evicted = true;
      }
    }

    for (const App& app : apps_) {
      const AppSummary* s = snap->find(app.id);
      ASSERT_NE(s, nullptr);
      SCOPED_TRACE(s->name);
      EXPECT_EQ(s->evicted, app.evicted);
      EXPECT_EQ(s->total_beats, app.beats);
      EXPECT_EQ(s->window_beats, app.window.size());
      EXPECT_EQ(s->target.min_bps, app.target.min_bps);
      EXPECT_EQ(s->target.max_bps, app.target.max_bps);

      // Rate: core's (n-1)/span rule over the whole window.
      const std::vector<core::HeartbeatRecord> window(app.window.begin(),
                                                      app.window.end());
      EXPECT_EQ(s->rate_bps, core::window_rate(window));

      const std::vector<std::uint64_t> iv = intervals_of(app);
      if (iv.empty()) {
        EXPECT_EQ(s->interval_mean_ns, 0.0);
        EXPECT_EQ(s->interval_stddev_ns, 0.0);
        continue;
      }
      U128 sum = 0;
      for (std::uint64_t v : iv) sum += v;
      EXPECT_EQ(s->interval_mean_ns,
                static_cast<double>(sum) / static_cast<double>(iv.size()));
      const double stddev = brute_stddev(iv);
      if (stddev == 0.0) {
        EXPECT_EQ(s->interval_stddev_ns, 0.0);
      } else {
        EXPECT_NEAR(s->interval_stddev_ns / stddev, 1.0, 1e-9);
      }
    }
  }

  util::Rng rng_{GetParam().seed};
  std::shared_ptr<util::ManualClock> clock_;
  std::unique_ptr<HeartbeatHub> hub_;
  std::vector<App> apps_;
};

TEST_P(HubWindowStats, IncrementalStatsEqualABruteForceRecompute) {
  for (int op = 0; op < 6000; ++op) {
    // Skewed pick: the low half of the apps beats three times as often, so
    // the high half falls behind and goes stale.
    const std::size_t half = apps_.size() / 2;
    App& app = rng_.chance(0.75) ? apps_[rng_.next_below(half)]
                                 : apps_[half + rng_.next_below(half)];
    const std::uint64_t dice = rng_.next_below(100);
    if (dice < 2) {
      hub_->evict(app.id);
      app.window.clear();
      app.evicted = true;
    } else if (dice < 4) {
      app.target = core::TargetRate{static_cast<double>(rng_.next_below(60)),
                                    static_cast<double>(60 + rng_.next_below(60))};
      hub_->set_target(app.id, app.target);
    } else {
      beat(app);
    }
    clock_->advance(static_cast<util::TimeNs>(rng_.next_below(kTick / 4)));
    if (op % GetParam().check_every == 0) {
      check();
      if (HasFailure()) FAIL() << "diverged at op " << op;
    }
  }
  check();
}

INSTANTIATE_TEST_SUITE_P(
    Windows, HubWindowStats,
    ::testing::Values(Config{2, 7, 0, 1}, Config{3, 7, 0, 2},
                      Config{16, kSparseChecks, 0, 3}, Config{16, 7, 0, 4},
                      Config{64, 7, 0, 5}, Config{256, kSparseChecks, 0, 6},
                      Config{16, 7, 400'000'000, 7},
                      Config{64, kSparseChecks, 150'000'000, 8}));

// The largest window holds 65534 intervals. Fed one interval well past
// the window, the summary stays exact; evicting the app empties its
// window, and a revival refills it to the same exact summary.
TEST(HubWindowLimits, AFullLargestWindowCountsWithoutWrapping) {
  auto clock = std::make_shared<util::ManualClock>(1'000'000'000);
  HubOptions opts;
  opts.shard_count = 1;
  opts.window_capacity = kMaxWindowCapacity;
  opts.clock = clock;
  HeartbeatHub hub(opts);

  static constexpr std::uint64_t kInterval = 1000;
  static constexpr std::size_t kBeats = kMaxWindowCapacity + 5000;
  const AppId full = hub.register_app("full");
  const auto feed = [&hub, full](util::TimeNs start_ns) {
    std::vector<AppRecord> batch(kBeats, AppRecord{full, 0});
    for (std::size_t k = 0; k < batch.size(); ++k) {
      batch[k].timestamp_ns = start_ns + static_cast<util::TimeNs>(k * kInterval);
    }
    hub.ingest_batch(batch);
  };
  const auto expect_full = [&hub, full](std::uint64_t total_beats) {
    const auto snap = hub.snapshot();
    const AppSummary* s = snap->find(full);
    ASSERT_NE(s, nullptr);
    EXPECT_FALSE(s->evicted);
    EXPECT_EQ(s->total_beats, total_beats);
    EXPECT_EQ(s->window_beats, kMaxWindowCapacity);
    EXPECT_EQ(s->interval_mean_ns, static_cast<double>(kInterval));
    EXPECT_EQ(s->interval_stddev_ns, 0.0);
  };

  feed(0);
  expect_full(kBeats);

  hub.evict(full);
  const AppSummary* gone = hub.snapshot()->find(full);
  ASSERT_NE(gone, nullptr);
  EXPECT_TRUE(gone->evicted);
  EXPECT_EQ(gone->window_beats, 0u);
  EXPECT_EQ(gone->interval_mean_ns, 0.0);
  EXPECT_EQ(gone->interval_stddev_ns, 0.0);

  // Revived well after the old window: the silent gap is staleness, not
  // an interval, so the refilled window reads exactly as before.
  feed(static_cast<util::TimeNs>(10 * kBeats * kInterval));
  expect_full(2 * kBeats);
}

}  // namespace
}  // namespace hb::hub
