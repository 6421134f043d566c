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
//   * backward and repeated timestamps: each is raised to the window's
//     newest beat (a zero interval), and the next interval is measured
//     from that beat;
//   * timestamps past the hub clock: each is lowered to the clock's
//     reading before that raise;
//   * intervals near 2^63, whose squares need 128-bit sums;
//   * explicit and staleness-driven evictions, revivals, and set_target;
//   * runs of one app's beats, applied in one call, at every length that
//     meets the window differently (HubRuns).
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <deque>
#include <iterator>
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
  util::TimeNs last_ts = 0;  ///< latest timestamp emitted, as stamped
  /// The window's newest beat, kept across eviction: the staleness basis.
  util::TimeNs newest_ns = 0;
  std::uint64_t beats = 0;   ///< emitted so far; drives the drift streams
  /// Oldest first, each stamp raised to the newest beat before it.
  std::deque<core::HeartbeatRecord> window;

  /// The model of one beat: stamped `ts`, lowered to the hub clock's
  /// reading `now`, raised to the newest beat while the window holds any,
  /// and the oldest retired past `capacity`.
  void push(util::TimeNs ts, std::size_t capacity, util::TimeNs now) {
    last_ts = ts;
    ts = std::min(ts, now);
    if (!window.empty()) ts = std::max(ts, window.back().timestamp_ns);
    newest_ns = ts;
    core::HeartbeatRecord rec;
    rec.timestamp_ns = ts;
    window.push_back(rec);
    if (window.size() > capacity) window.pop_front();
  }
  core::TargetRate target;
  bool evicted = false;
};

util::TimeNs next_timestamp(App& app, util::TimeNs base, util::Rng& rng) {
  const auto k = static_cast<util::TimeNs>(app.beats);
  switch (app.stream) {
    case Stream::kJittered:
      // Within a tick before the clock or half a tick past it: a third of
      // the stamps are past the clock and apply at its reading.
      return base - kTick +
             static_cast<util::TimeNs>(rng.next_below(kTick + kTick / 2));
    case Stream::kConstant:
      return app.last_ts + kTick;
    case Stream::kDriftUp:
      return app.last_ts + 1000 + 7 * k;
    case Stream::kDriftDown:
      // 1 ms steps fall behind the clock, so none is lowered to it.
      return app.last_ts + 1'000'000 - 7 * k;
    case Stream::kDisordered:
      // Back, repeat, or forward by one or two ticks from the last stamp:
      // about half the intervals read zero, and the one after a backward
      // stamp is measured from the newest beat, not from that stamp.
      return app.last_ts + static_cast<util::TimeNs>(rng.next_below(4)) *
                               kTick - kTick;
    case Stream::kHuge: {
      // Alternate between the two ends of [-2^62, 2^62): the first upward
      // step of a fresh window is an interval of 2^63-1 minus a small
      // jitter (up to INT64_MAX); every later stamp is raised to the
      // newest beat, so it reads 0 or a few ns. The clock starts past
      // 2^62, so neither end is lowered to it.
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
    // The window is monotone: each difference is exact, taken unsigned.
    out.push_back(static_cast<std::uint64_t>(app.window[i].timestamp_ns) -
                  static_cast<std::uint64_t>(app.window[i - 1].timestamp_ns));
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

/// Compare one app's published summary with a from-scratch recompute over
/// its model.
void expect_model(const AppSummary& s, const App& app) {
  SCOPED_TRACE(s.name);
  EXPECT_EQ(s.evicted, app.evicted);
  EXPECT_EQ(s.total_beats, app.beats);
  EXPECT_EQ(s.window_beats, app.window.size());
  EXPECT_EQ(s.target.min_bps, app.target.min_bps);
  EXPECT_EQ(s.target.max_bps, app.target.max_bps);

  // Rate: core's (n-1)/span rule over the whole window.
  const std::vector<core::HeartbeatRecord> window(app.window.begin(),
                                                  app.window.end());
  EXPECT_EQ(s.rate_bps, core::window_rate(window));

  const std::vector<std::uint64_t> iv = intervals_of(app);
  if (iv.empty()) {
    EXPECT_EQ(s.interval_mean_ns, 0.0);
    EXPECT_EQ(s.interval_stddev_ns, 0.0);
    return;
  }
  U128 sum = 0;
  for (std::uint64_t v : iv) sum += v;
  EXPECT_EQ(s.interval_mean_ns,
            static_cast<double>(sum) / static_cast<double>(iv.size()));
  const double stddev = brute_stddev(iv);
  if (stddev == 0.0) {
    EXPECT_EQ(s.interval_stddev_ns, 0.0);
  } else {
    EXPECT_NEAR(s.interval_stddev_ns / stddev, 1.0, 1e-9);
  }
}

/// Operations between sparse checks. Nearly all operations are beats, so
/// 256 of them give each app of the busy half about 15 beats between two
/// publishes (a whole window of 16): a refresh then reads moments that
/// many pushes added to and retired from, not one or two,
/// and the clock moves ~0.6 s, so a publish finds apps far past the
/// 150 ms staleness bound of the last config.
constexpr int kSparseChecks = 256;

/// Where the clock starts: past the kHuge stream's upper end.
constexpr util::TimeNs kClockStart = (util::TimeNs{1} << 62) + 1'000'000'000;

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
    clock_ = std::make_shared<util::ManualClock>(kClockStart);
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
    const util::TimeNs ts = next_timestamp(app, clock_->now(), rng_);
    hub_->ingest(app.id, ts);
    app.push(ts, GetParam().window, clock_->now());
    ++app.beats;
    app.evicted = false;
  }

  /// Publish, apply the staleness eviction rule to the model exactly as
  /// the hub does at publish time, and compare every statistic.
  void check() {
    const auto snap = hub_->snapshot();
    const util::TimeNs now = clock_->now();
    for (App& app : apps_) {
      // Same basis as the hub: the newest beat, or registration before
      // the first positive timestamp.
      const util::TimeNs since =
          app.newest_ns > 0 ? app.newest_ns : app.born_ns;
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
      expect_model(*s, app);
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

// A run of one app's beats is applied to its window in one call. Each
// run length that meets the window differently — shorter than it, filling
// it exactly, overrunning it by one beat (whose retirement reads a beat
// the same run wrote), and lapping it three times — must leave the same
// summary as a from-scratch recompute, whether the run starts on an empty,
// a partly full or a full window, or revives an evicted app. Timestamps
// inside a run repeat and go backwards, so they are raised to the newest
// beat and their intervals read 0, and the clock stands at the run's
// middle stamp, so the stamps past it are lowered to it.
class HubRuns : public ::testing::TestWithParam<std::size_t> {};

TEST_P(HubRuns, EveryRunLengthMatchesABruteForceRecompute) {
  const std::size_t cap = GetParam();
  auto clock = std::make_shared<util::ManualClock>(1'000'000'000);
  HubOptions opts;
  opts.shard_count = 1;
  opts.window_capacity = cap;
  opts.clock = clock;
  HeartbeatHub hub(opts);
  util::Rng rng(cap);

  const std::size_t lengths[] = {1, cap - 1, cap, cap + 1, 3 * cap};
  for (std::size_t i = 0; i < std::size(lengths); ++i) {
    const std::size_t len = lengths[i];
    SCOPED_TRACE("run of " + std::to_string(len) + " beats");
    App app;
    app.target = core::TargetRate{1.0, 100.0};
    // One app per length (cap - 1 is 1 at the smallest window).
    app.id = hub.register_app("app" + std::to_string(i), app.target);
    app.last_ts = clock->now();

    const auto apply_run = [&] {
      std::vector<util::TimeNs> ts;
      for (std::size_t k = 0; k < len; ++k) {
        // Back, repeat, or forward by one or two ticks, jittered.
        const auto step = static_cast<util::TimeNs>(rng.next_below(4)) - 1;
        const auto jitter =
            step > 0 ? static_cast<util::TimeNs>(rng.next_below(kTick)) : 0;
        ts.push_back((ts.empty() ? app.last_ts : ts.back()) + step * kTick +
                     jitter);
      }
      clock->set(std::max(clock->now(), ts[len / 2]));
      for (const util::TimeNs t : ts) app.push(t, cap, clock->now());
      app.beats += len;
      app.evicted = false;
      const AppRun run{app.id, ts};
      hub.ingest_batch({&run, 1});
      const auto snap = hub.snapshot();
      const AppSummary* s = snap->find(app.id);
      ASSERT_NE(s, nullptr);
      expect_model(*s, app);
    };

    // Runs onto an empty, then a partly full or full, then a full window.
    for (int r = 0; r < 4; ++r) apply_run();
    // A run whose first beat revives the evicted app starts a fresh window.
    hub.evict(app.id);
    app.window.clear();
    app.evicted = true;
    app.last_ts += 50 * kTick;
    apply_run();
    apply_run();
  }
}

INSTANTIATE_TEST_SUITE_P(Windows, HubRuns, ::testing::Values(2, 3, 256));

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
    std::vector<util::TimeNs> ts(kBeats);
    for (std::size_t k = 0; k < ts.size(); ++k) {
      ts[k] = start_ns + static_cast<util::TimeNs>(k * kInterval);
    }
    const AppRun run{full, ts};
    hub.ingest_batch({&run, 1});
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
