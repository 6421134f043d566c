// HeartbeatHub: sharded multi-tenant aggregation — routing, batched
// ingestion, windowed interval summaries, concurrent producers, and
// deterministic behavior under fake clocks.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <limits>
#include <memory>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "core/rate.hpp"
#include "hub/hub.hpp"
#include "obs/metrics.hpp"
#include "util/clock.hpp"
#include "util/time.hpp"

namespace hb::hub {
namespace {

using util::kNsPerMs;
using util::kNsPerSec;

HubOptions manual_opts(std::shared_ptr<util::ManualClock> clock,
                       std::size_t shards = 4, std::size_t window = 64) {
  HubOptions opts;
  opts.shard_count = shards;
  opts.window_capacity = window;
  opts.clock = std::move(clock);
  return opts;
}

// Fleet counts summed over one snapshot's summaries.
struct FleetCounts {
  std::uint64_t live = 0;
  std::uint64_t evicted = 0;
  std::uint64_t live_beats = 0;   ///< total_beats over the live apps
  std::uint64_t total_beats = 0;  ///< total_beats over every app
};

FleetCounts counts_of(HeartbeatHub& hub) {
  FleetCounts c;
  hub.snapshot()->for_each_app(
      [&c](const AppSummary& s) {
        ++(s.evicted ? c.evicted : c.live);
        if (!s.evicted) c.live_beats += s.total_beats;
        c.total_beats += s.total_beats;
      },
      /*include_evicted=*/true);
  return c;
}

// Live apps in display order (the snapshot itself iterates shard order).
std::vector<AppSummary> sorted_live_apps(HeartbeatHub& hub) {
  std::vector<AppSummary> out;
  hub.snapshot()->for_each_app(
      [&out](const AppSummary& s) { out.push_back(s); });
  std::sort(out.begin(), out.end(),
            [](const AppSummary& a, const AppSummary& b) {
              return a.name < b.name;
            });
  return out;
}

// ------------------------------------------------------------ shard routing

TEST(HubRouting, AppIdEncodesItsShard) {
  auto clock = std::make_shared<util::ManualClock>();
  HeartbeatHub hub(manual_opts(clock, 8));
  for (int i = 0; i < 64; ++i) {
    const std::string name = "app" + std::to_string(i);
    const AppId id = hub.register_app(name);
    EXPECT_EQ(app_id_shard(id), hub.shard_of(name)) << name;
    EXPECT_LT(app_id_shard(id), 8u);
    EXPECT_EQ(hub.id_of(name), id);
  }
  EXPECT_EQ(hub.app_count(), 64u);
}

TEST(HubRouting, HashSpreadsAppsAcrossShards) {
  auto clock = std::make_shared<util::ManualClock>();
  HeartbeatHub hub(manual_opts(clock, 8));
  for (int i = 0; i < 256; ++i) {
    hub.register_app("tenant-" + std::to_string(i));
  }
  for (std::size_t i = 0; i < hub.shard_count(); ++i) {
    EXPECT_GT(hub.shard(i).stats().apps, 0u) << "shard " << i;
  }
}

TEST(HubRouting, RoutingIsStableAcrossHubs) {
  // FNV-1a, not std::hash: two hubs with the same shard count must agree.
  auto clock = std::make_shared<util::ManualClock>();
  HeartbeatHub a(manual_opts(clock, 16)), b(manual_opts(clock, 16));
  for (const char* name : {"x264", "bodytrack", "streamcluster", "vm-41"}) {
    EXPECT_EQ(a.shard_of(name), b.shard_of(name)) << name;
  }
}

TEST(HubRouting, RegisterIsIdempotent) {
  auto clock = std::make_shared<util::ManualClock>();
  HeartbeatHub hub(manual_opts(clock));
  const AppId first = hub.register_app("x", core::TargetRate{1.0, 2.0});
  const AppId again = hub.register_app("x", core::TargetRate{9.0, 9.0});
  EXPECT_EQ(first, again);
  EXPECT_EQ(hub.app_count(), 1u);
  // Kept the original target.
  EXPECT_DOUBLE_EQ(hub.summary(first).target.min_bps, 1.0);
}

TEST(HubRouting, SetTargetIsVisibleWithoutAnyBeats) {
  // Regression: set_target dirties the app but enqueues nothing; the next
  // query must still see the new target (flush refreshes dirty apps even
  // with an empty batch).
  auto clock = std::make_shared<util::ManualClock>();
  HeartbeatHub hub(manual_opts(clock));
  const AppId id = hub.register_app("x", core::TargetRate{1.0, 2.0});
  hub.set_target(id, core::TargetRate{5.0, 6.0});
  const AppSummary s = hub.summary(id);
  EXPECT_DOUBLE_EQ(s.target.min_bps, 5.0);
  EXPECT_DOUBLE_EQ(s.target.max_bps, 6.0);
}

TEST(HubRouting, ForeignAppIdsThrowInsteadOfCorrupting) {
  // Regression: an AppId minted by a different hub (valid shard, bogus
  // slot) must throw, not index out of bounds at flush time.
  auto clock = std::make_shared<util::ManualClock>();
  HeartbeatHub hub(manual_opts(clock, 4));
  hub.register_app("only");
  const AppId foreign_slot = make_app_id(0, 57);
  const AppId foreign_shard = make_app_id(99, 0);
  EXPECT_THROW(hub.ingest(foreign_slot, 0), std::out_of_range);
  EXPECT_THROW(hub.beat(foreign_shard), std::out_of_range);
  EXPECT_THROW(hub.summary(foreign_slot), std::out_of_range);
  EXPECT_THROW(hub.summary(foreign_shard), std::out_of_range);
}

TEST(HubRouting, WindowCapacityIsBoundedAtConstruction) {
  auto clock = std::make_shared<util::ManualClock>();
  // The per-app interval histogram counts in uint16: a window of 65535
  // beats (65534 intervals) is the largest that cannot wrap a bucket.
  EXPECT_EQ(kMaxWindowCapacity, 65535u);
  EXPECT_NO_THROW(HeartbeatHub(manual_opts(clock, 1, kMaxWindowCapacity)));
  EXPECT_THROW(HeartbeatHub(manual_opts(clock, 1, kMaxWindowCapacity + 1)),
               std::invalid_argument);
  // The low end still clamps instead of throwing.
  HeartbeatHub tiny(manual_opts(clock, 1, 0));
  EXPECT_EQ(tiny.options().window_capacity, 2u);
}

TEST(HubRouting, AShardNeedsAClock) {
  ShardConfig config;
  EXPECT_THROW(HubShard(0, config), std::invalid_argument);
  config.clock = std::make_shared<util::ManualClock>();
  EXPECT_NO_THROW(HubShard(0, config));
}

TEST(HubRouting, UnknownNamesThrow) {
  auto clock = std::make_shared<util::ManualClock>();
  HeartbeatHub hub(manual_opts(clock));
  EXPECT_THROW(hub.id_of("nope"), std::out_of_range);
  EXPECT_EQ(hub.snapshot()->find(make_app_id(0, 0)), nullptr);
}

// --------------------------------------------------------- batched ingestion

TEST(HubBatching, QueriesSeeEveryBeat) {
  auto clock = std::make_shared<util::ManualClock>();
  HeartbeatHub hub(manual_opts(clock, 1));
  const AppId id = hub.register_app("a");
  for (int i = 0; i < 5; ++i) {
    clock->advance(kNsPerMs);
    hub.beat(id);
  }
  // Each beat applies as it arrives: one apply per beat.
  EXPECT_EQ(hub.shard(0).stats().ingested, 5u);
  EXPECT_EQ(hub.shard(0).stats().flushes, 5u);
  EXPECT_EQ(hub.summary(id).total_beats, 5u);
}

TEST(HubBatching, SpanIngestTakesOneLockAcquire) {
  auto clock = std::make_shared<util::ManualClock>();
  HeartbeatHub hub(manual_opts(clock, 1, /*window=*/256));
  const AppId id = hub.register_app("a");
  const std::size_t n = 74;
  std::vector<AppRecord> recs(n);
  for (std::size_t i = 0; i < n; ++i) {
    recs[i].id = id;
    recs[i].timestamp_ns = static_cast<util::TimeNs>(i + 1) * kNsPerMs;
  }
  hub.ingest_batch(recs);
  // Applied straight to app state in one apply.
  EXPECT_EQ(hub.shard(0).stats().ingested, n);
  EXPECT_EQ(hub.shard(0).stats().flushes, 1u);
  const AppSummary s = hub.summary(id);
  EXPECT_EQ(s.total_beats, n);
  EXPECT_EQ(s.window_beats, n);
}

TEST(HubBatching, OneRecordIngestsThenABulkApplyInCallOrder) {
  // Beats 1..3 ms arrive one record at a time; beats 4..7 ms then arrive
  // in bulk. Both apply in call order, or the window would hold 4..7
  // before 1..3: a 0-clamped interval, a newest beat at 3 ms, and a
  // negative span.
  auto clock = std::make_shared<util::ManualClock>();
  HeartbeatHub hub(manual_opts(clock, 1));
  const AppId id = hub.register_app("a");
  for (int i = 1; i <= 3; ++i) hub.ingest(id, i * kNsPerMs);
  EXPECT_EQ(hub.shard(0).stats().ingested, 3u);
  std::vector<AppRecord> bulk;
  for (int i = 4; i <= 7; ++i) bulk.push_back({id, i * kNsPerMs});
  hub.ingest_batch(bulk);
  EXPECT_EQ(hub.shard(0).stats().ingested, 7u);

  const AppSummary s = hub.summary(id);
  EXPECT_EQ(s.total_beats, 7u);
  EXPECT_EQ(s.window_beats, 7u);
  EXPECT_EQ(s.last_beat_ns, 7 * kNsPerMs);          // newest
  EXPECT_DOUBLE_EQ(s.rate_bps, 6.0 / 0.006);        // oldest at 1 ms
  EXPECT_EQ(s.interval_mean_ns, static_cast<double>(kNsPerMs));  // all 6
}

TEST(HubBatching, IngestedCountsEveryBeatBeforeAnyFlush) {
  auto& registry = obs::MetricsRegistry::global();
  obs::Counter& ingested = registry.counter("hb.hub.ingested");
  const std::uint64_t ingested0 = ingested.value();

  auto clock = std::make_shared<util::ManualClock>();
  HeartbeatHub hub(manual_opts(clock, 2));
  const AppId a = hub.register_app("a");
  const AppId b = hub.register_app("b");
  // 131 one-record beats, 9 in bulk across both apps, then 2 more. Nothing
  // is deferred, so both counts hold with no flush or query.
  const std::size_t single = 131;
  const std::uint64_t total = single + 9 + 2;
  std::vector<std::uint64_t> sent(hub.shard_count(), 0);
  auto beat = [&](AppId id) {
    hub.beat(id);
    ++sent[app_id_shard(id)];
  };
  for (std::size_t i = 0; i < single; ++i) beat(i % 2 ? a : b);
  std::vector<AppRecord> bulk;
  for (int i = 0; i < 9; ++i) {
    const AppRecord r{i % 3 ? a : b, clock->now()};
    bulk.push_back(r);
    ++sent[app_id_shard(r.id)];
  }
  hub.ingest_batch(bulk);
  beat(a);
  beat(b);

  EXPECT_EQ(ingested.value() - ingested0, total);
  for (std::size_t i = 0; i < hub.shard_count(); ++i) {
    EXPECT_EQ(hub.shard(i).stats().ingested, sent[i]) << "shard " << i;
  }
  EXPECT_EQ(hub.summary(a).total_beats + hub.summary(b).total_beats, total);
}

// ----------------------------------------------------------- rate semantics

TEST(HubRates, WindowedRateMatchesCoreSemantics) {
  auto clock = std::make_shared<util::ManualClock>();
  HeartbeatHub hub(manual_opts(clock, 2, /*window=*/64));
  const AppId id = hub.register_app("a");
  // 21 beats 100ms apart: 20 intervals over 2s -> 10 beats/s.
  for (int i = 0; i < 21; ++i) {
    clock->advance(kNsPerSec / 10);
    hub.beat(id);
  }
  const AppSummary s = hub.summary(id);
  EXPECT_DOUBLE_EQ(s.rate_bps, 10.0);
  EXPECT_EQ(s.window_beats, 21u);
  EXPECT_EQ(s.last_beat_ns, clock->now());
}

TEST(HubRates, RateSpanRestartsAfterEvictAndRevive) {
  // The rate spans the window's oldest beat to its newest, both kept
  // beside the window. An eviction empties the window, so the span after a
  // revive starts at the first new beat, never at the old oldest.
  auto clock = std::make_shared<util::ManualClock>();
  HeartbeatHub hub(manual_opts(clock, 1, /*window=*/4));
  const AppId id = hub.register_app("a");
  // Beats at 1, 2, 4, 8, 16 and 32 s wrap the window: it holds 4..32 s.
  for (int i = 0; i < 6; ++i) {
    hub.ingest(id, (util::TimeNs{1} << i) * kNsPerSec);
  }
  AppSummary s = hub.summary(id);
  EXPECT_EQ(s.window_beats, 4u);
  EXPECT_DOUBLE_EQ(s.rate_bps, 3.0 / 28.0);

  hub.evict(id);
  hub.ingest(id, 100 * kNsPerSec);
  s = hub.summary(id);
  EXPECT_EQ(s.window_beats, 1u);
  EXPECT_EQ(s.rate_bps, 0.0);

  hub.ingest(id, 100 * kNsPerSec + kNsPerSec / 2);
  s = hub.summary(id);
  EXPECT_EQ(s.window_beats, 2u);
  EXPECT_DOUBLE_EQ(s.rate_bps, 2.0);  // 1 interval over 0.5 s

  // A beat older than the window's oldest: the span clamps as core's does.
  hub.ingest(id, 99 * kNsPerSec);
  std::vector<core::HeartbeatRecord> window(3);
  window[0].timestamp_ns = 100 * kNsPerSec;
  window[1].timestamp_ns = 100 * kNsPerSec + kNsPerSec / 2;
  window[2].timestamp_ns = 99 * kNsPerSec;
  s = hub.summary(id);
  EXPECT_EQ(s.window_beats, 3u);
  EXPECT_EQ(s.rate_bps, core::window_rate(window));
  EXPECT_TRUE(std::isinf(s.rate_bps));
}

TEST(HubRates, FewerThanTwoBeatsIsZeroRate) {
  auto clock = std::make_shared<util::ManualClock>();
  HeartbeatHub hub(manual_opts(clock));
  const AppId id = hub.register_app("a");
  EXPECT_DOUBLE_EQ(hub.summary(id).rate_bps, 0.0);
  clock->advance(kNsPerSec);
  hub.beat(id);
  EXPECT_DOUBLE_EQ(hub.summary(id).rate_bps, 0.0);
  EXPECT_EQ(hub.summary(id).total_beats, 1u);
}

TEST(HubRates, AZeroSpanWindowReadsAnInfiniteRate) {
  // All beats on one clock tick: a measurable window (>= 2 beats) with no
  // span is "unmeasurably fast", not a 0 rate.
  auto clock = std::make_shared<util::ManualClock>(42);
  HeartbeatHub hub(manual_opts(clock, 1));
  const AppId id = hub.register_app("sametick", core::TargetRate{
      1.0, std::numeric_limits<double>::infinity()});
  for (int i = 0; i < 4; ++i) hub.beat(id);  // clock never advances
  const AppSummary s = hub.summary(id);
  EXPECT_EQ(s.window_beats, 4u);
  EXPECT_TRUE(std::isinf(s.rate_bps));
}

TEST(HubRates, ASpanWiderThanInt64IsTakenUnsigned) {
  // Producer timestamps are untrusted: a hostile ring may send a window
  // that spans more than INT64_MAX. Its span is 2^64 - 2 ns, taken
  // unsigned like every interval; a signed subtraction would overflow
  // (undefined behaviour, caught by the sanitizer build).
  auto clock = std::make_shared<util::ManualClock>();
  HeartbeatHub hub(manual_opts(clock, 1));
  const AppId id = hub.register_app("hostile");
  std::vector<AppRecord> recs(2, AppRecord{id, 0});
  recs[0].timestamp_ns = std::numeric_limits<util::TimeNs>::min() + 1;
  recs[1].timestamp_ns = std::numeric_limits<util::TimeNs>::max();
  hub.ingest_batch(recs);
  const AppSummary s = hub.summary(id);
  constexpr std::uint64_t kSpan = std::numeric_limits<std::uint64_t>::max() - 1;
  EXPECT_EQ(s.window_beats, 2u);
  EXPECT_DOUBLE_EQ(s.rate_bps, 1.0 / (static_cast<double>(kSpan) / kNsPerSec));
}

// --------------------------------------------------- interval summaries

TEST(HubIntervals, IntervalDistributionOverTheWindow) {
  auto clock = std::make_shared<util::ManualClock>();
  HeartbeatHub hub(manual_opts(clock, 1, /*window=*/256));
  const AppId id = hub.register_app("a");
  // 94 fast intervals (1ms) + 6 slow stalls (50ms).
  for (int i = 0; i < 95; ++i) {
    clock->advance(kNsPerMs);
    hub.beat(id);
  }
  for (int i = 0; i < 6; ++i) {
    clock->advance(50 * kNsPerMs);
    hub.beat(id);
  }
  const AppSummary s = hub.summary(id);
  EXPECT_EQ(s.window_beats, 101u);
  EXPECT_NEAR(s.interval_mean_ns, (94.0 * kNsPerMs + 6.0 * 50 * kNsPerMs) / 100.0,
              1.0);
}

TEST(HubIntervals, SlidingWindowEvictsOldIntervals) {
  auto clock = std::make_shared<util::ManualClock>();
  // Window of 8: after 8 fast beats, the early slow intervals must be gone.
  HeartbeatHub hub(manual_opts(clock, 1, /*window=*/8));
  const AppId id = hub.register_app("a");
  for (int i = 0; i < 20; ++i) {
    clock->advance(kNsPerSec);  // slow era: 1s intervals
    hub.beat(id);
  }
  for (int i = 0; i < 8; ++i) {
    clock->advance(kNsPerMs);  // fast era: 1ms intervals
    hub.beat(id);
  }
  const AppSummary s = hub.summary(id);
  EXPECT_EQ(s.window_beats, 8u);
  EXPECT_EQ(s.total_beats, 28u);
  // Only the seven fast intervals remain: no slow one skews the moments.
  EXPECT_EQ(s.interval_mean_ns, static_cast<double>(kNsPerMs));
  EXPECT_EQ(s.interval_stddev_ns, 0.0);
}

TEST(HubIntervals, IntervalStatsCoverOnlyWindowSpannedIntervals) {
  // Regression: a window of N records spans N-1 intervals; the interval
  // ring must not retain one extra interval whose records both left the
  // window. window_capacity=2: after beats at 0s,1s,2s,101s the window is
  // {2s,101s} — the mean must be the single 99s interval, not 50s.
  auto clock = std::make_shared<util::ManualClock>();
  HeartbeatHub hub(manual_opts(clock, 1, /*window=*/2));
  const AppId id = hub.register_app("a");
  hub.beat(id);                 // t = 0
  clock->advance(kNsPerSec);
  hub.beat(id);                 // t = 1s
  clock->advance(kNsPerSec);
  hub.beat(id);                 // t = 2s
  clock->advance(99 * kNsPerSec);
  hub.beat(id);                 // t = 101s
  const AppSummary s = hub.summary(id);
  EXPECT_EQ(s.window_beats, 2u);
  EXPECT_NEAR(s.interval_mean_ns, 99.0 * kNsPerSec, 1.0);
}

// ------------------------------------------------------- window statistics

TEST(HubTimeWindow, StddevSummarizesWindowJitter) {
  auto clock = std::make_shared<util::ManualClock>();
  HeartbeatHub hub(manual_opts(clock, 1, /*window=*/64));
  const AppId id = hub.register_app("a");
  // Alternating 10ms / 30ms intervals: mean 20ms, population stddev 10ms.
  for (int i = 0; i < 21; ++i) {
    clock->advance((i % 2 == 0 ? 10 : 30) * kNsPerMs);
    hub.beat(id);
  }
  const AppSummary s = hub.summary(id);
  EXPECT_NEAR(s.interval_mean_ns, 20.0 * kNsPerMs, 1.0);
  EXPECT_NEAR(s.interval_stddev_ns, 10.0 * kNsPerMs, 1.0);
}

TEST(HubTimeWindow, MeanForgetsHugeIntervalsThatLeftTheWindow) {
  // Regression: the windowed mean was a running double, added to and
  // subtracted from forever. Intervals near 2^55 ns round in it, and the
  // residue outlived them: after 4000 such beats a window of three 1000 ns
  // intervals read a mean of about -4320 ns. The mean is now the exact
  // integer sum over the count, so it is exactly 1000.
  auto clock = std::make_shared<util::ManualClock>();
  HeartbeatHub hub(manual_opts(clock, 1, /*window=*/4));
  const AppId id = hub.register_app("a");
  for (util::TimeNs i = 0; i < 4000; ++i) {
    // Even beats jump ~2^55 + 2i ns ahead; odd beats step back (interval 0).
    hub.ingest(id, i % 2 == 0 ? (util::TimeNs{1} << 55) + 3 * i : i);
  }
  for (util::TimeNs i = 0; i < 8; ++i) hub.ingest(id, kNsPerSec + 1000 * i);
  const AppSummary s = hub.summary(id);
  EXPECT_EQ(s.interval_mean_ns, 1000.0);
  EXPECT_EQ(s.interval_stddev_ns, 0.0);
}

// ----------------------------------------------------------------- eviction

TEST(HubEviction, EvictedAppsLeaveEveryRollup) {
  auto clock = std::make_shared<util::ManualClock>();
  HeartbeatHub hub(manual_opts(clock, 2));
  const AppId keep = hub.register_app("keep");
  const AppId drop = hub.register_app("drop");
  for (int i = 0; i < 10; ++i) {
    clock->advance(kNsPerMs);
    hub.beat(keep);
    hub.beat(drop);
  }
  hub.evict(drop);

  const auto listed = sorted_live_apps(hub);
  ASSERT_EQ(listed.size(), 1u);
  EXPECT_EQ(listed[0].name, "keep");
  const FleetCounts c = counts_of(hub);
  EXPECT_EQ(c.live, 1u);
  EXPECT_EQ(c.evicted, 1u);
  EXPECT_EQ(c.live_beats, 10u);
  // Direct queries still answer, flagged, with lifetime count intact.
  const AppSummary s = hub.summary(drop);
  EXPECT_TRUE(s.evicted);
  EXPECT_EQ(s.total_beats, 10u);
  EXPECT_EQ(s.window_beats, 0u);
}

TEST(HubEviction, ANewBeatRevives) {
  auto clock = std::make_shared<util::ManualClock>();
  HeartbeatHub hub(manual_opts(clock, 1));
  const AppId id = hub.register_app("phoenix");
  for (int i = 0; i < 5; ++i) {
    clock->advance(kNsPerMs);
    hub.beat(id);
  }
  hub.evict(id);
  EXPECT_TRUE(hub.summary(id).evicted);

  clock->advance(kNsPerMs);
  hub.beat(id);
  const AppSummary s = hub.summary(id);
  EXPECT_FALSE(s.evicted);
  EXPECT_EQ(s.total_beats, 6u);
  EXPECT_EQ(s.window_beats, 1u);  // the window restarted clean
  EXPECT_EQ(counts_of(hub).live, 1u);
}

TEST(HubEviction, FreshRegistrationsMeasureStalenessFromBirth) {
  // Regression: staleness for a never-beat app used to measure from the
  // clock epoch, so under a long-running monotonic clock (epoch = boot) a
  // brand-new registration read as hours stale and was instantly
  // auto-evicted. The baseline is registration time.
  auto clock = std::make_shared<util::ManualClock>(500 * kNsPerSec);  // "old" clock
  HubOptions opts = manual_opts(clock, 1);
  opts.evict_after_ns = 5 * kNsPerSec;
  HeartbeatHub hub(opts);
  const AppId id = hub.register_app("newborn");
  clock->advance(kNsPerSec);
  const AppSummary s = hub.summary(id);
  EXPECT_FALSE(s.evicted);
  EXPECT_EQ(s.staleness_ns, kNsPerSec);  // 1s, not 501s
  // Still silent past the bound: now it genuinely evicts.
  clock->advance(10 * kNsPerSec);
  EXPECT_TRUE(hub.summary(id).evicted);
}

TEST(HubEviction, AutoEvictionAfterTheStalenessBound) {
  auto clock = std::make_shared<util::ManualClock>();
  HubOptions opts = manual_opts(clock, 1);
  opts.evict_after_ns = 5 * kNsPerSec;
  HeartbeatHub hub(opts);
  const AppId live = hub.register_app("live");
  const AppId dead = hub.register_app("dead");
  for (int i = 0; i < 10; ++i) {
    clock->advance(100 * kNsPerMs);
    hub.beat(live);
    hub.beat(dead);
  }
  // "dead" goes silent; "live" keeps beating past the bound.
  for (int i = 0; i < 60; ++i) {
    clock->advance(100 * kNsPerMs);
    hub.beat(live);
  }
  EXPECT_TRUE(hub.summary(dead).evicted);
  EXPECT_FALSE(hub.summary(live).evicted);
  const FleetCounts c = counts_of(hub);
  EXPECT_EQ(c.live, 1u);
  EXPECT_EQ(c.evicted, 1u);
}

// ------------------------------------------------------------- determinism

std::vector<AppSummary> scripted_run() {
  auto clock = std::make_shared<util::ManualClock>();
  HeartbeatHub hub(manual_opts(clock, 4, 32));
  std::vector<AppId> ids;
  for (int i = 0; i < 12; ++i) {
    ids.push_back(hub.register_app("app" + std::to_string(i),
                                   core::TargetRate{1.0, 1000.0}));
  }
  // Deterministic interleaving: app i beats every (i+1) ticks.
  for (int tick = 1; tick <= 500; ++tick) {
    clock->advance(kNsPerMs);
    for (std::size_t i = 0; i < ids.size(); ++i) {
      if (tick % static_cast<int>(i + 1) == 0) hub.beat(ids[i]);
    }
  }
  return sorted_live_apps(hub);
}

TEST(HubDeterminism, ScriptedRunsAreBitIdentical) {
  const auto run1 = scripted_run();
  const auto run2 = scripted_run();
  ASSERT_EQ(run1.size(), run2.size());
  for (std::size_t i = 0; i < run1.size(); ++i) {
    EXPECT_EQ(run1[i].name, run2[i].name);
    EXPECT_EQ(run1[i].total_beats, run2[i].total_beats);
    EXPECT_EQ(run1[i].window_beats, run2[i].window_beats);
    EXPECT_DOUBLE_EQ(run1[i].rate_bps, run2[i].rate_bps);
    EXPECT_EQ(run1[i].interval_mean_ns, run2[i].interval_mean_ns);
    EXPECT_EQ(run1[i].interval_stddev_ns, run2[i].interval_stddev_ns);
  }
}

// ------------------------------------------------------ concurrent producers

TEST(HubConcurrency, EightProducerThreadsLoseNoBeats) {
  HubOptions opts;
  opts.shard_count = 4;
  opts.window_capacity = 128;
  HeartbeatHub hub(opts);  // real monotonic clock

  constexpr int kThreads = 8;
  constexpr int kBeatsPerThread = 5000;
  std::vector<AppId> ids;
  for (int t = 0; t < kThreads; ++t) {
    ids.push_back(hub.register_app("producer" + std::to_string(t)));
  }
  const AppId shared_app = hub.register_app("shared");

  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      for (int i = 0; i < kBeatsPerThread; ++i) {
        hub.beat(ids[t]);
        if (i % 10 == 0) hub.beat(shared_app);
      }
    });
  }
  for (auto& th : threads) th.join();

  for (int t = 0; t < kThreads; ++t) {
    EXPECT_EQ(hub.summary(ids[t]).total_beats,
              static_cast<std::uint64_t>(kBeatsPerThread));
  }
  EXPECT_EQ(hub.summary(shared_app).total_beats,
            static_cast<std::uint64_t>(kThreads * (kBeatsPerThread / 10)));
  EXPECT_EQ(counts_of(hub).total_beats,
            static_cast<std::uint64_t>(kThreads * kBeatsPerThread +
                                       kThreads * (kBeatsPerThread / 10)));
}

TEST(HubConcurrency, RegistrationRacesWithIngestion) {
  HubOptions opts;
  opts.shard_count = 2;
  HeartbeatHub hub(opts);
  std::atomic<bool> stop{false};

  std::thread registrar([&] {
    for (int i = 0; i < 200; ++i) {
      hub.register_app("late" + std::to_string(i));
    }
    stop.store(true, std::memory_order_release);
  });
  std::thread producer([&] {
    const AppId id = hub.register_app("steady");
    while (!stop.load(std::memory_order_acquire)) hub.beat(id);
    for (int i = 0; i < 100; ++i) hub.beat(id);
  });
  registrar.join();
  producer.join();

  EXPECT_EQ(hub.app_count(), 201u);
  EXPECT_GE(hub.summary(hub.id_of("steady")).total_beats, 100u);
}

// ---------------------------------------------------------------- liveness

TEST(HubLiveness, StalenessTracksTheHubClock) {
  auto clock = std::make_shared<util::ManualClock>();
  HeartbeatHub hub(manual_opts(clock));
  const AppId id = hub.register_app("a");

  clock->advance(5 * kNsPerSec);
  EXPECT_EQ(hub.summary(id).staleness_ns, 5 * kNsPerSec);  // never beat

  hub.beat(id);
  clock->advance(3 * kNsPerSec);
  EXPECT_EQ(hub.summary(id).staleness_ns, 3 * kNsPerSec);
}

}  // namespace
}  // namespace hb::hub
