// HeartbeatHub: sharded multi-tenant aggregation — routing, batched
// ingestion, windowed percentile summaries, concurrent producers, and
// deterministic behavior under fake clocks.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <filesystem>
#include <limits>
#include <memory>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "core/heartbeat.hpp"
#include "core/memory_store.hpp"
#include "core/rate.hpp"
#include "hub/hub.hpp"
#include "hub/sink.hpp"
#include "obs/metrics.hpp"
#include "transport/registry.hpp"
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

// One tag's fleet rollup; zeroed when nobody emitted it.
TagSummary tag_of(HeartbeatHub& hub, std::uint64_t tag) {
  const auto snap = hub.snapshot();
  for (const TagSummary& t : snap->tags()) {
    if (t.tag == tag) return t;
  }
  return TagSummary{};
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
  core::HeartbeatRecord rec;
  EXPECT_THROW(hub.ingest(foreign_slot, rec), std::out_of_range);
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

TEST(HubBatching, BeatsBufferUntilBatchCapacity) {
  auto clock = std::make_shared<util::ManualClock>();
  HeartbeatHub hub(manual_opts(clock, /*shards=*/1));
  const AppId id = hub.register_app("a");

  for (std::size_t i = 0; i + 1 < kIngestBatch; ++i) {
    clock->advance(kNsPerMs);
    hub.beat(id);
  }
  ShardStats s = hub.shard(0).stats();
  EXPECT_EQ(s.pending, kIngestBatch - 1);  // still buffered
  EXPECT_EQ(s.flushes, 0u);
  EXPECT_EQ(s.ingested, kIngestBatch - 1);

  clock->advance(kNsPerMs);
  hub.beat(id);  // fills the buffer: this beat applies it
  s = hub.shard(0).stats();
  EXPECT_EQ(s.pending, 0u);
  EXPECT_EQ(s.flushes, 1u);

  clock->advance(kNsPerMs);
  hub.beat(id);  // starts the next buffer
  s = hub.shard(0).stats();
  EXPECT_EQ(s.pending, 1u);
  EXPECT_EQ(s.flushes, 1u);
  EXPECT_EQ(s.ingested, kIngestBatch + 1);
}

TEST(HubBatching, QueriesFlushPendingBeats) {
  auto clock = std::make_shared<util::ManualClock>();
  HeartbeatHub hub(manual_opts(clock, 1));
  const AppId id = hub.register_app("a");
  for (int i = 0; i < 5; ++i) {
    clock->advance(kNsPerMs);
    hub.beat(id);
  }
  // Far below batch capacity, but the query must still see every beat.
  EXPECT_EQ(hub.summary(id).total_beats, 5u);
  EXPECT_EQ(hub.shard(0).stats().pending, 0u);
}

TEST(HubBatching, SpanIngestTakesOneLockAcquire) {
  auto clock = std::make_shared<util::ManualClock>();
  HeartbeatHub hub(manual_opts(clock, 1, /*window=*/256));
  const AppId id = hub.register_app("a");
  const std::size_t n = kIngestBatch + 10;
  std::vector<AppRecord> recs(n);
  for (std::size_t i = 0; i < n; ++i) {
    recs[i].id = id;
    recs[i].rec.timestamp_ns = static_cast<util::TimeNs>(i + 1) * kNsPerMs;
    recs[i].rec.tag = 7;
  }
  hub.ingest_batch(recs);
  // Applied straight to app state in one apply, past the buffer size.
  EXPECT_EQ(hub.shard(0).stats().pending, 0u);
  EXPECT_EQ(hub.shard(0).stats().flushes, 1u);
  const AppSummary s = hub.summary(id);
  EXPECT_EQ(s.total_beats, n);
  EXPECT_EQ(tag_of(hub, 7).beats, n);
}

TEST(HubBatching, BulkIngestAppliesAfterTheBatchInArrivalOrder) {
  // Beats 1..3 ms wait in the shard's pending buffer; beats 4..7 ms
  // then arrive in bulk. The bulk apply must take the batch first, or the
  // window would hold 4..7 before 1..3: a 0-clamped interval, a newest
  // beat at 3 ms, and a negative span.
  auto clock = std::make_shared<util::ManualClock>();
  HeartbeatHub hub(manual_opts(clock, 1));
  const AppId id = hub.register_app("a");
  for (int i = 1; i <= 3; ++i) {
    core::HeartbeatRecord rec;
    rec.timestamp_ns = i * kNsPerMs;
    hub.ingest(id, rec);
  }
  EXPECT_EQ(hub.shard(0).stats().pending, 3u);
  std::vector<AppRecord> bulk;
  for (int i = 4; i <= 7; ++i) {
    AppRecord r{id, {}};
    r.rec.timestamp_ns = i * kNsPerMs;
    bulk.push_back(r);
  }
  hub.ingest_batch(bulk);
  EXPECT_EQ(hub.shard(0).stats().pending, 0u);

  const AppSummary s = hub.summary(id);
  EXPECT_EQ(s.total_beats, 7u);
  EXPECT_EQ(s.window_beats, 7u);
  EXPECT_EQ(s.last_beat_ns, 7 * kNsPerMs);          // newest
  EXPECT_DOUBLE_EQ(s.rate_bps, 6.0 / 0.006);        // oldest at 1 ms
  EXPECT_EQ(s.interval_min_ns, std::uint64_t{kNsPerMs});
  EXPECT_EQ(s.interval_max_ns, std::uint64_t{kNsPerMs});
  EXPECT_EQ(hub.shard(0).publish()->intervals.count(), 6u);  // 6 intervals
}

TEST(HubBatching, IngestedEqualsAppliedAfterAFlush) {
  auto& registry = obs::MetricsRegistry::global();
  obs::Counter& ingested = registry.counter("hb.hub.ingested");
  obs::Counter& applied = registry.counter("hb.hub.applied");
  const std::uint64_t ingested0 = ingested.value();
  const std::uint64_t applied0 = applied.value();

  auto clock = std::make_shared<util::ManualClock>();
  HeartbeatHub hub(manual_opts(clock, 2));
  const AppId a = hub.register_app("a");
  const AppId b = hub.register_app("b");
  // 2 * kIngestBatch + 3 beats through the pending buffers (at least one
  // full apply and a partial buffer), 9 in bulk across both apps, then 2
  // more that a flush must drain.
  const std::size_t buffered = 2 * kIngestBatch + 3;
  const std::uint64_t total = buffered + 9 + 2;
  std::vector<std::uint64_t> sent(hub.shard_count(), 0);
  auto beat = [&](AppId id) {
    hub.beat(id);
    ++sent[app_id_shard(id)];
  };
  for (std::size_t i = 0; i < buffered; ++i) beat(i % 2 ? a : b);
  std::vector<AppRecord> bulk;
  for (int i = 0; i < 9; ++i) {
    AppRecord r{i % 3 ? a : b, {}};
    r.rec.timestamp_ns = clock->now();
    bulk.push_back(r);
    ++sent[app_id_shard(r.id)];
  }
  hub.ingest_batch(bulk);
  beat(a);
  beat(b);
  hub.flush();

  if (obs::kCompiledIn) {  // the registry reads 0 with telemetry compiled out
    EXPECT_EQ(ingested.value() - ingested0, total);
    EXPECT_EQ(applied.value() - applied0, total);
  }
  for (std::size_t i = 0; i < hub.shard_count(); ++i) {
    const ShardStats st = hub.shard(i).stats();
    EXPECT_EQ(st.ingested, sent[i]) << "shard " << i;
    EXPECT_EQ(st.pending, 0u);
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

TEST(HubRates, RateWindowOptionLimitsTheSpan) {
  auto clock = std::make_shared<util::ManualClock>();
  HubOptions opts = manual_opts(clock, 1, 64);
  opts.rate_window = 5;
  HeartbeatHub hub(opts);
  const AppId id = hub.register_app("a");
  // Slow early beats, fast recent beats: a 5-beat window sees only the
  // fast tail.
  for (int i = 0; i < 10; ++i) {
    clock->advance(kNsPerSec);
    hub.beat(id);
  }
  for (int i = 0; i < 10; ++i) {
    clock->advance(kNsPerSec / 100);
    hub.beat(id);
  }
  EXPECT_DOUBLE_EQ(hub.summary(id).rate_bps, 100.0);
}

TEST(HubRates, RateWindowOfOneIsInstantaneousLikeCore) {
  // Regression: rate_window = 1 must mean "instantaneous" (2 records, 1
  // interval) exactly as Channel::rate(1)/HeartbeatReader::current_rate(1)
  // do — not a permanent 0.
  auto clock = std::make_shared<util::ManualClock>();
  HubOptions opts = manual_opts(clock, 1, 64);
  opts.rate_window = 1;
  HeartbeatHub hub(opts);
  const AppId id = hub.register_app("a");
  for (int i = 0; i < 5; ++i) {
    clock->advance(kNsPerSec);  // slow era
    hub.beat(id);
  }
  clock->advance(kNsPerSec / 10);  // one fast interval
  hub.beat(id);
  EXPECT_DOUBLE_EQ(hub.summary(id).rate_bps, 10.0);
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

// ------------------------------------------------- percentile summaries

TEST(HubPercentiles, IntervalDistributionOverTheWindow) {
  auto clock = std::make_shared<util::ManualClock>();
  HeartbeatHub hub(manual_opts(clock, 1, /*window=*/256));
  const AppId id = hub.register_app("a");
  // 94 fast intervals (1ms) + 6 slow stalls (50ms): p50 ~= 1ms bucket,
  // p95/p99 land in the 50ms bucket. Min/max are exact.
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
  EXPECT_EQ(s.interval_min_ns, static_cast<std::uint64_t>(kNsPerMs));
  EXPECT_EQ(s.interval_max_ns, static_cast<std::uint64_t>(50 * kNsPerMs));
  // p50 within one bucket (12.5%) of 1ms:
  EXPECT_GE(s.interval_p50_ns, static_cast<std::uint64_t>(kNsPerMs));
  EXPECT_LE(s.interval_p50_ns, static_cast<std::uint64_t>(1.125 * kNsPerMs));
  // p95 and p99 in the stall bucket:
  EXPECT_GE(s.interval_p95_ns, static_cast<std::uint64_t>(50 * kNsPerMs * 0.875));
  EXPECT_LE(s.interval_p95_ns, static_cast<std::uint64_t>(50 * kNsPerMs));
  EXPECT_GE(s.interval_p99_ns, s.interval_p95_ns);
  EXPECT_LE(s.interval_p99_ns, s.interval_max_ns);
  EXPECT_NEAR(s.interval_mean_ns, (94.0 * kNsPerMs + 6.0 * 50 * kNsPerMs) / 100.0,
              1.0);
}

TEST(HubPercentiles, SlidingWindowEvictsOldIntervals) {
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
  EXPECT_EQ(s.interval_min_ns, static_cast<std::uint64_t>(kNsPerMs));
  EXPECT_EQ(s.interval_max_ns, static_cast<std::uint64_t>(kNsPerMs));
  EXPECT_LE(s.interval_p99_ns, static_cast<std::uint64_t>(kNsPerMs));
}

TEST(HubPercentiles, IntervalStatsCoverOnlyWindowSpannedIntervals) {
  // Regression: a window of N records spans N-1 intervals; the interval
  // ring must not retain one extra interval whose records both left the
  // window. window_capacity=2: after beats at 0s,1s,2s,101s the window is
  // {2s,101s} — min/max must both be the single 99s interval, not 1s.
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
  EXPECT_EQ(s.interval_min_ns, static_cast<std::uint64_t>(99 * kNsPerSec));
  EXPECT_EQ(s.interval_max_ns, static_cast<std::uint64_t>(99 * kNsPerSec));
  EXPECT_NEAR(s.interval_mean_ns, 99.0 * kNsPerSec, 1.0);
}

// ------------------------------------------------------------- tag rollups

TEST(HubTags, WindowedTagRollupAcrossApps) {
  auto clock = std::make_shared<util::ManualClock>();
  HeartbeatHub hub(manual_opts(clock, 4));
  const AppId a = hub.register_app("a");
  const AppId b = hub.register_app("b");
  for (int i = 0; i < 10; ++i) {
    clock->advance(kNsPerMs);
    hub.beat(a, /*tag=*/1);
  }
  for (int i = 0; i < 5; ++i) {
    clock->advance(kNsPerMs);
    hub.beat(b, /*tag=*/1);
    hub.beat(b, /*tag=*/2);
  }
  const TagSummary t1 = tag_of(hub, 1);
  EXPECT_EQ(t1.beats, 15u);
  EXPECT_EQ(t1.apps, 2u);
  const TagSummary t2 = tag_of(hub, 2);
  EXPECT_EQ(t2.beats, 5u);
  EXPECT_EQ(t2.apps, 1u);
  EXPECT_EQ(tag_of(hub, 99).beats, 0u);
  EXPECT_EQ(hub.snapshot()->tags().size(), 2u);
}

TEST(HubTags, TagCountsSlideWithTheWindow) {
  auto clock = std::make_shared<util::ManualClock>();
  HeartbeatHub hub(manual_opts(clock, 1, /*window=*/4));
  const AppId id = hub.register_app("a");
  for (int i = 0; i < 6; ++i) {
    clock->advance(kNsPerMs);
    hub.beat(id, /*tag=*/1);
  }
  for (int i = 0; i < 4; ++i) {
    clock->advance(kNsPerMs);
    hub.beat(id, /*tag=*/2);
  }
  EXPECT_EQ(tag_of(hub, 1).beats, 0u);  // fully evicted
  EXPECT_EQ(tag_of(hub, 2).beats, 4u);
}

// --------------------------------------------------------- cluster rollups

TEST(HubCluster, RollupAggregatesAcrossShards) {
  auto clock = std::make_shared<util::ManualClock>();
  HeartbeatHub hub(manual_opts(clock, 4, 64));
  const AppId fast = hub.register_app("fast", core::TargetRate{5.0, 100.0});
  const AppId slow = hub.register_app("slow", core::TargetRate{5.0, 100.0});
  const AppId idle = hub.register_app("idle", core::TargetRate{1.0, 10.0});
  // fast: 10 bps; slow: 1 bps (deficient against min 5).
  for (int i = 0; i < 50; ++i) {
    clock->advance(kNsPerSec / 10);
    hub.beat(fast);
    if (i % 10 == 9) hub.beat(slow);
  }
  (void)idle;
  const ClusterSummary c = hub.snapshot()->cluster();
  EXPECT_EQ(c.apps, 3u);
  EXPECT_EQ(c.total_beats, 55u);
  EXPECT_NEAR(c.aggregate_rate_bps, 11.0, 0.2);
  EXPECT_EQ(c.meeting_target, 1u);  // fast
  EXPECT_EQ(c.deficient, 1u);       // slow below 5
  EXPECT_EQ(c.warming_up, 1u);      // idle: no beats -> no rate evidence yet
  EXPECT_EQ(c.evicted, 0u);
  EXPECT_EQ(c.last_beat_ns, clock->now());
  EXPECT_GT(c.interval_p95_ns, c.interval_p50_ns / 2);
}

TEST(HubCluster, WarmingUpAppsDoNotInflateTheDeficit) {
  // Regression: apps with < 2 windowed beats have no measurable rate
  // (rate_bps is a placeholder 0) and used to be counted as deficient
  // against any min target. They are warming up, not failing.
  auto clock = std::make_shared<util::ManualClock>();
  HeartbeatHub hub(manual_opts(clock, 2));
  hub.register_app("silent", core::TargetRate{5.0, 100.0});
  const AppId once = hub.register_app("once", core::TargetRate{5.0, 100.0});
  clock->advance(kNsPerSec);
  hub.beat(once);  // 1 beat: still no interval, still no rate
  const ClusterSummary c = hub.snapshot()->cluster();
  EXPECT_EQ(c.apps, 2u);
  EXPECT_EQ(c.warming_up, 2u);
  EXPECT_EQ(c.deficient, 0u);
  EXPECT_EQ(c.meeting_target, 0u);
}

TEST(HubCluster, InfiniteRateDoesNotMeetTarget) {
  // Regression: a zero-span window (all beats on one clock tick) reports an
  // infinite rate, and TargetRate{min, inf}.contains(inf) is true — such an
  // app used to count as meeting target. Unmeasurably fast is not evidence.
  auto clock = std::make_shared<util::ManualClock>(42);
  HeartbeatHub hub(manual_opts(clock, 1));
  const AppId id = hub.register_app("sametick", core::TargetRate{
      1.0, std::numeric_limits<double>::infinity()});
  for (int i = 0; i < 4; ++i) hub.beat(id);  // clock never advances
  const ClusterSummary c = hub.snapshot()->cluster();
  EXPECT_EQ(c.apps, 1u);
  EXPECT_TRUE(std::isinf(hub.summary(id).rate_bps));
  EXPECT_EQ(c.meeting_target, 0u);
  EXPECT_EQ(c.deficient, 0u);
  EXPECT_EQ(c.warming_up, 0u);  // measurable window, just zero-span
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
  core::HeartbeatRecord rec;
  for (util::TimeNs i = 0; i < 4000; ++i) {
    // Even beats jump ~2^55 + 2i ns ahead; odd beats step back (interval 0).
    rec.timestamp_ns = i % 2 == 0 ? (util::TimeNs{1} << 55) + 3 * i : i;
    hub.ingest(id, rec);
  }
  for (util::TimeNs i = 0; i < 8; ++i) {
    rec.timestamp_ns = kNsPerSec + 1000 * i;
    hub.ingest(id, rec);
  }
  const AppSummary s = hub.summary(id);
  EXPECT_EQ(s.interval_min_ns, 1000u);
  EXPECT_EQ(s.interval_max_ns, 1000u);
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
    hub.beat(keep, /*tag=*/1);
    hub.beat(drop, /*tag=*/2);
  }
  hub.evict(drop);

  const auto listed = sorted_live_apps(hub);
  ASSERT_EQ(listed.size(), 1u);
  EXPECT_EQ(listed[0].name, "keep");
  const ClusterSummary c = hub.snapshot()->cluster();
  EXPECT_EQ(c.apps, 1u);
  EXPECT_EQ(c.evicted, 1u);
  EXPECT_EQ(c.total_beats, 10u);
  EXPECT_EQ(tag_of(hub, 2).beats, 0u);  // windowed tags went with it
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
  EXPECT_EQ(hub.snapshot()->cluster().apps, 1u);
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
  const ClusterSummary c = hub.snapshot()->cluster();
  EXPECT_EQ(c.apps, 1u);
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
      if (tick % static_cast<int>(i + 1) == 0) {
        hub.beat(ids[i], /*tag=*/tick % 3);
      }
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
    EXPECT_EQ(run1[i].interval_p50_ns, run2[i].interval_p50_ns);
    EXPECT_EQ(run1[i].interval_p95_ns, run2[i].interval_p95_ns);
    EXPECT_EQ(run1[i].interval_p99_ns, run2[i].interval_p99_ns);
    EXPECT_EQ(run1[i].interval_min_ns, run2[i].interval_min_ns);
    EXPECT_EQ(run1[i].interval_max_ns, run2[i].interval_max_ns);
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
        hub.beat(ids[t], static_cast<std::uint64_t>(t));
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
  const ClusterSummary c = hub.snapshot()->cluster();
  EXPECT_EQ(c.total_beats, static_cast<std::uint64_t>(
                               kThreads * kBeatsPerThread +
                               kThreads * (kBeatsPerThread / 10)));
  // Per-thread tags survived intact.
  for (int t = 0; t < kThreads; ++t) {
    EXPECT_GT(tag_of(hub, static_cast<std::uint64_t>(t)).beats, 0u);
  }
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
    std::uint64_t n = 0;
    while (!stop.load(std::memory_order_acquire)) hub.beat(id, ++n);
    for (int i = 0; i < 100; ++i) hub.beat(id, ++n);
  });
  registrar.join();
  producer.join();

  EXPECT_EQ(hub.app_count(), 201u);
  EXPECT_GE(hub.summary(hub.id_of("steady")).total_beats, 100u);
}

// ------------------------------------------------------------------ HubSink

TEST(HubSink, MirrorsHeartbeatProducersIntoTheHub) {
  auto clock = std::make_shared<util::ManualClock>();
  auto hub = std::make_shared<HeartbeatHub>(manual_opts(clock, 2));

  core::HeartbeatOptions opts;
  opts.name = "x264";
  opts.clock = clock;
  opts.target_min_bps = 20.0;
  opts.target_max_bps = 40.0;
  opts.store_factory = HubSink::wrap_factory(hub);
  core::Heartbeat producer(opts);

  for (int i = 0; i < 30; ++i) {
    clock->advance(kNsPerSec / 25);  // exact 40ms ticks
    producer.beat(static_cast<std::uint64_t>(i % 3));
  }

  const AppSummary summary = hub->summary(hub->id_of("x264"));
  EXPECT_EQ(summary.total_beats, 30u);
  EXPECT_DOUBLE_EQ(summary.rate_bps, 25.0);
  // Target registered through the store flows into the hub summary.
  EXPECT_DOUBLE_EQ(summary.target.min_bps, 20.0);
  EXPECT_DOUBLE_EQ(summary.target.max_bps, 40.0);
  // The producer's own channel still works (inner store untouched).
  EXPECT_EQ(producer.global().count(), 30u);
  EXPECT_NEAR(producer.global().rate(20), 25.0, 1e-9);
  // Hub rate agrees with the channel's own full-window view.
  EXPECT_DOUBLE_EQ(summary.rate_bps,
                   core::window_rate(producer.global().history(64)));
}

TEST(HubSink, LocalChannelsAreNotMirrored) {
  auto clock = std::make_shared<util::ManualClock>();
  auto hub = std::make_shared<HeartbeatHub>(manual_opts(clock));
  core::HeartbeatOptions opts;
  opts.name = "app";
  opts.clock = clock;
  opts.store_factory = HubSink::wrap_factory(hub);
  core::Heartbeat producer(opts);

  clock->advance(kNsPerMs);
  producer.beat();
  clock->advance(kNsPerMs);
  producer.beat_local();  // thread-local: must NOT double-count in the hub
  clock->advance(kNsPerMs);
  producer.beat_local();

  EXPECT_EQ(hub->summary(hub->id_of("app")).total_beats, 1u);
  EXPECT_EQ(producer.local().count(), 2u);
}

TEST(HubSink, WrapsExistingTransports) {
  // The paper's Section 4 file-log transport, feeding the hub unmodified.
  namespace fs = std::filesystem;
  const fs::path dir =
      fs::temp_directory_path() / "hb_hub_sink_test";
  fs::remove_all(dir);
  transport::Registry registry(dir);

  auto clock = std::make_shared<util::ManualClock>();
  auto hub = std::make_shared<HeartbeatHub>(manual_opts(clock, 2));

  core::HeartbeatOptions opts;
  opts.name = "legacy";
  opts.clock = clock;
  opts.history_capacity = 64;
  opts.store_factory = HubSink::wrap_factory(hub, registry.filelog_factory());
  core::Heartbeat producer(opts);
  for (int i = 0; i < 10; ++i) {
    clock->advance(kNsPerSec / 5);
    producer.beat();
  }

  // Hub sees the beats...
  const AppSummary summary = hub->summary(hub->id_of("legacy"));
  EXPECT_EQ(summary.total_beats, 10u);
  EXPECT_DOUBLE_EQ(summary.rate_bps, 5.0);
  // ...and so does a completely independent observer attaching to the log.
  EXPECT_EQ(registry.reader("legacy", clock).count(), 10u);
  fs::remove_all(dir);
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
