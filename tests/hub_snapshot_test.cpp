// The snapshot plane: epoch semantics, fleet-cache hits, the single-shard
// per-app query, sweep coherence under threaded ingest (no torn reports),
// and the recycling of shard snapshot buffers.
#include <gtest/gtest.h>

#include <atomic>
#include <memory>
#include <set>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "fault/fleet_detector.hpp"
#include "hub/hub.hpp"
#include "test_support.hpp"
#include "util/clock.hpp"
#include "util/time.hpp"

namespace hb::hub {
namespace {

using util::kNsPerMs;
using util::kNsPerSec;

// Shared across the hub suites: ManualClock HubOptions with test-sized
// shards/batch/window.
using test::manual_hub_opts;
using test::same_summaries;
using test::total_beats;

// ------------------------------------------------------------- epoch rules

TEST(SnapshotEpochs, RepeatedQueriesBetweenFlushesReuseTheSnapshot) {
  auto clock = std::make_shared<util::ManualClock>();
  HeartbeatHub hub(manual_hub_opts(clock));
  const AppId a = hub.register_app("a");
  const AppId b = hub.register_app("b");

  clock->advance(kNsPerMs);
  hub.beat(a);
  hub.beat(b);

  // First query publishes and composes...
  const auto snap1 = hub.snapshot();
  const auto stats1 = hub.snapshot_stats();
  EXPECT_GE(stats1.fleet_rebuilds, 1u);

  // ...and with a frozen clock and no new beats, every further query —
  // whatever its shape — is the SAME snapshot object: pointer reads.
  const auto snap2 = hub.snapshot();
  const std::uint64_t beats1 = total_beats(*hub.snapshot());
  const std::uint64_t beats2 = total_beats(*hub.snapshot());
  EXPECT_EQ(snap1.get(), snap2.get());
  EXPECT_EQ(snap1->epoch(), snap2->epoch());
  EXPECT_EQ(beats1, beats2);
  const auto stats2 = hub.snapshot_stats();
  EXPECT_EQ(stats2.fleet_rebuilds, stats1.fleet_rebuilds);
  EXPECT_GE(stats2.fleet_hits, stats1.fleet_hits + 3);

  // A new beat advances exactly the owning shard's epoch; the fleet view
  // recomposes once and the total epoch strictly increases.
  hub.beat(a);
  const auto snap3 = hub.snapshot();
  EXPECT_NE(snap3.get(), snap1.get());
  EXPECT_GT(snap3->epoch(), snap1->epoch());

  // Clock movement alone (staleness must restamp) also republishes.
  clock->advance(kNsPerSec);
  const auto snap4 = hub.snapshot();
  EXPECT_GT(snap4->epoch(), snap3->epoch());
  EXPECT_EQ(snap4->find(b)->staleness_ns, kNsPerSec);  // b's last beat: t=1ms
}

TEST(SnapshotEpochs, DirtyStateRepublishesWithoutBeats) {
  auto clock = std::make_shared<util::ManualClock>();
  HeartbeatHub hub(manual_hub_opts(clock, /*shards=*/1));
  const AppId id = hub.register_app("a");
  clock->advance(kNsPerMs);
  hub.beat(id);

  const auto before = hub.snapshot();
  // set_target with a frozen clock and no beats must still reach readers.
  hub.set_target(id, {2.5, 80.0});
  const auto after = hub.snapshot();
  EXPECT_GT(after->epoch(), before->epoch());
  EXPECT_DOUBLE_EQ(after->find(id)->target.min_bps, 2.5);

  // Eviction too.
  hub.evict(id);
  const auto evicted = hub.snapshot();
  EXPECT_GT(evicted->epoch(), after->epoch());
  EXPECT_TRUE(evicted->find(id)->evicted);
}

TEST(SnapshotEpochs, OverflowDrainedBeatsAlwaysReachTheNextSnapshot) {
  // Regression: beats applied before a query leave the query nothing to
  // apply. The publish must still rebuild under a frozen clock, or those
  // beats stay invisible until the clock moves.
  auto clock = std::make_shared<util::ManualClock>();
  HeartbeatHub hub(manual_hub_opts(clock, /*shards=*/1));
  const AppId id = hub.register_app("a");

  clock->advance(kNsPerMs);
  hub.beat(id);
  EXPECT_EQ(total_beats(*hub.snapshot()), 1u);

  // 64 one-record beats, clock frozen.
  for (std::size_t i = 0; i < 64; ++i) hub.beat(id);
  EXPECT_EQ(total_beats(*hub.snapshot()), 1 + 64u);

  // Same shape through the span path.
  const std::vector<util::TimeNs> ts(64, clock->now());
  const AppRun run{id, ts};
  hub.ingest_batch({&run, 1});
  EXPECT_EQ(total_beats(*hub.snapshot()), 1 + 2 * 64u);
}

// ----------------------------------------------------- per-app query

// summary(id) publishes only the owning shard: a per-app poller never
// forces the rest of the fleet to republish.
TEST(SnapshotPerApp, SummaryPublishesOnlyTheOwningShard) {
  auto clock = std::make_shared<util::ManualClock>();
  HeartbeatHub hub(manual_hub_opts(clock, /*shards=*/4));
  const AppId a = hub.register_app("app-0");
  AppId b = a;
  for (int k = 1; app_id_shard(b) == app_id_shard(a); ++k) {
    b = hub.register_app("app-" + std::to_string(k));
  }
  HubShard& shard_i = hub.shard(app_id_shard(a));
  HubShard& shard_j = hub.shard(app_id_shard(b));

  clock->advance(kNsPerMs);
  for (int k = 0; k < 3; ++k) {
    hub.beat(a);
    hub.beat(b);
  }
  const std::uint64_t epoch_j = shard_j.stats().epoch;

  EXPECT_EQ(hub.summary(a).total_beats, 3u);
  EXPECT_EQ(shard_i.stats().ingested, 3u);
  EXPECT_EQ(shard_j.stats().epoch, epoch_j);  // j never republished
  EXPECT_EQ(shard_j.stats().ingested, 3u);

  // A slot past the shard's registered apps is foreign to this hub.
  const auto past_end = static_cast<std::uint32_t>(shard_i.stats().apps);
  EXPECT_THROW(hub.summary(make_app_id(app_id_shard(a), past_end)),
               std::out_of_range);
}

// ------------------------------------------------------- sweep coherence

// Threaded ingest while a reader loops sweeps: every FleetReport must be
// derived from ONE FleetSnapshot epoch — each app exactly once, verdict
// buckets reconciling with the app count, epochs monotone — and the run
// must be ASan/UBSan clean (CI runs this suite under both).
TEST(SnapshotCoherence, ThreadedIngestNeverTearsASweep) {
  auto clock = std::make_shared<util::ManualClock>();
  HubOptions opts = manual_hub_opts(clock, /*shards=*/8);
  HeartbeatHub hub(opts);

  constexpr int kApps = 96;
  constexpr int kProducers = 4;
  std::vector<AppId> ids;
  for (int i = 0; i < kApps; ++i) {
    ids.push_back(hub.register_app("app-" + std::to_string(i), {1.0, 1e9}));
  }

  std::atomic<bool> stop{false};
  std::vector<std::thread> producers;
  for (int t = 0; t < kProducers; ++t) {
    producers.emplace_back([&, t] {
      std::uint64_t k = 0;
      // relaxed: stop flag only; join() is the synchronization point.
      while (!stop.load(std::memory_order_relaxed)) {
        hub.beat(ids[(static_cast<std::size_t>(t) + k * kProducers) % kApps]);
        if (k % 16 == 0) clock->advance(kNsPerMs);
        ++k;
      }
    });
  }

  const fault::FleetDetector detector(
      {.absolute_staleness_ns = 60 * kNsPerSec});
  std::uint64_t last_epoch = 0;
  for (int sweep = 0; sweep < 200; ++sweep) {
    const fault::FleetReport report = detector.sweep(hub.snapshot());

    // One coherent epoch per report, monotone across sweeps.
    EXPECT_GE(report.snapshot_epoch, last_epoch);
    last_epoch = report.snapshot_epoch;

    // Every registered app appears exactly once — an app counted under two
    // windows (the pre-snapshot tearing mode) would show up as a duplicate
    // name or a count mismatch.
    EXPECT_EQ(report.apps.size(), static_cast<std::size_t>(kApps));
    std::set<std::string> names;
    for (const auto& app : report.apps) names.insert(app.name);
    EXPECT_EQ(names.size(), static_cast<std::size_t>(kApps));

    // The rollup reconciles with the per-app verdicts.
    const auto& fleet = report.fleet;
    EXPECT_EQ(fleet.apps, static_cast<std::uint64_t>(kApps));
    EXPECT_EQ(fleet.warming_up + fleet.healthy + fleet.slow + fleet.erratic +
                  fleet.dead,
              fleet.apps);

    // A fleet walk of the same cache: internally consistent with itself
    // (live + evicted == registered) at whatever epoch it reflects.
    std::uint64_t live = 0, evicted = 0;
    hub.snapshot()->for_each_app(
        [&](const AppSummary& s) { ++(s.evicted ? evicted : live); },
        /*include_evicted=*/true);
    EXPECT_EQ(live + evicted, static_cast<std::uint64_t>(kApps));
  }

  // relaxed: stop flag only; join() is the synchronization point.
  stop.store(true, std::memory_order_relaxed);
  for (auto& p : producers) p.join();

  // Nothing was lost on the way: a final snapshot accounts for every beat
  // every producer sent.
  hub.flush();
  std::uint64_t ingested = 0;
  for (std::size_t i = 0; i < hub.shard_count(); ++i) {
    ingested += hub.shard(i).stats().ingested;
  }
  EXPECT_EQ(total_beats(*hub.snapshot()), ingested);
}

// The report's epoch is the snapshot's epoch — pinned exactly in a
// deterministic single-threaded run.
TEST(SnapshotCoherence, ReportEpochMatchesTheSnapshotItWasDerivedFrom) {
  auto clock = std::make_shared<util::ManualClock>();
  HeartbeatHub hub(manual_hub_opts(clock, 2));
  const AppId id = hub.register_app("a");
  clock->advance(kNsPerMs);
  hub.beat(id);

  const fault::FleetDetector detector;
  const auto snap = hub.snapshot();
  const fault::FleetReport report = detector.sweep(snap);
  EXPECT_EQ(report.snapshot_epoch, snap->epoch());
  EXPECT_EQ(report.fleet.swept_at_ns, snap->composed_at_ns());

  // Sweeping a fresh snapshot with nothing changed reuses the same epoch.
  const fault::FleetReport again = detector.sweep(hub.snapshot());
  EXPECT_EQ(again.snapshot_epoch, report.snapshot_epoch);
}

// ---------------------------------------------------- buffer recycling
//
// A shard's snapshot buffer returns to its shard when the last reader lets
// go, and a later publish overwrites it in place. A held snapshot must
// never be that buffer.

/// A deep copy of what a fleet snapshot shows: every shard's epoch, stamp
/// and summaries.
struct FleetCopy {
  std::vector<std::uint64_t> epochs;
  std::vector<util::TimeNs> stamps;
  std::vector<std::vector<AppSummary>> apps;

  explicit FleetCopy(const FleetSnapshot& snap) {
    for (std::size_t i = 0; i < snap.shard_count(); ++i) {
      epochs.push_back(snap.shard(i).epoch);
      stamps.push_back(snap.shard(i).published_at_ns);
      apps.push_back(snap.shard(i).apps);
    }
  }
  void expect_matches(const FleetSnapshot& snap) const {
    ASSERT_EQ(snap.shard_count(), apps.size());
    for (std::size_t i = 0; i < snap.shard_count(); ++i) {
      EXPECT_EQ(snap.shard(i).epoch, epochs[i]);
      EXPECT_EQ(snap.shard(i).published_at_ns, stamps[i]);
      EXPECT_TRUE(same_summaries(snap.shard(i).apps, apps[i])) << "shard " << i;
    }
  }
};

TEST(SnapshotRecycling, AHeldSnapshotStaysFrozenAcrossPublishes) {
  auto clock = std::make_shared<util::ManualClock>();
  HeartbeatHub hub(manual_hub_opts(clock, /*shards=*/2, /*window=*/8));
  std::vector<AppId> ids;
  for (int i = 0; i < 6; ++i) {
    ids.push_back(hub.register_app("app-" + std::to_string(i), {1.0, 50.0}));
  }
  for (int r = 0; r < 10; ++r) {
    clock->advance(10 * kNsPerMs);
    for (const AppId id : ids) hub.beat(id);
  }

  const auto held = hub.snapshot();
  const FleetCopy copy(*held);
  std::uint64_t last_epoch = held->epoch();
  // 120 publishes of every kind of change; each one frees the fleet view
  // before it, so both shards recycle their buffers all the while.
  for (int p = 0; p < 120; ++p) {
    clock->advance(kNsPerMs);
    const auto k = static_cast<std::size_t>(p);
    hub.beat(ids[k % ids.size()]);
    if (p % 10 == 0) {
      ids.push_back(hub.register_app("late-" + std::to_string(p), {2.0, 3.0}));
    }
    if (p % 7 == 0) hub.set_target(ids[k % 6], {static_cast<double>(p), 1e3});
    if (p % 13 == 0) hub.evict(ids[(k + 1) % 6]);
    const auto snap = hub.snapshot();
    EXPECT_GT(snap->epoch(), last_epoch);
    last_epoch = snap->epoch();
  }
  copy.expect_matches(*held);
  EXPECT_EQ(held->app_count(), 6u);
}

TEST(SnapshotRecycling, PublishesReuseAReturnedBuffer) {
  auto clock = std::make_shared<util::ManualClock>();
  HubShard shard(0, {.window_capacity = 8, .clock = clock});
  shard.add_app("a", {});

  // Nobody but the shard holds a snapshot: the one a publish replaces
  // goes back to the shard, and the publish after takes it.
  const ShardSnapshot* first = shard.publish().get();
  clock->advance(1);
  const ShardSnapshot* second = shard.publish().get();
  EXPECT_NE(second, first);
  for (int k = 0; k < 10; ++k) {
    clock->advance(1);
    EXPECT_EQ(shard.publish().get(), k % 2 == 0 ? first : second);
  }

  // A held snapshot is never reused while it is held, and once let go it
  // is reused again.
  clock->advance(1);
  auto held = shard.publish();
  const ShardSnapshot* held_at = held.get();
  for (int k = 0; k < 10; ++k) {
    clock->advance(1);
    EXPECT_NE(shard.publish().get(), held_at);
  }
  EXPECT_EQ(held->epoch, 13u);
  held.reset();
  bool reused = false;
  for (int k = 0; k < 3; ++k) {
    clock->advance(1);
    reused = reused || shard.publish().get() == held_at;
  }
  EXPECT_TRUE(reused);
}

TEST(SnapshotRecycling, AGrownBufferNamesItsNewSlots) {
  auto clock = std::make_shared<util::ManualClock>();
  HubShard shard(3, {.window_capacity = 8, .clock = clock});
  shard.add_app("a", {1.0, 2.0});
  const ShardSnapshot* one_app = shard.publish().get();
  clock->advance(1);
  shard.publish();  // one_app goes back to the shard

  // The next publish reuses the one-slot buffer for two slots, then three.
  shard.add_app("b", {3.0, 4.0});
  clock->advance(1);
  auto snap = shard.publish();
  ASSERT_EQ(snap.get(), one_app);
  ASSERT_EQ(snap->apps.size(), 2u);
  EXPECT_EQ(snap->apps[0].name, "a");
  EXPECT_EQ(snap->apps[1].name, "b");
  EXPECT_EQ(snap->apps[1].id, make_app_id(3, 1));
  EXPECT_DOUBLE_EQ(snap->apps[1].target.min_bps, 3.0);
  snap.reset();
  clock->advance(1);
  shard.publish();

  shard.add_app("c", {});
  clock->advance(1);
  snap = shard.publish();
  ASSERT_EQ(snap.get(), one_app);
  ASSERT_EQ(snap->apps.size(), 3u);
  EXPECT_EQ(snap->apps[0].name, "a");
  EXPECT_EQ(snap->apps[1].name, "b");
  EXPECT_EQ(snap->apps[2].name, "c");
  EXPECT_EQ(snap->apps[2].id, make_app_id(3, 2));
}

TEST(SnapshotRecycling, ASnapshotMayOutliveItsHub) {
  // The spare pool lives as long as its last snapshot: freeing one after
  // its hub is gone must neither touch freed memory nor leak (CI runs
  // this suite under ASan).
  std::shared_ptr<const FleetSnapshot> fleet;
  std::shared_ptr<const ShardSnapshot> shard_snap;
  {
    auto clock = std::make_shared<util::ManualClock>();
    HeartbeatHub hub(manual_hub_opts(clock, /*shards=*/2));
    const AppId id = hub.register_app("survivor");
    for (int k = 0; k < 5; ++k) {  // leave spares in both pools
      clock->advance(kNsPerMs);
      hub.beat(id);
      hub.snapshot();
    }
    fleet = hub.snapshot();
    shard_snap = hub.shard(app_id_shard(id)).published();
  }
  EXPECT_EQ(total_beats(*fleet), 5u);
  EXPECT_EQ(shard_snap->apps.at(0).name, "survivor");
  fleet.reset();
  EXPECT_EQ(shard_snap->apps.at(0).total_beats, 5u);
  shard_snap.reset();
}

}  // namespace
}  // namespace hb::hub
