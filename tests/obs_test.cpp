// The self-telemetry plane: metrics registry, trace ring, and the hub's
// own heartbeat (obs/ + HubOptions::self_beat).
#include <gtest/gtest.h>

#include <atomic>
#include <cstdio>
#include <string>
#include <thread>
#include <vector>

#include "fault/fleet_detector.hpp"
#include "hub/hub.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "util/clock.hpp"

namespace hb {
namespace {

// Every test uses its own registry instance (not the global one) so tests
// stay order-independent; the global registry accumulates from the library
// instrument sites exercised by other suites in this binary.

TEST(MetricsRegistry, CounterGaugeHistogramRoundTrip) {
  obs::MetricsRegistry reg;
  reg.counter("t.counter").add(3);
  reg.counter("t.counter").add();  // default increment of 1
  reg.gauge("t.gauge").set(-7);
  reg.gauge("t.gauge").add(2);
  for (std::uint64_t v = 1; v <= 100; ++v) reg.histogram("t.hist").record(v);

  const obs::MetricsSnapshot snap = reg.snapshot();
  ASSERT_EQ(snap.metrics.size(), 3u);

  const obs::MetricValue* c = snap.find("t.counter");
  ASSERT_NE(c, nullptr);
  EXPECT_EQ(c->kind, obs::MetricValue::Kind::kCounter);
  EXPECT_EQ(c->count, 4u);

  const obs::MetricValue* g = snap.find("t.gauge");
  ASSERT_NE(g, nullptr);
  EXPECT_EQ(g->kind, obs::MetricValue::Kind::kGauge);
  EXPECT_EQ(g->gauge, -5);

  const obs::MetricValue* h = snap.find("t.hist");
  ASSERT_NE(h, nullptr);
  EXPECT_EQ(h->kind, obs::MetricValue::Kind::kHistogram);
  EXPECT_EQ(h->count, 100u);
  EXPECT_EQ(h->min, 1u);
  EXPECT_EQ(h->max, 100u);
  EXPECT_GE(h->p95, 90u);

  EXPECT_EQ(snap.find("t.absent"), nullptr);
}

TEST(MetricsRegistry, GetOrCreateReturnsTheSameCell) {
  obs::MetricsRegistry reg;
  obs::Counter& a = reg.counter("t.same");
  obs::Counter& b = reg.counter("t.same");
  EXPECT_EQ(&a, &b);
  EXPECT_EQ(reg.size(), 1u);
}

TEST(MetricsRegistry, KindMismatchThrows) {
  obs::MetricsRegistry reg;
  reg.counter("t.kind");
  EXPECT_THROW(reg.gauge("t.kind"), std::logic_error);
  EXPECT_THROW(reg.histogram("t.kind"), std::logic_error);
}

TEST(MetricsRegistry, SnapshotIsSortedAndEpochAdvances) {
  obs::MetricsRegistry reg;
  reg.counter("t.zebra");
  reg.counter("t.alpha");
  reg.counter("t.mid");
  const obs::MetricsSnapshot s1 = reg.snapshot();
  ASSERT_EQ(s1.metrics.size(), 3u);
  for (std::size_t i = 1; i < s1.metrics.size(); ++i) {
    EXPECT_LT(s1.metrics[i - 1].name, s1.metrics[i].name);
  }
  const obs::MetricsSnapshot s2 = reg.snapshot();
  EXPECT_GT(s2.epoch, s1.epoch);
}

TEST(MetricsRegistry, ConcurrentCountersAreExact) {
  obs::MetricsRegistry reg;
  constexpr int kThreads = 8;
  constexpr std::uint64_t kAddsPerThread = 100000;

  std::atomic<bool> stop{false};
  // A reader composing snapshots concurrently with the writers: snapshots
  // must always be internally sane (never exceed the final total).
  std::thread reader([&] {
    while (!stop.load(std::memory_order_acquire)) {
      const obs::MetricsSnapshot snap = reg.snapshot();
      if (const obs::MetricValue* v = snap.find("t.conc")) {
        EXPECT_LE(v->count, kThreads * kAddsPerThread);
      }
    }
  });

  std::vector<std::thread> writers;
  writers.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    writers.emplace_back([&reg] {
      obs::Counter& c = reg.counter("t.conc");  // resolve once, like call sites
      for (std::uint64_t i = 0; i < kAddsPerThread; ++i) c.add();
    });
  }
  for (auto& w : writers) w.join();
  stop.store(true, std::memory_order_release);
  reader.join();

  EXPECT_EQ(reg.counter("t.conc").value(), kThreads * kAddsPerThread);
}

TEST(MetricsRegistry, ShardMergeConservesCountsAcrossCells) {
  // The composition walk (snapshot) sums each counter's thread-sharded
  // slots. Conservation check: writers split a known total across two
  // counters from many threads; every merged snapshot taken AFTER the
  // writers quiesce reports the exact split — nothing lost to a slot the
  // walk missed, nothing double-counted by reading a slot twice.
  obs::MetricsRegistry reg;
  constexpr int kThreads = 8;
  constexpr std::uint64_t kAddsPerThread = 50000;
  std::vector<std::thread> writers;
  writers.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    writers.emplace_back([&reg, t] {
      obs::Counter& even = reg.counter("t.merge.even");
      obs::Counter& odd = reg.counter("t.merge.odd");
      for (std::uint64_t i = 0; i < kAddsPerThread; ++i) {
        ((i + static_cast<std::uint64_t>(t)) % 2 == 0 ? even : odd).add();
      }
    });
  }
  for (auto& w : writers) w.join();

  const obs::MetricsSnapshot s1 = reg.snapshot();
  const obs::MetricsSnapshot s2 = reg.snapshot();  // idempotent re-merge
  for (const obs::MetricsSnapshot* s : {&s1, &s2}) {
    const obs::MetricValue* even = s->find("t.merge.even");
    const obs::MetricValue* odd = s->find("t.merge.odd");
    ASSERT_NE(even, nullptr);
    ASSERT_NE(odd, nullptr);
    EXPECT_EQ(even->count, kThreads * kAddsPerThread / 2);
    EXPECT_EQ(odd->count, kThreads * kAddsPerThread / 2);
    EXPECT_EQ(even->count + odd->count, kThreads * kAddsPerThread);
  }
}

TEST(MetricsRegistry, HistogramMergesWithoutDoubleCounting) {
  obs::MetricsRegistry reg;
  constexpr int kThreads = 4;
  constexpr std::uint64_t kRecordsPerThread = 25000;

  std::atomic<bool> stop{false};
  // Snapshots composed mid-write must never OVERSHOOT the true total — a
  // merge that read a sample into two buckets would.
  std::thread reader([&] {
    while (!stop.load(std::memory_order_acquire)) {
      const obs::MetricsSnapshot snap = reg.snapshot();
      if (const obs::MetricValue* v = snap.find("t.merge.hist")) {
        EXPECT_LE(v->count, kThreads * kRecordsPerThread);
      }
    }
  });
  std::vector<std::thread> writers;
  writers.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    writers.emplace_back([&reg] {
      obs::Histogram& h = reg.histogram("t.merge.hist");
      for (std::uint64_t i = 1; i <= kRecordsPerThread; ++i) h.record(i);
    });
  }
  for (auto& w : writers) w.join();
  stop.store(true, std::memory_order_release);
  reader.join();

  const obs::MetricsSnapshot s1 = reg.snapshot();
  const obs::MetricsSnapshot s2 = reg.snapshot();
  for (const obs::MetricsSnapshot* s : {&s1, &s2}) {
    const obs::MetricValue* h = s->find("t.merge.hist");
    ASSERT_NE(h, nullptr);
    EXPECT_EQ(h->count, kThreads * kRecordsPerThread);  // exact, both reads
    EXPECT_EQ(h->min, 1u);
    EXPECT_EQ(h->max, kRecordsPerThread);
  }
}

TEST(MetricsSnapshot, CarriesWallClockStamp) {
  obs::MetricsRegistry reg;
  const obs::MetricsSnapshot snap = reg.snapshot();
  // Unix-epoch nanoseconds: anything after 2020-01-01 is sane; zero would
  // mean the stamp was never taken.
  EXPECT_GT(snap.taken_at_wall_ns, 1577836800LL * 1000000000LL);
}

TEST(MetricsRegistry, RuntimeDisableFreezesCells) {
  obs::MetricsRegistry reg;
  obs::Counter& c = reg.counter("t.freeze");
  obs::Gauge& g = reg.gauge("t.freeze.gauge");
  obs::Histogram& h = reg.histogram("t.freeze.hist");
  c.add(5);
  g.set(5);
  h.record(5);

  obs::set_enabled(false);
  c.add(100);
  g.set(100);
  g.add(100);
  h.record(100);
  obs::set_enabled(true);  // restore for the rest of the binary

  EXPECT_EQ(c.value(), 5u);
  EXPECT_EQ(g.value(), 5);
  EXPECT_EQ(h.read().count(), 1u);

  c.add(1);  // resumes after re-enable
  EXPECT_EQ(c.value(), 6u);
}

TEST(TraceRing, RecordsAndSnapshotsSpans) {
  obs::TraceRing ring(64);
  for (std::uint64_t i = 0; i < 10; ++i) {
    obs::SpanRecord rec;
    rec.name = "test.span";
    rec.start_ns = 100 * i;
    rec.end_ns = 100 * i + 50;
    rec.tid = 1;
    rec.arg = i;
    ring.record(rec);
  }
  EXPECT_EQ(ring.recorded(), 10u);
  const std::vector<obs::SpanRecord> spans = ring.snapshot();
  ASSERT_EQ(spans.size(), 10u);
  for (std::size_t i = 0; i < spans.size(); ++i) {
    EXPECT_STREQ(spans[i].name, "test.span");
    EXPECT_EQ(spans[i].arg, i);
  }
}

TEST(TraceRing, WrapKeepsTheFreshestWindowWithoutTearing) {
  obs::TraceRing ring(64);
  ASSERT_EQ(ring.capacity(), 64u);
  // Payload invariant per span: end = start + 1, arg = start. A torn read
  // would break it.
  for (std::uint64_t i = 0; i < 1000; ++i) {
    obs::SpanRecord rec;
    rec.name = "wrap";
    rec.start_ns = i;
    rec.end_ns = i + 1;
    rec.arg = i;
    ring.record(rec);
  }
  const std::vector<obs::SpanRecord> spans = ring.snapshot();
  EXPECT_LE(spans.size(), ring.capacity());
  EXPECT_FALSE(spans.empty());
  for (const obs::SpanRecord& s : spans) {
    EXPECT_GE(s.start_ns, 1000u - 64u);  // only the freshest window survives
    EXPECT_EQ(s.end_ns, s.start_ns + 1);
    EXPECT_EQ(s.arg, static_cast<std::uint64_t>(s.start_ns));
  }
}

TEST(TraceRing, ConcurrentWritersNeverTearAReader) {
  obs::TraceRing ring(128);
  std::atomic<bool> stop{false};
  std::thread reader([&] {
    while (!stop.load(std::memory_order_acquire)) {
      for (const obs::SpanRecord& s : ring.snapshot()) {
        // Same invariant as above, now against live writers.
        ASSERT_EQ(s.end_ns, s.start_ns + 1);
        ASSERT_EQ(s.arg, static_cast<std::uint64_t>(s.start_ns));
      }
    }
  });
  std::vector<std::thread> writers;
  for (int t = 0; t < 4; ++t) {
    writers.emplace_back([&ring, t] {
      for (std::uint64_t i = 0; i < 50000; ++i) {
        obs::SpanRecord rec;
        rec.name = "conc";
        rec.start_ns = t * 1000000 + i;
        rec.end_ns = rec.start_ns + 1;
        rec.arg = static_cast<std::uint64_t>(rec.start_ns);
        ring.record(rec);
      }
    });
  }
  for (auto& w : writers) w.join();
  stop.store(true, std::memory_order_release);
  reader.join();
  EXPECT_EQ(ring.recorded(), 4u * 50000u);
  // Post-join accounting: with writers quiescent nothing is in flight, so
  // the skip counter must read zero and the full window must survive.
  std::uint64_t skipped = 99;
  EXPECT_EQ(ring.snapshot(&skipped).size(), ring.capacity());
  EXPECT_EQ(skipped, 0u);
}

TEST(TraceRing, SnapshotAccountsForEverySlotUnderWriters) {
  obs::TraceRing ring(64);
  std::atomic<bool> stop{false};
  std::thread writer([&] {
    std::uint64_t i = 0;
    while (!stop.load(std::memory_order_acquire)) {
      obs::SpanRecord rec;
      rec.name = "acct";
      rec.start_ns = i;
      rec.end_ns = i + 1;
      ring.record(rec);
      ++i;
    }
  });
  // Every slot the snapshot walks either yields an untorn span or counts
  // as skipped — slots never silently vanish and never emit torn halves.
  for (int round = 0; round < 2000; ++round) {
    std::uint64_t skipped = 0;
    const std::vector<obs::SpanRecord> spans = ring.snapshot(&skipped);
    ASSERT_LE(spans.size() + skipped, ring.capacity());
    for (const obs::SpanRecord& s : spans) {
      ASSERT_EQ(s.end_ns, s.start_ns + 1);
    }
  }
  stop.store(true, std::memory_order_release);
  writer.join();
}

TEST(TraceRing, ExportsChromeTraceJson) {
  obs::TraceRing ring(16);
  obs::SpanRecord rec;
  rec.name = "json.span";
  rec.start_ns = 1000;
  rec.end_ns = 3500;
  rec.tid = 42;
  rec.arg = 9;
  ring.record(rec);

  std::FILE* f = std::tmpfile();
  ASSERT_NE(f, nullptr);
  ring.export_chrome_json(f);
  std::rewind(f);
  std::string out;
  char buf[256];
  std::size_t n;
  while ((n = std::fread(buf, 1, sizeof(buf), f)) > 0) out.append(buf, n);
  std::fclose(f);

  // Object form: the event array under "traceEvents" (what Chrome and
  // Perfetto load) plus the export accounting footer under "otherData".
  EXPECT_EQ(out.front(), '{');
  EXPECT_NE(out.find("\"traceEvents\":["), std::string::npos);
  EXPECT_NE(out.find("\"name\":\"json.span\""), std::string::npos);
  EXPECT_NE(out.find("\"ph\":\"X\""), std::string::npos);
  EXPECT_NE(out.find("\"tid\":42"), std::string::npos);
  EXPECT_NE(out.find("\"dur\":2.500"), std::string::npos);  // 2500 ns = 2.5 us
  EXPECT_NE(out.find("\"otherData\":{\"recorded\":1,\"exported\":1,"
                     "\"skipped\":0}"),
            std::string::npos);
}

TEST(TraceRing, QuietRingSnapshotsWithNothingSkipped) {
  obs::TraceRing ring(32);
  for (std::uint64_t i = 0; i < 8; ++i) {
    obs::SpanRecord rec;
    rec.name = "quiet";
    rec.start_ns = i;
    rec.end_ns = i + 1;
    ring.record(rec);
  }
  std::uint64_t skipped = 99;
  EXPECT_EQ(ring.snapshot(&skipped).size(), 8u);
  EXPECT_EQ(skipped, 0u);  // no writer in flight: every slot reads clean
}

TEST(ObsSpan, RecordsIntoGlobalRingAndHistogram) {
  obs::MetricsRegistry reg;
  obs::Histogram& hist = reg.histogram("t.span_ns");
  const std::uint64_t before = obs::TraceRing::global().recorded();
  {
    obs::ObsSpan span("obs_test.scope", 7, &hist);
  }
  EXPECT_EQ(obs::TraceRing::global().recorded(), before + 1);
  EXPECT_EQ(hist.read().count(), 1u);
}

// ---------------------------------------------------------- hub self-beat

TEST(HubSelfBeat, OffByDefault) {
  hub::HeartbeatHub hub;
  EXPECT_FALSE(hub.self_beat_enabled());
  EXPECT_EQ(hub.app_count(), 0u);
  EXPECT_THROW(hub.self_app_id(), std::logic_error);
}

TEST(HubSelfBeat, RegistersSelfAndBeatsOnFlushAndRebuild) {
  auto clock = std::make_shared<util::ManualClock>(1);
  hub::HubOptions opts;
  opts.self_beat = true;
  opts.clock = clock;
  hub::HeartbeatHub hub(opts);

  EXPECT_TRUE(hub.self_beat_enabled());
  EXPECT_EQ(hub.app_count(), 1u);
  EXPECT_EQ(hub.id_of(std::string(hub::kSelfAppName)), hub.self_app_id());

  for (int i = 0; i < 6; ++i) {
    clock->advance(100'000'000);  // 100 ms cadence
    hub.flush();                  // each flush beats __hub/self
  }
  const auto snap = hub.snapshot();
  const hub::AppSummary* self = snap->find(hub.self_app_id());
  ASSERT_NE(self, nullptr);
  EXPECT_EQ(self->name, hub::kSelfAppName);
  EXPECT_GE(self->total_beats, 6u);
}

TEST(HubSelfBeat, StalledPublishLoopReadsAsDeadThenRevives) {
  auto clock = std::make_shared<util::ManualClock>(1);
  hub::HubOptions opts;
  opts.self_beat = true;
  opts.clock = clock;
  hub::HeartbeatHub hub(opts);

  fault::FleetDetector detector;  // min_beats=4, staleness_factor=8

  // Healthy steady state: beat via flush every 100 ms, then sweep.
  for (int i = 0; i < 8; ++i) {
    clock->advance(100'000'000);
    hub.flush();
  }
  fault::FleetReport report = detector.sweep(hub.snapshot());
  ASSERT_EQ(report.apps.size(), 1u);
  EXPECT_EQ(report.apps[0].name, hub::kSelfAppName);
  EXPECT_EQ(report.apps[0].health, fault::Health::kHealthy);

  // Stall the publish loop: the maintenance keeps running (flushes still
  // happen) but the self heartbeat stops — exactly what a wedged compose
  // path looks like from the outside.
  hub.set_self_beat_paused(true);
  clock->advance(10'000'000'000);  // 10 s of silence >> 8 * 100 ms
  hub.flush();
  report = detector.sweep(hub.snapshot());
  ASSERT_EQ(report.apps.size(), 1u);
  EXPECT_EQ(report.apps[0].health, fault::Health::kDead);
  ASSERT_EQ(report.fleet.dead_apps.size(), 1u);
  EXPECT_EQ(report.fleet.dead_apps[0], hub::kSelfAppName);

  // Recovery: resume beating; the next beats clear the staleness verdict
  // (the 10 s gap leaves the interval window jittery, so assert "not dead"
  // rather than a full return to kHealthy).
  hub.set_self_beat_paused(false);
  for (int i = 0; i < 4; ++i) {
    clock->advance(100'000'000);
    hub.flush();
  }
  report = detector.sweep(hub.snapshot());
  ASSERT_EQ(report.apps.size(), 1u);
  EXPECT_NE(report.apps[0].health, fault::Health::kDead);
}

TEST(HubSelfBeat, SelfBeatsSurfaceInTheGlobalRegistry) {
  auto& reg = obs::MetricsRegistry::global();
  const std::uint64_t before = reg.counter("hb.hub.self_beats").value();
  hub::HubOptions opts;
  opts.self_beat = true;
  hub::HeartbeatHub hub(opts);
  hub.flush();
  hub.flush();
  EXPECT_GE(reg.counter("hb.hub.self_beats").value(), before + 2);
}

}  // namespace
}  // namespace hb
