// The fleet-history plane: FlightRecorder retention/decay semantics,
// PostmortemSink trigger/cooldown/budget/atomic-write behavior, and the
// seed-42 rack_kill goldens that pin the deterministic capture surface
// (bundle bytes and rendered timeline) across runs and sanitizer tiers.
#include <gtest/gtest.h>

#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "fault/fleet_detector.hpp"
#include "obs/flight_recorder.hpp"
#include "obs/metrics.hpp"
#include "obs/postmortem.hpp"
#include "policy/policy_engine.hpp"
#include "sim/scenario.hpp"
#include "util/time.hpp"

#ifndef HB_TEST_DATA_DIR
#define HB_TEST_DATA_DIR "tests"
#endif

namespace hb {
namespace {

namespace fs = std::filesystem;
using util::kNsPerSec;

std::shared_ptr<fault::FleetReport> make_report(util::TimeNs at_ns,
                                                std::uint64_t epoch,
                                                std::uint64_t healthy = 2) {
  auto r = std::make_shared<fault::FleetReport>();
  r->snapshot_epoch = epoch;
  r->fleet.swept_at_ns = at_ns;
  r->fleet.apps = healthy;
  r->fleet.healthy = healthy;
  return r;
}

policy::FleetEvent death_event(util::TimeNs at_ns, std::string app) {
  policy::FleetEvent e;
  e.kind = policy::EventKind::kTransition;
  e.at_ns = at_ns;
  e.app = std::move(app);
  e.from_health = fault::Health::kHealthy;
  e.to_health = fault::Health::kDead;
  return e;
}

// A scratch directory per test, wiped on entry so reruns start clean.
std::string scratch_dir(const std::string& name) {
  const fs::path dir = fs::path(::testing::TempDir()) / ("hb_fr_" + name);
  fs::remove_all(dir);
  return dir.string();
}

std::string slurp(const fs::path& path) {
  std::ifstream f(path, std::ios::binary);
  std::ostringstream buf;
  buf << f.rdbuf();
  return buf.str();
}

// ------------------------------------------------------- FlightRecorder

TEST(FlightRecorder, FirstSweepCutsThenFineIntervalSubsamples) {
  obs::FlightRecorder rec;  // fine interval 1 s
  for (int i = 0; i < 10; ++i) {
    // Sweeps every 500 ms: the first cuts, then every OTHER one does.
    rec.record_report(make_report(i * kNsPerSec / 2, 10 + i));
  }
  const auto stats = rec.stats();
  EXPECT_EQ(stats.reports_recorded, 10u);
  EXPECT_EQ(stats.frames_cut, 5u);  // t=0, 1, 2, 3, 4 s
  const auto frames = rec.timeline();
  ASSERT_EQ(frames.size(), 5u);
  for (std::size_t i = 0; i < frames.size(); ++i) {
    EXPECT_EQ(frames[i]->seq, i);
    EXPECT_EQ(frames[i]->at_ns, static_cast<util::TimeNs>(i) * kNsPerSec);
  }
  // last_report() is always the newest sweep, framed or not.
  ASSERT_NE(rec.last_report(), nullptr);
  EXPECT_EQ(rec.last_report()->fleet.swept_at_ns, 9 * kNsPerSec / 2);
}

TEST(FlightRecorder, PendingEventsForceACutAndRideTheNextFrame) {
  obs::FlightRecorder rec;
  rec.record_report(make_report(0, 1));  // frame 0
  rec.record_event(death_event(100, "vm-1"));
  EXPECT_EQ(rec.pending_events().size(), 1u);
  // 200 ms after the last cut — far inside the fine interval, but the
  // buffered edge forces the cut anyway.
  rec.record_report(make_report(kNsPerSec / 5, 2));
  EXPECT_TRUE(rec.pending_events().empty());
  const auto frames = rec.timeline();
  ASSERT_EQ(frames.size(), 2u);
  EXPECT_TRUE(frames[0]->events.empty());
  ASSERT_EQ(frames[1]->events.size(), 1u);
  EXPECT_EQ(frames[1]->events[0].app, "vm-1");
}

TEST(FlightRecorder, AgedFramesDecayOntoTheCoarseGrid) {
  obs::FlightRecorder rec;
  // One sweep per fine interval for the fine window plus ten coarse
  // intervals more than the coarse ring holds. The recorder reads no
  // clock, so made-up stamps drive the default tiers cheaply.
  constexpr util::TimeNs kSpan =
      obs::kFineWindowNs +
      static_cast<util::TimeNs>(obs::kMaxCoarseFrames + 10) *
          obs::kCoarseIntervalNs;
  constexpr auto kSweeps =
      static_cast<std::uint64_t>(kSpan / obs::kFineIntervalNs) + 1;
  for (std::uint64_t i = 0; i < kSweeps; ++i) {
    rec.record_report(make_report(
        static_cast<util::TimeNs>(i) * obs::kFineIntervalNs, 100 + i));
  }
  const auto stats = rec.stats();
  EXPECT_EQ(stats.frames_cut, kSweeps);
  // Fine ring: the window behind the newest frame, plus the frame AT the
  // horizon.
  EXPECT_EQ(stats.fine_frames,
            static_cast<std::uint64_t>(obs::kFineWindowNs /
                                       obs::kFineIntervalNs) + 1);
  // Coarse ring: the coarse grid, capped; the rest dropped.
  EXPECT_EQ(stats.coarse_frames, obs::kMaxCoarseFrames);
  EXPECT_EQ(stats.frames_dropped,
            stats.frames_cut - stats.fine_frames - stats.coarse_frames);
  // Oldest-first and strictly ordered across the coarse->fine seam; the
  // fine part spans exactly the fine window.
  const auto frames = rec.timeline();
  ASSERT_EQ(frames.size(), stats.fine_frames + stats.coarse_frames);
  for (std::size_t i = 1; i < frames.size(); ++i) {
    EXPECT_LT(frames[i - 1]->at_ns, frames[i]->at_ns);
  }
  EXPECT_EQ(frames.back()->at_ns - frames[obs::kMaxCoarseFrames]->at_ns,
            obs::kFineWindowNs);
}

TEST(FlightRecorder, EventFramesSurviveDecayOffGrid) {
  obs::FlightRecorder rec;
  rec.record_report(make_report(0, 1));  // occupies the coarse grid slot
  rec.record_event(death_event(3 * kNsPerSec, "vm-7"));
  rec.record_report(make_report(3 * kNsPerSec, 2));  // event frame, off-grid
  // Sweeps every 10 s until both frames are well past the fine window.
  for (int i = 1; i <= 40; ++i) {
    rec.record_report(make_report(i * 10 * kNsPerSec, 10 + i));
  }
  static_assert(3 * kNsPerSec < obs::kCoarseIntervalNs);
  static_assert(400 * kNsPerSec - obs::kFineWindowNs > 3 * kNsPerSec);
  // Off-grid frames without events were dropped; the off-grid event frame
  // was demoted, not dropped.
  EXPECT_GT(rec.stats().frames_dropped, 0u);
  bool found = false;
  for (const auto& f : rec.timeline()) {
    if (!f->events.empty()) {
      found = true;
      EXPECT_EQ(f->at_ns, 3 * kNsPerSec);
    }
  }
  EXPECT_TRUE(found);
}

TEST(FlightRecorder, TimelineRangeQueryFilters) {
  obs::FlightRecorder rec;
  for (int i = 0; i < 10; ++i) {
    rec.record_report(make_report(i * kNsPerSec, i));
  }
  EXPECT_EQ(rec.timeline().size(), 10u);
  EXPECT_EQ(rec.timeline(3 * kNsPerSec).size(), 7u);
  EXPECT_EQ(rec.timeline(3 * kNsPerSec, 5 * kNsPerSec).size(), 3u);
  EXPECT_TRUE(rec.timeline(99 * kNsPerSec).empty());
}

TEST(FlightRecorder, NotePublishLandsInTheNextFrame) {
  obs::FlightRecorder rec;
  rec.note_publish();
  rec.note_publish();
  rec.record_report(make_report(kNsPerSec, 8));
  const auto frames = rec.timeline();
  ASSERT_EQ(frames.size(), 1u);
  EXPECT_EQ(frames[0]->publishes, 2u);
  EXPECT_EQ(rec.stats().publishes_noted, 2u);
}

TEST(FlightRecorder, KillSwitchMakesEveryRecordPathANoOp) {
  obs::FlightRecorder rec;
  rec.record_report(make_report(0, 1));
  obs::set_enabled(false);
  rec.record_report(make_report(5 * kNsPerSec, 2));
  rec.record_event(death_event(5 * kNsPerSec, "vm-1"));
  rec.note_publish();
  obs::set_enabled(true);  // restore for the rest of the binary

  const auto stats = rec.stats();
  EXPECT_EQ(stats.frames_cut, 1u);
  EXPECT_EQ(stats.reports_recorded, 1u);
  EXPECT_EQ(stats.events_recorded, 0u);
  EXPECT_EQ(stats.publishes_noted, 0u);
  EXPECT_TRUE(rec.pending_events().empty());
  ASSERT_NE(rec.last_report(), nullptr);
  EXPECT_EQ(rec.last_report()->fleet.swept_at_ns, 0);  // frozen at disable
}

TEST(FlightRecorder, EventSinkFeedsRecordEvent) {
  obs::FlightRecorder rec;
  policy::PolicyEngine engine;
  const auto sink = rec.event_sink();
  sink->on_event(engine, death_event(42, "vm-3"));
  ASSERT_EQ(rec.pending_events().size(), 1u);
  EXPECT_EQ(rec.pending_events()[0].app, "vm-3");
}

TEST(FlightRecorder, TimelineJsonEscapesUntrustedAppNames) {
  // A ring name is any bytes but NUL; the timeline must stay valid JSON.
  obs::FlightRecorder rec;
  rec.record_event(death_event(kNsPerSec, "evil\nname\x01\"q\\"));
  rec.record_report(make_report(kNsPerSec, 1));
  const std::string json = obs::render_timeline_json(rec.timeline());
  // Between the array's own line breaks, no raw byte below 0x20.
  const std::string body = json.substr(2, json.size() - 5);
  ASSERT_EQ(json.substr(0, 2), "[\n");
  ASSERT_EQ(json.substr(json.size() - 3), "\n]\n");
  for (const char c : body) {
    EXPECT_GE(static_cast<unsigned char>(c), 0x20) << json;
  }
  EXPECT_NE(json.find("evil\\nname\\u0001\\\"q\\\\"), std::string::npos)
      << json;
}

TEST(FlightRecorder, JsonEscapesIllFormedUtf8ByteByByte) {
  // Ring names need not be UTF-8. Well-formed sequences pass through as
  // they are; each byte of an ill-formed one becomes \u00XX, so a strict
  // JSON reader can still load the timeline and the bundle.
  const auto esc = [](std::string_view s) {
    std::string out;
    obs::append_json_escaped(out, s);
    return out;
  };
  EXPECT_EQ(esc("bad\xff"), "bad\\u00ff");
  EXPECT_EQ(esc("caf\xc3\xa9 \xe2\x82\xac \xf0\x9f\x92\x93"),
            "caf\xc3\xa9 \xe2\x82\xac \xf0\x9f\x92\x93");
  EXPECT_EQ(esc("\xe2\x82"), "\\u00e2\\u0082");          // truncated
  EXPECT_EQ(esc("\xc0\xaf"), "\\u00c0\\u00af");          // overlong '/'
  EXPECT_EQ(esc("\xed\xa0\x80"), "\\u00ed\\u00a0\\u0080");  // surrogate
  EXPECT_EQ(esc("\xf4\x90\x80\x80"),  // past U+10FFFF
            "\\u00f4\\u0090\\u0080\\u0080");
  EXPECT_EQ(esc("\x80x"), "\\u0080x");  // stray continuation byte

  obs::FlightRecorder rec;
  rec.record_event(death_event(kNsPerSec, "bad\xff"));
  rec.record_report(make_report(kNsPerSec, 1));
  const std::string json = obs::render_timeline_json(rec.timeline());
  EXPECT_NE(json.find("bad\\u00ff"), std::string::npos) << json;
  for (const char c : json) {
    EXPECT_LT(static_cast<unsigned char>(c), 0x80) << json;
  }
}

// -------------------------------------------------------- PostmortemSink

TEST(PostmortemSink, TriggerSetIsDeathQuarantineAndCorrelated) {
  policy::FleetEvent e = death_event(0, "vm-1");
  EXPECT_TRUE(obs::PostmortemSink::should_trigger(e));
  e.to_health = fault::Health::kSlow;  // a degradation, not an incident
  EXPECT_FALSE(obs::PostmortemSink::should_trigger(e));
  e.kind = policy::EventKind::kQuarantine;
  EXPECT_TRUE(obs::PostmortemSink::should_trigger(e));
  e.kind = policy::EventKind::kQuarantineLifted;
  EXPECT_FALSE(obs::PostmortemSink::should_trigger(e));
  e.kind = policy::EventKind::kCorrelatedFailure;
  EXPECT_TRUE(obs::PostmortemSink::should_trigger(e));
}

TEST(PostmortemSink, DeterministicBundleIds) {
  policy::FleetEvent e = death_event(0, "rack2/vm-5");
  EXPECT_EQ(obs::postmortem_id(e, 1), "pm-001-transition-rack2_vm-5");
  e.kind = policy::EventKind::kCorrelatedFailure;
  e.group = "rack2";
  EXPECT_EQ(obs::postmortem_id(e, 12), "pm-012-correlated-failure-rack2");
}

TEST(PostmortemSink, FirstTriggerCapturesImmediately) {
  // Regression: the sentinel init of the cooldown anchor must not swallow
  // the very first incident (a wrapped subtraction once did).
  auto rec = std::make_shared<obs::FlightRecorder>();
  rec->record_report(make_report(10 * kNsPerSec, 5));
  obs::PostmortemOptions opts;
  opts.dir = scratch_dir("first_trigger");
  obs::PostmortemSink sink(rec, opts);
  policy::PolicyEngine engine;
  sink.on_event(engine, death_event(10 * kNsPerSec, "vm-1"));
  EXPECT_EQ(sink.stats().captured, 1u);
  EXPECT_EQ(sink.stats().suppressed_cooldown, 0u);
  EXPECT_TRUE(fs::is_regular_file(sink.last_bundle_path()));
}

TEST(PostmortemSink, BundleIsSelfContainedJson) {
  auto rec = std::make_shared<obs::FlightRecorder>();
  const auto report = make_report(10 * kNsPerSec, 5, /*healthy=*/1);
  fault::AppHealth app;
  app.name = "vm-1";
  app.health = fault::Health::kDead;
  app.staleness_ns = 2500 * util::kNsPerMs;
  app.total_beats = 66;
  report->apps.push_back(app);
  rec->record_report(report);

  obs::PostmortemOptions opts;
  opts.dir = scratch_dir("bundle_json");
  opts.source = "flight_recorder_test";
  obs::PostmortemSink sink(rec, opts);
  policy::PolicyEngine engine;
  sink.on_event(engine, death_event(10 * kNsPerSec, "vm-1"));
  ASSERT_EQ(sink.stats().captured, 1u);

  const std::string text = slurp(sink.last_bundle_path());
  EXPECT_NE(text.find("\"schema\":\"hb.postmortem.v1\""), std::string::npos);
  EXPECT_NE(text.find("\"source\":\"flight_recorder_test\""),
            std::string::npos);
  EXPECT_NE(text.find("\"kind\":\"transition\""), std::string::npos);
  // The implicated app's summary came from the triggering report.
  EXPECT_NE(text.find("\"app\":\"vm-1\",\"health\":\"dead\","
                      "\"staleness_ms\":2500,\"total_beats\":66"),
            std::string::npos);
  // Atomic write: no temp residue next to the bundle.
  for (const auto& entry : fs::directory_iterator(opts.dir)) {
    EXPECT_EQ(entry.path().extension(), ".json") << entry.path();
  }
}

TEST(PostmortemSink, CooldownAndBudgetBoundCaptures) {
  auto rec = std::make_shared<obs::FlightRecorder>();
  rec->record_report(make_report(0, 1));
  obs::PostmortemOptions opts;
  opts.dir = scratch_dir("cooldown");
  obs::PostmortemSink sink(rec, opts);
  policy::PolicyEngine engine;
  static_assert(obs::kPostmortemCooldownNs == 10 * kNsPerSec);

  sink.on_event(engine, death_event(0, "vm-0"));              // captured (#1)
  sink.on_event(engine, death_event(4 * kNsPerSec, "vm-a"));  // cooldown
  sink.on_event(engine, death_event(9 * kNsPerSec, "vm-b"));  // cooldown
  // Sixteen more, each spaced past the cooldown: #2..#16 are captured and
  // the last finds the budget spent.
  for (std::size_t i = 1; i <= obs::kPostmortemMaxBundles; ++i) {
    const auto at = static_cast<util::TimeNs>(i) * 12 * kNsPerSec;
    sink.on_event(engine, death_event(at, "vm-" + std::to_string(i)));
  }

  const auto& stats = sink.stats();
  EXPECT_EQ(stats.triggers, 19u);
  EXPECT_EQ(stats.captured, 16u);
  EXPECT_EQ(stats.suppressed_cooldown, 2u);
  EXPECT_EQ(stats.suppressed_budget, 1u);
  // Non-triggering events never count at all.
  policy::FleetEvent lift = death_event(400 * kNsPerSec, "vm-1");
  lift.kind = policy::EventKind::kQuarantineLifted;
  sink.on_event(engine, lift);
  EXPECT_EQ(sink.stats().triggers, 19u);
}

TEST(PostmortemSink, KillSwitchSuppressesCapture) {
  auto rec = std::make_shared<obs::FlightRecorder>();
  rec->record_report(make_report(0, 1));
  obs::PostmortemOptions opts;
  opts.dir = scratch_dir("killswitch");
  obs::PostmortemSink sink(rec, opts);
  policy::PolicyEngine engine;
  obs::set_enabled(false);
  sink.on_event(engine, death_event(0, "vm-1"));
  obs::set_enabled(true);
  EXPECT_EQ(sink.stats().triggers, 0u);
  EXPECT_EQ(sink.stats().captured, 0u);
  EXPECT_FALSE(fs::exists(opts.dir));  // not even the directory appears
}

// ------------------------------------------------- deterministic capture

// The golden surfaces: rack_kill seed 42 on the correctness machine. The
// scenario runs on a ManualClock and the recorder/bundle renderers emit
// integers (and to_line's fixed %.3f stamps) only, so these bytes must
// reproduce on every platform and sanitizer tier. Regenerate with
// HB_UPDATE_GOLDEN=1 (writes the source tree) and review the diff.
std::string golden_path(const std::string& file) {
  return std::string(HB_TEST_DATA_DIR) + "/golden/" + file;
}

void expect_matches_golden(const std::string& name, const std::string& got) {
  const std::string path = golden_path(name);
  if (std::getenv("HB_UPDATE_GOLDEN") != nullptr) {
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    ASSERT_TRUE(out.good()) << "cannot write " << path;
    out << got;
    return;
  }
  std::ifstream in(path, std::ios::binary);
  ASSERT_TRUE(in.good()) << "missing golden file " << path
                         << " — regenerate with HB_UPDATE_GOLDEN=1";
  std::ostringstream want;
  want << in.rdbuf();
  EXPECT_EQ(want.str(), got)
      << name << " diverged; if intended, regenerate with HB_UPDATE_GOLDEN=1";
}

TEST(PostmortemGolden, RackKillSeed42BundleIsByteStable) {
  const sim::ScenarioSpec* spec = sim::find_scenario("rack_kill");
  ASSERT_NE(spec, nullptr);
  const std::string dir = scratch_dir("golden_capture");
  sim::ScenarioRunner runner(*spec, spec->correctness, /*seed=*/42);
  runner.enable_capture(dir);
  const sim::ScenarioResult& res = runner.run();
  EXPECT_TRUE(res.ok());

  ASSERT_NE(runner.postmortem(), nullptr);
  EXPECT_EQ(runner.postmortem()->stats().captured, 1u);
  const fs::path bundle =
      fs::path(dir) / "pm-001-correlated-failure-rack4.json";
  ASSERT_TRUE(fs::is_regular_file(bundle));
  expect_matches_golden("postmortem_rack_kill.json", slurp(bundle));

  // And the same drill twice produces the same bytes (the in-run check of
  // what the committed golden asserts across machines).
  const std::string dir2 = scratch_dir("golden_capture2");
  sim::ScenarioRunner again(*spec, spec->correctness, /*seed=*/42);
  again.enable_capture(dir2);
  again.run();
  EXPECT_EQ(slurp(bundle), slurp(fs::path(dir2) / bundle.filename()));
}

TEST(PostmortemGolden, RackKillSeed42TimelineIsByteStable) {
  const sim::ScenarioSpec* spec = sim::find_scenario("rack_kill");
  ASSERT_NE(spec, nullptr);
  sim::ScenarioRunner runner(*spec, spec->correctness, /*seed=*/42);
  runner.run();
  ASSERT_NE(runner.recorder(), nullptr);
  const auto frames = runner.recorder()->timeline();
  ASSERT_FALSE(frames.empty());
  expect_matches_golden("timeline_rack_kill.txt",
                        obs::render_timeline_text(frames));
}

TEST(ScenarioCapture, EnableCaptureAfterRunThrows) {
  const sim::ScenarioSpec* spec = sim::find_scenario("rack_kill");
  ASSERT_NE(spec, nullptr);
  sim::ScenarioRunner runner(*spec, spec->correctness, /*seed=*/1);
  runner.run();
  EXPECT_THROW(runner.enable_capture("/tmp/nope"), std::logic_error);
}

}  // namespace
}  // namespace hb
