// ScenarioRunner: named, seeded, fully deterministic fleet drills.
//
// The paper's fault-tolerance story (Section 5.4) is a scripted drill: kill
// a core at known beats, watch the system adapt. At fleet scale the same
// discipline applies one level up — kill a rack, crash-loop a VM, partition
// and heal — but until now those drills lived ad-hoc inside policy_test.cpp
// and examples/self_healing_fleet.cpp, each re-implementing spinup and none
// reproducible bit-for-bit. A Scenario packages one drill as data:
//
//   - a SEED: all randomness (victim choice, fault-time jitter) flows from
//     one util::Rng seeded by (user seed ^ fnv1a64(scenario name)). Same
//     seed, same scenario => byte-identical run; different seeds diverge.
//   - a VIRTUAL CLOCK: the run advances a util::ManualClock in fixed dt
//     steps. No wall-clock read exists anywhere on the scenario path, so a
//     run is a pure function of (spec, config, seed) — on every machine,
//     every sanitizer, every year.
//   - a FAULT PLAN: fault::FleetFaultPlan scripts kills/restarts by sim
//     time; a per-step hook covers reactive faults (the flapper that
//     re-crashes until quarantined).
//   - a SCENARIO LOG: every injected fault, every policy::FleetEvent (in
//     its standard to_line form), and an end-of-run digest of
//     FleetHealth/PolicyStats/CloudRestartStats append to one text stream.
//     ScenarioLog::canonical_text() is the golden-file surface;
//     ScenarioLog::hash() (FNV-1a over that text) is the one-word replay
//     check.
//
// Each named scenario (sim/scenarios.cpp) declares TWO machine configs,
// after the BSG-style split: a CORRECTNESS machine (<= 100 apps, runs in
// ctest on every push, asserts invariants + goldens) and a PERF machine
// (thousands of apps, emits BENCH_scenarios.json so the perf trajectory is
// reviewable history). The spec's verify hook runs for both — invariants
// are written against the config, not against one fleet size.
//
// Determinism rules for scenario authors (docs/ARCHITECTURE.md):
//   1. draw ONLY from world.rng, in arrange order (never in verify);
//   2. quantize fault times that feed flap dynamics to the policy period
//     (kPolicyPeriodS, 0.5 s) — the quarantine race is sweep-phase-aligned,
//     and jitter off the grid changes outcomes, not just timestamps;
//   3. never iterate an unordered container into the log — sort first;
//   4. log integers and %.3f-second stamps only.
#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "cloud/cloud_sim.hpp"
#include "fault/fault_plan.hpp"
#include "fault/fleet_detector.hpp"
#include "obs/flight_recorder.hpp"
#include "obs/postmortem.hpp"
#include "policy/action_sink.hpp"
#include "policy/cloud_restart_sink.hpp"
#include "policy/monitor.hpp"
#include "policy/policy_engine.hpp"
#include "util/clock.hpp"
#include "util/rng.hpp"
#include "util/time.hpp"

namespace hb::sim {

/// One time grid, sweep cadence, VM demand and hub layout for every drill.
inline constexpr double kStepS = 0.1;  ///< step quantum (the sim's time grid)
inline constexpr double kPolicyPeriodS = 0.5;  ///< sweep cadence (flap grid!)
inline constexpr double kVmDemand = 4.0;  ///< service units/s per VM: 4 beats/s
inline constexpr std::size_t kHubShards = 16;

/// One machine config for a scenario (the correctness/perf split).
struct ScenarioConfig {
  int racks = 5;          ///< failure-domain groups; also CloudSim machines
  int vms_per_rack = 16;  ///< apps per group
  double duration_s = 60.0;  ///< simulated run length
  double target_min_bps = 2.0;    ///< registered heartbeat goal
  std::uint32_t restart_budget = 3;  ///< 0 = observe-only (no acting sink)

  int apps() const { return racks * vms_per_rack; }
};

/// The replayable text stream of one run. Append-only; canonical_text()
/// is the byte-exact golden surface, hash() its FNV-1a digest.
class ScenarioLog {
 public:
  /// Append "[<seconds>.xxxs] <text>" stamped from the virtual clock.
  void line(util::TimeNs at_ns, const std::string& text);
  /// Append a raw line (headers, digests, verdicts — no stamp).
  void raw(std::string text);

  const std::vector<std::string>& lines() const { return lines_; }
  /// All lines joined with '\n', trailing newline included.
  std::string canonical_text() const;
  /// FNV-1a64 of canonical_text() — the one-word replay check.
  std::uint64_t hash() const;

 private:
  std::vector<std::string> lines_;
};

/// What one run produced: the end-of-run digest plus the verdict. The
/// `facts` map carries scenario-specific observations (chosen victims,
/// kill counts) out to tests without widening this struct per scenario.
struct ScenarioResult {
  std::string name;
  std::uint64_t seed = 0;
  ScenarioConfig config;
  std::uint64_t steps = 0;
  int faults_injected = 0;
  std::size_t faults_pending = 0;  ///< plan events past duration_s
  fault::FleetHealth final_fleet;
  policy::PolicyStats policy;
  policy::CloudRestartStats restarts;  ///< zero when restart_budget == 0
  std::uint64_t log_hash = 0;
  std::map<std::string, std::string> facts;
  std::vector<std::string> violations;  ///< empty => verdict ok

  bool ok() const { return violations.empty(); }
};

/// The live world a spec's hooks see. Non-owning views into the runner;
/// valid during run() and — minus `rng` draws, which must stop once the
/// loop starts — from post-run accessors.
struct ScenarioWorld {
  const ScenarioConfig* config = nullptr;
  util::Rng* rng = nullptr;  ///< the ONLY allowed randomness
  util::ManualClock* clock = nullptr;  ///< the run's virtual clock
  cloud::CloudSim* sim = nullptr;
  policy::Monitor* monitor = nullptr;  ///< the policy loop (sim ticks it)
  policy::PolicyEngine* engine = nullptr;  ///< monitor->engine()
  policy::TestSink* events = nullptr;
  policy::CloudRestartSink* restarter = nullptr;  ///< null when budget == 0
  fault::FleetFaultPlan* plan = nullptr;
  ScenarioLog* log = nullptr;
  ScenarioResult* result = nullptr;  ///< for facts[] (not violations)

  /// [rack] -> CloudSim VM ids, rack-major spinup order.
  std::vector<std::vector<int>> rack_vms;

  std::string vm_name(int vm) const;  ///< "rack<R>/vm-<V>"
  std::string rack_name(int rack) const;
  double now_s() const { return sim->now_seconds(); }
  util::TimeNs now_ns() const { return clock->now(); }
};

/// Scenario-specific behavior returned by arrange(): an optional per-step
/// hook (runs after physics + plan poll, every step) and the end-of-run
/// invariant check (appends human-readable violations). The two closures
/// share state by capturing a common shared_ptr.
struct ScenarioHooks {
  std::function<void(ScenarioWorld&)> tick;  ///< optional
  std::function<void(ScenarioWorld&, ScenarioResult&)> verify;  ///< required
};

/// One named drill: identity, the two machine configs, and the hooks.
struct ScenarioSpec {
  std::string name;
  std::string summary;  ///< one line for hbmon scenario --list
  ScenarioConfig correctness;
  ScenarioConfig perf;
  /// Optional per-VM spec tweak during spinup (e.g. slow_drift's drifting
  /// demand phases). Draws from world.rng count toward the seed stream.
  std::function<void(ScenarioWorld&, int rack, int idx, cloud::VmSpec&)>
      customize_vm;
  /// Schedule the fault plan, pick victims, record facts; returns hooks.
  std::function<ScenarioHooks(ScenarioWorld&)> arrange;
};

/// Builds the world from (spec, config, seed), drives it to completion,
/// verifies, and keeps everything alive for post-run inspection.
class ScenarioRunner {
 public:
  ScenarioRunner(ScenarioSpec spec, ScenarioConfig config, std::uint64_t seed);
  ~ScenarioRunner();

  ScenarioRunner(const ScenarioRunner&) = delete;
  ScenarioRunner& operator=(const ScenarioRunner&) = delete;

  /// Run the whole scenario. Idempotent: the second call returns the same
  /// result without re-running.
  const ScenarioResult& run();

  /// Arm postmortem capture BEFORE run(): incident events (deaths,
  /// quarantines, correlated failures) freeze the recorder's history into
  /// JSON bundles under `dir`. All bundle content flows from the
  /// ManualClock and the seeded world, so a captured drill is
  /// byte-reproducible (tests/golden/postmortem_rack_kill.json pins
  /// rack_kill seed 42). Throws std::logic_error after run().
  void enable_capture(std::string dir);

  const ScenarioResult& result() const { return result_; }
  const ScenarioLog& log() const { return log_; }

  // Post-run world access (tests extend drills past the scripted run —
  // the policy_test rack-kill drill steps the sim further by hand).
  cloud::CloudSim& sim() { return *sim_; }
  policy::PolicyEngine& engine() { return monitor_->engine(); }
  const policy::TestSink& events() const { return *events_; }
  /// Null when the config's restart_budget is 0 (observe-only scenarios).
  const policy::CloudRestartSink* restarter() const {
    return restarter_.get();
  }
  ScenarioWorld& world() { return world_; }

  /// The drill's flight recorder (always attached; frames are cut on the
  /// policy cadence from the ManualClock, so the timeline is part of the
  /// deterministic surface — see obs::render_timeline_text).
  const std::shared_ptr<obs::FlightRecorder>& recorder() const {
    return monitor_->recorder();
  }
  /// The capture sink, or null unless enable_capture() was called.
  const obs::PostmortemSink* postmortem() const { return postmortem_.get(); }

 private:
  void build_world();
  void append_digest();

  ScenarioSpec spec_;
  ScenarioConfig config_;
  std::uint64_t seed_;
  util::Rng rng_;

  std::shared_ptr<util::ManualClock> clock_;
  std::unique_ptr<cloud::CloudSim> sim_;
  std::shared_ptr<policy::Monitor> monitor_;
  std::shared_ptr<policy::TestSink> events_;
  std::shared_ptr<policy::CloudRestartSink> restarter_;
  std::shared_ptr<obs::PostmortemSink> postmortem_;
  std::string capture_dir_;
  fault::FleetFaultPlan plan_;
  ScenarioLog log_;
  ScenarioResult result_;
  ScenarioWorld world_;
  bool ran_ = false;
};

/// The named scenario registry (sim/scenarios.cpp): rack_kill,
/// rolling_restart, flap_storm, partition_heal, thundering_herd,
/// slow_drift — in that fixed order.
const std::vector<ScenarioSpec>& scenarios();

/// Registry lookup; nullptr when unknown.
const ScenarioSpec* find_scenario(const std::string& name);

}  // namespace hb::sim
