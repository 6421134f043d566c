// ScenarioRunner implementation: the deterministic drill loop.
//
// Everything here must stay a pure function of (spec, config, seed): the
// only clock is the ManualClock the loop advances, the only randomness is
// the seeded Rng, and every container iterated into the log is ordered.
#include "sim/scenario.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <stdexcept>
#include <utility>

#include "hub/hub.hpp"

namespace hb::sim {

namespace {

/// The "[12.345s] " stamp every logged line leads with — the same rendering
/// policy::to_line uses, so fault injections and fleet events interleave in
/// one visually uniform stream.
std::string stamp(util::TimeNs at_ns) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "[%.3fs] ", util::to_seconds(at_ns));
  return buf;
}

/// ActionSink that mirrors every FleetEvent into the ScenarioLog as its
/// standard to_line form. Registered before the acting sink so the log
/// shows events in emission order regardless of what remediation does.
class ScenarioLogSink : public policy::ActionSink {
 public:
  explicit ScenarioLogSink(ScenarioLog* log) : log_(log) {}

  void on_event(const policy::PolicyEngine& /*engine*/,
                const policy::FleetEvent& event) override {
    log_->raw(policy::to_line(event));
  }

 private:
  ScenarioLog* log_;
};

const char* to_word(fault::FleetFaultKind kind) {
  switch (kind) {
    case fault::FleetFaultKind::kKillVms:
      return "kill";
    case fault::FleetFaultKind::kRestartVms:
      return "restart";
  }
  return "?";
}

}  // namespace

// ----------------------------------------------------------- ScenarioLog

void ScenarioLog::line(util::TimeNs at_ns, const std::string& text) {
  lines_.push_back(stamp(at_ns) + text);
}

void ScenarioLog::raw(std::string text) { lines_.push_back(std::move(text)); }

std::string ScenarioLog::canonical_text() const {
  std::string out;
  std::size_t total = 0;
  for (const auto& l : lines_) total += l.size() + 1;
  out.reserve(total);
  for (const auto& l : lines_) {
    out += l;
    out += '\n';
  }
  return out;
}

std::uint64_t ScenarioLog::hash() const {
  return hub::fnv1a64(canonical_text());
}

// --------------------------------------------------------- ScenarioWorld

std::string ScenarioWorld::vm_name(int vm) const {
  // VM names are assigned by the runner; read them back from the sim's
  // rack-major layout rather than re-deriving the format in two places.
  const int per_rack = config->vms_per_rack;
  const int rack = vm / per_rack;
  const int idx = vm % per_rack;
  return rack_name(rack) + "/vm-" + std::to_string(idx);
}

std::string ScenarioWorld::rack_name(int rack) const {
  return "rack" + std::to_string(rack);
}

// -------------------------------------------------------- ScenarioRunner

ScenarioRunner::ScenarioRunner(ScenarioSpec spec, ScenarioConfig config,
                               std::uint64_t seed)
    : spec_(std::move(spec)),
      config_(config),
      seed_(seed),
      // Fold the scenario name into the seed so "seed 42" yields a
      // distinct stream per scenario instead of six correlated runs.
      rng_(seed ^ hub::fnv1a64(spec_.name)) {
  if (config_.racks <= 0 || config_.vms_per_rack <= 0)
    throw std::invalid_argument("scenario config needs racks and vms > 0");
  if (config_.duration_s <= 0.0)
    throw std::invalid_argument("scenario config needs duration > 0");
  result_.name = spec_.name;
  result_.seed = seed_;
  result_.config = config_;
}

ScenarioRunner::~ScenarioRunner() = default;

void ScenarioRunner::build_world() {
  clock_ = std::make_shared<util::ManualClock>();
  hub::HubOptions hub_opts;
  hub_opts.shard_count = kHubShards;
  hub_opts.window_capacity = 64;
  hub_opts.clock = clock_;

  // The history plane rides every drill: the monitor's recorder cuts frames
  // on the policy cadence from the ManualClock, so the timeline is as
  // replayable as the event stream.
  monitor_ = std::make_shared<policy::Monitor>(
      std::make_shared<hub::HeartbeatHub>(hub_opts),
      fault::FleetDetectorOptions{.absolute_staleness_ns = 5 * util::kNsPerSec},
      policy::PolicyOptions{});
  // Capacity leaves 2x headroom over nominal demand, so co-placement never
  // oversubscribes and every healthy VM beats at exactly demand/work_per_beat.
  sim_ = std::make_unique<cloud::CloudSim>(
      config_.racks, config_.vms_per_rack * kVmDemand * 2.0, clock_,
      monitor_->hub());
  policy::PolicyEngine& engine = monitor_->engine();
  events_ = std::make_shared<policy::TestSink>();
  engine.add_sink(events_);
  engine.add_sink(std::make_shared<ScenarioLogSink>(&log_));
  if (!capture_dir_.empty()) {
    obs::PostmortemOptions pm;
    pm.dir = capture_dir_;
    // Deterministic capture (live off): no spans, no metrics, no wall
    // stamps — every byte in the bundle flows from (spec, config, seed).
    pm.source = "scenario " + spec_.name + " seed=" + std::to_string(seed_);
    postmortem_ = std::make_shared<obs::PostmortemSink>(recorder(), pm);
    engine.add_sink(postmortem_);
  }

  if (config_.restart_budget > 0) {
    restarter_ = std::make_shared<policy::CloudRestartSink>(
        *sim_, policy::CloudRestartSinkOptions{
                   .restart_budget = config_.restart_budget});
    engine.add_sink(restarter_);
  }

  world_.config = &config_;
  world_.rng = &rng_;
  world_.clock = clock_.get();
  world_.sim = sim_.get();
  world_.monitor = monitor_.get();
  world_.engine = &engine;
  world_.events = events_.get();
  world_.restarter = restarter_.get();
  world_.plan = &plan_;
  world_.log = &log_;
  world_.result = &result_;
  world_.rack_vms.assign(static_cast<std::size_t>(config_.racks), {});

  // Rack-major spinup: registration order (and thus hub slot layout, and
  // thus FleetReport order) is part of the deterministic contract.
  for (int r = 0; r < config_.racks; ++r) {
    for (int v = 0; v < config_.vms_per_rack; ++v) {
      cloud::VmSpec spec;
      spec.name = world_.rack_name(r) + "/vm-" + std::to_string(v);
      spec.phases = {{config_.duration_s + 600.0, kVmDemand}};
      spec.work_per_beat = 1.0;
      spec.target_min_bps = config_.target_min_bps;
      if (spec_.customize_vm) spec_.customize_vm(world_, r, v, spec);
      const int id = sim_->add_vm(std::move(spec));
      world_.rack_vms[static_cast<std::size_t>(r)].push_back(id);
    }
  }

  sim_->set_monitor(monitor_, kPolicyPeriodS);
}

void ScenarioRunner::enable_capture(std::string dir) {
  if (ran_)
    throw std::logic_error("ScenarioRunner: enable_capture after run()");
  capture_dir_ = std::move(dir);
}

const ScenarioResult& ScenarioRunner::run() {
  if (ran_) return result_;
  ran_ = true;

  build_world();

  char head[192];
  std::snprintf(head, sizeof(head),
                "scenario %s seed=%llu machine=%dx%d apps=%d duration=%.1fs "
                "dt=%.2fs policy=%.2fs budget=%u",
                spec_.name.c_str(),
                static_cast<unsigned long long>(seed_), config_.racks,
                config_.vms_per_rack, config_.apps(), config_.duration_s,
                kStepS, kPolicyPeriodS,
                config_.restart_budget);
  log_.raw(head);

  ScenarioHooks hooks = spec_.arrange(world_);
  if (!hooks.verify)
    throw std::logic_error("scenario '" + spec_.name + "' has no verify hook");

  const auto fire = [&](const fault::FleetFaultEvent& ev) {
    int applied = 0;
    for (const int vm : ev.vms) {
      if (ev.kind == fault::FleetFaultKind::kKillVms) {
        if (!sim_->vm_killed(vm)) {
          sim_->kill_vm(vm);
          ++applied;
        }
      } else {
        if (sim_->vm_killed(vm)) {
          sim_->restart_vm(vm);
          ++applied;
        }
      }
    }
    char buf[160];
    std::snprintf(buf, sizeof(buf), "inject %s %s: %d/%zu vms",
                  to_word(ev.kind), ev.note.c_str(), applied, ev.vms.size());
    log_.line(clock_->now(), buf);
    result_.faults_injected += applied;
  };

  const auto steps =
      static_cast<std::uint64_t>(std::llround(config_.duration_s / kStepS));
  for (std::uint64_t i = 0; i < steps; ++i) {
    sim_->step(kStepS);
    plan_.poll(clock_->now(), fire);
    if (hooks.tick) hooks.tick(world_);
  }
  result_.steps = steps;
  result_.faults_pending = plan_.remaining();

  append_digest();

  hooks.verify(world_, result_);
  if (result_.violations.empty()) {
    log_.raw("verdict ok");
  } else {
    char buf[64];
    std::snprintf(buf, sizeof(buf), "verdict FAIL (%zu violations)",
                  result_.violations.size());
    log_.raw(buf);
    for (const auto& v : result_.violations) log_.raw("  violation: " + v);
  }

  result_.log_hash = log_.hash();
  return result_;
}

void ScenarioRunner::append_digest() {
  // One read-only sweep through the policy loop's own detector — the
  // end-of-run ground truth the goldens pin.
  const fault::FleetReport report = sim_->fleet_health(monitor_->detector());
  result_.final_fleet = report.fleet;
  result_.policy = monitor_->engine().stats();
  if (restarter_) result_.restarts = restarter_->stats();

  const auto& f = result_.final_fleet;
  const auto& p = result_.policy;
  const auto& r = result_.restarts;
  char buf[256];
  log_.raw("---");
  std::snprintf(buf, sizeof(buf),
                "fleet: apps=%llu healthy=%llu warming=%llu slow=%llu "
                "erratic=%llu dead=%llu evicted=%llu",
                static_cast<unsigned long long>(f.apps),
                static_cast<unsigned long long>(f.healthy),
                static_cast<unsigned long long>(f.warming_up),
                static_cast<unsigned long long>(f.slow),
                static_cast<unsigned long long>(f.erratic),
                static_cast<unsigned long long>(f.dead),
                static_cast<unsigned long long>(f.evicted));
  log_.raw(buf);
  std::snprintf(buf, sizeof(buf),
                "policy: sweeps=%llu events=%llu transitions=%llu "
                "deaths=%llu revivals=%llu correlated=%llu quarantines=%llu "
                "lifted=%llu",
                static_cast<unsigned long long>(p.sweeps),
                static_cast<unsigned long long>(p.events),
                static_cast<unsigned long long>(p.transitions),
                static_cast<unsigned long long>(p.deaths),
                static_cast<unsigned long long>(p.revivals),
                static_cast<unsigned long long>(p.correlated_failures),
                static_cast<unsigned long long>(p.quarantines),
                static_cast<unsigned long long>(p.quarantines_lifted));
  log_.raw(buf);
  std::snprintf(buf, sizeof(buf),
                "restarts: issued=%llu suppressed_quarantined=%llu "
                "suppressed_budget=%llu suppressed_running=%llu unknown=%llu "
                "refilled=%llu",
                static_cast<unsigned long long>(r.restarts),
                static_cast<unsigned long long>(r.suppressed_quarantined),
                static_cast<unsigned long long>(r.suppressed_budget),
                static_cast<unsigned long long>(r.suppressed_already_running),
                static_cast<unsigned long long>(r.unknown_apps),
                static_cast<unsigned long long>(r.refilled));
  log_.raw(buf);
  std::snprintf(buf, sizeof(buf), "faults: injected=%d pending=%zu",
                result_.faults_injected, result_.faults_pending);
  log_.raw(buf);
}

const ScenarioSpec* find_scenario(const std::string& name) {
  for (const auto& spec : scenarios()) {
    if (spec.name == name) return &spec;
  }
  return nullptr;
}

}  // namespace hb::sim
