// The named scenario registry: six seeded fleet drills.
//
// Every drill here obeys the determinism rules in scenario.hpp. The one
// that matters most in practice: FAULT TIMES THAT FEED FLAP DYNAMICS ARE
// QUANTIZED TO THE POLICY PERIOD (0.5 s). The quarantine race — does the
// 4th dead<->alive edge land while the VM is ground-truth dead, leaving it
// down and suppressed? — depends on where the kill falls relative to the
// sweep grid, not just on elapsed time. Jitter in whole sweep periods
// varies the timeline without changing the outcome; jitter off the grid
// changes which side of the race wins (verified empirically against the
// policy_test drill across the whole [15.0, 18.5] grid).
//
// Timing margins baked into the durations below, at 4 beats/s and the
// standard thresholds (relative staleness bound 8 x 0.25 s = 2.0 s, window
// 64 beats = 16 s):
//   - a kill is detected dead ~2.1-2.6 s later (bound + sweep phase);
//   - a revived VM carries its outage gap in the interval window and reads
//     slow (long gap: windowed rate < target) or erratic (short gap: CoV >
//     0.8) until 63 fresh beats (~15.75 s) roll the gap out — only then is
//     it healthy again.
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "sim/scenario.hpp"

namespace hb::sim {

namespace {

using fault::FleetFaultEvent;
using fault::FleetFaultKind;

util::TimeNs ns(double seconds) { return util::from_seconds(seconds); }

/// Fisher-Yates off world.rng (std::shuffle's dance with URBGs is not
/// cross-platform deterministic; this is).
void shuffle(std::vector<int>& v, util::Rng& rng) {
  for (std::size_t i = v.size(); i > 1; --i) {
    const std::size_t j = rng.next_below(i);
    std::swap(v[i - 1], v[j]);
  }
}

void expect(ScenarioResult& res, bool ok, const std::string& what) {
  if (!ok) res.violations.push_back(what);
}

std::string num(std::uint64_t v) { return std::to_string(v); }

/// End-of-run per-app verdicts: one more read-only sweep through the policy
/// loop's own detector, keyed by name.
std::map<std::string, fault::Health> final_health(ScenarioWorld& w) {
  std::map<std::string, fault::Health> out;
  for (const auto& app : w.sim->fleet_health(w.monitor->detector()).apps)
    out[app.name] = app.health;
  return out;
}

std::vector<std::string> split(const std::string& s, char sep) {
  std::vector<std::string> out;
  std::size_t start = 0;
  while (start <= s.size()) {
    const std::size_t end = s.find(sep, start);
    if (end == std::string::npos) {
      if (start < s.size()) out.push_back(s.substr(start));
      break;
    }
    if (end > start) out.push_back(s.substr(start, end - start));
    start = end + 1;
  }
  return out;
}

// ------------------------------------------------------------- rack_kill
//
// The policy_test / self_healing_fleet drill, generalized: one whole rack
// goes dark at once (folds into a single correlated-failure event; every
// member auto-restarted exactly once) while one VM in another rack crash
// loops every ~3 s until flap quarantine ends the fight — after which it
// stays down, suppressed, until a scripted operator restart.
constexpr double kRackKillBase = 15.0;
constexpr double kOperatorRestartS = 62.0;
/// Runs at least this long see the operator restart plus the full interval
/// window roll-out, so verify expects a completely healed fleet; shorter
/// runs (the policy_test drill stops at 60 s) expect the flapper dead.
constexpr double kRackKillHealedS = 80.0;

ScenarioSpec make_rack_kill() {
  ScenarioSpec s;
  s.name = "rack_kill";
  s.summary =
      "rack dies at once + a crash-looping VM: heal the rack, quarantine "
      "the flapper, operator brings it back";
  s.correctness = {.racks = 5, .vms_per_rack = 16, .duration_s = 84.0};
  s.perf = {.racks = 100, .vms_per_rack = 40, .duration_s = 84.0};
  s.arrange = [](ScenarioWorld& w) -> ScenarioHooks {
    struct State {
      int flapper = -1;
      std::string name;
      double last_kill_s = 0.0;
      int kills = 0;
    };
    auto st = std::make_shared<State>();
    util::Rng& rng = *w.rng;
    const ScenarioConfig& cfg = *w.config;

    // Victim rack: never rack0, the flapper's home — the correlated fold
    // must not swallow the flapper's solo death.
    const int victim =
        1 + static_cast<int>(rng.next_below(
                static_cast<std::uint64_t>(cfg.racks - 1)));
    st->flapper = w.rack_vms[0][rng.next_below(
        static_cast<std::uint64_t>(cfg.vms_per_rack))];
    st->name = w.vm_name(st->flapper);
    const double t1 = kRackKillBase + 0.5 * rng.next_below(8);  // sweep grid
    st->last_kill_s = t1;
    st->kills = 1;

    w.plan->schedule({ns(t1), FleetFaultKind::kKillVms, w.rack_vms[victim],
                      w.rack_name(victim)});
    w.plan->schedule(
        {ns(t1), FleetFaultKind::kKillVms, {st->flapper}, "flapper " + st->name});
    w.plan->schedule({ns(kOperatorRestartS), FleetFaultKind::kRestartVms,
                      {st->flapper}, "operator " + st->name});
    w.result->facts["victim_rack"] = w.rack_name(victim);
    w.result->facts["flapper"] = st->name;

    ScenarioHooks hooks;
    hooks.tick = [st](ScenarioWorld& w2) {
      // The crash loop: the VM comes back (auto-restarted) and dies again
      // ~3 s later, until quarantine stops the restarts and it stays down.
      if (!w2.engine->quarantined(st->name) &&
          !w2.sim->vm_killed(st->flapper) &&
          w2.now_s() - st->last_kill_s > 3.0) {
        w2.sim->kill_vm(st->flapper);
        st->last_kill_s = w2.now_s();
        ++st->kills;
        w2.log->line(w2.now_ns(),
                     "inject kill flapper " + st->name + ": 1/1 vms");
        ++w2.result->faults_injected;
      }
    };
    hooks.verify = [st, victim](ScenarioWorld& w2, ScenarioResult& res) {
      const ScenarioConfig& c = *w2.config;
      const auto per_rack = static_cast<std::uint64_t>(c.vms_per_rack);
      res.facts["flap_kills"] = std::to_string(st->kills);

      // Exactly one correlated failure: the victim rack, all members.
      expect(res, res.policy.correlated_failures == 1,
             "expected 1 correlated failure, saw " +
                 num(res.policy.correlated_failures));
      for (const auto& ev : w2.events->events()) {
        if (ev.kind != policy::EventKind::kCorrelatedFailure) continue;
        expect(res, ev.group == w2.rack_name(victim),
               "correlated group " + ev.group + " != " + w2.rack_name(victim));
        expect(res, ev.apps.size() == per_rack,
               "correlated fold of " + num(ev.apps.size()) + " != " +
                   num(per_rack) + " apps");
      }

      // The flapper: quarantined, restarted a bounded number of times
      // (strictly fewer than it was killed), then left alone at least once.
      expect(res, w2.engine->quarantined(st->name),
             "flapper " + st->name + " not quarantined");
      expect(res, w2.restarter != nullptr, "rack_kill needs an acting sink");
      if (w2.restarter != nullptr) {
        const std::uint32_t fr = w2.restarter->restarts_of(st->name);
        expect(res, fr >= 1 && fr <= c.restart_budget,
               "flapper restarts " + num(fr) + " outside [1, budget]");
        expect(res, static_cast<int>(fr) < st->kills,
               "flapper restarted " + num(fr) + " times for " +
                   std::to_string(st->kills) + " kills (quarantine never bit)");
        expect(res, res.restarts.suppressed_quarantined >= 1,
               "no death was suppressed by quarantine");
        // The rack: every member restarted exactly once, nothing else.
        for (const int vm : w2.rack_vms[victim]) {
          const std::string name = w2.vm_name(vm);
          expect(res, w2.restarter->restarts_of(name) == 1,
                 name + " restarted " +
                     num(w2.restarter->restarts_of(name)) + " times, not 1");
        }
        expect(res, res.restarts.restarts == per_rack + fr,
               "total restarts " + num(res.restarts.restarts) + " != " +
                   num(per_rack + fr));
      }

      const auto& f = res.final_fleet;
      const auto apps = static_cast<std::uint64_t>(c.apps());
      if (c.duration_s >= kRackKillHealedS) {
        expect(res, f.healthy == apps && f.dead == 0,
               "end state not fully healed: healthy=" + num(f.healthy) +
                   " dead=" + num(f.dead));
      } else {
        expect(res, f.dead == 1 && f.healthy == apps - 1,
               "end state (pre-operator) not flapper-down: healthy=" +
                   num(f.healthy) + " dead=" + num(f.dead));
      }
    };
    return hooks;
  };
  return s;
}

// ------------------------------------------------------- rolling_restart
//
// Ops-driven churn that must stay BELOW every detection threshold: each VM
// in a seeded order goes down for exactly 1.0 s (under the 2.0 s relative
// staleness bound; the gap keeps interval CoV under the 0.8 jitter bound).
// The silent drill: a correct detector/policy stack emits nothing but the
// initial warming-up -> healthy edges.
ScenarioSpec make_rolling_restart() {
  ScenarioSpec s;
  s.name = "rolling_restart";
  s.summary =
      "every VM bounced for 1.0s in seeded order: below all detection "
      "thresholds, the policy stack must stay silent";
  s.correctness = {.racks = 5, .vms_per_rack = 16, .duration_s = 80.0};
  s.perf = {.racks = 100, .vms_per_rack = 40, .duration_s = 80.0};
  s.arrange = [](ScenarioWorld& w) -> ScenarioHooks {
    const ScenarioConfig& cfg = *w.config;
    const int apps = cfg.apps();

    std::vector<int> order;
    order.reserve(static_cast<std::size_t>(apps));
    for (const auto& rack : w.rack_vms)
      order.insert(order.end(), rack.begin(), rack.end());
    shuffle(order, *w.rng);

    // Kills spread over [15, duration-10] on the 0.1 s step grid
    // (integer decisecond arithmetic: no accumulated float error), each
    // restart exactly 1.0 s after its kill.
    const long span_ds = std::lround((cfg.duration_s - 25.0) * 10.0);
    for (int k = 0; k < apps; ++k) {
      const long at_ds = 150 + (static_cast<long>(k) * span_ds) / apps;
      const int vm = order[static_cast<std::size_t>(k)];
      const std::string name = w.vm_name(vm);
      w.plan->schedule({at_ds * (util::kNsPerSec / 10),
                        FleetFaultKind::kKillVms, {vm}, "bounce " + name});
      w.plan->schedule({(at_ds + 10) * (util::kNsPerSec / 10),
                        FleetFaultKind::kRestartVms, {vm}, "bounce " + name});
    }
    w.result->facts["first_bounced"] = w.vm_name(order.front());

    ScenarioHooks hooks;
    hooks.verify = [](ScenarioWorld& w2, ScenarioResult& res) {
      const auto n = static_cast<std::uint64_t>(w2.config->apps());
      expect(res, res.policy.deaths == 0,
             "silent drill saw " + num(res.policy.deaths) + " deaths");
      expect(res, res.policy.revivals == 0,
             "silent drill saw " + num(res.policy.revivals) + " revivals");
      expect(res, res.policy.correlated_failures == 0,
             "silent drill saw correlated failures");
      expect(res, res.policy.quarantines == 0,
             "silent drill saw quarantines");
      expect(res, res.restarts.restarts == 0,
             "automation restarted " + num(res.restarts.restarts) +
                 " VMs during a silent drill");
      expect(res, res.policy.transitions == n,
             "expected exactly the " + num(n) +
                 " warm-up transitions, saw " + num(res.policy.transitions));
      expect(res, res.final_fleet.healthy == n,
             "end state not all-healthy: " + num(res.final_fleet.healthy));
      expect(res, res.faults_injected == static_cast<int>(2 * n),
             "expected " + num(2 * n) + " injected faults, saw " +
                 std::to_string(res.faults_injected));
    };
    return hooks;
  };
  return s;
}

// ----------------------------------------------------------- flap_storm
//
// K VMs in K distinct racks crash-loop concurrently. Quarantine must fence
// each one off independently: bounded restarts per flapper, one suppressed
// death each, no cross-talk (no correlated folds — one flapper per rack).
constexpr double kFlapStormBase = 15.0;

ScenarioSpec make_flap_storm() {
  ScenarioSpec s;
  s.name = "flap_storm";
  s.summary =
      "K crash-looping VMs in distinct racks: each independently "
      "quarantined after bounded restarts, then left down";
  s.correctness = {.racks = 5, .vms_per_rack = 16, .duration_s = 60.0};
  s.perf = {.racks = 100, .vms_per_rack = 40, .duration_s = 60.0};
  s.arrange = [](ScenarioWorld& w) -> ScenarioHooks {
    struct Flapper {
      int vm = -1;
      std::string name;
      double last_kill_s = 0.0;
      int kills = 0;
    };
    struct State {
      std::vector<Flapper> flappers;
    };
    auto st = std::make_shared<State>();
    util::Rng& rng = *w.rng;
    const ScenarioConfig& cfg = *w.config;

    const int want = std::max(3, cfg.apps() / 25);
    const int k = std::min(cfg.racks, want);
    std::vector<int> racks(static_cast<std::size_t>(cfg.racks));
    for (int r = 0; r < cfg.racks; ++r) racks[static_cast<std::size_t>(r)] = r;
    shuffle(racks, rng);

    std::string names;
    for (int i = 0; i < k; ++i) {
      Flapper f;
      const int rack = racks[static_cast<std::size_t>(i)];
      f.vm = w.rack_vms[static_cast<std::size_t>(rack)][rng.next_below(
          static_cast<std::uint64_t>(cfg.vms_per_rack))];
      f.name = w.vm_name(f.vm);
      const double t0 = kFlapStormBase + 0.5 * rng.next_below(6);  // grid
      f.last_kill_s = t0;
      f.kills = 1;
      w.plan->schedule(
          {ns(t0), FleetFaultKind::kKillVms, {f.vm}, "flapper " + f.name});
      if (!names.empty()) names += ',';
      names += f.name;
      st->flappers.push_back(std::move(f));
    }
    w.result->facts["flappers"] = names;

    ScenarioHooks hooks;
    hooks.tick = [st](ScenarioWorld& w2) {
      for (auto& f : st->flappers) {
        if (!w2.engine->quarantined(f.name) && !w2.sim->vm_killed(f.vm) &&
            w2.now_s() - f.last_kill_s > 3.0) {
          w2.sim->kill_vm(f.vm);
          f.last_kill_s = w2.now_s();
          ++f.kills;
          w2.log->line(w2.now_ns(),
                       "inject kill flapper " + f.name + ": 1/1 vms");
          ++w2.result->faults_injected;
        }
      }
    };
    hooks.verify = [st](ScenarioWorld& w2, ScenarioResult& res) {
      const ScenarioConfig& c = *w2.config;
      const auto n = static_cast<std::uint64_t>(c.apps());
      const auto kq = static_cast<std::uint64_t>(st->flappers.size());
      int total_kills = 0;
      expect(res, res.policy.quarantines == kq,
             "expected " + num(kq) + " quarantines, saw " +
                 num(res.policy.quarantines));
      expect(res, res.policy.correlated_failures == 0,
             "one flapper per rack must never fold into a correlated event");
      expect(res, w2.restarter != nullptr, "flap_storm needs an acting sink");
      for (auto& f : st->flappers) {
        total_kills += f.kills;
        res.facts["flap_kills:" + f.name] = std::to_string(f.kills);
        expect(res, w2.engine->quarantined(f.name),
               "flapper " + f.name + " not quarantined");
        if (w2.restarter == nullptr) continue;
        const std::uint32_t fr = w2.restarter->restarts_of(f.name);
        expect(res, fr >= 1 && fr <= c.restart_budget,
               f.name + " restarts " + num(fr) + " outside [1, budget]");
        expect(res, static_cast<int>(fr) < f.kills,
               f.name + " restarted " + num(fr) + " times for " +
                   std::to_string(f.kills) + " kills");
      }
      if (w2.restarter != nullptr) {
        expect(res, res.restarts.suppressed_quarantined >= kq,
               "expected >= " + num(kq) +
                   " quarantine-suppressed deaths, saw " +
                   num(res.restarts.suppressed_quarantined));
        expect(res, static_cast<int>(res.restarts.restarts) < total_kills,
               "restarts " + num(res.restarts.restarts) +
                   " not bounded below kills " + std::to_string(total_kills));
      }
      expect(res, res.final_fleet.dead == kq,
             "expected the " + num(kq) + " flappers dead at end, saw " +
                 num(res.final_fleet.dead));
      expect(res, res.final_fleet.healthy == n - kq,
             "expected " + num(n - kq) + " healthy at end, saw " +
                 num(res.final_fleet.healthy));
    };
    return hooks;
  };
  return s;
}

// -------------------------------------------------------- partition_heal
//
// Two racks drop off the network at once and come back 20 s later, with
// automation DISABLED (restart_budget 0): the observe/decide layers must
// report two correlated failures and two waves of revivals while the act
// layer provably does nothing.
constexpr double kPartitionBase = 12.0;
constexpr double kPartitionHealAfterS = 20.0;

ScenarioSpec make_partition_heal() {
  ScenarioSpec s;
  s.name = "partition_heal";
  s.summary =
      "two racks partitioned for 20s, automation off: two correlated "
      "failures in, full revival out, zero restarts";
  s.correctness = {
      .racks = 5, .vms_per_rack = 16, .duration_s = 60.0, .restart_budget = 0};
  s.perf = {
      .racks = 100, .vms_per_rack = 40, .duration_s = 60.0, .restart_budget = 0};
  s.arrange = [](ScenarioWorld& w) -> ScenarioHooks {
    util::Rng& rng = *w.rng;
    const ScenarioConfig& cfg = *w.config;

    const int a = static_cast<int>(rng.next_below(
        static_cast<std::uint64_t>(cfg.racks)));
    int b = static_cast<int>(rng.next_below(
        static_cast<std::uint64_t>(cfg.racks - 1)));
    if (b >= a) ++b;
    const double t1 = kPartitionBase + 0.5 * rng.next_below(6);
    const double t2 = t1 + kPartitionHealAfterS;
    for (const int rack : {a, b}) {
      w.plan->schedule({ns(t1), FleetFaultKind::kKillVms,
                        w.rack_vms[static_cast<std::size_t>(rack)],
                        "partition " + w.rack_name(rack)});
      w.plan->schedule({ns(t2), FleetFaultKind::kRestartVms,
                        w.rack_vms[static_cast<std::size_t>(rack)],
                        "heal " + w.rack_name(rack)});
    }
    w.result->facts["partitioned_racks"] = w.rack_name(a) + "," + w.rack_name(b);

    ScenarioHooks hooks;
    hooks.verify = [a, b](ScenarioWorld& w2, ScenarioResult& res) {
      const ScenarioConfig& c = *w2.config;
      const auto apps = static_cast<std::uint64_t>(c.apps());
      const auto per_rack = static_cast<std::uint64_t>(c.vms_per_rack);
      expect(res, res.policy.correlated_failures == 2,
             "expected 2 correlated failures, saw " +
                 num(res.policy.correlated_failures));
      for (const auto& ev : w2.events->events()) {
        if (ev.kind != policy::EventKind::kCorrelatedFailure) continue;
        expect(res,
               ev.group == w2.rack_name(a) || ev.group == w2.rack_name(b),
               "correlated group " + ev.group + " is not a partitioned rack");
        expect(res, ev.apps.size() == per_rack,
               "correlated fold of " + num(ev.apps.size()) + " != " +
                   num(per_rack) + " apps");
      }
      expect(res, res.policy.deaths == 2 * per_rack,
             "expected " + num(2 * per_rack) + " deaths, saw " +
                 num(res.policy.deaths));
      expect(res, res.policy.revivals == 2 * per_rack,
             "expected " + num(2 * per_rack) + " revivals, saw " +
                 num(res.policy.revivals));
      expect(res, res.policy.quarantines == 0,
             "one outage+heal is 2 edges; nothing may be quarantined");
      expect(res, w2.restarter == nullptr && res.restarts.restarts == 0,
             "automation acted during an observe-only drill");
      expect(res, res.final_fleet.healthy == apps && res.final_fleet.dead == 0,
             "end state not fully healed: healthy=" +
                 num(res.final_fleet.healthy) +
                 " dead=" + num(res.final_fleet.dead));
    };
    return hooks;
  };
  return s;
}

// ------------------------------------------------------- thundering_herd
//
// EVERY rack dies in the same sweep. The engine must fold the massacre
// into exactly one correlated-failure event per rack (never per-VM alert
// spam), and the acting sink must bring every VM back with exactly one
// restart each — the worst-case remediation burst.
constexpr double kHerdBase = 10.0;

ScenarioSpec make_thundering_herd() {
  ScenarioSpec s;
  s.name = "thundering_herd";
  s.summary =
      "the whole fleet dies in one sweep: one correlated fold per rack, "
      "every VM restarted exactly once, full recovery";
  s.correctness = {.racks = 5, .vms_per_rack = 16, .duration_s = 50.0};
  s.perf = {.racks = 100, .vms_per_rack = 40, .duration_s = 50.0};
  s.arrange = [](ScenarioWorld& w) -> ScenarioHooks {
    const ScenarioConfig& cfg = *w.config;
    const double t1 = kHerdBase + 0.5 * w.rng->next_below(16);
    for (int r = 0; r < cfg.racks; ++r) {
      w.plan->schedule({ns(t1), FleetFaultKind::kKillVms,
                        w.rack_vms[static_cast<std::size_t>(r)],
                        "blackout " + w.rack_name(r)});
    }
    char fact[32];
    std::snprintf(fact, sizeof(fact), "%.1f", t1);
    w.result->facts["blackout_at_s"] = fact;

    ScenarioHooks hooks;
    hooks.verify = [](ScenarioWorld& w2, ScenarioResult& res) {
      const ScenarioConfig& c = *w2.config;
      const auto apps = static_cast<std::uint64_t>(c.apps());
      const auto racks = static_cast<std::uint64_t>(c.racks);
      expect(res, res.policy.correlated_failures == racks,
             "expected " + num(racks) + " correlated failures, saw " +
                 num(res.policy.correlated_failures));
      expect(res, res.policy.deaths == apps,
             "expected " + num(apps) + " deaths, saw " +
                 num(res.policy.deaths));
      expect(res, res.policy.revivals == apps,
             "expected " + num(apps) + " revivals, saw " +
                 num(res.policy.revivals));
      expect(res, res.policy.quarantines == 0,
             "one death+revival is 2 edges; nothing may be quarantined");
      expect(res, w2.restarter != nullptr, "thundering_herd needs a sink");
      expect(res, res.restarts.restarts == apps,
             "expected " + num(apps) + " restarts, saw " +
                 num(res.restarts.restarts));
      if (w2.restarter != nullptr) {
        for (const auto& rack : w2.rack_vms) {
          for (const int vm : rack) {
            const std::string name = w2.vm_name(vm);
            if (w2.restarter->restarts_of(name) != 1) {
              expect(res, false,
                     name + " restarted " +
                         num(w2.restarter->restarts_of(name)) +
                         " times, not 1");
            }
          }
        }
      }
      expect(res, res.final_fleet.healthy == apps && res.final_fleet.dead == 0,
             "end state not fully healed: healthy=" +
                 num(res.final_fleet.healthy) +
                 " dead=" + num(res.final_fleet.dead));
    };
    return hooks;
  };
  return s;
}

// ----------------------------------------------------------- slow_drift
//
// No fault plan at all: a seeded subset of VMs slowly degrades (demand
// drifts 4.0 -> 2.6 -> 1.2 service units/s against a 2.0 beats/s goal) —
// the paper's "slow or erratic heartbeats could indicate that a machine is
// about to fail". The detector must call exactly the drifters slow, and
// the policy stack must not treat degradation as death: no restarts.
ScenarioSpec make_slow_drift() {
  ScenarioSpec s;
  s.name = "slow_drift";
  s.summary =
      "a seeded subset degrades below its heart-rate goal: flagged slow, "
      "never dead, never restarted";
  s.correctness = {.racks = 5, .vms_per_rack = 16, .duration_s = 75.0};
  s.perf = {.racks = 100, .vms_per_rack = 40, .duration_s = 75.0};
  s.customize_vm = [](ScenarioWorld& w, int rack, int idx,
                      cloud::VmSpec& spec) {
    const ScenarioConfig& cfg = *w.config;
    const bool last_vm =
        rack == cfg.racks - 1 && idx == cfg.vms_per_rack - 1;
    bool drift = w.rng->chance(0.15);
    // Guarantee at least one drifter whatever the seed: the last VM
    // drifts if nobody else did. (Spec state lives in result->facts, not
    // in the closure — specs are shared, runs are not.)
    if (last_vm && w.result->facts["drifters"].empty()) drift = true;
    if (!drift) return;
    spec.phases = {{20.0, kVmDemand},
                   {20.0, 2.6},
                   {cfg.duration_s + 600.0, 1.2}};
    auto& names = w.result->facts["drifters"];
    if (!names.empty()) names += ',';
    names += spec.name;
  };
  s.arrange = [](ScenarioWorld&) -> ScenarioHooks {
    ScenarioHooks hooks;
    hooks.verify = [](ScenarioWorld& w2, ScenarioResult& res) {
      const auto apps = static_cast<std::uint64_t>(w2.config->apps());
      const std::vector<std::string> drifters =
          split(res.facts["drifters"], ',');
      const auto k = static_cast<std::uint64_t>(drifters.size());
      expect(res, k >= 1, "no drifters were seeded");
      expect(res, res.policy.deaths == 0,
             "degradation was read as death: " + num(res.policy.deaths));
      expect(res, res.policy.correlated_failures == 0,
             "degradation folded into a correlated failure");
      expect(res, res.policy.quarantines == 0, "degradation was quarantined");
      expect(res, res.restarts.restarts == 0,
             "automation restarted " + num(res.restarts.restarts) +
                 " degrading VMs");
      expect(res, res.final_fleet.slow == k,
             "expected " + num(k) + " slow at end, saw " +
                 num(res.final_fleet.slow));
      expect(res, res.final_fleet.healthy == apps - k,
             "expected " + num(apps - k) + " healthy at end, saw " +
                 num(res.final_fleet.healthy));
      const auto health = final_health(w2);
      for (const auto& name : drifters) {
        const auto it = health.find(name);
        expect(res, it != health.end() && it->second == fault::Health::kSlow,
               "drifter " + name + " did not end slow");
      }
      expect(res, res.faults_injected == 0,
             "slow_drift injects no faults, saw " +
                 std::to_string(res.faults_injected));
    };
    return hooks;
  };
  return s;
}

}  // namespace

const std::vector<ScenarioSpec>& scenarios() {
  static const std::vector<ScenarioSpec> kRegistry = {
      make_rack_kill(),      make_rolling_restart(), make_flap_storm(),
      make_partition_heal(), make_thundering_herd(), make_slow_drift(),
  };
  return kRegistry;
}

}  // namespace hb::sim
