#include "cloud/cloud_sim.hpp"

#include <algorithm>
#include <cassert>
#include <limits>
#include <stdexcept>

#include "hub/hub.hpp"
#include "policy/monitor.hpp"
#include "util/time.hpp"

namespace hb::cloud {

CloudSim::CloudSim(int machines, double machine_capacity,
                   std::shared_ptr<util::ManualClock> clock,
                   std::shared_ptr<hub::HeartbeatHub> hub)
    : num_machines_(machines), capacity_(machine_capacity),
      clock_(std::move(clock)), hub_(std::move(hub)) {
  assert(clock_);
  if (machines <= 0 || machine_capacity <= 0.0) {
    throw std::invalid_argument("CloudSim: need machines and capacity");
  }
  if (!hub_) throw std::invalid_argument("CloudSim: need a hub");
  hub_runs_.assign(hub_->shard_count(), {});
}

int CloudSim::add_vm(VmSpec spec) {
  // Before the hub registers it: two VMs of one name would feed one app.
  if (vm_by_name_.contains(spec.name)) {
    throw std::invalid_argument("CloudSim: VM name '" + spec.name +
                                "' is already in use");
  }
  hub_ids_.push_back(hub_->register_app(
      spec.name, core::TargetRate{spec.target_min_bps,
                                  std::numeric_limits<double>::infinity()}));
  vms_.push_back(Vm{.spec = std::move(spec)});
  const int id = static_cast<int>(vms_.size()) - 1;
  vm_by_name_.emplace(vms_.back().spec.name, id);
  // First-fit by demand headroom: one O(V) load pass then an O(M) machine
  // scan. (A per-machine machine_demand() rescan made fleet spinup
  // quadratic; scenario perf machines place tens of thousands of VMs.)
  // Per-machine sums accumulate in VM index order, exactly as
  // machine_demand() does, so placement decisions are bit-identical.
  std::vector<double> machine_load(static_cast<std::size_t>(num_machines_),
                                   0.0);
  for (std::size_t v = 0; v + 1 < vms_.size(); ++v) {
    if (vms_[v].killed) continue;
    machine_load[static_cast<std::size_t>(machine_of_[v])] +=
        vm_demand(static_cast<int>(v));
  }
  const double want = vm_demand(id);
  machine_of_.push_back(num_machines_ - 1);  // where it lands if nothing fits
  for (int m = 0; m < num_machines_; ++m) {
    if (machine_load[static_cast<std::size_t>(m)] + want <= capacity_) {
      machine_of_.back() = m;
      break;
    }
  }
  return id;
}

void CloudSim::migrate(int vm, int machine) {
  if (machine < 0 || machine >= num_machines_) {
    throw std::out_of_range("CloudSim::migrate: bad machine");
  }
  machine_of_.at(static_cast<std::size_t>(vm)) = machine;
}

int CloudSim::used_machines() const {
  std::vector<bool> used(static_cast<std::size_t>(num_machines_), false);
  for (std::size_t v = 0; v < vms_.size(); ++v) {
    if (!vm_finished(static_cast<int>(v)) && !vms_[v].killed) {
      used[static_cast<std::size_t>(machine_of_[v])] = true;
    }
  }
  return static_cast<int>(std::count(used.begin(), used.end(), true));
}

void CloudSim::kill_vm(int vm) {
  vms_.at(static_cast<std::size_t>(vm)).killed = true;
}

void CloudSim::restart_vm(int vm) {
  vms_.at(static_cast<std::size_t>(vm)).killed = false;
}

bool CloudSim::vm_killed(int vm) const {
  return vms_.at(static_cast<std::size_t>(vm)).killed;
}

int CloudSim::find_vm(const std::string& name) const {
  const auto it = vm_by_name_.find(name);
  return it == vm_by_name_.end() ? -1 : it->second;
}

void CloudSim::set_monitor(std::shared_ptr<policy::Monitor> monitor,
                           double period_s) {
  if (monitor && monitor->hub() != hub_) {
    throw std::logic_error("CloudSim::set_monitor: foreign hub");
  }
  monitor_ = std::move(monitor);
  policy_period_s_ = period_s > 0.0 ? period_s : 1.0;
  last_policy_s_ = -1e18;
}

fault::FleetReport CloudSim::fleet_health(
    const fault::FleetDetector& detector) const {
  // Sweep the hub's coherent snapshot directly: the policy tick, an
  // external fleet_health caller, and a consolidator poll inside the same
  // sim tick all reuse the one cached FleetSnapshot instead of forcing
  // per-shard flush walks of their own.
  return detector.sweep(hub_->snapshot());
}

double CloudSim::vm_demand(int vm) const {
  const Vm& v = vms_.at(static_cast<std::size_t>(vm));
  double t = v.elapsed_s;
  for (const auto& phase : v.spec.phases) {
    if (t < phase.duration_s) return phase.demand;
    t -= phase.duration_s;
  }
  return 0.0;  // finished
}

bool CloudSim::vm_finished(int vm) const {
  const Vm& v = vms_.at(static_cast<std::size_t>(vm));
  double total = 0.0;
  for (const auto& phase : v.spec.phases) total += phase.duration_s;
  return v.elapsed_s >= total;
}

double CloudSim::machine_demand(int machine) const {
  double demand = 0.0;
  for (std::size_t v = 0; v < vms_.size(); ++v) {
    if (vms_[v].killed) continue;  // dead VMs consume nothing
    if (machine_of_[v] == machine) demand += vm_demand(static_cast<int>(v));
  }
  return demand;
}

void CloudSim::step(double dt_seconds) {
  clock_->advance(util::from_seconds(dt_seconds));
  // One O(V) demand pass instead of a machine-major O(M x V) rescan — at
  // fleet scale (scenario perf machines, 4k-100k VMs) the rescan dominated
  // the step. Per-machine demand sums accumulate in VM index order, the
  // same order machine_demand() uses, so capacity scales are bit-identical;
  // beats now issue in VM index order rather than machine-major order,
  // which only permutes same-tick hub ingest BETWEEN apps (every per-app
  // beat stream and timestamp is unchanged).
  std::vector<double> demand_of(vms_.size(), 0.0);
  std::vector<double> machine_load(static_cast<std::size_t>(num_machines_),
                                   0.0);
  for (std::size_t v = 0; v < vms_.size(); ++v) {
    if (vms_[v].killed) continue;  // dead VMs consume nothing
    const double d = vm_demand(static_cast<int>(v));
    demand_of[v] = d;
    machine_load[static_cast<std::size_t>(machine_of_[v])] += d;
  }
  // Beats each VM sends the hub this step, parallel to vms_.
  std::vector<std::uint32_t> hub_beats(vms_.size(), 0);
  for (std::size_t v = 0; v < vms_.size(); ++v) {
    Vm& vm = vms_[v];
    if (vm.killed) continue;  // no work, no beats — only silence
    const double d = demand_of[v];
    if (d <= 0.0) continue;
    // Demand-proportional capacity split; under-subscribed machines serve
    // everyone fully.
    const double demand = machine_load[static_cast<std::size_t>(machine_of_[v])];
    const double scale = demand <= capacity_ || demand <= 0.0
                             ? 1.0
                             : capacity_ / demand;
    vm.pending_work += d * scale * dt_seconds;
    while (vm.pending_work >= vm.spec.work_per_beat) {
      vm.pending_work -= vm.spec.work_per_beat;
      // Stamped from the SIM clock (not hub.beat(), which would stamp the
      // hub's own clock), so rates are exact even if the hub keeps a
      // different clock. Staleness queries still need a shared clock.
      hub_stamps_.push_back(clock_->now());
      ++hub_beats[v];
    }
  }
  // Nothing reads the hub during the loop above: apply the step's beats
  // now, each VM's as one run, grouped per shard in VM order.
  const util::TimeNs* next = hub_stamps_.data();
  for (std::size_t v = 0; v < hub_beats.size(); ++v) {
    if (hub_beats[v] == 0) continue;
    const hub::AppId id = hub_ids_[v];
    hub_runs_[hub::app_id_shard(id)].push_back({id, {next, hub_beats[v]}});
    next += hub_beats[v];
  }
  for (std::vector<hub::AppRun>& runs : hub_runs_) {
    if (runs.empty()) continue;
    hub_->ingest_batch(runs);
    runs.clear();
  }
  hub_stamps_.clear();
  for (auto& vm : vms_) {
    if (!vm.killed) vm.elapsed_s += dt_seconds;  // killed VMs are frozen
  }
  // The decide/act tick at most once per policy period, after physics, so
  // sink actions (restarts) shape the NEXT step.
  if (monitor_ && now_seconds() - last_policy_s_ >= policy_period_s_) {
    last_policy_s_ = now_seconds();
    monitor_->tick();
  }
}

double CloudSim::now_seconds() const { return util::to_seconds(clock_->now()); }

int HeartbeatConsolidator::poll(CloudSim& sim) {
  if (sim.now_seconds() - last_poll_s_ < opts_.period_s) return 0;
  last_poll_s_ = sim.now_seconds();

  // One sweep judges every VM; its verdicts come in hub shard order, so
  // map them back to VM indices and walk the VMs in index order.
  const int n = static_cast<int>(sim.vm_count());
  const fault::FleetReport report = sim.fleet_health(fault::FleetDetector());
  std::vector<const fault::AppHealth*> health_of(static_cast<std::size_t>(n),
                                                 nullptr);
  for (const fault::AppHealth& app : report.apps) {
    const int v = sim.find_vm(app.name);
    if (v >= 0) health_of[static_cast<std::size_t>(v)] = &app;
  }

  int moved = 0;
  for (int v = 0; v < n; ++v) {
    const fault::AppHealth* app = health_of[static_cast<std::size_t>(v)];
    if (app == nullptr || sim.vm_finished(v)) continue;
    const double rate = app->rate_bps;
    const double target = app->target.min_bps;
    if (rate <= 0.0) continue;  // warming up
    // A dead VM's windowed rate is stale, not low — migrating it to
    // "dedicated resources" would rescue nobody. Heartbeat silence is the
    // only signal used (§2.6); the sim's killed flag stays ground truth.
    if (app->health == fault::Health::kDead) continue;

    if (rate < target) {
      // Struggling: move to the machine with the most headroom (other than
      // where it is). "Only when its heart rate drops will it need to be
      // migrated to dedicated resources."
      int best = -1;
      double best_headroom = -1e18;
      for (int m = 0; m < sim.total_machines(); ++m) {
        if (m == sim.placement(v)) continue;
        const double headroom = sim.machine_capacity() - sim.machine_demand(m);
        if (headroom > best_headroom) {
          best_headroom = headroom;
          best = m;
        }
      }
      const double own_headroom =
          sim.machine_capacity() -
          (sim.machine_demand(sim.placement(v)) - sim.vm_demand(v));
      if (best >= 0 && best_headroom > own_headroom) {
        sim.migrate(v, best);
        ++moved;
      }
    } else if (rate >= target * opts_.headroom) {
      // Light VM: pack onto the most-loaded machine that can still absorb
      // its demand (consolidation to free machines entirely).
      const int cur = sim.placement(v);
      int best = -1;
      double best_demand = -1.0;
      for (int m = 0; m < sim.total_machines(); ++m) {
        if (m == cur) continue;
        const double d = sim.machine_demand(m);
        if (d <= 0.0) continue;  // do not open empty machines
        if (d + sim.vm_demand(v) <= sim.machine_capacity() &&
            d > best_demand) {
          best_demand = d;
          best = m;
        }
      }
      // Only consolidate if it can empty the current machine eventually
      // (i.e. the target machine is busier than ours).
      if (best >= 0 &&
          best_demand > sim.machine_demand(cur) - sim.vm_demand(v)) {
        sim.migrate(v, best);
        ++moved;
      }
    }
  }
  migrations_ += moved;
  return moved;
}

}  // namespace hb::cloud
