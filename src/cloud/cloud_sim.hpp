// Heartbeat-driven cloud management (paper, Section 2.6).
//
// "As long as their heart rates are meeting their goals, these 'light' VMs
// can be consolidated onto a smaller number of physical machines to save
// energy and free up resources. Only when an application's demands go up and
// its heart rate drops, will it need to be migrated to dedicated resources."
// Also: "A lack of heartbeats from a particular node would indicate that it
// has failed."
//
// Model: physical machines with a fixed service capacity; VMs with phased
// service demand and a registered target rate. Co-located VMs share machine
// capacity (demand-proportional). Each VM is an app on the heartbeat hub
// the sim is built on, and its beats go there and nowhere else; the
// consolidation manager only ever reads heart rates and targets, from one
// fleet sweep of that hub. bench/ext_cloud compares heartbeat-driven
// packing against static placement.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <unordered_map>
#include <vector>

#include "fault/fleet_detector.hpp"
#include "hub/summary.hpp"
#include "util/clock.hpp"

namespace hb::hub {
class HeartbeatHub;
}

namespace hb::policy {
class Monitor;
}

namespace hb::cloud {

/// One phase of VM demand: service units/second wanted, for a duration.
struct DemandPhase {
  double duration_s = 10.0;
  double demand = 1.0;  ///< service units/second requested
};

struct VmSpec {
  std::string name;
  std::vector<DemandPhase> phases;
  double work_per_beat = 1.0;    ///< service units per heartbeat
  double target_min_bps = 0.5;   ///< registered goal
};

class CloudSim {
 public:
  /// The hub is the one record of the VMs' beats. Beats are stamped from
  /// the sim's clock, so the hub's rates are exact whatever clock it
  /// holds; give it the sim's ManualClock if you also want meaningful
  /// AppSummary::staleness_ns. Throws std::invalid_argument for a null
  /// hub or no machines or capacity.
  CloudSim(int machines, double machine_capacity,
           std::shared_ptr<util::ManualClock> clock,
           std::shared_ptr<hub::HeartbeatHub> hub);

  /// Register the VM with the hub as an app named by its VmSpec, target
  /// [target_min_bps, inf), and place it on the first machine with room.
  /// Throws std::invalid_argument, before registering anything, for a
  /// name another VM holds: the hub keys apps by name.
  int add_vm(VmSpec spec);

  int total_machines() const { return num_machines_; }
  double machine_capacity() const { return capacity_; }
  std::size_t vm_count() const { return vms_.size(); }

  int placement(int vm) const { return machine_of_.at(static_cast<std::size_t>(vm)); }
  /// Migrate a VM (instantaneous; live-migration cost is out of scope).
  void migrate(int vm, int machine);

  /// Machines hosting at least one VM.
  int used_machines() const;

  /// Current demand on a machine (sum of its VMs' phase demands).
  double machine_demand(int machine) const;

  /// Advance dt seconds: each VM receives min(demand, proportional share)
  /// of its machine's capacity and beats per completed work_per_beat.
  void step(double dt_seconds);

  double now_seconds() const;

  /// The VM's current phase demand (ground truth; managers should NOT use
  /// this — it exists for tests and for the load-based baseline, which in
  /// real clouds sees machine utilization but not application goals).
  double vm_demand(int vm) const;
  /// True once the VM ran out of phases (demand 0 afterwards).
  bool vm_finished(int vm) const;

  /// Fail a VM: it stops beating, consuming, and progressing through its
  /// phases ("a lack of heartbeats from a particular node would indicate
  /// that it has failed", §2.6). Only heartbeat silence announces it.
  void kill_vm(int vm);
  /// Bring a killed VM back where it left off; it resumes beating.
  void restart_vm(int vm);
  bool vm_killed(int vm) const;

  /// Index of the VM with this VmSpec name, or -1 if unknown (the seam
  /// policy sinks use to map hub app names back to sim VMs).
  int find_vm(const std::string& name) const;

  /// Sweep the whole fleet's health from one snapshot of the hub.
  fault::FleetReport fleet_health(const fault::FleetDetector& detector) const;

  /// Attach the decide/act layer: every `period_s` of simulated time,
  /// step() ends with one monitor->tick(), whose sinks may act back on the
  /// sim (a CloudRestartSink makes the fleet self-heal); their actions take
  /// effect from the next step on. Throws std::logic_error for a monitor
  /// on another hub. nullptr detaches.
  void set_monitor(std::shared_ptr<policy::Monitor> monitor,
                   double period_s = 1.0);

 private:
  struct Vm {
    VmSpec spec;
    double elapsed_s = 0.0;
    double pending_work = 0.0;
    bool killed = false;
  };

  int num_machines_;
  double capacity_;
  std::shared_ptr<util::ManualClock> clock_;
  std::vector<Vm> vms_;
  std::vector<int> machine_of_;
  std::unordered_map<std::string, int> vm_by_name_;
  std::shared_ptr<hub::HeartbeatHub> hub_;
  std::vector<hub::AppId> hub_ids_;  ///< parallel to vms_
  /// One step's beats: their timestamps in VM order, and per hub
  /// shard one run per beating VM, in VM order, pointing into hub_stamps_.
  std::vector<util::TimeNs> hub_stamps_;
  std::vector<std::vector<hub::AppRun>> hub_runs_;

  std::shared_ptr<policy::Monitor> monitor_;
  double policy_period_s_ = 1.0;
  double last_policy_s_ = -1e18;
};

/// Options for HeartbeatConsolidator (namespace scope: a nested struct with
/// default member initializers cannot be a default argument inside its own
/// enclosing class).
struct ConsolidatorOptions {
  /// A VM is "light" (packable) when its rate exceeds target by this
  /// headroom factor.
  double headroom = 1.3;
  /// Poll/act at most once per this much simulated time.
  double period_s = 2.0;
};

/// The heartbeat-driven consolidation manager.
class HeartbeatConsolidator {
 public:
  using Options = ConsolidatorOptions;

  explicit HeartbeatConsolidator(Options opts = Options()) : opts_(opts) {}

  /// Judge all VMs from one fleet sweep and issue migrations: struggling
  /// VMs (rate < target) are moved to the least-loaded machine;
  /// meeting-with-headroom VMs are packed onto the fullest machine that
  /// still has demand headroom. VMs are walked in index order; dead ones
  /// are left alone. Returns the number of migrations performed.
  int poll(CloudSim& sim);

  int migrations() const { return migrations_; }

 private:
  Options opts_;
  double last_poll_s_ = -1e18;
  int migrations_ = 0;
};

}  // namespace hb::cloud
