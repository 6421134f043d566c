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
// capacity (demand-proportional). Each VM beats through a real heartbeat
// channel; the consolidation manager only ever reads heart rates and
// targets. bench/ext_cloud compares heartbeat-driven packing against a
// machine-load threshold policy (the RightScale-style baseline the paper
// contrasts with).
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <unordered_map>
#include <vector>

#include "core/channel.hpp"
#include "core/reader.hpp"
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
  CloudSim(int machines, double machine_capacity,
           std::shared_ptr<util::ManualClock> clock);

  int add_vm(VmSpec spec);  ///< placed on the first machine with room

  /// Register every current and future VM with a heartbeat aggregation hub:
  /// each VM becomes a hub app (named by its VmSpec, target [min, inf)) and
  /// every beat the sim emits is mirrored into the hub, stamped from the
  /// sim's clock — so hub rates match per-VM reader rates whatever clock
  /// the hub holds. Give the hub the sim's ManualClock if you also want
  /// meaningful AppSummary::staleness_ns. Cluster managers can then watch
  /// the whole fleet through one HeartbeatHub::snapshot() instead of one
  /// reader per VM.
  /// VM names should be unique — the hub keys apps by name.
  void attach_hub(std::shared_ptr<hub::HeartbeatHub> hub);

  int machines() const { return static_cast<int>(machine_of_.size() ? used_machines() : 0); }
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

  /// The VM's heartbeat channel / observer view.
  core::Channel& channel(int vm);
  core::HeartbeatReader reader(int vm) const;

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

  /// Sweep the whole fleet's health through the attached hub in one pass —
  /// no per-VM reader queries. Throws std::logic_error without attach_hub.
  fault::FleetReport fleet_health(const fault::FleetDetector& detector) const;

  /// Attach the decide/act layer: every `period_s` of simulated time,
  /// step() ends with one monitor->tick(), whose sinks may act back on the
  /// sim (a CloudRestartSink makes the fleet self-heal); their actions take
  /// effect from the next step on. Throws std::logic_error without
  /// attach_hub or for a monitor on another hub. nullptr detaches.
  void set_monitor(std::shared_ptr<policy::Monitor> monitor,
                   double period_s = 1.0);

 private:
  struct Vm {
    VmSpec spec;
    double elapsed_s = 0.0;
    double pending_work = 0.0;
    bool killed = false;
    std::shared_ptr<core::Channel> channel;
  };

  hub::AppId register_with_hub(const Vm& vm);

  int num_machines_;
  double capacity_;
  std::shared_ptr<util::ManualClock> clock_;
  std::vector<Vm> vms_;
  std::vector<int> machine_of_;
  std::unordered_map<std::string, int> vm_by_name_;
  std::shared_ptr<hub::HeartbeatHub> hub_;
  std::vector<hub::AppId> hub_ids_;  ///< parallel to vms_ when hub_ is set
  /// One step's mirrored beats, per hub shard, in VM order.
  std::vector<std::vector<hub::AppRecord>> hub_runs_;

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

  /// Observe all VMs and issue migrations: struggling VMs (rate < target)
  /// are moved to the least-loaded machine; meeting-with-headroom VMs are
  /// packed onto the fullest machine that still has demand headroom.
  /// Returns the number of migrations performed.
  int poll(CloudSim& sim);

  int migrations() const { return migrations_; }

 private:
  Options opts_;
  double last_poll_s_ = -1e18;
  int migrations_ = 0;
};

}  // namespace hb::cloud
