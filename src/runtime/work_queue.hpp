// Heartbeat-mediated work-queue runtime (paper, Section 2.5).
//
// "Heartbeats can be used to mediate a work queue system, providing better
// load-balancing between workers (especially if workers have asymmetric
// capabilities). An Organic Runtime Environment would use heartbeats to
// monitor worker performance and send approximately the right amount of work
// to its queue."
//
// The simulation: workers with asymmetric speeds each drain a private task
// queue, beating once per completed task through a real heartbeat channel.
// Dispatchers route incoming tasks; the heartbeat-aware dispatcher estimates
// each worker's drain time from its *observed* heart rate (it never sees the
// speed directly — only what the heartbeats reveal), which is precisely the
// paper's pitch. bench/ext_workqueue compares it against speed-blind
// policies on makespan.
#pragma once

#include <cstdint>
#include <deque>
#include <memory>
#include <string>
#include <vector>

#include "core/channel.hpp"
#include "core/memory_store.hpp"
#include "util/clock.hpp"

namespace hb::runtime {

/// One worker: a service rate (work units/second) and a FIFO of tasks.
class Worker {
 public:
  Worker(std::string name, double speed,
         std::shared_ptr<util::Clock> clock);

  const std::string& name() const { return name_; }
  double speed() const { return speed_; }
  void set_speed(double speed) { speed_ = speed < 0 ? 0 : speed; }

  void enqueue(double work_units) { queue_.push_back(work_units); }
  std::size_t queued_tasks() const { return queue_.size(); }
  double queued_work() const;
  std::uint64_t completed_tasks() const { return completed_; }

  /// Advance by dt seconds; beats once per completed task.
  void tick(double dt_seconds);

  /// The worker's heartbeat channel (per-worker stream an observer reads).
  core::Channel& channel() { return channel_; }
  const core::Channel& channel() const { return channel_; }

 private:
  std::string name_;
  double speed_;
  std::deque<double> queue_;
  double progress_ = 0.0;  // work done on the current head task
  std::uint64_t completed_ = 0;
  core::Channel channel_;
};

/// Dispatch policies.
class Dispatcher {
 public:
  virtual ~Dispatcher() = default;
  virtual const char* name() const = 0;
  /// Choose the worker index for the next task of `work_units`.
  virtual std::size_t pick(const std::vector<std::unique_ptr<Worker>>& workers,
                           double work_units) = 0;
};

/// Baseline 1: round-robin, completely load-blind.
class RoundRobinDispatcher final : public Dispatcher {
 public:
  const char* name() const override { return "round-robin"; }
  std::size_t pick(const std::vector<std::unique_ptr<Worker>>& workers,
                   double work_units) override;

 private:
  std::size_t next_ = 0;
};

/// Baseline 2: shortest queue by task *count* — sees backlog but not speed.
class ShortestQueueDispatcher final : public Dispatcher {
 public:
  const char* name() const override { return "shortest-queue"; }
  std::size_t pick(const std::vector<std::unique_ptr<Worker>>& workers,
                   double work_units) override;
};

/// The paper's proposal: estimate each worker's throughput from its heart
/// rate and send the task where the predicted completion is earliest.
class HeartbeatDispatcher final : public Dispatcher {
 public:
  /// Beats used for each worker's rate estimate.
  static constexpr std::uint32_t kWindow = 8;

  const char* name() const override { return "heartbeat"; }
  std::size_t pick(const std::vector<std::unique_ptr<Worker>>& workers,
                   double work_units) override;
};

/// The closed simulation: submit tasks through a dispatcher, tick workers.
class WorkQueueSim {
 public:
  explicit WorkQueueSim(std::shared_ptr<util::ManualClock> clock);

  Worker& add_worker(const std::string& name, double speed);
  std::vector<std::unique_ptr<Worker>>& workers() { return workers_; }

  void submit(double work_units, Dispatcher& dispatcher);

  /// Advance all workers by dt (clock moves once).
  void tick(double dt_seconds);

  bool drained() const;
  std::uint64_t total_completed() const;
  double now_seconds() const;

  /// Run until drained; returns the makespan in seconds.
  double run_to_drain(double dt_seconds, double max_seconds);

 private:
  std::shared_ptr<util::ManualClock> clock_;
  std::vector<std::unique_ptr<Worker>> workers_;
};

}  // namespace hb::runtime
