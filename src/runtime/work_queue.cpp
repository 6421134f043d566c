#include "runtime/work_queue.hpp"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <limits>

#include "core/rate.hpp"

namespace hb::runtime {

Worker::Worker(std::string name, double speed,
               std::shared_ptr<util::Clock> clock)
    : name_(std::move(name)),
      speed_(speed),
      channel_(std::make_shared<core::MemoryStore>(512, 8),
               std::move(clock)) {}

double Worker::queued_work() const {
  double total = -progress_;
  for (const double w : queue_) total += w;
  return total < 0 ? 0 : total;
}

void Worker::tick(double dt_seconds) {
  double budget = dt_seconds * speed_;
  while (budget > 0.0 && !queue_.empty()) {
    const double remaining = queue_.front() - progress_;
    if (budget < remaining) {
      progress_ += budget;
      return;
    }
    budget -= remaining;
    queue_.pop_front();
    progress_ = 0.0;
    ++completed_;
    channel_.beat(completed_);  // §2.5: beat when work is consumed
  }
}

std::size_t RoundRobinDispatcher::pick(
    const std::vector<std::unique_ptr<Worker>>& workers, double) {
  assert(!workers.empty());
  const std::size_t w = next_ % workers.size();
  ++next_;
  return w;
}

std::size_t ShortestQueueDispatcher::pick(
    const std::vector<std::unique_ptr<Worker>>& workers, double) {
  assert(!workers.empty());
  std::size_t best = 0;
  for (std::size_t i = 1; i < workers.size(); ++i) {
    if (workers[i]->queued_tasks() < workers[best]->queued_tasks()) best = i;
  }
  return best;
}

std::size_t HeartbeatDispatcher::pick(
    const std::vector<std::unique_ptr<Worker>>& workers, double work_units) {
  assert(!workers.empty());
  // Estimate each worker's task throughput from its recent beats; a worker
  // with no rate yet (cold start) is treated optimistically so every worker
  // gets probed early.
  std::size_t best = 0;
  double best_eta = std::numeric_limits<double>::infinity();
  for (std::size_t i = 0; i < workers.size(); ++i) {
    const double rate = workers[i]->channel().rate(window_);  // tasks/s
    double eta;
    if (rate <= 0.0 || !std::isfinite(rate)) {
      // Unobserved worker: assume it is instantly available.
      eta = static_cast<double>(workers[i]->queued_tasks());
      eta *= 1e-3;
    } else {
      // Tasks ahead of us (plus this one) at the observed task rate.
      eta = (static_cast<double>(workers[i]->queued_tasks()) + 1.0) / rate;
    }
    if (eta < best_eta) {
      best_eta = eta;
      best = i;
    }
  }
  (void)work_units;
  return best;
}

WorkQueueSim::WorkQueueSim(std::shared_ptr<util::ManualClock> clock)
    : clock_(std::move(clock)) {
  assert(clock_);
}

Worker& WorkQueueSim::add_worker(const std::string& name, double speed) {
  workers_.push_back(std::make_unique<Worker>(name, speed, clock_));
  return *workers_.back();
}

void WorkQueueSim::submit(double work_units, Dispatcher& dispatcher) {
  const std::size_t w = dispatcher.pick(workers_, work_units);
  workers_.at(w)->enqueue(work_units);
}

void WorkQueueSim::tick(double dt_seconds) {
  clock_->advance(util::from_seconds(dt_seconds));
  for (auto& w : workers_) w->tick(dt_seconds);
}

bool WorkQueueSim::drained() const {
  for (const auto& w : workers_) {
    if (w->queued_tasks() > 0) return false;
  }
  return true;
}

std::uint64_t WorkQueueSim::total_completed() const {
  std::uint64_t total = 0;
  for (const auto& w : workers_) total += w->completed_tasks();
  return total;
}

double WorkQueueSim::now_seconds() const {
  return util::to_seconds(clock_->now());
}

double WorkQueueSim::run_to_drain(double dt_seconds, double max_seconds) {
  const double start = now_seconds();
  while (!drained() && now_seconds() - start < max_seconds) {
    tick(dt_seconds);
  }
  return now_seconds() - start;
}

}  // namespace hb::runtime
