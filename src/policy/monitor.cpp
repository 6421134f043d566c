#include "policy/monitor.hpp"

#include <algorithm>
#include <chrono>
#include <stdexcept>
#include <utility>

#include "hub/hub.hpp"

namespace hb::policy {

Monitor::Monitor(std::shared_ptr<hub::HeartbeatHub> hub,
                 fault::FleetDetectorOptions detector_opts,
                 PolicyOptions policy_opts)
    : hub_(std::move(hub)),
      detector_(detector_opts),
      recorder_(std::make_shared<obs::FlightRecorder>()),
      engine_(policy_opts) {
  if (!hub_) throw std::invalid_argument("Monitor: null hub");
  hub_->set_flight_recorder(recorder_);
  engine_.add_sink(recorder_->event_sink());
}

Monitor::Monitor(std::shared_ptr<transport::ShmIngestQueue> queue,
                 std::shared_ptr<hub::HeartbeatHub> hub,
                 hub::ShmIngestPumpOptions pump_opts,
                 fault::FleetDetectorOptions detector_opts,
                 PolicyOptions policy_opts)
    : Monitor(std::move(hub), detector_opts, policy_opts) {
  pump_ = std::make_unique<hub::ShmIngestPump>(queue, *hub_, pump_opts);
}

std::shared_ptr<const fault::FleetReport> Monitor::tick() {
  last_report_ = std::make_shared<const fault::FleetReport>(
      detector_.sweep(hub_->snapshot()));
  recorder_->record_report(last_report_);
  engine_.observe(*last_report_);
  return last_report_;
}

void Monitor::run(util::TimeNs run_ns, util::TimeNs period_ns,
                  const std::atomic<bool>* stop,
                  const std::function<void()>& after_tick) {
  if (!pump_) throw std::logic_error("Monitor::run: no ring; call tick()");
  if (period_ns <= 0) throw std::invalid_argument("Monitor::run: period <= 0");
  using Clock = std::chrono::steady_clock;
  const std::chrono::nanoseconds period(period_ns);
  const auto deadline = run_ns > 0
                            ? Clock::now() + std::chrono::nanoseconds(run_ns)
                            : Clock::time_point::max();
  auto next_tick = Clock::now() + period;
  // relaxed: the flag only ends the loop; it publishes no data.
  while (!(stop && stop->load(std::memory_order_relaxed)) &&
         Clock::now() < deadline) {
    pump_->poll();
    if (Clock::now() >= next_tick) {
      tick();
      if (after_tick) after_tick();
      next_tick += period;
      if (next_tick < Clock::now()) next_tick = Clock::now() + period;
    }
    pump_->wait(std::chrono::duration_cast<std::chrono::nanoseconds>(
                    std::min(next_tick, deadline) - Clock::now())
                    .count());
  }
  pump_->poll();
  tick();
}

}  // namespace hb::policy
