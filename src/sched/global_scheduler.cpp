#include "sched/global_scheduler.hpp"

#include <cassert>
#include <cmath>
#include <stdexcept>

namespace hb::sched {

GlobalScheduler::GlobalScheduler(GlobalSchedulerOptions opts) : opts_(opts) {
  if (opts_.total_cores < 1) opts_.total_cores = 1;
  if (opts_.min_cores_per_app < 0) opts_.min_cores_per_app = 0;
}

int GlobalScheduler::add_app(core::HeartbeatReader reader, Actuator actuator) {
  assert(actuator);
  if (static_cast<int>(apps_.size() + 1) * opts_.min_cores_per_app >
      opts_.total_cores) {
    throw std::runtime_error(
        "GlobalScheduler: not enough cores for another app's minimum");
  }
  App app{std::move(reader), std::move(actuator), opts_.min_cores_per_app};
  app.actuator(app.alloc);
  apps_.push_back(std::move(app));
  return static_cast<int>(apps_.size()) - 1;
}

int GlobalScheduler::allocation(int app) const {
  return apps_.at(static_cast<std::size_t>(app)).alloc;
}

int GlobalScheduler::free_cores() const {
  int used = 0;
  for (const auto& app : apps_) used += app.alloc;
  return opts_.total_cores - used;
}

std::vector<GlobalScheduler::Snapshot> GlobalScheduler::observe() const {
  std::vector<Snapshot> out(apps_.size());
  for (std::size_t i = 0; i < apps_.size(); ++i) {
    const core::HeartbeatReader& reader = apps_[i].reader;
    Snapshot& snap = out[i];
    snap.rate = reader.current_rate(opts_.window);
    snap.beats = reader.count();
    snap.target = reader.target();
    snap.dead = detector_.classify(reader) == fault::Health::kDead;
  }
  return out;
}

double GlobalScheduler::normalized_error(const Snapshot& snap) {
  const double rate = snap.rate;
  const core::TargetRate target = snap.target;
  if (!std::isfinite(rate) || rate <= 0.0) return 0.0;
  if (target.min_bps > 0.0 && rate < target.min_bps) {
    return (rate - target.min_bps) / target.min_bps;  // negative deficit
  }
  if (std::isfinite(target.max_bps) && target.max_bps > 0.0 &&
      rate > target.max_bps) {
    return (rate - target.max_bps) / target.max_bps;  // positive surplus
  }
  return 0.0;
}

bool GlobalScheduler::move_core(int from, int to) {
  if (from != kFreePool) {
    App& giver = apps_[static_cast<std::size_t>(from)];
    --giver.alloc;
    giver.actuator(giver.alloc);
  }
  if (to != kFreePool) {
    App& receiver = apps_[static_cast<std::size_t>(to)];
    ++receiver.alloc;
    receiver.actuator(receiver.alloc);
  }
  ++moves_;
  cooldown_left_ = kCooldownPolls;
  return true;
}

bool GlobalScheduler::poll() {
  if (apps_.empty()) return false;
  if (cooldown_left_ > 0) {
    --cooldown_left_;
    return false;
  }

  const std::vector<Snapshot> snaps = observe();
  const int min_alloc = opts_.min_cores_per_app;
  const auto live_and_warm = [&](std::size_t i) {
    return !snaps[i].dead && snaps[i].beats >= opts_.warmup_beats;
  };

  // Find the neediest app (most negative error) among warmed-up, live apps.
  // A dead app never receives: feeding cores to a producer that stopped
  // beating is the one reallocation guaranteed to help nobody.
  int needy = kFreePool;
  double worst = -kDeficitDeadband;
  for (std::size_t i = 0; i < apps_.size(); ++i) {
    if (!live_and_warm(i)) continue;
    const double e = normalized_error(snaps[i]);
    if (e < worst) {
      worst = e;
      needy = static_cast<int>(i);
    }
  }

  // Free cores go to the needy app first.
  if (needy >= 0 && free_cores() > 0) return move_core(kFreePool, needy);

  // Then the dead donate, to the needy app or, if nobody is starving, back
  // to the pool: their cores serve nobody.
  for (std::size_t i = 0; i < apps_.size(); ++i) {
    if (snaps[i].dead && apps_[i].alloc > min_alloc) {
      return move_core(static_cast<int>(i), needy);
    }
  }

  if (needy == kFreePool) {
    // Nobody is starving: reclaim from an app above its max (back toward
    // the "minimum resources" goal of §5.3).
    for (std::size_t i = 0; i < apps_.size(); ++i) {
      if (live_and_warm(i) && apps_[i].alloc > min_alloc &&
          normalized_error(snaps[i]) > kDeficitDeadband) {
        return move_core(static_cast<int>(i), kFreePool);
      }
    }
    return false;
  }

  // Otherwise tax the most generous live donor: prefer the largest
  // positive error (above max); fall back to the app with the smallest
  // deficit that can still give (best-effort fairness), as long as the
  // donor is strictly better off than the receiver.
  int donor = -1;
  double donor_error = worst;  // must beat the receiver's error
  for (std::size_t i = 0; i < apps_.size(); ++i) {
    if (static_cast<int>(i) == needy || !live_and_warm(i)) continue;
    if (apps_[i].alloc <= min_alloc) continue;
    const double e = normalized_error(snaps[i]);
    if (e > donor_error) {
      donor_error = e;
      donor = static_cast<int>(i);
    }
  }
  // Only move a core if the donor is meaningfully better off.
  if (donor < 0 || donor_error - worst < 2.0 * kDeficitDeadband) return false;
  return move_core(donor, needy);
}

}  // namespace hb::sched
