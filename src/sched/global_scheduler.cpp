#include "sched/global_scheduler.hpp"

#include <cassert>
#include <cmath>
#include <stdexcept>
#include <unordered_map>

#include "hub/hub.hpp"

namespace hb::sched {

GlobalScheduler::GlobalScheduler(GlobalSchedulerOptions opts) : opts_(opts) {
  if (opts_.total_cores < 1) opts_.total_cores = 1;
  if (opts_.min_cores_per_app < 0) opts_.min_cores_per_app = 0;
}

GlobalScheduler::GlobalScheduler(GlobalSchedulerOptions opts,
                                 hub::HeartbeatHub& hub)
    : GlobalScheduler(opts) {
  hub_ = &hub;
}

int GlobalScheduler::add_app_impl(App app) {
  assert(app.actuator);
  if (static_cast<int>(apps_.size() + 1) * opts_.min_cores_per_app >
      opts_.total_cores) {
    throw std::runtime_error(
        "GlobalScheduler: not enough cores for another app's minimum");
  }
  app.alloc = opts_.min_cores_per_app;
  app.actuator(app.alloc);
  apps_.push_back(std::move(app));
  return static_cast<int>(apps_.size()) - 1;
}

int GlobalScheduler::add_app(std::string name, core::HeartbeatReader reader,
                             Actuator actuator) {
  App app;
  app.name = std::move(name);
  app.reader = std::move(reader);
  app.actuator = std::move(actuator);
  return add_app_impl(std::move(app));
}

int GlobalScheduler::add_app(std::string name, Actuator actuator) {
  if (!hub_) {
    throw std::logic_error(
        "GlobalScheduler: hub-backed add_app requires construction from a "
        "HeartbeatHub");
  }
  App app;
  app.name = std::move(name);
  app.actuator = std::move(actuator);
  return add_app_impl(std::move(app));
}

int GlobalScheduler::allocation(int app) const {
  return apps_.at(static_cast<std::size_t>(app)).alloc;
}

const std::string& GlobalScheduler::name(int app) const {
  return apps_.at(static_cast<std::size_t>(app)).name;
}

int GlobalScheduler::free_cores() const {
  int used = 0;
  for (const auto& app : apps_) used += app.alloc;
  return opts_.total_cores - used;
}

std::vector<GlobalScheduler::Snapshot> GlobalScheduler::observe() const {
  std::vector<Snapshot> out(apps_.size());

  // One FleetSnapshot serves every hub-backed app this poll — grabbed
  // once, read in place (the snapshot is immutable and shared, so the
  // name index points straight into it; no flat copy of the fleet).
  // Between hub flushes this is the cached snapshot: polling faster than
  // the fleet changes costs pointer reads, not per-shard walks. Evicted
  // apps stay listed: an eviction is the hub's own death verdict, and
  // classify() below turns it into snap.dead.
  std::unordered_map<std::string, const hub::AppSummary*> by_name;
  std::shared_ptr<const hub::FleetSnapshot> fleet;
  if (hub_) {
    fleet = hub_->snapshot();
    by_name.reserve(fleet->app_count());
    fleet->for_each_app(
        [&by_name](const hub::AppSummary& s) { by_name.emplace(s.name, &s); },
        /*include_evicted=*/true);
  }

  const fault::FleetDetector detector(opts_.fault_options);

  for (std::size_t i = 0; i < apps_.size(); ++i) {
    const App& app = apps_[i];
    Snapshot& snap = out[i];
    if (app.reader) {
      snap.rate = app.reader->current_rate(opts_.window);
      snap.beats = app.reader->count();
      snap.target = app.reader->target();
      if (opts_.detect_failures) {
        snap.dead = detector.classify(*app.reader) == fault::Health::kDead;
      }
    } else if (auto it = by_name.find(app.name); it != by_name.end()) {
      snap.rate = it->second->rate_bps;
      snap.beats = it->second->total_beats;
      snap.target = it->second->target;
      if (opts_.detect_failures) {
        snap.dead = detector.classify(*it->second) == fault::Health::kDead;
      }
    }
    // Unknown hub names stay zeroed: the producer has not registered yet,
    // so the app reads as still warming up (never as dead — registered
    // names never leave the listing, even when evicted).
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

bool GlobalScheduler::poll() {
  if (apps_.empty()) return false;
  if (cooldown_left_ > 0) {
    --cooldown_left_;
    return false;
  }

  const std::vector<Snapshot> snaps = observe();

  // Find the neediest app (most negative error) among warmed-up, live apps.
  // A dead app never receives: feeding cores to a producer that stopped
  // beating is the one reallocation guaranteed to help nobody.
  int needy = -1;
  double worst = -opts_.deficit_deadband;
  for (std::size_t i = 0; i < apps_.size(); ++i) {
    if (snaps[i].dead) continue;
    if (snaps[i].beats < opts_.warmup_beats) continue;
    const double e = normalized_error(snaps[i]);
    if (e < worst) {
      worst = e;
      needy = static_cast<int>(i);
    }
  }
  if (needy < 0) {
    // Nobody is starving. Reclaim from the dead first, then from an app
    // above its max (back toward the "minimum resources" goal of §5.3).
    for (std::size_t i = 0; i < apps_.size(); ++i) {
      App& app = apps_[i];
      if (snaps[i].dead && app.alloc > opts_.min_cores_per_app) {
        --app.alloc;
        app.actuator(app.alloc);
        ++moves_;
        cooldown_left_ = opts_.cooldown_polls;
        return true;
      }
    }
    for (std::size_t i = 0; i < apps_.size(); ++i) {
      App& app = apps_[i];
      if (snaps[i].dead || snaps[i].beats < opts_.warmup_beats) continue;
      if (normalized_error(snaps[i]) > opts_.deficit_deadband &&
          app.alloc > opts_.min_cores_per_app) {
        --app.alloc;
        app.actuator(app.alloc);
        ++moves_;
        cooldown_left_ = opts_.cooldown_polls;
        return true;
      }
    }
    return false;
  }

  App& receiver = apps_[static_cast<std::size_t>(needy)];

  // Free cores first.
  if (free_cores() > 0) {
    ++receiver.alloc;
    receiver.actuator(receiver.alloc);
    ++moves_;
    cooldown_left_ = opts_.cooldown_polls;
    return true;
  }

  // Dead apps donate unconditionally — their cores serve nobody.
  int donor = -1;
  for (std::size_t i = 0; i < apps_.size(); ++i) {
    if (static_cast<int>(i) == needy) continue;
    if (snaps[i].dead && apps_[i].alloc > opts_.min_cores_per_app) {
      donor = static_cast<int>(i);
      break;
    }
  }

  if (donor < 0) {
    // Otherwise tax the most generous live donor: prefer the largest
    // positive error (above max); fall back to the app with the smallest
    // deficit that can still give (best-effort fairness), as long as the
    // donor is strictly better off than the receiver.
    double donor_error = worst;  // must beat the receiver's error
    for (std::size_t i = 0; i < apps_.size(); ++i) {
      if (static_cast<int>(i) == needy) continue;
      App& app = apps_[i];
      if (snaps[i].dead) continue;
      if (app.alloc <= opts_.min_cores_per_app) continue;
      if (snaps[i].beats < opts_.warmup_beats) continue;
      const double e = normalized_error(snaps[i]);
      if (e > donor_error) {
        donor_error = e;
        donor = static_cast<int>(i);
      }
    }
    // Only move a core if the donor is meaningfully better off.
    if (donor < 0 || donor_error - worst < 2.0 * opts_.deficit_deadband) {
      return false;
    }
  }
  App& giver = apps_[static_cast<std::size_t>(donor)];
  --giver.alloc;
  giver.actuator(giver.alloc);
  ++receiver.alloc;
  receiver.actuator(receiver.alloc);
  ++moves_;
  cooldown_left_ = opts_.cooldown_polls;
  return true;
}

}  // namespace hb::sched
