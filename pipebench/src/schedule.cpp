#include "schedule.hpp"

#include <algorithm>
#include <cstdio>
#include <numeric>
#include <stdexcept>

#include "util/time.hpp"

namespace pipebench {

namespace {

using hb::util::kNsPerMs;
using hb::util::kNsPerSec;

/// SplitMix64: a tiny, fully specified generator, so a seed gives the same
/// schedule with every compiler and standard library.
class Rng {
 public:
  explicit Rng(std::uint64_t seed) : state_(seed) {}
  std::uint64_t next() {
    std::uint64_t z = (state_ += 0x9e3779b97f4a7c15ULL);
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
    return z ^ (z >> 31);
  }
  /// Uniform in [0, n), n > 0.
  std::uint64_t below(std::uint64_t n) { return next() % n; }
  template <typename T>
  void shuffle(std::vector<T>& v) {
    for (std::size_t i = v.size(); i > 1; --i) {
      std::swap(v[i - 1], v[static_cast<std::size_t>(below(i))]);
    }
  }

 private:
  std::uint64_t state_;
};

/// n phases in [lo, hi): one uniform draw inside each of n equal strata,
/// handed out in a seeded order. Every seed then covers the range the same
/// way, so percentiles that depend on phases do not move with the seed.
std::vector<TimeNs> stratified(Rng& rng, std::size_t n, TimeNs lo, TimeNs hi) {
  std::vector<TimeNs> out(n);
  const double width = static_cast<double>(hi - lo) / static_cast<double>(n);
  const auto w = static_cast<std::uint64_t>(width);
  for (std::size_t i = 0; i < n; ++i) {
    out[i] = lo + static_cast<TimeNs>(static_cast<double>(i) * width) +
             static_cast<TimeNs>(w > 0 ? rng.below(w) : 0);
  }
  rng.shuffle(out);
  return out;
}

constexpr TimeNs seconds_to_ns(double s) {
  return static_cast<TimeNs>(s * static_cast<double>(kNsPerSec));
}

void make_fleet_steady(Schedule& s, Rng& rng) {
  s.gen_threads = 1;
  s.flush_every = 1;
  s.tick_ns = 100 * kNsPerMs;
  s.warmup_ns = kNsPerSec;
  const TimeNs period = 20 * kNsPerMs;  // 50 Hz
  s.apps.resize(4096);
  const std::vector<TimeNs> phases = stratified(rng, s.apps.size(), 0, period);
  for (std::uint32_t i = 0; i < s.apps.size(); ++i) {
    char name[32];
    std::snprintf(name, sizeof(name), "app-%04u", i);
    AppPlan& a = s.apps[i];
    a.name = name;
    a.period_ns = period;
    a.phase_ns = phases[i];
  }
}

void make_firehose(Schedule& s, Rng& rng) {
  s.gen_threads = 2;
  // A multiple of kIngestFrameRecords (3): every flush packs full frames.
  s.flush_every = 12;
  // Far below one lane's 256 frames (768 records) per app (apps advance
  // evenly, 128 records each) and the shared ring's capacity.
  s.inflight_window = 4096;
  s.tick_ns = 100 * kNsPerMs;
  s.warmup_ns = kNsPerSec;
  // 32 apps at 62.5 kHz: 2M beats/s, a fixed rate well inside what two
  // producer threads and the pump sustain on a 4-CPU host, so per-beat
  // costs and latencies are measured without saturating the machine.
  const TimeNs period = 16'000;
  s.apps.resize(32);
  const std::vector<TimeNs> phases = stratified(rng, s.apps.size(), 0, period);
  for (std::uint32_t i = 0; i < s.apps.size(); ++i) {
    char name[32];
    std::snprintf(name, sizeof(name), "fh-%02u", i);
    AppPlan& a = s.apps[i];
    a.name = name;
    a.period_ns = period;
    a.phase_ns = phases[i];
    // Construction order is app order, so the first eight take the fast
    // lanes: four per thread.
    a.thread = i % 2;
  }
}

void make_churn(Schedule& s, Rng& rng, double seconds) {
  if (seconds < kChurnMinSeconds) {
    throw std::invalid_argument("churn needs a window of at least 8 seconds");
  }
  s.gen_threads = 1;
  s.flush_every = 1;
  const TimeNs period = 50 * kNsPerMs;  // 20 Hz
  s.tick_ns = period;
  s.warmup_ns = 1500 * kNsPerMs;
  constexpr std::uint32_t kRacks = 64;
  constexpr std::uint32_t kVms = 16;
  s.apps.resize(kRacks * kVms);
  s.groups.resize(kRacks);
  // One phase per rack, in the middle of a tick interval: every member of
  // a silenced rack crosses the death threshold in the same sweep, well
  // clear of a tick boundary, so the rack folds into one event.
  const std::vector<TimeNs> phases =
      stratified(rng, kRacks, 15 * kNsPerMs, 35 * kNsPerMs);
  for (std::uint32_t r = 0; r < kRacks; ++r) {
    char rack[16];
    std::snprintf(rack, sizeof(rack), "rack%02u", r);
    s.groups[r] = rack;
    const TimeNs phase = phases[r];
    for (std::uint32_t v = 0; v < kVms; ++v) {
      char name[32];
      std::snprintf(name, sizeof(name), "rack%02u/vm-%02u", r, v);
      AppPlan& a = s.apps[r * kVms + v];
      a.name = name;
      a.period_ns = period;
      a.phase_ns = phase;
      a.group = static_cast<std::int32_t>(r);
    }
  }

  // Slot layout: silences start after warm-up and end (revived and seen)
  // at least one second before the stop.
  const std::uint64_t first = static_cast<std::uint64_t>(s.warmup_ns / period) + 2;
  const std::uint64_t end = static_cast<std::uint64_t>(s.stop_ns() / period);
  const std::uint64_t revive_by = end - 20;
  // One silence length for every rack and single silence, so the seed
  // moves when things die, not how long the detector's windows stretch.
  constexpr std::uint64_t kSilence = 25;  // 1.25 s

  std::vector<std::uint32_t> racks(kRacks);
  std::iota(racks.begin(), racks.end(), 0u);
  rng.shuffle(racks);
  // 48 racks go dark whole; the other 16 lose single apps and host the
  // flappers.
  for (std::uint32_t i = 0; i < 48; ++i) {
    const std::uint32_t r = racks[i];
    const std::uint64_t start = first + rng.below(revive_by - kSilence - first);
    for (std::uint32_t v = 0; v < kVms; ++v) {
      s.silences.push_back({r * kVms + v, start, start + kSilence, true});
    }
  }
  constexpr std::uint64_t kFlapDead = 25, kFlapAlive = 15, kFlapCycles = 3;
  for (std::uint32_t i = 48; i < kRacks; ++i) {
    const std::uint32_t r = racks[i];
    std::vector<std::uint32_t> vms(kVms);
    std::iota(vms.begin(), vms.end(), 0u);
    rng.shuffle(vms);
    // Single silences of one rack start at least two ticks apart, so no
    // sweep ever sees three of them die together (which would fold).
    std::vector<std::uint64_t> starts;
    for (std::uint64_t t = first; t + kSilence <= revive_by; t += 2) starts.push_back(t);
    rng.shuffle(starts);
    for (std::uint32_t k = 0; k < kVms - 1; ++k) {
      s.silences.push_back({r * kVms + vms[k], starts[k], starts[k] + kSilence, false});
    }
    // The last vm: a flapper in half of these racks (three quick
    // kill/revive cycles cross PolicyOptions::flap_threshold), left alone
    // in the other half. Flappers start at fixed, staggered slots: how
    // late a flapper's later deaths are detected depends on how many
    // beats preceded its gaps, and that must not move with the seed.
    if (i < 56) {
      const std::uint32_t app = r * kVms + vms[kVms - 1];
      // Fits: at kChurnMinSeconds, first + 14 + 3 * 25 + 2 * 15 < revive_by.
      std::uint64_t t = first + 2 * (i - 48);
      for (std::uint64_t c = 0; c < kFlapCycles; ++c) {
        s.silences.push_back({app, t, t + kFlapDead, false});
        t += kFlapDead + kFlapAlive;
      }
    }
  }
  std::sort(s.silences.begin(), s.silences.end(),
            [](const Silence& a, const Silence& b) {
              return a.app != b.app ? a.app < b.app : a.first_slot < b.first_slot;
            });
}

void mix(std::uint64_t& h, std::uint64_t v) {
  for (int i = 0; i < 8; ++i) {
    h ^= (v >> (8 * i)) & 0xff;
    h *= 1099511628211ULL;
  }
}

void mix(std::uint64_t& h, std::string_view s) {
  mix(h, s.size());
  for (const char c : s) {
    h ^= static_cast<unsigned char>(c);
    h *= 1099511628211ULL;
  }
}

}  // namespace

bool parse_workload(std::string_view name, Workload* out) {
  for (const Workload w :
       {Workload::kFleetSteady, Workload::kFirehose, Workload::kChurn}) {
    if (name == workload_name(w)) {
      *out = w;
      return true;
    }
  }
  return false;
}

const char* workload_name(Workload w) {
  switch (w) {
    case Workload::kFleetSteady: return "fleet_steady";
    case Workload::kFirehose: return "firehose";
    case Workload::kChurn: return "churn";
  }
  return "?";
}

std::uint64_t Schedule::first_slot_at(std::uint32_t app, TimeNs t) const {
  const AppPlan& a = apps[app];
  if (t <= a.phase_ns || a.period_ns <= 0) return 0;
  return static_cast<std::uint64_t>((t - a.phase_ns + a.period_ns - 1) / a.period_ns);
}

std::uint64_t Schedule::hash() const {
  std::uint64_t h = 14695981039346656037ULL;
  // The seed itself is left out: the hash covers what the seed produced.
  mix(h, static_cast<std::uint64_t>(workload));
  mix(h, gen_threads);
  mix(h, flush_every);
  mix(h, inflight_window);
  mix(h, static_cast<std::uint64_t>(tick_ns));
  mix(h, static_cast<std::uint64_t>(warmup_ns));
  mix(h, static_cast<std::uint64_t>(window_ns));
  mix(h, apps.size());
  for (const AppPlan& a : apps) {
    mix(h, a.name);
    mix(h, static_cast<std::uint64_t>(a.period_ns));
    mix(h, static_cast<std::uint64_t>(a.phase_ns));
    mix(h, a.thread);
    mix(h, static_cast<std::uint64_t>(static_cast<std::int64_t>(a.group)));
  }
  mix(h, silences.size());
  for (const Silence& sil : silences) {
    mix(h, sil.app);
    mix(h, sil.first_slot);
    mix(h, sil.resume_slot);
    mix(h, sil.group_wide ? 1 : 0);
  }
  mix(h, groups.size());
  for (const std::string& g : groups) mix(h, g);
  return h;
}

Schedule make_schedule(Workload w, std::uint64_t seed, double seconds) {
  if (!(seconds >= 1.0) || seconds > 3600.0) {
    throw std::invalid_argument("the measured window must be 1..3600 seconds");
  }
  Schedule s;
  s.workload = w;
  s.seed = seed;
  s.window_ns = seconds_to_ns(seconds);
  Rng rng(seed ^ (static_cast<std::uint64_t>(w) + 1) * 0x2545f4914f6cdd1dULL);
  switch (w) {
    case Workload::kFleetSteady: make_fleet_steady(s, rng); break;
    case Workload::kFirehose: make_firehose(s, rng); break;
    case Workload::kChurn: make_churn(s, rng, seconds); break;
  }
  return s;
}

EmitCursor::EmitCursor(const Schedule* s, std::uint32_t app) : s_(s) {
  const auto& sil = s->silences;
  const auto lo = std::lower_bound(
      sil.begin(), sil.end(), app,
      [](const Silence& x, std::uint32_t a) { return x.app < a; });
  const auto hi = std::upper_bound(
      lo, sil.end(), app,
      [](std::uint32_t a, const Silence& x) { return a < x.app; });
  sil_ = static_cast<std::size_t>(lo - sil.begin());
  sil_end_ = static_cast<std::size_t>(hi - sil.begin());
  skip_silences();
}

void EmitCursor::advance() {
  ++emitted_;
  ++slot_;
  skip_silences();
}

void EmitCursor::skip_silences() {
  const auto& sil = s_->silences;
  while (sil_ < sil_end_) {
    if (slot_ >= sil[sil_].resume_slot) {
      ++sil_;
    } else if (slot_ >= sil[sil_].first_slot) {
      slot_ = sil[sil_].resume_slot;
      ++sil_;
    } else {
      break;
    }
  }
}

}  // namespace pipebench
