// The benchmark's seeded workload schedule.
//
// A Schedule says, for one workload and one seed, which applications exist,
// when each one's beat k is due, which due beats are deliberately skipped
// (silences), and how the run is laid out in time. It is pure data derived
// from (workload, seed, seconds): the same triple always gives a
// byte-identical schedule (Schedule::hash pins that), and nothing here
// reads a clock.
//
// Only the benchmark reads a Schedule. The generator process turns it into
// Heartbeat::beat() calls; the monitor under test never sees it — it gets
// the beats and nothing else. The harness side of the monitor process uses
// it to know when each counted beat was due.
//
// Time is relative to T0, the instant the generator starts its schedule:
//
//   [0, warmup)                  warm-up: windows fill, verdicts settle
//   [warmup, warmup + seconds)   the measured window
//   warmup + seconds             stop: the generator emits nothing due from
//                                here on, so every app goes silent at once
//                                (the end-of-run kill every workload detects)
#pragma once

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "util/time.hpp"

namespace pipebench {

using hb::util::TimeNs;

enum class Workload { kFleetSteady, kFirehose, kChurn };

/// Parses "fleet_steady" | "firehose" | "churn"; false when unknown.
bool parse_workload(std::string_view name, Workload* out);
const char* workload_name(Workload w);

struct AppPlan {
  std::string name;
  /// Beat k is due at T0 + phase_ns + k * period_ns (open loop).
  TimeNs period_ns = 0;
  TimeNs phase_ns = 0;
  /// Generator thread that beats this app.
  std::uint32_t thread = 0;
  /// Failure-domain group index (churn racks), or -1 when ungrouped.
  std::int32_t group = -1;
};

/// Due beats [first_slot, resume_slot) of one app are skipped.
struct Silence {
  std::uint32_t app = 0;
  std::uint64_t first_slot = 0;
  std::uint64_t resume_slot = 0;
  /// True when the whole group went dark together (a rack silence).
  bool group_wide = false;
};

struct Schedule {
  Workload workload = Workload::kFleetSteady;
  std::uint64_t seed = 0;
  /// Generator threads; all of one thread's apps share one period.
  std::uint32_t gen_threads = 1;
  /// ShmHubSinkOptions::flush_every for every producer.
  std::uint32_t flush_every = 1;
  /// Most beats generated but not yet consumed by the pump before the
  /// generator waits (0: no limit). Keeps fast producers from lapping
  /// their fast lanes while the pump is stalled.
  std::uint64_t inflight_window = 0;
  /// Pipeline tick (snapshot -> sweep -> record -> observe) period.
  TimeNs tick_ns = 0;
  TimeNs warmup_ns = 0;
  TimeNs window_ns = 0;
  std::vector<AppPlan> apps;
  /// Sorted by (app, first_slot); an app's silences never overlap.
  std::vector<Silence> silences;
  /// Names of the failure-domain groups (index = AppPlan::group).
  std::vector<std::string> groups;

  TimeNs stop_ns() const { return warmup_ns + window_ns; }
  /// Due time of an app's beat slot, relative to T0.
  TimeNs due_ns(std::uint32_t app, std::uint64_t slot) const {
    const AppPlan& a = apps[app];
    return a.phase_ns + static_cast<TimeNs>(slot) * a.period_ns;
  }
  /// First slot due at or after relative time t.
  std::uint64_t first_slot_at(std::uint32_t app, TimeNs t) const;

  /// FNV-1a over every generated field (not the seed), in a fixed order
  /// and byte layout.
  std::uint64_t hash() const;
};

/// The schedule for one run. `seconds` is the measured window length;
/// churn needs at least kChurnMinSeconds. Throws std::invalid_argument when
/// the window cannot hold the workload.
Schedule make_schedule(Workload w, std::uint64_t seed, double seconds);

inline constexpr double kChurnMinSeconds = 8.0;

/// Walks an app's emitted beats in order, skipping silenced slots: the n-th
/// beat the generator emitted for an app was due at slot(n). Used by the
/// monitor side to turn a total_beats rise n -> m into the due times of
/// beats n+1..m.
class EmitCursor {
 public:
  EmitCursor() = default;
  EmitCursor(const Schedule* s, std::uint32_t app);

  /// Slot of the next beat (the one after the `emitted()` already walked).
  std::uint64_t next_slot() const { return slot_; }
  std::uint64_t emitted() const { return emitted_; }
  /// Step past the next emitted beat.
  void advance();

 private:
  void skip_silences();

  const Schedule* s_ = nullptr;
  std::size_t sil_ = 0;    ///< next silence of this app (index into s_->silences)
  std::size_t sil_end_ = 0;
  std::uint64_t slot_ = 0;
  std::uint64_t emitted_ = 0;
};

}  // namespace pipebench
