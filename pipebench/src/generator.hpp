// The generator process: core::Heartbeat producers beating into the ring.
//
// The generator runs in a forked child. It attaches to the ingest ring,
// builds one Heartbeat per scheduled app with ShmHubSink::wrap_factory as
// its store factory (the producer path every external app uses), and beats
// them on the schedule. It shares exactly one thing with the monitor
// besides the ring: the Control page below, an anonymous shared mapping
// created before the fork, through which it reports its start time, its
// progress, and — once it has stopped — what it emitted and how its run
// went. The monitor's pipeline never reads this page; only the harness
// does.
#pragma once

#include <atomic>
#include <cstdint>
#include <string>

#include "schedule.hpp"
#include "stats.hpp"
#include "trace.hpp"

namespace pipebench {

inline constexpr std::uint32_t kMaxApps = 4096;
inline constexpr std::uint32_t kMaxGenThreads = 2;
inline constexpr std::size_t kGenSpanCap = 65536;
/// Every kGenSpanStride-th beat of a traced run is kept as a core.beat span
/// (all of them feed the beat-time histogram).
inline constexpr std::uint64_t kGenSpanStride = 64;

enum GenState : int { kGenStarting = 0, kGenRunning = 1, kGenDone = 2, kGenFailed = 3 };

struct GenThreadResult {
  /// Thread CPU spent emitting, and beats emitted, per sub-window of the
  /// measured window.
  std::int64_t cpu_ns[kSubWindows] = {};
  std::uint64_t beats[kSubWindows] = {};
  /// How late each emission pass ran against its oldest due beat.
  FineHistogram late;
  FineHistogram beat_ns;  ///< traced run: time inside Heartbeat::beat
};

struct Control {
  // generator -> monitor
  std::atomic<std::int64_t> t0_ns{0};     ///< schedule start (0: not yet)
  std::atomic<int> state{kGenStarting};
  std::atomic<std::uint64_t> emitted{0};  ///< beats emitted so far
  // monitor -> generator
  std::atomic<std::uint32_t> abort{0};    ///< stop at once
  std::atomic<std::uint64_t> consumed{0}; ///< records the pump consumed
  // results, valid once state == kGenDone (published by a release store)
  std::uint64_t app_emitted[kMaxApps] = {};
  GenThreadResult threads[kMaxGenThreads];
  std::atomic<std::uint64_t> span_count{0};
  Span spans[kGenSpanCap];
  char error[256] = {};
};

/// Map a Control page shared with future children. Never unmapped before
/// the children are reaped; see unmap_control.
Control* map_control();
void unmap_control(Control* c);

/// The child's whole life; returns its exit code.
int run_generator(const Schedule& s, const std::string& ring_path, Control* ctl,
                  bool trace);

}  // namespace pipebench
