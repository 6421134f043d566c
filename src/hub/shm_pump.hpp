// ShmIngestPump: drain a cross-process ingest ring into a HeartbeatHub.
//
// The consumer half of the transport/ShmIngestQueue pipeline. One pump owns
// one ring cursor and one hub, and each poll() is one batch in two passes:
//
//   1. drain every committed frame and stage its timestamps, one run per
//      consecutive frames of one directory (entry, gen); each new run's
//      route-cache line is prefetched;
//   2. route each run to its AppId with one index into a flat
//      entry -> {claimed_gen, gen, AppId} cache, valid for the frame when
//      its gen lies in the cached range, and append it to its shard's
//      list as an AppRun: the id and a span over its staged timestamps,
//      which are not copied again. Then hand each shard's list to
//      HeartbeatHub::ingest_batch — one apply per shard per poll.
//
// A cache miss (a new entry, a new tenure, or a re-target, which bumps the
// entry's gen) reads the entry from the ring's directory and accepts the
// frame iff claimed_gen <= frame gen <= entry gen; every other frame is
// rejected and counted. The read is one attempt and never waits: a
// re-target caught mid-write still leaves the name readable, so the frame
// is routed and the app keeps its last target until a later frame reads
// the entry whole. An accepted entry's name resolves through the hub's own
// name map (HeartbeatHub::register_app, which is idempotent), so two
// entries with one name are one app. An app is registered on first sight
// with its entry's target (its join's, if a re-target was caught
// mid-write), and every entry read whole sets its current target — so a
// fleet of external producer processes reaches FleetDetector sweeps, hbmon,
// and every other hub consumer without any of them linking the producers.
// Records under the hub's reserved kSelfAppName are dropped and counted as
// rejected: a producer must not refresh the hub's own heartbeat.
//
// The canonical loop is
//
//   for (;;) { pump.poll(); pump.wait(budget_to_next_deadline); }
//
// and wait() picks one of two sleeps from what the last poll() saw:
//
//   * NAP — the poll left the ring busy (it drained records, or it is
//     blocked on a claimed but unpublished slot). wait() sleeps
//     idle_sleep_min_ns (capped by the budget) WITHOUT advertising itself
//     as parked, so producers publishing meanwhile pay no futex wake; the
//     next poll drains everything they coalesced in one pass.
//   * PARK — the poll found the ring empty. wait() blocks on the
//     ring's futex doorbell (near-zero CPU while the fleet is quiet); the
//     first producer to publish rings it and the pump wakes at once.
//
// So a busy ring is drained about once per idle_sleep_min_ns and producers
// ring only after the pump found the ring empty. A doorbell wake counts as
// busy: the wait() after it naps.
//
// Threading: a pump is single-consumer by construction (it owns its
// cursor). Call poll()/wait() from one thread — typically a poll loop
// alongside the sweep/query thread, which is safe because the hub itself is
// thread-safe. Multiple *pumps* on the same ring are fine: frames are read
// non-destructively, so each pump sees the full stream.
#pragma once

#include <cstdint>
#include <memory>
#include <span>
#include <unordered_set>
#include <vector>

#include "core/record.hpp"
#include "hub/summary.hpp"
#include "transport/shm_ingest.hpp"
#include "util/time.hpp"

namespace hb::hub {

class HeartbeatHub;

struct ShmIngestPumpOptions {
  /// Polls a claimed-but-unpublished frame may block before the pump skips
  /// it as torn, if its claim names a dead process (crashed producer). A
  /// blocked poll counts as busy, so the polls come one nap apart: a
  /// crashed producer's slots are skipped after about max_stall_polls ×
  /// idle_sleep_min_ns (~3 ms by default). A slot whose owner is alive (or
  /// cannot be told) waits transport::kClaimLivenessTimeoutNs more, so a
  /// page-faulting or preempted producer is not torn. Forwarded to
  /// transport::ShmIngestQueue::drain.
  std::uint32_t max_stall_polls = 3;
  /// The coalescing interval: wait()'s nap after a poll that drained
  /// records or was blocked on a claimed slot, or after a doorbell wake
  /// (clamped to >= 1 ns). Also the pace at which the stall budget is
  /// spent.
  util::TimeNs idle_sleep_min_ns = 1 * util::kNsPerMs;
  /// Unused: no code reads it. Kept only because pipebench/src/main.cpp
  /// sets it, and pipebench/ changes only with the benchmark itself; the
  /// benchmark half of ROADMAP item 2a deletes it, as it does lane_records.
  util::TimeNs idle_sleep_max_ns = 64 * util::kNsPerMs;
  /// Longest single doorbell park. This bounds the missed-wake window the
  /// producers' relaxed parked-check admits AND doubles as a liveness
  /// heartbeat for the poll loop; it is NOT a staleness bound (a beat rings
  /// the doorbell and wakes the pump immediately).
  util::TimeNs doorbell_timeout_ns = 100 * util::kNsPerMs;
};

/// Cumulative pump counters (all monotonic since construction).
struct ShmIngestPumpStats {
  std::uint64_t polls = 0;     ///< poll() calls
  std::uint64_t consumed = 0;  ///< records drained, rejected ones included
  std::uint64_t dropped = 0;   ///< ring frames lapped before this pump read them
  std::uint64_t torn = 0;      ///< frames skipped (producer died mid-batch)
  /// The subset of `torn` skipped after transport::kClaimLivenessTimeoutNs
  /// because its owner was alive or could not be judged.
  std::uint64_t timed_out = 0;
  /// Records dropped: under kSelfAppName, or in frames whose directory
  /// entry or gen did not check out.
  std::uint64_t rejected = 0;
  std::uint64_t apps = 0;      ///< distinct producer names seen, rejected too
  /// Always 0: the ring has no fast lanes since v4. Kept only because
  /// pipebench/src/main.cpp reads it, and pipebench/ changes only with
  /// the benchmark itself.
  std::uint64_t lane_records = 0;
  std::uint64_t parks = 0;           ///< wait() calls that blocked on the futex
  std::uint64_t doorbell_wakes = 0;  ///< parks ended by a producer's ring
  std::uint64_t spurious_wakes = 0;  ///< wakes that found no pending frames
  std::uint64_t wait_timeouts = 0;   ///< parks ended by the bounded timeout
};

class ShmIngestPump {
 public:
  /// Non-owning hub: `hub` must outlive the pump.
  ShmIngestPump(std::shared_ptr<transport::ShmIngestQueue> queue,
                HeartbeatHub& hub, ShmIngestPumpOptions opts = {});

  /// Owning: the pump keeps the hub alive (the hbmon --live shape).
  ShmIngestPump(std::shared_ptr<transport::ShmIngestQueue> queue,
                std::shared_ptr<HeartbeatHub> hub,
                ShmIngestPumpOptions opts = {});

  ShmIngestPump(const ShmIngestPump&) = delete;
  ShmIngestPump& operator=(const ShmIngestPump&) = delete;

  /// One drain pass: every committed ring record is batched per app and
  /// ingested, except those under kSelfAppName. Returns the number of
  /// records drained by this call, rejected ones included.
  std::size_t poll();

  /// Sleep until the next poll() is worth making, for at most `budget_ns`:
  /// sleeps aim one timer slack (how late the kernel may end them) short
  /// of the budget, and a budget within that slack returns false at once.
  /// After a busy poll (records drained, or blocked on a claimed slot) or a
  /// doorbell wake: nap idle_sleep_min_ns without parking and return true.
  /// After an empty poll: park on the doorbell (clamped to
  /// doorbell_timeout_ns) and return true on a wake, false when the budget
  /// or timeout lapsed quietly. Callers poll() next either way.
  bool wait(util::TimeNs budget_ns);

  ShmIngestPumpStats stats() const;

  const std::shared_ptr<transport::ShmIngestQueue>& queue() const {
    return queue_;
  }

 private:
  /// A route to no app: the reserved kSelfAppName, or a frame its entry
  /// does not cover. Never an AppId the hub hands out.
  static constexpr AppId kRejected = ~AppId{0};

  /// What one directory entry routes to, for frames whose gen lies in
  /// [claimed_gen, gen]. The default range is empty.
  struct EntryRoute {
    std::uint32_t claimed_gen = ~std::uint32_t{0};
    std::uint32_t gen = 0;
    AppId id = kRejected;
  };

  /// Consecutive drained frames of one directory entry and gen.
  struct StagedRun {
    std::uint32_t entry = 0;
    std::uint32_t gen = 0;
    std::uint32_t records = 0;
  };

  /// Pass 1: stage one drained frame's timestamps.
  void stage(std::uint32_t entry, std::uint32_t gen,
             std::span<const util::TimeNs> timestamps);
  /// Pass 2: the run's AppId from the route cache, or resolve() on a miss.
  AppId route(const StagedRun& run);
  /// A route-cache miss: check the run against its directory entry,
  /// resolve its name through the hub (registering or re-targeting the
  /// app), and cache the entry's route. kRejected for a frame the entry
  /// does not cover, or for the reserved kSelfAppName.
  AppId resolve(const StagedRun& run);

  std::shared_ptr<transport::ShmIngestQueue> queue_;
  HeartbeatHub* hub_;
  std::shared_ptr<HeartbeatHub> owner_;
  ShmIngestPumpOptions opts_;

  transport::ShmIngestQueue::Cursor cursor_;
  std::uint64_t polls_ = 0;
  /// The last poll found the ring empty and no doorbell woke the pump
  /// since: the next wait() parks. Otherwise it naps.
  bool idle_ = false;
  std::uint64_t parks_ = 0;
  std::uint64_t doorbell_wakes_ = 0;
  std::uint64_t spurious_wakes_ = 0;
  std::uint64_t wait_timeouts_ = 0;
  std::uint64_t rejected_ = 0;

  /// Routes by directory entry; grows to the highest entry seen.
  std::vector<EntryRoute> routes_;
  /// Distinct AppIds resolved, kRejected standing for kSelfAppName: one
  /// per producer name seen, so stats().apps. Touched on misses only.
  std::unordered_set<AppId> apps_;
  /// One poll's staging: record timestamps in drain order, and the runs
  /// that cover them in order.
  std::vector<util::TimeNs> staged_;
  std::vector<StagedRun> runs_;
  /// One poll's accepted runs per hub shard, indexed by shard; their spans
  /// point into staged_.
  std::vector<std::vector<AppRun>> shard_runs_;
};

}  // namespace hb::hub
