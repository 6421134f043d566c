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
// and the hub's readers drain too: the pump installs poll() as the hub's
// feed (HeartbeatHub::set_feed), so snapshot(), flush() and summary() each
// poll on their caller's thread before they publish, and a read shows every
// frame committed before it that no pending claim holds back. The loop only
// keeps the ring from filling between reads; wait() picks one of two sleeps
// from what the last poll() saw:
//
//   * NAP — the last poll drained records, or a doorbell woke the pump
//     since. wait() sleeps as long as capacity / 16 records take to
//     arrive at the rate since the previous wait() (records drained by any
//     caller count; capacity counts frames, and a frame holds one record
//     or more, so the ring stays under 1/16 full in frames too): at least
//     idle_sleep_min_ns, at most twice the previous nap, at most
//     doorbell_timeout_ns, and at most the budget. It does NOT advertise
//     itself as parked, so producers publishing meanwhile pay no futex
//     wake; the next poll drains everything they coalesced in one pass. A
//     poll blocked on a claimed but unpublished slot naps the floor,
//     idle_sleep_min_ns, so the stall budget is spent at that pace.
//   * PARK — the loop's last poll found the ring empty, and no reader's
//     poll drained a record since the previous wait(). wait() blocks on
//     the ring's futex doorbell (near-zero CPU while the fleet is quiet);
//     the first producer to publish rings it and the pump wakes at once.
//     A park restarts the naps from the floor: the rate across a quiet
//     spell says nothing of the burst that ends it.
//
// So a busy ring is kept under 1/16 full between the loop's drains unless
// its rate rises more than 16-fold within one nap, the wake rate follows
// the arrival rate instead of the floor, and producers ring only after
// the pump found the ring empty. A reader's poll that finds the ring empty
// leaves the sleep choice as it was, and an empty loop poll after a reader
// drained records naps: the ring is still busy, the reader was just there
// first.
//
// Threading: one consumer mutex guards the cursor, the staging buffers,
// the routes and every counter stats() returns, so poll() from the loop
// and from the hub's readers take turns, and a poll blocks while another
// is applying. wait() holds it only to choose its sleep and to count its
// wake, never while sleeping. Call wait() from one thread: the loop's.
// Multiple *pumps* on the same ring are fine — frames are read
// non-destructively, so each pump sees the full stream — but a hub takes
// one pump: its feed is one.
#pragma once

#include <cstdint>
#include <memory>
#include <span>
#include <unordered_set>
#include <vector>

#include "core/record.hpp"
#include "hub/summary.hpp"
#include "transport/shm_ingest.hpp"
#include "util/mutex.hpp"
#include "util/thread_annotations.hpp"
#include "util/time.hpp"

namespace hb::hub {

class HeartbeatHub;

struct ShmIngestPumpOptions {
  /// Polls a claimed-but-unpublished frame may block before the pump skips
  /// it as torn, if its claim names a dead process (crashed producer). A
  /// blocked poll naps the floor, so the polls come one nap apart: a
  /// crashed producer's slots are skipped after about max_stall_polls ×
  /// idle_sleep_min_ns (~3 ms by default). A slot whose owner is alive (or
  /// cannot be told) waits transport::kClaimLivenessTimeoutNs more, so a
  /// page-faulting or preempted producer is not torn. Forwarded to
  /// transport::ShmIngestQueue::drain.
  std::uint32_t max_stall_polls = 3;
  /// The shortest nap (clamped to >= 1 ns): wait()'s nap after a busy
  /// poll or a doorbell wake never goes below it, and a poll blocked on a
  /// claimed slot naps exactly this long — the pace at which the stall
  /// budget is spent.
  util::TimeNs idle_sleep_min_ns = 1 * util::kNsPerMs;
  /// Unused: no code reads it. Kept only because pipebench/src/main.cpp
  /// sets it, and pipebench/ changes only with the benchmark itself; the
  /// benchmark half of ROADMAP item 2a deletes it, as it does lane_records.
  util::TimeNs idle_sleep_max_ns = 64 * util::kNsPerMs;
  /// Longest single doorbell park, and longest nap. This bounds the
  /// missed-wake window the
  /// producers' relaxed parked-check admits AND doubles as a liveness
  /// heartbeat for the poll loop; it is NOT a staleness bound (a beat rings
  /// the doorbell and wakes the pump immediately).
  util::TimeNs doorbell_timeout_ns = 100 * util::kNsPerMs;
};

/// Cumulative pump counters (all monotonic since construction).
struct ShmIngestPumpStats {
  std::uint64_t polls = 0;     ///< poll() calls, the hub's reads' included
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

  /// Removes the hub's feed, after any read draining through it returns.
  ~ShmIngestPump();

  ShmIngestPump(const ShmIngestPump&) = delete;
  ShmIngestPump& operator=(const ShmIngestPump&) = delete;

  /// One drain pass: every committed ring record is batched per app and
  /// ingested, except those under kSelfAppName. Returns the number of
  /// records drained by this call, rejected ones included. Blocks while
  /// another poll (a hub read's) is applying.
  std::size_t poll() HB_EXCLUDES(mu_);

  /// Sleep until the next poll() is worth making, for at most `budget_ns`:
  /// sleeps aim one timer slack (how late the kernel may end them) short
  /// of the budget, and a budget within that slack returns false at once.
  /// After a poll that drained records, or a doorbell wake: nap to the
  /// arrival rate (see the header) without parking and return true. After
  /// a poll blocked on a claimed slot: nap idle_sleep_min_ns and return
  /// true. After an empty poll, unless a hub read drained records since
  /// the previous wait(): park on the doorbell (clamped to
  /// doorbell_timeout_ns) and return true on a wake, false when the
  /// budget or timeout lapsed quietly. Callers poll() next either way.
  bool wait(util::TimeNs budget_ns) HB_EXCLUDES(mu_);

  ShmIngestPumpStats stats() const HB_EXCLUDES(mu_);

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

  /// What the last poll saw, or a doorbell wake since: the next wait()'s
  /// choice of sleep.
  enum class Ring : std::uint8_t {
    kBusy,     ///< records drained, or a doorbell woke the pump: nap
    kBlocked,  ///< nothing drained, a claimed slot holds frames back
    kEmpty,    ///< nothing drained or pending: park, unless a reader drained
  };

  /// poll()'s body; the hub's feed runs it with `reader` set, and a
  /// reader's empty poll leaves ring_ as it was.
  std::size_t drain(bool reader) HB_EXCLUDES(mu_);
  /// Pass 1: stage one drained frame's timestamps.
  void stage(std::uint32_t entry, std::uint32_t gen,
             std::span<const util::TimeNs> timestamps) HB_REQUIRES(mu_);
  /// Pass 2: the run's AppId from the route cache, or resolve() on a miss.
  AppId route(const StagedRun& run) HB_REQUIRES(mu_);
  /// A route-cache miss: check the run against its directory entry,
  /// resolve its name through the hub (registering or re-targeting the
  /// app), and cache the entry's route. kRejected for a frame the entry
  /// does not cover, or for the reserved kSelfAppName.
  AppId resolve(const StagedRun& run) HB_REQUIRES(mu_);
  /// wait()'s sleep, chosen from ring_ and the records drained since the
  /// previous wait(): 0 to park (and restart the naps from the floor),
  /// idle_sleep_min_ns after a blocked poll, else the time capacity / 16
  /// records take at that rate, within [idle_sleep_min_ns, 2 * nap_ns_]
  /// and at most doorbell_timeout_ns. Starts a new rate interval.
  util::TimeNs next_nap() HB_REQUIRES(mu_);

  std::shared_ptr<transport::ShmIngestQueue> queue_;
  HeartbeatHub* hub_;
  std::shared_ptr<HeartbeatHub> owner_;
  ShmIngestPumpOptions opts_;

  /// The consumer mutex: everything below is shared by poll(), wait() and
  /// stats().
  mutable util::Mutex mu_;
  transport::ShmIngestQueue::Cursor cursor_ HB_GUARDED_BY(mu_);
  std::uint64_t polls_ HB_GUARDED_BY(mu_) = 0;
  Ring ring_ HB_GUARDED_BY(mu_) = Ring::kBusy;
  /// A reader's poll drained records since the previous wait(): the ring
  /// is busy even if the loop's own poll then found it empty.
  bool reader_drained_ HB_GUARDED_BY(mu_) = false;
  /// The last busy nap, before the budget cut it; the next may be at most
  /// twice as long. 0 before the first and after a park, so the nap after
  /// either is the floor.
  util::TimeNs nap_ns_ HB_GUARDED_BY(mu_) = 0;
  /// When the previous wait() began, and cursor_.consumed then: the start
  /// of the interval the arrival rate is measured over.
  util::TimeNs rate_since_ns_ HB_GUARDED_BY(mu_) = 0;
  std::uint64_t rate_consumed_ HB_GUARDED_BY(mu_) = 0;
  std::uint64_t parks_ HB_GUARDED_BY(mu_) = 0;
  std::uint64_t doorbell_wakes_ HB_GUARDED_BY(mu_) = 0;
  std::uint64_t spurious_wakes_ HB_GUARDED_BY(mu_) = 0;
  std::uint64_t wait_timeouts_ HB_GUARDED_BY(mu_) = 0;
  std::uint64_t rejected_ HB_GUARDED_BY(mu_) = 0;

  /// Routes by directory entry; grows to the highest entry seen.
  std::vector<EntryRoute> routes_ HB_GUARDED_BY(mu_);
  /// Distinct AppIds resolved, kRejected standing for kSelfAppName: one
  /// per producer name seen, so stats().apps. Touched on misses only.
  std::unordered_set<AppId> apps_ HB_GUARDED_BY(mu_);
  /// One poll's staging: record timestamps in drain order, and the runs
  /// that cover them in order.
  std::vector<util::TimeNs> staged_ HB_GUARDED_BY(mu_);
  std::vector<StagedRun> runs_ HB_GUARDED_BY(mu_);
  /// One poll's accepted runs per hub shard, indexed by shard; their spans
  /// point into staged_.
  std::vector<std::vector<AppRun>> shard_runs_ HB_GUARDED_BY(mu_);
};

}  // namespace hb::hub
