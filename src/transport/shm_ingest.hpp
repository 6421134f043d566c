// ShmIngestQueue: the cross-process front door of the heartbeat hub.
//
// ShmStore gives every producer its own observer-walkable segment; that is
// the paper's §3/§4 story for ONE application. At fleet scale the consumer
// side inverts: one aggregator wants beats from N producer *processes*
// without attaching (and polling) N segments. This header provides the
// missing transport: a single fixed-capacity multi-producer/single-consumer
// ring in shared memory that any process can append beat timestamps into,
// and that one pump (hub/ShmIngestPump) drains into a HeartbeatHub.
//
// The ring carries only what the hub reads: an app's name and target,
// once, and its beat timestamps. A record's seq, tag and thread id never
// leave the producer (ShmHubSink's inner store keeps them). Format v5:
//
//   * APP DIRECTORY — `capacity` 128-byte entries after the header. A
//     producer joins once: it takes an entry by owner CAS and writes its
//     name and target there. Frames name the entry and its generation,
//     never the app, so a consumer reads a name once per tenure, not once
//     per beat.
//   * ONE-LINE FRAMES — each 64-byte slot is a *frame* holding up to
//     kIngestFrameRecords timestamps of one directory entry (base
//     timestamp + u32 deltas). A batch packs every run of timestamps
//     whose deltas from the frame's first are in [0, 2^32). Producers
//     that batch (via ShmHubSink's flush_every/max_hold_ns) move several
//     beats per claim; a one-beat frame moves one cache line.
//   * FUTEX DOORBELL — two words in the header (doorbell generation +
//     parked count) let the consumer block in the kernel instead of
//     backoff-polling. Producers ring only when a consumer is parked
//     (one relaxed load on the hot path). See wait_for_frames().
//   * OWNER-TAGGED CLAIMS — a claimed slot's commit word names the pid of
//     the claiming process until the frame is published, so a consumer
//     tells a crashed producer (skip its slots at once) from a slow one
//     (wait for it). Pids are only written and read by processes in the
//     ring creator's pid namespace (header.pid_ns); any other process
//     claims with an unmarked 0, which the consumer waits out. Directory
//     entries carry the same marks in their owner word.
//
// Segment layout (all fixed-width, standard-layout, address-free atomics —
// the same ABI discipline as transport/shm_layout.hpp):
//
//   offset 0 : ShmIngestHeader             (128 bytes, magic last)
//   then     : ShmIngestDirEntry[capacity] (128 bytes each, app directory)
//   then     : ShmIngestSlot[capacity]     (64 bytes each, MPSC ring)
//
// Directory protocol:
//   * An entry's owner word is kClaimBit | pid while a producer holds it.
//     Free, it holds the ring head at which it may be handed out again:
//     0 for a never-used entry, release (or reclaim) head + capacity for
//     one given back, so no consumer still holds a frame of the old owner
//     when a new one takes it. join() takes a free entry by CAS, probing
//     from a process-local hint; it reclaims an entry whose owner pid is
//     dead (the rule claims use) by storing such a head, not by taking it.
//   * An entry has two seqlock words, each odd while its part is written
//     and only ever growing. `claimed_gen` guards the tenure: the name
//     and the join's target, written once by join(), which sets
//     claimed_gen to the tenure's first gen. `gen` guards the current
//     target: set_target() rewrites it and bumps gen. Every frame carries
//     the gen its entry had when the frame was written. A holder outside
//     the creator's pid namespace holds the entry with a bare kClaimBit,
//     which names no pid: join() never reclaims it, so such an entry is
//     lost until the ring file is recreated if its holder dies.
//   * A consumer accepts a frame iff its entry is below capacity and
//     claimed_gen <= frame.gen <= gen, read with the tenure unchanged. A
//     later tenure's claimed_gen is above every gen of an earlier one, so
//     a frame is never routed to a later owner's name. A re-target caught
//     mid-write leaves the name readable: the consumer routes the frame,
//     keeps its last target, and reads the entry again at the next frame.

// Ring protocol:
//   * A producer claims n consecutive frame sequence numbers with ONE
//     fetch_add on header.head, marks each claimed slot's commit word
//     kClaimBit | pid, and issues one release fence.
//   * Each claimed slot s is then written seqlock-style: payload, then
//     commit <- s + 1 (publish, release). The mark is the invalidation;
//     a slot found unmarked when its payload is due (a batch longer than
//     the ring reaching its own earlier frame, or an older lap's late
//     commit) is marked again, fenced, first.
//   * No write replaces a newer lap's published frame: marking is a CAS
//     that gives up on a commit above s + 1, and a producer that finds
//     its frame lapped before writing it drops the frame. The one race
//     left is two producers a whole lap apart writing the same slot at
//     the same moment (see ARCHITECTURE.md "Owner-tagged claims").
//   * The consumer keeps a private Cursor (next expected frame) and walks
//     [cursor, head). commit == s + 1 before AND after the copy accepts a
//     frame; an unmarked commit from a later lap means the frame was
//     overwritten (counted as dropped); a mark, or a commit still missing,
//     means the claiming producer is in flight — or crashed mid-batch.
//     TORN MEANS DEAD: after `max_stall_polls` drains blocked on the same
//     slot the consumer skips it (counted as torn) only if its mark names
//     a dead or malformed pid. A live owner, an unmarked slot or a reused
//     pid keeps the slot until kClaimLivenessTimeoutNs has passed on top.
//     Either way a producer that dies between claim and publish can never
//     wedge the fleet pipeline, and a live one is not torn by any stall
//     shorter than that timeout.
//
// Accounting units: `dropped` and `torn` count FRAMES (a lost slot is a
// lost slot); `consumed` counts RECORDS delivered. In any no-loss
// configuration the record count is exact; under loss, consumed_frames +
// dropped + torn always equals the frames produced, so nothing is ever
// silently unaccounted. `timed_out` counts the torn frames skipped on the
// liveness timeout rather than a dead owner, so torn - timed_out is the
// frames lost to crashes.
//
// Because slots are read non-destructively, any number of independent
// consumers (each with its own Cursor) may drain the same ring — e.g. the
// owning aggregator plus a transient `hbmon fleet --live` session.
#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <filesystem>
#include <functional>
#include <memory>
#include <span>
#include <string>
#include <string_view>
#include <type_traits>
#include <vector>

#include "core/heartbeat.hpp"
#include "core/record.hpp"
#include "core/store.hpp"
#include "util/mutex.hpp"
#include "util/thread_annotations.hpp"
#include "util/time.hpp"

namespace hb::transport {

inline constexpr std::uint64_t kShmIngestMagic = 0x3151494248ULL;  // "HBIQ1"
/// v5: an app directory, and frames that name an entry, not an app.
/// attach() rejects any other version — a stale v1 to v4 ring file must be
/// removed (see OPERATIONS.md), never reinterpreted.
inline constexpr std::uint32_t kShmIngestVersion = 5;

/// Maximum application-name length a directory entry holds (including
/// NUL). Longer names are truncated to a 30-byte prefix plus '~' and 8 hex
/// digits of a hash of the full name, so producers whose long names share
/// a prefix remain distinct apps on the consumer side.
inline constexpr std::size_t kIngestNameCap = 40;

/// Timestamps one 64-byte frame can pack (compact encoding below).
inline constexpr std::size_t kIngestFrameRecords = 9;

/// Set in a claimed, unpublished slot's commit word and in a held
/// directory entry's owner word; the low 32 bits hold the claiming
/// process's pid. A published commit (seq + 1) or a free entry's head
/// would need 2^63 frames to reach it.
inline constexpr std::uint64_t kClaimBit = std::uint64_t{1} << 63;

/// How long a consumer waits, past its stall budget, on a claimed slot
/// whose owner it cannot prove dead (live pid, unmarked slot, or a pid
/// reused by another process) before skipping it as torn. Monotonic time.
inline constexpr util::TimeNs kClaimLivenessTimeoutNs = 1 * util::kNsPerSec;

struct ShmIngestHeader {
  /// Stored LAST during create() (release), checked first by attach()
  /// (acquire): a racing attacher never sees a half-initialized header.
  std::atomic<std::uint64_t> magic{0};
  std::uint32_t version = kShmIngestVersion;
  std::uint32_t slot_size = 0;      ///< sizeof(ShmIngestSlot); ABI self-check
  std::uint32_t capacity = 0;       ///< frames in the ring, entries in the directory
  std::uint32_t creator_pid = 0;    ///< pid of the creating process
  /// Inode of the creator's /proc/self/ns/pid (0 = unknown). Claim marks
  /// carry pids only between processes whose namespace matches it.
  std::uint64_t pid_ns = 0;
  /// Total frames ever claimed from the shared ring; the next frame
  /// sequence handed to a producer. Monotonic; may run arbitrarily far
  /// ahead of any consumer.
  std::atomic<std::uint64_t> head{0};
  /// Doorbell generation word (the futex word). Producers bump it (and
  /// FUTEX_WAKE it) after committing frames — but only when `parked` is
  /// nonzero. Consumers FUTEX_WAIT on the generation they sampled before
  /// re-checking for work, so a ring between sample and sleep turns the
  /// wait into an immediate EAGAIN wake instead of a missed signal.
  std::atomic<std::uint32_t> doorbell{0};
  /// Number of consumers currently parked (or deciding to park) in
  /// wait_for_frames(). Producers skip the doorbell entirely while zero.
  std::atomic<std::uint32_t> parked{0};
  /// Total doorbell rings ever performed (diagnostic).
  std::atomic<std::uint64_t> rings{0};
  std::uint8_t pad[72] = {};
};

static_assert(std::is_standard_layout_v<ShmIngestHeader>);
static_assert(sizeof(ShmIngestHeader) == 128, "header layout is part of the ABI");
static_assert(std::atomic<std::uint64_t>::is_always_lock_free &&
                  std::atomic<std::uint32_t>::is_always_lock_free,
              "cross-process atomics must be address-free");

/// One app directory entry: who holds it, and the name and target its
/// frames stand for. Written only by its holder, under two seqlock words:
/// `claimed_gen` guards the tenure (written once, by the join) and `gen`
/// guards the current target (rewritten by each re-target). A re-target
/// therefore never makes the name unreadable.
struct ShmIngestDirEntry {
  /// A target range as IEEE-754 bit patterns.
  struct Target {
    std::uint64_t min_bits = 0;
    std::uint64_t max_bits = 0;
  };

  /// What claimed_gen guards: fixed for a tenure, copied in and out whole
  /// (as ShmIngestSlot::Body is).
  struct Tenure {
    char name[kIngestNameCap] = {};  ///< NUL-terminated app name (truncated)
    /// The target at the join: what a consumer registers the app with
    /// when its first read meets a re-target mid-write.
    Target join_target{};
  };

  /// kClaimBit | pid while held (pid 0: a holder outside the creator's
  /// pid namespace, never reclaimed); free, the ring head at which the
  /// entry may be handed out again (0: never used).
  std::atomic<std::uint64_t> owner{0};
  /// gen at the holder's join, the oldest gen its frames carry, and the
  /// seqlock word of `tenure`: odd while join() writes it. Only ever grows.
  std::atomic<std::uint32_t> claimed_gen{0};
  /// Generation, and the seqlock word of `target`: odd while set_target()
  /// (or join()) writes it. Only ever grows.
  std::atomic<std::uint32_t> gen{0};
  Target target{};  ///< the holder's current target
  std::uint8_t pad[32] = {};
  Tenure tenure{};
  std::uint8_t reserved[8] = {};
};

static_assert(std::is_standard_layout_v<ShmIngestDirEntry>);
static_assert(std::is_trivially_copyable_v<ShmIngestDirEntry::Tenure>);
static_assert(sizeof(ShmIngestDirEntry::Tenure) == 56, "entry layout is ABI");
static_assert(offsetof(ShmIngestDirEntry, tenure) == 64,
              "the tenure has a cache line of its own");
static_assert(sizeof(ShmIngestDirEntry) == 128, "two cache lines per entry");

struct ShmIngestSlot {
  /// Everything the seqlock word protects, as one trivially copyable
  /// value: writers build a Body locally and move it in with a single
  /// util::tsan_relaxed_copy; readers copy it out the same way before the
  /// commit re-check. Keeping the payload a distinct struct (rather than
  /// loose slot members) is what lets the TSan build swap the copy for
  /// word-wise relaxed atomics without touching the protocol.
  ///
  /// A frame packs up to kIngestFrameRecords timestamps of ONE directory
  /// entry's tenure: timestamp i is base_ts_ns + ts_delta_ns[i]. Producers
  /// start a new frame when a timestamp's delta from the frame's first
  /// leaves [0, 2^32).
  struct Body {
    std::uint32_t entry = 0;      ///< directory index of the app
    std::uint32_t gen = 0;        ///< the entry's gen when written
    std::int64_t base_ts_ns = 0;  ///< timestamp 0
    std::uint32_t count = 0;      ///< timestamps in this frame (1..9)
    std::uint32_t ts_delta_ns[kIngestFrameRecords] = {};
  };

  /// Seqlock word: 0 = empty (or claimed by a process outside the
  /// creator's pid namespace), kClaimBit | pid = claimed by that process
  /// and being written, s+1 = frame with ring seq s.
  std::atomic<std::uint64_t> commit{0};
  Body body{};
};

static_assert(std::is_standard_layout_v<ShmIngestSlot>);
static_assert(std::is_trivially_copyable_v<ShmIngestSlot::Body>);
static_assert(sizeof(ShmIngestSlot::Body) == 56, "payload layout is ABI");
static_assert(sizeof(ShmIngestSlot) == 64, "one cache line per frame");

/// Total segment size for a given capacity: header, directory, ring.
constexpr std::size_t shm_ingest_segment_size(std::uint32_t capacity) {
  return sizeof(ShmIngestHeader) +
         static_cast<std::size_t>(capacity) *
             (sizeof(ShmIngestDirEntry) + sizeof(ShmIngestSlot));
}

/// A producer's hold on one directory entry: the entry and the gen its
/// frames carry. join() hands one out, set_target() advances it, leave()
/// gives the entry back.
struct AppHandle {
  std::uint32_t entry = 0;
  std::uint32_t gen = 0;
};

class ShmIngestQueue {
 public:
  /// Create a fresh ring file (O_EXCL: fails with std::system_error
  /// (EEXIST) if the path already exists). `capacity` is clamped to >= 2.
  static std::shared_ptr<ShmIngestQueue> create(
      const std::filesystem::path& file, std::uint32_t capacity);

  /// Attach to an existing ring. Retries briefly while a concurrent
  /// create() is still initializing the header; throws std::runtime_error
  /// on missing file or bad magic/version/layout (a v1 to v4 ring file is
  /// a version mismatch — remove it and let a producer recreate v5).
  static std::shared_ptr<ShmIngestQueue> attach(const std::filesystem::path& file);

  /// Create-or-attach, safe against concurrent openers: first successful
  /// O_EXCL creator wins, everyone else attaches. The rendezvous pattern
  /// for rings at a well-known path (Registry::ingest_queue_path()).
  static std::shared_ptr<ShmIngestQueue> open(const std::filesystem::path& file,
                                              std::uint32_t capacity);

  ~ShmIngestQueue();
  ShmIngestQueue(const ShmIngestQueue&) = delete;
  ShmIngestQueue& operator=(const ShmIngestQueue&) = delete;

  // ------------------------------------------------------------- producers

  /// Take a directory entry for `app` and write its name and target
  /// there. Probes from a process-local hint. Throws std::runtime_error
  /// naming the ring when no entry is free: every entry is held, or was
  /// given back less than a lap of the ring ago. An entry whose holder
  /// died is reclaimed (and free a lap later) only when the holder shared
  /// the creator's pid namespace; one held from another namespace stays
  /// held until the ring file is recreated.
  AppHandle join(std::string_view app, core::TargetRate target);

  /// Write a new target into the held entry and bump its gen: frames
  /// written from now on carry the new gen.
  void set_target(AppHandle& app, core::TargetRate target);

  /// Give the entry back. It is handed out again once the ring head has
  /// moved a full capacity on. Flush first: frames written after leave()
  /// may reach no consumer. A no-op unless this process holds the entry.
  void leave(AppHandle app);

  /// Append one beat of `app` to the shared ring. Thread- and
  /// process-safe; lock-free (one fetch_add + one frame write). Returns
  /// the frame sequence number.
  std::uint64_t append(AppHandle app, util::TimeNs timestamp_ns);

  /// Append a batch of one app's beat timestamps, packing up to
  /// kIngestFrameRecords per frame, under ONE claim. Thread- and
  /// process-safe. Returns the first frame sequence number.
  std::uint64_t append_batch(AppHandle app,
                             std::span<const util::TimeNs> timestamps);

  /// Low-level two-phase producer API (one single-beat frame per seq).
  /// claim() takes n frame seqs and marks their slots with this process's
  /// pid; publish() fills one. A process that claims and then dies before
  /// publishing leaves torn frames, which consumers skip once its pid is
  /// gone — tests crash a forked child between the two to model that.
  std::uint64_t claim(std::uint64_t n);
  void publish(std::uint64_t seq, AppHandle app, util::TimeNs timestamp_ns);

  // -------------------------------------------------------------- consumers

  /// Per-consumer drain state. Plain value; each independent consumer owns
  /// one. All counters are cumulative across drain() calls.
  struct Cursor {
    std::uint64_t next = 0;    ///< next frame seq to read
    std::uint32_t stalls = 0;  ///< consecutive drains blocked on one slot
    /// Monotonic time the blocked slot first outlasted the stall budget
    /// without a dead owner (0 = not yet).
    util::TimeNs overdue_since_ns = 0;
    std::uint64_t consumed = 0;         ///< RECORDS delivered to the sink
    std::uint64_t consumed_frames = 0;  ///< frames those records arrived in
    std::uint64_t dropped = 0;  ///< FRAMES overwritten before this consumer read them
    std::uint64_t torn = 0;     ///< FRAMES skipped uncommitted (crashed producer)
    /// The subset of `torn` skipped after kClaimLivenessTimeoutNs: the
    /// owner was alive or could not be judged, so no crash is implied.
    std::uint64_t timed_out = 0;
  };

  /// Sink for drained frames, called once per accepted frame with its
  /// directory entry, gen and 1..kIngestFrameRecords beat timestamps in
  /// order. Neither is checked against the directory: read_entry() says
  /// which app, if any, they stand for. `timestamps` points into a stack
  /// copy — valid only for the duration of the call.
  using DrainFn = std::function<void(std::uint32_t entry, std::uint32_t gen,
                                     std::span<const util::TimeNs> timestamps)>;

  /// Drain every committed frame in [cursor, head), in ring order. Stops
  /// early at an in-flight slot. Once the same slot has blocked
  /// `max_stall_polls` consecutive drains it is skipped and counted in
  /// Cursor::torn if its mark names a dead or malformed pid — and so is
  /// the contiguous run behind it that still bears that same mark, the
  /// rest of the dead producer's claimed batch. Any other blocked slot is
  /// skipped only after a further kClaimLivenessTimeoutNs, and counted in
  /// Cursor::timed_out as well as Cursor::torn.
  /// Frames lapped by producers are counted in Cursor::dropped, never
  /// delivered torn. Returns records delivered.
  std::size_t drain(Cursor& cur, const DrainFn& fn,
                    std::uint32_t max_stall_polls = 3);

  /// One read of a directory entry: its tenure, consistent, and its
  /// current target when no re-target was writing it.
  struct AppEntry {
    std::uint32_t claimed_gen = 0;  ///< the tenure's first gen (even)
    std::uint32_t gen = 0;  ///< the entry's gen (odd: a re-target was mid-write)
    /// Name, zero-padded after its NUL, and the join's target.
    ShmIngestDirEntry::Tenure tenure;
    ShmIngestDirEntry::Target target;  ///< the current target if target_read
    bool target_read = false;  ///< `target` is one consistent copy
  };

  /// Read entry `entry`, one seqlock attempt, never waiting. False when
  /// `entry` is out of range or a join was writing it (no frame of that
  /// tenure can exist yet). The directory is untrusted: check a frame's
  /// gen against the result.
  bool read_entry(std::uint32_t entry, AppEntry& out) const;

  /// A cursor positioned at the current head (the "ignore the retained
  /// backlog, watch from now" starting point).
  Cursor tail_cursor() const;

  /// True when the ring has frames the cursor has not consumed.
  bool has_frames(const Cursor& cur) const;

  // -------------------------------------------------------------- doorbell

  enum class WaitResult {
    kReady,        ///< frames were already pending; did not block
    kWoken,        ///< a producer rang the doorbell (or a signal arrived)
    kTimeout,      ///< timeout_ns elapsed with no ring
    kUnsupported,  ///< no futex on this platform; caller must backoff-poll
  };

  /// Block until a producer publishes frames, for at most `timeout_ns`.
  /// Park/ring protocol: the consumer samples the doorbell generation,
  /// advertises itself in `parked` (seq_cst), RE-CHECKS for frames, then
  /// FUTEX_WAITs on the sampled generation. A producer commits frames
  /// first and only then checks `parked` (one relaxed load); the bounded
  /// timeout covers the narrow race the relaxed check admits (producer
  /// publish + check completing entirely inside the consumer's park
  /// window). See ARCHITECTURE.md "The ingest fast path".
  WaitResult wait_for_frames(const Cursor& cur, util::TimeNs timeout_ns);

  /// True when wait_for_frames can actually block (futex available).
  static bool doorbell_supported();

  /// Total doorbell rings producers have performed (diagnostic).
  std::uint64_t doorbell_rings() const;

  /// Total frames ever claimed (ring head).
  std::uint64_t produced() const;
  std::uint32_t capacity() const;
  std::uint32_t creator_pid() const;
  const std::filesystem::path& file() const { return file_; }

 private:
  /// Takes the geometry create() wrote or attach() validated, never
  /// re-reading it from the shared header.
  ShmIngestQueue(std::filesystem::path file, void* base, std::size_t bytes,
                 std::uint32_t capacity);

  ShmIngestHeader* header() { return static_cast<ShmIngestHeader*>(base_); }
  const ShmIngestHeader* header() const {
    return static_cast<const ShmIngestHeader*>(base_);
  }
  ShmIngestDirEntry* directory();
  const ShmIngestDirEntry* directory() const;
  ShmIngestSlot* slots();
  const ShmIngestSlot* slots() const;

  /// Seqlock-write one packed frame (timestamps.size() <=
  /// kIngestFrameRecords, all packable together) into `slot`, which
  /// claim() marked, as frame `seq` — unless a later lap has published
  /// there, in which case the frame is dropped unwritten.
  void publish_frame(ShmIngestSlot& slot, std::uint64_t seq, AppHandle app,
                     std::span<const util::TimeNs> timestamps);

  /// This process's claim mark for this ring: kClaimBit | pid when the
  /// process shares the creator's pid namespace, else 0.
  std::uint64_t claim_mark() const;

  /// Longest packable prefix of timestamps[i..] (deltas from timestamps[i]
  /// in [0, 2^32)), capped at kIngestFrameRecords.
  static std::size_t count_packable(std::span<const util::TimeNs> timestamps,
                                    std::size_t i);

  /// Ring the doorbell if (and only if) a consumer is parked.
  void ring_doorbell();

  std::filesystem::path file_;
  void* base_ = nullptr;
  std::size_t bytes_ = 0;
  /// Geometry is immutable after create(); cached at map time so the hot
  /// append path never re-reads the header cache line that producers keep
  /// invalidating with head fetch_adds.
  std::uint32_t capacity_ = 0;
  /// This process shares the creator's pid namespace (header.pid_ns, read
  /// once at map time): its claims carry its pid, and as a consumer it
  /// may judge other claims' pids dead.
  bool same_pid_ns_ = false;
  /// Directory entry join() probes first: one past the last it took, so a
  /// process joining many apps does not rescan the entries it filled.
  std::atomic<std::uint32_t> join_hint_{0};
};

/// Producer-side batching knobs for ShmHubSink.
struct ShmHubSinkOptions {
  /// Beats buffered locally before one append_batch into the ring. 1 (the
  /// default) forwards every beat immediately — lowest staleness as seen
  /// by the aggregator. High-rate producers can raise it to amortize the
  /// ring's contended fetch_add AND let frame packing put several beats
  /// in one 64-byte slot (up to kIngestFrameRecords per frame).
  std::size_t flush_every = 1;
  /// Flush regardless of fill once the oldest buffered beat is this much
  /// older than the newest (producer-clock ns), so a producer that slows
  /// down cannot sit on a partial batch and read as stale hub-side.
  /// Checked at append time; only meaningful with flush_every > 1.
  util::TimeNs max_hold_ns = 50 * util::kNsPerMs;
};

/// ShmHubSink: mirror a producer's beats into a cross-process ingest ring.
///
/// A BeatStore decorator, so any producer path that takes a StoreFactory
/// (Heartbeat, the C API) feeds a remote aggregator (a ShmIngestPump into
/// a hub) with zero code changes. Appends pass through to the
/// wrapped store (which keeps serving in-process rate queries and, if it
/// is a registry ShmStore, stays observer-walkable, and keeps each
/// record's seq, tag and thread id) and their timestamps are batched into
/// the ring under the sink's directory entry, which carries the name and
/// the current target.
class ShmHubSink final : public core::BeatStore {
 public:
  /// Mirrors appends on `inner` into `queue` under name `app`: joins the
  /// ring's directory once, here (std::runtime_error when it is full).
  ShmHubSink(std::shared_ptr<core::BeatStore> inner,
             std::shared_ptr<ShmIngestQueue> queue, std::string app,
             ShmHubSinkOptions opts = {});

  /// Flushes any buffered tail batch, then leaves the directory.
  ~ShmHubSink() override;

  std::uint64_t append(const core::HeartbeatRecord& rec) override;
  std::uint64_t count() const override { return inner_->count(); }
  std::size_t capacity() const override { return inner_->capacity(); }
  std::vector<core::HeartbeatRecord> history(std::size_t n) const override {
    return inner_->history(n);
  }
  /// Flushes the beats buffered under the old target, then re-targets
  /// the directory entry.
  void set_target(core::TargetRate t) override;
  core::TargetRate target() const override { return inner_->target(); }
  void set_default_window(std::uint32_t w) override {
    inner_->set_default_window(w);
  }
  std::uint32_t default_window() const override {
    return inner_->default_window();
  }

  /// Push any buffered beats into the ring now. Thread-safe.
  void flush() HB_EXCLUDES(mu_);

  const std::shared_ptr<core::BeatStore>& inner() const { return inner_; }
  const std::string& app() const { return app_; }

  /// StoreFactory adapter: builds the inner store with `inner_factory`
  /// (default: the in-process MemoryStore factory Heartbeat uses), then
  /// wraps shared channels in a ShmHubSink publishing under the channel's
  /// application name ("<app>.global" prefix). Local ("<app>.t<tid>")
  /// channels pass through unwrapped — mirroring both levels would
  /// double-count the app.
  static core::StoreFactory wrap_factory(std::shared_ptr<ShmIngestQueue> queue,
                                         core::StoreFactory inner_factory = {},
                                         ShmHubSinkOptions opts = {});

 private:
  void flush_locked() HB_REQUIRES(mu_);

  std::shared_ptr<core::BeatStore> inner_;
  std::shared_ptr<ShmIngestQueue> queue_;
  std::string app_;
  ShmHubSinkOptions opts_;

  util::Mutex mu_;
  AppHandle entry_ HB_GUARDED_BY(mu_);
  std::vector<util::TimeNs> buf_ HB_GUARDED_BY(mu_);
};

}  // namespace hb::transport
