// ShmIngestQueue: the cross-process front door of the heartbeat hub.
//
// ShmStore gives every producer its own observer-walkable segment; that is
// the paper's §3/§4 story for ONE application. At fleet scale the consumer
// side inverts: one aggregator wants beats from N producer *processes*
// without attaching (and polling) N segments. This header provides the
// missing transport: a single fixed-capacity multi-producer/single-consumer
// ring in shared memory that any process can append BeatRecord batches
// into, and that one pump (hub/ShmIngestPump) drains into a HeartbeatHub.
//
// Format v2 adds three fast-path levers on top of the v1 ring:
//
//   * PACKED FRAMES — a slot no longer carries one beat. Each 128-byte
//     slot is a *frame* holding up to kIngestFrameRecords compact records
//     from one producer thread (base timestamp + u32 deltas, base seq +
//     implicit increments, shared app/target). Producers that batch (via
//     ShmHubSink's flush_every/max_hold_ns) move several beats per claim.
//   * FUTEX DOORBELL — two words in the header (doorbell generation +
//     parked count) let the consumer block in the kernel instead of
//     backoff-polling. Producers ring only when a consumer is parked
//     (one relaxed load on the hot path). See wait_for_frames().
//   * SPSC FAST LANES — a small array of per-producer lanes, claimed by
//     CAS on an owner word, whose single writer publishes frames with a
//     plain release store instead of the contended MPSC fetch_add. The
//     same consumer pass drains them with identical lap/torn semantics;
//     lanes whose owner pid has died are reclaimed by the next claimant.
//
// Segment layout (all fixed-width, standard-layout, address-free atomics —
// the same ABI discipline as transport/shm_layout.hpp):
//
//   offset 0 : ShmIngestHeader                 (128 bytes, magic last)
//   then     : ShmIngestLane[kIngestLanes]     (64 bytes each)
//   then     : ShmIngestSlot[capacity]         (128 bytes each, MPSC ring)
//   then     : ShmIngestSlot[lanes * lane_cap] (SPSC lane rings)
//
// Concurrency protocol (shared by the MPSC ring and every lane):
//   * A producer claims n consecutive frame sequence numbers — with ONE
//     fetch_add on header.head for the shared ring, or (lane owner only)
//     by advancing the lane head with a release store after each publish.
//   * Each claimed slot s is written seqlock-style: commit <- 0
//     (invalidate, release), payload, commit <- s + 1 (publish, release).
//   * The consumer keeps a private Cursor (next expected frame per
//     stream) and walks [cursor, head). commit == s + 1 before AND after
//     the copy accepts a frame; commit from a later lap means the frame
//     was overwritten (counted as dropped); commit still missing means
//     the claiming producer is in flight — or crashed mid-batch. After
//     `max_stall_polls` drains blocked on the same slot the consumer
//     skips it (counted as torn), so a producer that dies between claim
//     and publish can never wedge the fleet pipeline.
//
// Accounting units: `dropped` and `torn` count FRAMES (exactly v1's
// slot-unit semantics — a lost slot is a lost slot); `consumed` counts
// RECORDS delivered. In any no-loss configuration the record count is
// exact; under loss, consumed_frames + dropped + torn always equals the
// frames produced, so nothing is ever silently unaccounted.
//
// Because slots are read non-destructively, any number of independent
// consumers (each with its own Cursor) may drain the same ring — e.g. the
// owning aggregator plus a transient `hbmon fleet --live` session.
#pragma once

#include <atomic>
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
/// v2: packed multi-record frames, doorbell words, SPSC fast lanes.
/// attach() rejects any other version — a stale v1 ring file must be
/// removed (see OPERATIONS.md), never reinterpreted.
inline constexpr std::uint32_t kShmIngestVersion = 2;

/// Maximum application-name length carried per frame (including NUL).
/// Longer names are truncated to a 30-byte prefix plus '~' and 8 hex
/// digits of a hash of the full name, so producers whose long names share
/// a prefix remain distinct apps on the consumer side.
inline constexpr std::size_t kIngestNameCap = 40;

/// Records one 128-byte frame can pack (compact encoding below).
inline constexpr std::size_t kIngestFrameRecords = 3;

/// Number of SPSC fast lanes in every segment (part of the ABI: lane
/// headers are always reserved, whether or not producers claim them).
inline constexpr std::uint32_t kIngestLanes = 8;

/// Default frames per lane ring. Lanes absorb one producer's burst between
/// consumer passes; they do not need the shared ring's full depth.
inline constexpr std::uint32_t kIngestDefaultLaneCapacity = 256;

struct ShmIngestHeader {
  /// Stored LAST during create() (release), checked first by attach()
  /// (acquire): a racing attacher never sees a half-initialized header.
  std::atomic<std::uint64_t> magic{0};
  std::uint32_t version = kShmIngestVersion;
  std::uint32_t slot_size = 0;      ///< sizeof(ShmIngestSlot); ABI self-check
  std::uint32_t capacity = 0;       ///< frames in the shared MPSC ring
  std::uint32_t creator_pid = 0;    ///< pid of the creating process
  std::uint32_t lane_count = 0;     ///< SPSC lanes (== kIngestLanes today)
  std::uint32_t lane_capacity = 0;  ///< frames per lane ring
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

/// Per-lane control block. The owner word is 0 when free, else
/// (claim_nonce << 32) | owner_pid — the pid half lets any process detect
/// a dead owner (kill(pid, 0) == ESRCH) and reclaim; the nonce half keeps
/// two claims by one process (or a recycled pid) from colliding on CAS.
struct ShmIngestLane {
  std::atomic<std::uint64_t> owner{0};
  /// Frames published to this lane. Owner-only writer: advanced with a
  /// release store after each frame commit — no RMW, no contention.
  std::atomic<std::uint64_t> head{0};
  std::uint8_t pad[48] = {};
};

static_assert(std::is_standard_layout_v<ShmIngestLane>);
static_assert(sizeof(ShmIngestLane) == 64, "one cache line per lane header");

struct ShmIngestSlot {
  /// Everything the seqlock word protects, as one trivially copyable
  /// value: writers build a Body locally and move it in with a single
  /// util::tsan_relaxed_copy; readers copy it out the same way before the
  /// commit re-check. Keeping the payload a distinct struct (rather than
  /// loose slot members) is what lets the TSan build swap the copy for
  /// word-wise relaxed atomics without touching the protocol.
  ///
  /// v2 packs up to kIngestFrameRecords records from ONE producer thread:
  /// record i reconstructs as { timestamp = base_ts_ns + ts_delta_ns[i],
  /// seq = base_seq + i, tag = tags[i], thread_id }. Producers start a new
  /// frame whenever a record breaks the encoding (different thread,
  /// non-consecutive seq, or a timestamp delta that overflows u32).
  struct Body {
    char app[kIngestNameCap] = {};  ///< NUL-terminated app name (truncated)
    std::uint32_t thread_id = 0;    ///< producer thread for every record
    std::uint16_t count = 0;        ///< records in this frame (1..3)
    std::uint16_t flags = 0;        ///< reserved (0)
    /// Producer's registered target range, as IEEE-754 bit patterns (the
    /// consumer registers/updates hub targets from these).
    std::uint64_t target_min_bits = 0;
    std::uint64_t target_max_bits = 0;
    std::int64_t base_ts_ns = 0;   ///< timestamp of record 0
    std::uint64_t base_seq = 0;    ///< store seq of record 0
    std::uint64_t tags[kIngestFrameRecords] = {};
    std::uint32_t ts_delta_ns[kIngestFrameRecords] = {};
    std::uint32_t reserved = 0;
  };

  /// Seqlock word: 0 = empty/being written, s+1 = frame with ring seq s.
  std::atomic<std::uint64_t> commit{0};
  Body body{};
};

static_assert(std::is_standard_layout_v<ShmIngestSlot>);
static_assert(std::is_trivially_copyable_v<ShmIngestSlot::Body>);
static_assert(sizeof(ShmIngestSlot::Body) == 120, "payload layout is ABI");
static_assert(sizeof(ShmIngestSlot) == 128, "two cache lines per frame");

/// Total segment size for a given shared-ring capacity and lane depth.
constexpr std::size_t shm_ingest_segment_size(
    std::uint32_t capacity, std::uint32_t lane_capacity = kIngestDefaultLaneCapacity) {
  return sizeof(ShmIngestHeader) + kIngestLanes * sizeof(ShmIngestLane) +
         static_cast<std::size_t>(capacity) * sizeof(ShmIngestSlot) +
         static_cast<std::size_t>(kIngestLanes) * lane_capacity *
             sizeof(ShmIngestSlot);
}

class ShmIngestQueue {
 public:
  /// Create a fresh ring file (O_EXCL: fails with std::system_error
  /// (EEXIST) if the path already exists). `capacity` is clamped to >= 2,
  /// `lane_capacity` to >= 2.
  static std::shared_ptr<ShmIngestQueue> create(
      const std::filesystem::path& file, std::uint32_t capacity,
      std::uint32_t lane_capacity = kIngestDefaultLaneCapacity);

  /// Attach to an existing ring. Retries briefly while a concurrent
  /// create() is still initializing the header; throws std::runtime_error
  /// on missing file or bad magic/version/layout (a v1 ring file is a
  /// version mismatch — remove it and let a producer recreate v2).
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

  /// Append one beat under `app`. Thread- and process-safe; lock-free
  /// (one fetch_add + one frame write). Returns the frame sequence number.
  std::uint64_t append(std::string_view app, const core::HeartbeatRecord& rec,
                       core::TargetRate target);

  /// Append a batch for one app with a single head claim, packing up to
  /// kIngestFrameRecords records per frame. Returns the first frame
  /// sequence number.
  std::uint64_t append_batch(std::string_view app,
                             std::span<const core::HeartbeatRecord> recs,
                             core::TargetRate target);

  /// Low-level two-phase producer API (one single-record frame per seq).
  /// A process that claims and then dies before publishing leaves torn
  /// frames, which consumers skip after a bounded stall — tests use
  /// claim() alone to model exactly that crash.
  std::uint64_t claim(std::uint64_t n);
  void publish(std::uint64_t seq, std::string_view app,
               const core::HeartbeatRecord& rec, core::TargetRate target);

  // ------------------------------------------------------------ fast lanes

  /// Claim an SPSC fast lane for this queue handle. First pass takes a
  /// free lane (owner CAS 0 -> self); second pass reclaims a lane whose
  /// owner pid no longer exists (producer died — its unpublished tail, if
  /// any, is skipped as torn by the consumer's stall budget). Returns the
  /// lane index, or -1 when all lanes are held by live producers (callers
  /// fall back to the shared ring).
  int claim_lane();

  /// Release a lane claimed by THIS handle (no-op for -1 / foreign lanes).
  void release_lane(int lane);

  /// Append a batch into a claimed lane. SINGLE WRITER: only the lane
  /// owner may call, one call at a time (ShmHubSink serializes under its
  /// mutex). No fetch_add — frames commit then advertise with a release
  /// store on the lane head. Returns the first lane frame sequence.
  std::uint64_t append_batch_lane(int lane, std::string_view app,
                                  std::span<const core::HeartbeatRecord> recs,
                                  core::TargetRate target);

  std::uint32_t lane_count() const { return lane_count_; }
  std::uint32_t lane_capacity() const { return lane_capacity_; }
  /// Current owner word of a lane (0 = free). Diagnostic.
  std::uint64_t lane_owner(std::uint32_t lane) const;
  /// Frames ever published to a lane (lane head).
  std::uint64_t lane_produced(std::uint32_t lane) const;

  // -------------------------------------------------------------- consumers

  /// Per-stream drain state: next expected frame + stall credit against
  /// the head-of-line slot.
  struct StreamCursor {
    std::uint64_t next = 0;   ///< next frame seq to read
    std::uint32_t stalls = 0; ///< consecutive drains blocked on one slot
    std::uint32_t pad = 0;
  };

  /// Per-consumer drain state. Plain value; each independent consumer owns
  /// one. All counters are cumulative across drain() calls.
  struct Cursor {
    StreamCursor main{};                   ///< shared MPSC ring
    StreamCursor lanes[kIngestLanes] = {}; ///< one per fast lane
    std::uint64_t consumed = 0;         ///< RECORDS delivered to the sink
    std::uint64_t consumed_frames = 0;  ///< frames those records arrived in
    std::uint64_t lane_records = 0;     ///< subset of consumed from fast lanes
    std::uint64_t dropped = 0;  ///< FRAMES overwritten before this consumer read them
    std::uint64_t torn = 0;     ///< FRAMES skipped uncommitted (crashed producer)
  };

  /// Sink for drained records. `app` points into a stack copy — valid only
  /// for the duration of the call.
  using DrainFn = std::function<void(
      std::string_view app, const core::HeartbeatRecord& rec,
      core::TargetRate target)>;

  /// Drain every committed frame in [cursor, head) of the shared ring and
  /// every lane, in per-stream ring order. Stops early (per stream) at an
  /// in-flight slot; after the same slot has blocked `max_stall_polls`
  /// consecutive drains it — and the contiguous run of uncommitted slots
  /// behind it, which is almost certainly the same crashed producer's
  /// claimed batch — is skipped and counted in Cursor::torn. Frames lapped
  /// by producers are counted in Cursor::dropped, never delivered torn.
  /// Returns records delivered.
  std::size_t drain(Cursor& cur, const DrainFn& fn,
                    std::uint32_t max_stall_polls = 3);

  /// A cursor positioned at the current heads of every stream (the
  /// "ignore the retained backlog, watch from now" starting point).
  Cursor tail_cursor() const;

  /// True when any stream has frames the cursor has not consumed.
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

  /// Total frames ever claimed in the shared MPSC ring (ring head). Lane
  /// frames are advertised per lane — see lane_produced().
  std::uint64_t produced() const;
  std::uint32_t capacity() const;
  std::uint32_t creator_pid() const;
  const std::filesystem::path& file() const { return file_; }

 private:
  ShmIngestQueue(std::filesystem::path file, void* base, std::size_t bytes);

  ShmIngestHeader* header() { return static_cast<ShmIngestHeader*>(base_); }
  const ShmIngestHeader* header() const {
    return static_cast<const ShmIngestHeader*>(base_);
  }
  ShmIngestLane* lane_headers();
  const ShmIngestLane* lane_headers() const;
  ShmIngestSlot* slots();
  const ShmIngestSlot* slots() const;
  ShmIngestSlot* lane_slots(std::uint32_t lane);
  const ShmIngestSlot* lane_slots(std::uint32_t lane) const;

  /// Seqlock-write one packed frame (recs.size() <= kIngestFrameRecords,
  /// all packable together) into `slot` as frame `seq`.
  static void publish_frame(ShmIngestSlot& slot, std::uint64_t seq,
                            std::string_view app,
                            std::span<const core::HeartbeatRecord> recs,
                            core::TargetRate target);

  /// Longest packable prefix of recs[i..] (same thread, consecutive seqs,
  /// timestamp deltas that fit u32), capped at kIngestFrameRecords.
  static std::size_t count_packable(std::span<const core::HeartbeatRecord> recs,
                                    std::size_t i);

  /// Ring the doorbell if (and only if) a consumer is parked.
  void ring_doorbell();

  /// Drain one stream (shared ring or lane) up to `head`. Returns records
  /// delivered; updates the stream cursor and the cursor-wide totals.
  std::size_t drain_stream(const ShmIngestSlot* arr, std::uint64_t cap,
                           std::uint64_t head, StreamCursor& sc, bool lane,
                           Cursor& totals, const DrainFn& fn,
                           std::uint32_t max_stall_polls);

  std::filesystem::path file_;
  void* base_ = nullptr;
  std::size_t bytes_ = 0;
  /// Geometry is immutable after create(); cached at map time so the hot
  /// append path never re-reads the header cache line that producers keep
  /// invalidating with head fetch_adds.
  std::uint32_t capacity_ = 0;
  std::uint32_t lane_count_ = 0;
  std::uint32_t lane_capacity_ = 0;
  /// Owner tokens this handle wrote when claiming lanes (0 = not ours);
  /// release_lane only releases tokens recorded here.
  std::uint64_t lane_tokens_[kIngestLanes] = {};
};

/// Producer-side batching knobs for ShmHubSink.
struct ShmHubSinkOptions {
  /// Beats buffered locally before one append_batch into the ring. 1 (the
  /// default) forwards every beat immediately — lowest staleness as seen
  /// by the aggregator. High-rate producers can raise it to amortize the
  /// ring's contended fetch_add AND let frame packing put several records
  /// in one 128-byte slot (up to kIngestFrameRecords per frame).
  std::size_t flush_every = 1;
  /// Flush regardless of fill once the oldest buffered beat is this much
  /// older than the newest (producer-clock ns), so a producer that slows
  /// down cannot sit on a partial batch and read as stale hub-side.
  /// Checked at append time; only meaningful with flush_every > 1.
  util::TimeNs max_hold_ns = 50 * util::kNsPerMs;
  /// Claim an SPSC fast lane at construction and publish through it
  /// (falling back to the shared ring when every lane is held by a live
  /// producer). On by default: lane publishes skip the contended MPSC
  /// fetch_add entirely.
  bool use_fast_lane = true;
};

/// ShmHubSink: mirror a producer's beats into a cross-process ingest ring.
///
/// A BeatStore decorator, so any producer path that takes a StoreFactory
/// (Heartbeat, the C API) feeds a remote aggregator (a ShmIngestPump into
/// a hub) with zero code changes. Appends pass through to the
/// wrapped store (which keeps serving in-process rate queries and, if it
/// is a registry ShmStore, stays observer-walkable) and are batched into
/// the ring with the store-assigned sequence number and current target.
class ShmHubSink final : public core::BeatStore {
 public:
  /// Mirrors appends on `inner` into `queue` under name `app`.
  ShmHubSink(std::shared_ptr<core::BeatStore> inner,
             std::shared_ptr<ShmIngestQueue> queue, std::string app,
             ShmHubSinkOptions opts = {});

  /// Flushes any buffered tail batch and releases the fast lane.
  ~ShmHubSink() override;

  std::uint64_t append(const core::HeartbeatRecord& rec) override;
  std::uint64_t count() const override { return inner_->count(); }
  std::size_t capacity() const override { return inner_->capacity(); }
  std::vector<core::HeartbeatRecord> history(std::size_t n) const override {
    return inner_->history(n);
  }
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
  /// Fast-lane index this sink publishes through, or -1 (shared ring).
  int lane() const { return lane_; }

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
  int lane_ = -1;

  util::Mutex mu_;
  std::vector<core::HeartbeatRecord> buf_ HB_GUARDED_BY(mu_);
};

}  // namespace hb::transport
