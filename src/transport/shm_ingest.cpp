#include "transport/shm_ingest.hpp"

#include <fcntl.h>
#include <linux/futex.h>
#include <pthread.h>
#include <signal.h>
#include <sys/file.h>
#include <sys/mman.h>
#include <sys/stat.h>
#include <sys/syscall.h>
#include <unistd.h>

#include <bit>
#include <cerrno>
#include <chrono>
#include <climits>
#include <cstdio>
#include <cstring>
#include <limits>
#include <stdexcept>
#include <thread>

#include "core/memory_store.hpp"
#include "obs/metrics.hpp"
#include "transport/posix_util.hpp"
#include "util/clock.hpp"
#include "util/tsan.hpp"

namespace hb::transport {

using detail::Fd;
using detail::throw_errno;

namespace {

/// Registry cells for the shm ring, resolved once per process. Claims,
/// records, and rings are producer-side (every process mapping the ring
/// has its own registry); drained/dropped/torn are consumer-side deltas
/// mirrored off the Cursor.
struct ShmMetrics {
  obs::Counter* claimed;  ///< frames claimed
  obs::Counter* records;  ///< records appended
  obs::Counter* rings;    ///< doorbell rings performed
  obs::Counter* drained;  ///< records delivered to consumers
  obs::Counter* dropped;  ///< frames lapped before a consumer read them
  obs::Counter* torn;     ///< frames skipped (crashed producer)

  static const ShmMetrics& get() {
    static const ShmMetrics m = [] {
      auto& r = obs::MetricsRegistry::global();
      return ShmMetrics{&r.counter("hb.shm.claimed"),
                        &r.counter("hb.shm.records"),
                        &r.counter("hb.shm.rings"),
                        &r.counter("hb.shm.drained"),
                        &r.counter("hb.shm.dropped"),
                        &r.counter("hb.shm.torn")};
    }();
    return m;
  }
};

/// Frames drain looks ahead: it prefetches the slot this many frames past
/// the one it reads, since the producer's core has just written it.
constexpr std::uint64_t kDrainFetchAhead = 4;

// Fit an app name into a directory entry's 40-byte field. Names that fit
// are copied verbatim; longer ones keep their first 30 bytes plus '~' and
// 8 hex digits of an FNV-1a hash of the FULL name, so two producers whose
// names share a long prefix are still distinct apps hub-side (silent merging
// would make one of them vanish from every fleet report).
std::size_t fit_name(std::string_view app, char out[kIngestNameCap]) {
  if (app.size() < kIngestNameCap) {
    std::memcpy(out, app.data(), app.size());
    out[app.size()] = '\0';
    return app.size();
  }
  std::uint64_t h = 14695981039346656037ULL;
  for (const char c : app) {
    h ^= static_cast<unsigned char>(c);
    h *= 1099511628211ULL;
  }
  constexpr std::size_t kPrefix = kIngestNameCap - 10;  // 30 + '~' + 8 hex
  std::memcpy(out, app.data(), kPrefix);
  std::snprintf(out + kPrefix, kIngestNameCap - kPrefix, "~%08x",
                static_cast<std::uint32_t>(h));
  return kIngestNameCap - 1;
}

// ------------------------------------------------------------ futex shims
//
// The doorbell word lives in shared memory, so the futex must NOT be
// FUTEX_PRIVATE — producers and the consumer are different processes.
// std::atomic<u32> is address-free (static_assert in the header), so its
// storage can be handed to the kernel directly.

long futex_call(std::atomic<std::uint32_t>* word, int op, std::uint32_t val,
                const timespec* ts) {
  return ::syscall(SYS_futex, reinterpret_cast<std::uint32_t*>(word), op, val,
                   ts, nullptr, 0);
}

/// Returns true when woken (or the generation already moved / a signal
/// arrived — callers re-check for work either way), false on timeout.
bool futex_wait(std::atomic<std::uint32_t>* word, std::uint32_t expected,
                util::TimeNs timeout_ns) {
  timespec ts{};
  ts.tv_sec = static_cast<time_t>(timeout_ns / util::kNsPerSec);
  ts.tv_nsec = static_cast<long>(timeout_ns % util::kNsPerSec);
  const long rc = futex_call(word, FUTEX_WAIT, expected, &ts);
  if (rc == 0) return true;
  // EAGAIN: a producer bumped the generation between our sample and the
  // syscall — that IS the wake. EINTR: signal; surface as a (possibly
  // spurious) wake so the caller re-checks instead of oversleeping.
  return errno == EAGAIN || errno == EINTR;
}

void futex_wake_all(std::atomic<std::uint32_t>* word) {
  futex_call(word, FUTEX_WAKE, INT_MAX, nullptr);
}

/// True when a claim mark names a process that no longer exists (ESRCH)
/// or no process at all (pid <= 0 or beyond pid_t, so kill(0|-1, 0) is
/// never called). EPERM means "alive but not ours" — NOT dead.
bool owner_pid_dead(std::uint64_t mark) {
  const std::uint64_t owner = mark & ~kClaimBit;
  if (owner > static_cast<std::uint64_t>(std::numeric_limits<pid_t>::max())) {
    return true;
  }
  const auto pid = static_cast<pid_t>(owner);
  if (pid <= 0) return true;
  if (pid == ::getpid()) return false;
  return ::kill(pid, 0) != 0 && errno == ESRCH;
}

/// This process's claim mark, kClaimBit | pid. getpid() is a system call,
/// so the mark is cached, and re-taken in a forked child, whose claims
/// must name the child.
std::uint64_t own_claim_mark() {
  static std::atomic<std::uint64_t> mark{[] {
    ::pthread_atfork(nullptr, nullptr, [] {
      // relaxed: the child is single-threaded here.
      mark.store(kClaimBit | static_cast<std::uint32_t>(::getpid()),
                 std::memory_order_relaxed);
    });
    return kClaimBit | static_cast<std::uint32_t>(::getpid());
  }()};
  // relaxed: the mark only changes in a forked child's atfork handler.
  return mark.load(std::memory_order_relaxed);
}

/// The owner word of an entry given back at ring head `head`: free once
/// the head has moved a full capacity on. Saturates below kClaimBit, so a
/// hostile head near 2^64 cannot turn it into a claim mark.
std::uint64_t free_at(std::uint64_t head, std::uint64_t capacity) {
  constexpr std::uint64_t kNever = kClaimBit - 1;
  return head >= kNever - capacity ? kNever : head + capacity;
}

/// Seqlock-write an entry's current target under its gen word: odd while
/// the target lands, `gen` (even) once it has.
void write_target(ShmIngestDirEntry& e, core::TargetRate target,
                  std::uint32_t gen) {
  const ShmIngestDirEntry::Target bits{
      std::bit_cast<std::uint64_t>(target.min_bps),
      std::bit_cast<std::uint64_t>(target.max_bps)};
  // relaxed: the release fence below orders it before the target stores.
  e.gen.store(gen - 1, std::memory_order_relaxed);
  std::atomic_thread_fence(std::memory_order_release);
  util::tsan_relaxed_copy(e.target, bits);
  e.gen.store(gen, std::memory_order_release);
}

/// Inode of this process's pid namespace, or 0 where /proc cannot say.
std::uint64_t own_pid_ns() {
  struct stat st{};
  return ::stat("/proc/self/ns/pid", &st) == 0 ? st.st_ino : 0;
}

/// Mark `slot` claimed for frame `seq` unless a later lap has published
/// there. Returns false when one has: frame `seq` is lapped, and writing
/// it would replace the newer frame.
bool mark_slot(ShmIngestSlot& slot, std::uint64_t seq, std::uint64_t mark) {
  // acquire, though the CAS re-checks the value: a relaxed commit load is
  // the drain's fenced re-check alone. The caller's release fence orders
  // the mark before the payload stores that follow.
  std::uint64_t c = slot.commit.load(std::memory_order_acquire);
  do {
    if ((c & kClaimBit) == 0 && c > seq + 1) return false;
    // relaxed: a failed CAS only reloads c for the test above.
  } while (!slot.commit.compare_exchange_weak(c, mark,
                                              std::memory_order_release,
                                              std::memory_order_relaxed));
  return true;
}

}  // namespace

std::shared_ptr<ShmIngestQueue> ShmIngestQueue::create(
    const std::filesystem::path& file, std::uint32_t capacity) {
  if (capacity < 2) capacity = 2;

  if (file.has_parent_path()) std::filesystem::create_directories(file.parent_path());
  Fd fd;
  fd.fd = ::open(file.c_str(), O_RDWR | O_CREAT | O_EXCL, 0644);
  if (fd.fd < 0) throw_errno("ShmIngestQueue::create open " + file.string());
  const std::size_t bytes = shm_ingest_segment_size(capacity);
  if (::ftruncate(fd.fd, static_cast<off_t>(bytes)) != 0) {
    throw_errno("ShmIngestQueue::create ftruncate " + file.string());
  }
  void* base =
      ::mmap(nullptr, bytes, PROT_READ | PROT_WRITE, MAP_SHARED, fd.fd, 0);
  if (base == MAP_FAILED) {
    throw_errno("ShmIngestQueue::create mmap " + file.string());
  }

  // The mapping is zero-filled; all-zero entries and slots are already
  // valid (owner == 0: free; commit == 0: empty). Fill the header, then
  // publish the magic LAST so a concurrent attach() never observes a
  // half-built header.
  auto* hdr = new (base) ShmIngestHeader();
  hdr->slot_size = sizeof(ShmIngestSlot);
  hdr->capacity = capacity;
  hdr->creator_pid = static_cast<std::uint32_t>(::getpid());
  hdr->pid_ns = own_pid_ns();
  hdr->magic.store(kShmIngestMagic, std::memory_order_release);

  // A creator stalled long enough here looks abandoned: open()'s reclaim
  // may have unlinked our file and recreated the path. Producing into an
  // orphaned inode would be silently invisible to every consumer, so
  // verify the path still names our file and report the lost race as
  // EEXIST (open() then attaches the replacement ring).
  struct stat st_fd{};
  struct stat st_path{};
  if (::fstat(fd.fd, &st_fd) != 0 || ::stat(file.c_str(), &st_path) != 0 ||
      st_fd.st_ino != st_path.st_ino || st_fd.st_dev != st_path.st_dev) {
    ::munmap(base, bytes);
    throw std::system_error(
        std::make_error_code(std::errc::file_exists),
        "ShmIngestQueue::create: lost the path to a reclaimer: " +
            file.string());
  }

  return std::shared_ptr<ShmIngestQueue>(
      new ShmIngestQueue(file, base, bytes, capacity));
}

namespace {

/// A mapped, validated segment and the geometry it was validated with.
struct MappedSegment {
  void* base = nullptr;
  std::size_t bytes = 0;
  std::uint32_t capacity = 0;
};

// One attach attempt: map and validate the segment. Sets `retryable` when
// the failure could be a racing creator that has not finished initializing
// (file too small / magic still zero), so attach() can retry briefly.
MappedSegment map_existing(const std::filesystem::path& file,
                           bool& retryable) {
  retryable = false;
  Fd fd;
  fd.fd = ::open(file.c_str(), O_RDWR, 0);
  if (fd.fd < 0) {
    throw std::runtime_error("ShmIngestQueue::attach: cannot open " +
                             file.string());
  }
  struct stat st{};
  if (::fstat(fd.fd, &st) != 0) throw_errno("ShmIngestQueue::attach fstat");
  if (static_cast<std::size_t>(st.st_size) < sizeof(ShmIngestHeader)) {
    retryable = true;
    throw std::runtime_error("ShmIngestQueue::attach: segment too small: " +
                             file.string());
  }
  const std::size_t bytes = static_cast<std::size_t>(st.st_size);
  void* base =
      ::mmap(nullptr, bytes, PROT_READ | PROT_WRITE, MAP_SHARED, fd.fd, 0);
  if (base == MAP_FAILED) {
    throw_errno("ShmIngestQueue::attach mmap " + file.string());
  }

  const auto* hdr = static_cast<const ShmIngestHeader*>(base);
  const std::uint64_t magic = hdr->magic.load(std::memory_order_acquire);
  if (magic == 0) {
    ::munmap(base, bytes);
    retryable = true;  // creator mid-initialization
    throw std::runtime_error("ShmIngestQueue::attach: uninitialized segment: " +
                             file.string());
  }
  // Geometry is read once and the checked copy is what the queue keeps:
  // any local process may write the segment, so a second read could see
  // a capacity this check never bounded.
  const std::uint32_t capacity = hdr->capacity;
  if (magic != kShmIngestMagic || hdr->version != kShmIngestVersion ||
      hdr->slot_size != sizeof(ShmIngestSlot) || capacity < 2 ||
      bytes < shm_ingest_segment_size(capacity)) {
    ::munmap(base, bytes);
    throw std::runtime_error("ShmIngestQueue::attach: bad segment format: " +
                             file.string());
  }
  return {base, bytes, capacity};
}

}  // namespace

std::shared_ptr<ShmIngestQueue> ShmIngestQueue::attach(
    const std::filesystem::path& file) {
  // ~200 ms of patience for a creator caught between open() and the magic
  // store; anything else fails fast.
  for (int attempt = 0;; ++attempt) {
    bool retryable = false;
    try {
      const MappedSegment seg = map_existing(file, retryable);
      return std::shared_ptr<ShmIngestQueue>(
          new ShmIngestQueue(file, seg.base, seg.bytes, seg.capacity));
    } catch (const std::runtime_error&) {
      if (!retryable || attempt >= 100) throw;
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  }
}

namespace {

// True when `file` exists but its magic never got published — a creator
// died between open() and header initialization. Safe to reclaim: a LIVE
// creator publishes the magic microseconds after creating the file, and
// attach() already waited ~200 ms for that before we are asked.
bool is_abandoned_creation(const std::filesystem::path& file) {
  Fd fd;
  fd.fd = ::open(file.c_str(), O_RDONLY, 0);
  if (fd.fd < 0) return false;
  std::uint64_t magic = 0;
  const ssize_t n = ::pread(fd.fd, &magic, sizeof(magic), 0);
  return n < static_cast<ssize_t>(sizeof(magic)) || magic == 0;
}

}  // namespace

std::shared_ptr<ShmIngestQueue> ShmIngestQueue::open(
    const std::filesystem::path& file, std::uint32_t capacity) {
  for (int round = 0;; ++round) {
    try {
      return create(file, capacity);
    } catch (const std::system_error& e) {
      if (e.code() != std::errc::file_exists) throw;
    }
    try {
      return attach(file);
    } catch (const std::runtime_error&) {
      // A half-created ring (creator died before publishing the magic)
      // would wedge the rendezvous path forever: reclaim it. The whole
      // check-remove-recreate runs under an flock on a sibling lock file
      // so concurrent reclaimers serialize — the loser re-checks after
      // the winner's fully initialized ring exists and attaches it,
      // instead of unlinking it mid-create.
      if (round > 0 || !is_abandoned_creation(file)) throw;
      Fd lock;
      lock.fd = ::open((file.string() + ".lock").c_str(),
                       O_RDWR | O_CREAT, 0644);
      if (lock.fd >= 0) ::flock(lock.fd, LOCK_EX);
      if (is_abandoned_creation(file)) {
        std::filesystem::remove(file);
        try {
          return create(file, capacity);
        } catch (const std::system_error& e) {
          if (e.code() != std::errc::file_exists) throw;
        }
      }
      // flock released when `lock` closes; loop and attach the ring the
      // winning reclaimer (or a racing creator) produced.
    }
  }
}

ShmIngestQueue::ShmIngestQueue(std::filesystem::path file, void* base,
                               std::size_t bytes, std::uint32_t capacity)
    : file_(std::move(file)),
      base_(base),
      bytes_(bytes),
      capacity_(capacity),
      same_pid_ns_(header()->pid_ns == own_pid_ns()) {}

ShmIngestQueue::~ShmIngestQueue() {
  if (base_ != nullptr) ::munmap(base_, bytes_);
}

ShmIngestDirEntry* ShmIngestQueue::directory() {
  return reinterpret_cast<ShmIngestDirEntry*>(static_cast<char*>(base_) +
                                              sizeof(ShmIngestHeader));
}

const ShmIngestDirEntry* ShmIngestQueue::directory() const {
  return reinterpret_cast<const ShmIngestDirEntry*>(
      static_cast<const char*>(base_) + sizeof(ShmIngestHeader));
}

ShmIngestSlot* ShmIngestQueue::slots() {
  return reinterpret_cast<ShmIngestSlot*>(directory() + capacity_);
}

const ShmIngestSlot* ShmIngestQueue::slots() const {
  return reinterpret_cast<const ShmIngestSlot*>(directory() + capacity_);
}

// ---------------------------------------------------------------- doorbell

void ShmIngestQueue::ring_doorbell() {
  ShmIngestHeader* hdr = header();
  // relaxed: advisory fast-path check. A consumer parking concurrently
  // can miss this producer's frames AND have its parked increment missed
  // here (classic store-buffer race) — the consumer's bounded futex
  // timeout covers that window; see wait_for_frames().
  if (hdr->parked.load(std::memory_order_relaxed) == 0) return;
  hdr->doorbell.fetch_add(1, std::memory_order_release);
  // relaxed: diagnostic counter; no ordering with the generation bump.
  hdr->rings.fetch_add(1, std::memory_order_relaxed);
  futex_wake_all(&hdr->doorbell);
  ShmMetrics::get().rings->add(1);
}

ShmIngestQueue::WaitResult ShmIngestQueue::wait_for_frames(
    const Cursor& cur, util::TimeNs timeout_ns) {
  if (timeout_ns <= 0) timeout_ns = 1;
  ShmIngestHeader* hdr = header();
  // Sample the generation BEFORE the work check: a ring that lands after
  // the check but before the wait bumps the generation, so FUTEX_WAIT
  // returns EAGAIN instead of sleeping through the signal.
  const std::uint32_t gen = hdr->doorbell.load(std::memory_order_acquire);
  if (has_frames(cur)) return WaitResult::kReady;
  // Park/ring ordering: advertise parked with seq_cst, THEN re-check for
  // frames. A producer publishes frames first, then loads `parked`; its
  // load is relaxed, so the one interleaving where both sides miss each
  // other is possible — and bounded by timeout_ns, not by silence.
  hdr->parked.fetch_add(1, std::memory_order_seq_cst);
  WaitResult r;
  if (has_frames(cur)) {
    r = WaitResult::kReady;
  } else if (futex_wait(&hdr->doorbell, gen, timeout_ns)) {
    r = WaitResult::kWoken;
  } else {
    r = WaitResult::kTimeout;
  }
  hdr->parked.fetch_sub(1, std::memory_order_acq_rel);
  return r;
}

std::uint64_t ShmIngestQueue::doorbell_rings() const {
  return header()->rings.load(std::memory_order_acquire);
}

// --------------------------------------------------------------- directory

AppHandle ShmIngestQueue::join(std::string_view app,
                               core::TargetRate target) {
  ShmIngestDirEntry* dir = directory();
  const std::uint64_t mark = same_pid_ns_ ? own_claim_mark() : kClaimBit;
  // relaxed: a hint; any start index probes the same entries.
  const std::uint32_t start = join_hint_.load(std::memory_order_relaxed);
  for (std::uint32_t i = 0; i < capacity_; ++i) {
    const std::uint32_t idx =
        static_cast<std::uint32_t>((std::uint64_t{start} + i) % capacity_);
    ShmIngestDirEntry& e = dir[idx];
    std::uint64_t owner = e.owner.load(std::memory_order_acquire);
    if ((owner & kClaimBit) != 0) {
      // Held. A dead holder's entry is reclaimed, but handed out only a
      // lap from now, when no consumer can still hold one of its frames.
      if (same_pid_ns_ && owner != kClaimBit && owner_pid_dead(owner)) {
        const std::uint64_t head =
            header()->head.load(std::memory_order_acquire);
        // relaxed: on failure the entry is simply skipped.
        e.owner.compare_exchange_strong(owner, free_at(head, capacity_),
                                        std::memory_order_acq_rel,
                                        std::memory_order_relaxed);
      }
      continue;
    }
    if (owner > header()->head.load(std::memory_order_acquire)) continue;
    // relaxed: on failure another joiner took it; probe on.
    if (!e.owner.compare_exchange_strong(owner, mark,
                                         std::memory_order_acq_rel,
                                         std::memory_order_relaxed)) {
      continue;
    }
    // relaxed: a hint, as above.
    join_hint_.store((idx + 1) % capacity_, std::memory_order_relaxed);
    // The next even gen above any the entry has carried: every frame of
    // an earlier tenure carries a lower one.
    // relaxed: only this holder writes the word now.
    const std::uint32_t gen =
        (e.gen.load(std::memory_order_relaxed) | 1u) + 1u;
    ShmIngestDirEntry::Tenure tenure;
    fit_name(app, tenure.name);
    tenure.join_target = {std::bit_cast<std::uint64_t>(target.min_bps),
                          std::bit_cast<std::uint64_t>(target.max_bps)};
    // Seqlock-write the tenure under claimed_gen, the target inside it.
    // relaxed: the release fence below orders it before the tenure stores.
    e.claimed_gen.store(gen - 1, std::memory_order_relaxed);
    std::atomic_thread_fence(std::memory_order_release);
    util::tsan_relaxed_copy(e.tenure, tenure);
    write_target(e, target, gen);
    e.claimed_gen.store(gen, std::memory_order_release);
    return {idx, gen};
  }
  throw std::runtime_error("ShmIngestQueue::join: app directory full (" +
                           std::to_string(capacity_) + " entries): " +
                           file_.string());
}

void ShmIngestQueue::set_target(AppHandle& app, core::TargetRate target) {
  app.gen += 2;
  write_target(directory()[app.entry % capacity_], target, app.gen);
}

void ShmIngestQueue::leave(AppHandle app) {
  ShmIngestDirEntry& e = directory()[app.entry % capacity_];
  std::uint64_t mark = same_pid_ns_ ? own_claim_mark() : kClaimBit;
  const std::uint64_t head = header()->head.load(std::memory_order_acquire);
  // relaxed: a failed CAS means another process holds the entry (or a
  // forked child is leaving its parent's), and there is nothing to do.
  e.owner.compare_exchange_strong(mark, free_at(head, capacity_),
                                  std::memory_order_acq_rel,
                                  std::memory_order_relaxed);
}

bool ShmIngestQueue::read_entry(std::uint32_t entry, AppEntry& out) const {
  if (entry >= capacity_) return false;
  const ShmIngestDirEntry& e = directory()[entry];
  const std::uint32_t claimed = e.claimed_gen.load(std::memory_order_acquire);
  if ((claimed & 1u) != 0) return false;  // a join is writing the tenure
  util::tsan_relaxed_copy(out.tenure, e.tenure);
  const std::uint32_t gen = e.gen.load(std::memory_order_acquire);
  util::tsan_relaxed_copy(out.target, e.target);
  std::atomic_thread_fence(std::memory_order_acquire);
  // relaxed: the fence above orders the copies before these re-checks.
  const std::uint32_t claimed_after =
      e.claimed_gen.load(std::memory_order_relaxed);
  // relaxed: as above.
  const std::uint32_t gen_after = e.gen.load(std::memory_order_relaxed);
  if (claimed_after != claimed) return false;  // a new tenure began
  out.claimed_gen = claimed;
  out.gen = gen;
  out.target_read = (gen & 1u) == 0 && gen_after == gen;
  // A name keys the consumer's tables: cut it at its first NUL (or the
  // field's end) and zero the rest.
  char* name = out.tenure.name;
  const std::size_t len = ::strnlen(name, kIngestNameCap - 1);
  std::memset(name + len, 0, kIngestNameCap - len);
  return true;
}

// --------------------------------------------------------------- producers

std::uint64_t ShmIngestQueue::claim(std::uint64_t n) {
  ShmMetrics::get().claimed->add(n);
  const std::uint64_t first =
      header()->head.fetch_add(n, std::memory_order_acq_rel);
  // Mark every claimed slot with this process's pid, then ONE release
  // fence: the payload stores that follow cannot be reordered ahead of
  // the marks, so a concurrent reader that copied any of them sees its
  // seqlock re-check fail (the reader side's acquire fence mirrors this).
  // A batch longer than the ring marks each slot once here; publish_frame
  // marks it again when the batch comes round to it.
  const std::uint64_t mark = claim_mark();
  const std::uint64_t marks = std::min<std::uint64_t>(n, capacity_);
  ShmIngestSlot* arr = slots();
  for (std::uint64_t seq = first; seq < first + marks; ++seq) {
    mark_slot(arr[seq % capacity_], seq, mark);
  }
  std::atomic_thread_fence(std::memory_order_release);
  return first;
}

std::uint64_t ShmIngestQueue::claim_mark() const {
  return same_pid_ns_ ? own_claim_mark() : 0;
}

std::size_t ShmIngestQueue::count_packable(
    std::span<const util::TimeNs> timestamps, std::size_t i) {
  const util::TimeNs base = timestamps[i];
  std::size_t n = 1;
  while (n < kIngestFrameRecords && i + n < timestamps.size()) {
    const util::TimeNs ts = timestamps[i + n];
    // Unsigned difference: no signed overflow for timestamps far apart.
    const std::uint64_t delta =
        static_cast<std::uint64_t>(ts) - static_cast<std::uint64_t>(base);
    if (ts < base || delta > std::numeric_limits<std::uint32_t>::max()) break;
    ++n;
  }
  return n;
}

void ShmIngestQueue::publish_frame(ShmIngestSlot& slot, std::uint64_t seq,
                                   AppHandle app,
                                   std::span<const util::TimeNs> timestamps) {
  ShmIngestSlot::Body body;
  body.entry = app.entry;
  body.gen = app.gen;
  body.base_ts_ns = timestamps[0];
  body.count = static_cast<std::uint32_t>(timestamps.size());
  for (std::size_t i = 0; i < timestamps.size(); ++i) {
    body.ts_delta_ns[i] = static_cast<std::uint32_t>(
        static_cast<std::uint64_t>(timestamps[i]) -
        static_cast<std::uint64_t>(timestamps[0]));
  }
  // Seqlock write. While the payload lands the slot must read as claimed,
  // or a reader could accept a frame mixed from two writes. claim()'s mark
  // usually still stands. An unmarked slot holds a newer lap's frame,
  // which this lapped one must not replace (it is dropped unwritten), or
  // an older one: a batch longer than the ring back at its own earlier
  // frame, or a lapped writer's late commit. That is marked again and
  // fenced, as claim() does.
  // acquire, as in mark_slot; this load only picks the path, and
  // mark_slot re-checks by CAS.
  if ((slot.commit.load(std::memory_order_acquire) & kClaimBit) == 0) {
    if (!mark_slot(slot, seq, claim_mark())) return;
    std::atomic_thread_fence(std::memory_order_release);
  }
  util::tsan_relaxed_copy(slot.body, body);
  slot.commit.store(seq + 1, std::memory_order_release);
}

void ShmIngestQueue::publish(std::uint64_t seq, AppHandle app,
                             util::TimeNs timestamp_ns) {
  publish_frame(slots()[seq % capacity_], seq, app, {&timestamp_ns, 1});
  ring_doorbell();
}

std::uint64_t ShmIngestQueue::append(AppHandle app, util::TimeNs timestamp_ns) {
  return append_batch(app, {&timestamp_ns, 1});
}

std::uint64_t ShmIngestQueue::append_batch(
    AppHandle app, std::span<const util::TimeNs> timestamps) {
  if (timestamps.empty()) return header()->head.load(std::memory_order_acquire);
  // Pass 1: how many frames does this batch pack into? Pass 2: publish.
  // The contended fetch_add is paid once per batch.
  std::uint64_t frames = 0;
  for (std::size_t i = 0; i < timestamps.size();
       i += count_packable(timestamps, i)) {
    ++frames;
  }
  ShmIngestSlot* arr = slots();
  const std::uint64_t first = claim(frames);
  std::uint64_t seq = first;
  for (std::size_t i = 0; i < timestamps.size(); ++seq) {
    const std::size_t n = count_packable(timestamps, i);
    publish_frame(arr[seq % capacity_], seq, app, timestamps.subspan(i, n));
    i += n;
  }
  ShmMetrics::get().records->add(timestamps.size());
  ring_doorbell();
  return first;
}

// -------------------------------------------------------------- consumers

bool ShmIngestQueue::has_frames(const Cursor& cur) const {
  return header()->head.load(std::memory_order_acquire) > cur.next;
}

ShmIngestQueue::Cursor ShmIngestQueue::tail_cursor() const {
  Cursor cur;
  cur.next = header()->head.load(std::memory_order_acquire);
  return cur;
}

std::size_t ShmIngestQueue::drain(Cursor& cur, const DrainFn& fn,
                                  std::uint32_t max_stall_polls) {
  // Mirror the cursor's per-drain deltas into the process-wide registry on
  // exit (one add per counter per drain, not per record).
  const std::uint64_t dropped_before = cur.dropped;
  const std::uint64_t torn_before = cur.torn;
  const ShmIngestSlot* arr = slots();
  const std::uint64_t cap = capacity_;
  const std::uint64_t head = header()->head.load(std::memory_order_acquire);

  // Move the cursor to `next`, dropping the blocked slot's stall state.
  const auto move_to = [&cur](std::uint64_t next) {
    cur.next = next;
    cur.stalls = 0;
    cur.overdue_since_ns = 0;
  };
  // Producers lapped this consumer before it even looked: everything below
  // head - capacity is gone (its slots now belong to newer seqs). Compared
  // as a distance: next + cap would wrap under a hostile head near 2^64
  // and send the cursor back a lap on every drain, so it never caught up.
  if (head > cur.next && head - cur.next > cap) {
    cur.dropped += head - cap - cur.next;
    move_to(head - cap);
  }

  std::size_t delivered = 0;
  // Once a dead owner's slot is torn, the contiguous run behind it that
  // still bears the same mark is the rest of its claimed batch: torn in
  // this pass instead of paying the budget again per slot. Any other
  // value ends the run.
  std::uint64_t dead_mark = 0;
  while (cur.next < head) {
    if (head - cur.next > kDrainFetchAhead) {
      // The slot (one line) ahead. The index is taken mod the validated
      // cap, so a hostile head cannot steer the read out of bounds.
      __builtin_prefetch(&arr[(cur.next + kDrainFetchAhead) % cap]);
    }
    const ShmIngestSlot& slot = arr[cur.next % cap];
    const std::uint64_t c1 = slot.commit.load(std::memory_order_acquire);
    if (c1 == cur.next + 1) {
      // Copy out, then re-check the seqlock word.
      ShmIngestSlot::Body body;
      util::tsan_relaxed_copy(body, slot.body);
      std::atomic_thread_fence(std::memory_order_acquire);
      // relaxed: the fence above orders the copy before this re-check.
      if (slot.commit.load(std::memory_order_relaxed) == c1) {
        // Unpack the frame: timestamp i is base + delta i. A frame
        // accepted by the seqlock always carries 1..kIngestFrameRecords
        // timestamps; the clamp is pure defense against a corrupted
        // segment.
        std::uint32_t n = body.count;
        if (n - 1 >= kIngestFrameRecords) n = 1;
        util::TimeNs timestamps[kIngestFrameRecords];
        for (std::uint32_t i = 0; i < n; ++i) {
          // Unsigned add: a hostile base near INT64_MAX wraps, not UB.
          timestamps[i] = static_cast<util::TimeNs>(
              static_cast<std::uint64_t>(body.base_ts_ns) + body.ts_delta_ns[i]);
        }
        fn(body.entry, body.gen, {timestamps, n});
        delivered += n;
        cur.consumed += n;
        ++cur.consumed_frames;
      } else {
        // Overwritten mid-copy: a producer lapped us; this frame is
        // unrecoverable but the copy was never delivered, so nothing torn
        // ever reaches the hub.
        ++cur.dropped;
      }
      move_to(cur.next + 1);
      dead_mark = 0;
      continue;
    }
    const bool marked = (c1 & kClaimBit) != 0;
    if (!marked && c1 > cur.next + 1) {
      // A later lap already committed here; this frame was overwritten.
      ++cur.dropped;
      move_to(cur.next + 1);
      dead_mark = 0;
      continue;
    }
    // Claimed (marked) or still showing an older lap: the producer that
    // claimed this seq has not published yet — in flight, or dead
    // mid-batch. It gets max_stall_polls drains. Past them a dead owner is
    // torn at once; any other is torn only once kClaimLivenessTimeoutNs
    // more has passed, so no shorter stall tears a live producer. The
    // clock is read only for a slot already past the budget, and a pid is
    // judged only by a consumer in the creator's pid namespace.
    if (!marked || c1 != dead_mark) {
      if (cur.stalls < max_stall_polls) {
        ++cur.stalls;  // one stall credit per drain call
        break;
      }
      const bool dead = marked && same_pid_ns_ && owner_pid_dead(c1);
      if (!dead) {
        const util::TimeNs now = util::MonotonicClock::instance()->now();
        if (cur.overdue_since_ns == 0) cur.overdue_since_ns = now;
        if (now - cur.overdue_since_ns < kClaimLivenessTimeoutNs) break;
        ++cur.timed_out;
      }
      dead_mark = dead ? c1 : 0;
    }
    ++cur.torn;
    move_to(cur.next + 1);
  }

  const ShmMetrics& metrics = ShmMetrics::get();
  if (delivered > 0) metrics.drained->add(delivered);
  if (cur.dropped > dropped_before) {
    metrics.dropped->add(cur.dropped - dropped_before);
  }
  if (cur.torn > torn_before) metrics.torn->add(cur.torn - torn_before);
  return delivered;
}

std::uint64_t ShmIngestQueue::produced() const {
  return header()->head.load(std::memory_order_acquire);
}

std::uint32_t ShmIngestQueue::capacity() const { return capacity_; }

std::uint32_t ShmIngestQueue::creator_pid() const {
  return header()->creator_pid;
}

// --------------------------------------------------------------- ShmHubSink

ShmHubSink::ShmHubSink(std::shared_ptr<core::BeatStore> inner,
                       std::shared_ptr<ShmIngestQueue> queue, std::string app,
                       ShmHubSinkOptions opts)
    : inner_(std::move(inner)),
      queue_(std::move(queue)),
      app_(std::move(app)),
      opts_(opts),
      entry_(queue_->join(app_, inner_->target())) {
  if (opts_.flush_every == 0) opts_.flush_every = 1;
  buf_.reserve(opts_.flush_every);
}

ShmHubSink::~ShmHubSink() {
  util::MutexLock lock(mu_);
  flush_locked();
  queue_->leave(entry_);
}

std::uint64_t ShmHubSink::append(const core::HeartbeatRecord& rec) {
  const std::uint64_t seq = inner_->append(rec);
  util::MutexLock lock(mu_);
  buf_.push_back(rec.timestamp_ns);
  if (buf_.size() >= opts_.flush_every ||
      rec.timestamp_ns - buf_.front() >= opts_.max_hold_ns) {
    flush_locked();
  }
  return seq;
}

void ShmHubSink::set_target(core::TargetRate t) {
  inner_->set_target(t);
  util::MutexLock lock(mu_);
  flush_locked();
  queue_->set_target(entry_, t);
}

void ShmHubSink::flush() {
  util::MutexLock lock(mu_);
  flush_locked();
}

void ShmHubSink::flush_locked() {
  if (buf_.empty()) return;
  queue_->append_batch(entry_, buf_);
  buf_.clear();
}

core::StoreFactory ShmHubSink::wrap_factory(
    std::shared_ptr<ShmIngestQueue> queue, core::StoreFactory inner_factory,
    ShmHubSinkOptions opts) {
  if (!inner_factory) {
    inner_factory = [](const core::StoreSpec& spec) {
      return std::make_shared<core::MemoryStore>(
          spec.capacity, spec.default_window);
    };
  }
  return [queue = std::move(queue), inner_factory = std::move(inner_factory),
          opts](const core::StoreSpec& spec) -> std::shared_ptr<core::BeatStore> {
    auto inner = inner_factory(spec);
    if (!spec.shared) return inner;  // local channels: no ring mirroring
    // "<app>.global" -> "<app>"; odd names publish verbatim.
    std::string app = spec.channel_name;
    if (const auto dot = app.rfind(".global");
        dot != std::string::npos && dot + 7 == app.size()) {
      app.resize(dot);
    }
    return std::make_shared<ShmHubSink>(std::move(inner), queue,
                                        std::move(app), opts);
  };
}

}  // namespace hb::transport
