// The standard shared-memory layout for heartbeat channels.
//
// Paper, Section 3: "a standard must be established specifying the components
// and layout of the heartbeat data structures in memory" so that external
// observers — other processes, the OS, even hardware — can walk a channel's
// state directly. This header *is* that standard for this implementation:
//
//   offset 0    : ShmHeader   (128 bytes, version-stamped)
//   offset 128  : ShmSlot[capacity]  (64 bytes each, cacheline-aligned)
//
// Concurrency protocol (multi-writer, any number of lock-free readers),
// util::SeqlockRing over header.count and the slots:
//   * A writer claims sequence number s with fetch_add on header.count.
//   * It writes slot s % capacity: commit <- 0 (invalidate, release),
//     payload bytes, commit <- s + 1 (publish, release).
//   * A reader expecting seq s loads commit (acquire); accepts the slot only
//     if commit == s + 1 both before and after copying the payload
//     (per-slot seqlock). Torn or in-flight slots are simply skipped —
//     dropping a beat under contention is benign for rate estimation.
//   * capacity is read once, at attach, and checked against the file size.
//
// Every field is a fixed-width type, the structs are standard-layout, and
// all atomics are required to be address-free (lock-free), so the segment is
// valid across processes.
#pragma once

#include <atomic>
#include <cstdint>
#include <type_traits>

#include "core/record.hpp"

namespace hb::transport {

inline constexpr std::uint64_t kShmMagic = 0x314d48534248ULL;  // "HBSHM1"
inline constexpr std::uint32_t kShmVersion = 1;

struct ShmHeader {
  std::uint64_t magic = kShmMagic;
  std::uint32_t version = kShmVersion;
  std::uint32_t slot_size = 0;     ///< sizeof(ShmSlot); layout self-check
  std::uint32_t capacity = 0;      ///< number of slots
  std::uint32_t producer_pid = 0;  ///< pid of the creating process
  /// Total beats ever produced; the next sequence number to claim.
  std::atomic<std::uint64_t> count{0};
  /// Target range, stored as bit patterns of IEEE-754 doubles so they can be
  /// updated atomically from any process (the paper's file implementation
  /// could not change targets externally; shared memory can).
  std::atomic<std::uint64_t> target_min_bits{0};
  std::atomic<std::uint64_t> target_max_bits{0};
  std::atomic<std::uint32_t> default_window{0};
  std::uint32_t reserved0 = 0;
  char name[48] = {};  ///< NUL-terminated channel name (truncated if longer)
  std::uint8_t pad[24] = {};
};

static_assert(std::is_standard_layout_v<ShmHeader>);
static_assert(sizeof(ShmHeader) == 128, "header layout is part of the ABI");
static_assert(std::atomic<std::uint64_t>::is_always_lock_free,
              "cross-process atomics must be address-free");
static_assert(std::atomic<std::uint32_t>::is_always_lock_free);

struct ShmSlot {
  /// Seqlock word: 0 = empty/being written, s+1 = record with seq s committed.
  std::atomic<std::uint64_t> commit{0};
  core::HeartbeatRecord rec{};
  std::uint8_t pad[24] = {};
};

static_assert(std::is_standard_layout_v<ShmSlot>);
static_assert(sizeof(ShmSlot) == 64, "one slot per cache line");

/// Total segment size for a given capacity.
constexpr std::size_t shm_segment_size(std::uint32_t capacity) {
  return sizeof(ShmHeader) + static_cast<std::size_t>(capacity) * sizeof(ShmSlot);
}

}  // namespace hb::transport
