// Compact numeric thread ids.
//
// Heartbeat records carry a 32-bit thread id (paper Table 1: each beat is
// stamped with the thread ID of the caller). std::thread::id is opaque, so
// beats carry the kernel tid, which external tools can correlate; per-thread
// state indexes by a small dense id assigned on first use.
#pragma once

#include <cstdint>

namespace hb::util {

/// Stable numeric id of the calling thread: its kernel tid (gettid()).
std::uint32_t current_thread_id();

/// Process-local dense index (0,1,2,... in first-use order). Useful as an
/// array index for per-thread state.
std::uint32_t current_thread_index();

}  // namespace hb::util
