#include "util/thread_id.hpp"

#include <atomic>

#include <sys/syscall.h>
#include <unistd.h>

namespace hb::util {

std::uint32_t current_thread_id() {
  thread_local const std::uint32_t tid =
      static_cast<std::uint32_t>(::syscall(SYS_gettid));
  return tid;
}

std::uint32_t current_thread_index() {
  static std::atomic<std::uint32_t> next{0};
  // relaxed: a unique-id ticket; no ordering with any other memory needed.
  thread_local const std::uint32_t idx =
      next.fetch_add(1, std::memory_order_relaxed);
  return idx;
}

}  // namespace hb::util
