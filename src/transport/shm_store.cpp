#include "transport/shm_store.hpp"

#include <fcntl.h>
#include <sys/mman.h>
#include <sys/stat.h>
#include <unistd.h>

#include <bit>
#include <cstring>
#include <limits>
#include <stdexcept>

#include "transport/posix_util.hpp"

namespace hb::transport {

using detail::Fd;
using detail::throw_errno;

std::shared_ptr<ShmStore> ShmStore::create(const std::filesystem::path& file,
                                           const std::string& channel_name,
                                           std::uint32_t capacity,
                                           std::uint32_t default_window) {
  if (default_window == 0) default_window = 1;
  // Paper, Section 3: store at least as much history as the default window.
  if (capacity < default_window) capacity = default_window;

  std::filesystem::create_directories(file.parent_path());
  Fd fd;
  fd.fd = ::open(file.c_str(), O_RDWR | O_CREAT | O_TRUNC, 0644);
  if (fd.fd < 0) throw_errno("ShmStore::create open " + file.string());
  const std::size_t bytes = shm_segment_size(capacity);
  if (::ftruncate(fd.fd, static_cast<off_t>(bytes)) != 0) {
    throw_errno("ShmStore::create ftruncate " + file.string());
  }
  void* base =
      ::mmap(nullptr, bytes, PROT_READ | PROT_WRITE, MAP_SHARED, fd.fd, 0);
  if (base == MAP_FAILED) throw_errno("ShmStore::create mmap " + file.string());

  // The mapping is zero-filled; construct the header in place. The slot
  // array's all-zero state is already valid (commit == 0 means empty).
  auto* hdr = new (base) ShmHeader();
  hdr->slot_size = sizeof(ShmSlot);
  hdr->capacity = capacity;
  hdr->producer_pid = static_cast<std::uint32_t>(::getpid());
  // relaxed: create()-time init, before the segment has any other opener
  // — the file is still being constructed under O_TRUNC.
  hdr->default_window.store(default_window, std::memory_order_relaxed);
  // relaxed: create()-time init, same as above.
  hdr->target_min_bits.store(std::bit_cast<std::uint64_t>(0.0),
                             std::memory_order_relaxed);
  // relaxed: create()-time init, same as above.
  hdr->target_max_bits.store(
      std::bit_cast<std::uint64_t>(std::numeric_limits<double>::infinity()),
      std::memory_order_relaxed);
  std::strncpy(hdr->name, channel_name.c_str(), sizeof(hdr->name) - 1);

  return std::shared_ptr<ShmStore>(
      new ShmStore(file, base, bytes, capacity));
}

std::shared_ptr<ShmStore> ShmStore::attach(const std::filesystem::path& file) {
  Fd fd;
  fd.fd = ::open(file.c_str(), O_RDWR, 0);
  if (fd.fd < 0) {
    throw std::runtime_error("ShmStore::attach: cannot open " + file.string());
  }
  struct stat st{};
  if (::fstat(fd.fd, &st) != 0) throw_errno("ShmStore::attach fstat");
  if (static_cast<std::size_t>(st.st_size) < sizeof(ShmHeader)) {
    throw std::runtime_error("ShmStore::attach: segment too small: " +
                             file.string());
  }
  const std::size_t bytes = static_cast<std::size_t>(st.st_size);
  void* base =
      ::mmap(nullptr, bytes, PROT_READ | PROT_WRITE, MAP_SHARED, fd.fd, 0);
  if (base == MAP_FAILED) throw_errno("ShmStore::attach mmap " + file.string());

  const auto* hdr = static_cast<const ShmHeader*>(base);
  // Geometry is read once and the checked copy is what the ring keeps: any
  // local process may write the segment, so a second read could see a
  // capacity this check never bounded. create() never writes 0.
  const std::uint32_t capacity = hdr->capacity;
  if (hdr->magic != kShmMagic || hdr->version != kShmVersion ||
      hdr->slot_size != sizeof(ShmSlot) || capacity == 0 ||
      bytes < shm_segment_size(capacity)) {
    ::munmap(base, bytes);
    throw std::runtime_error("ShmStore::attach: bad segment format: " +
                             file.string());
  }
  return std::shared_ptr<ShmStore>(
      new ShmStore(file, base, bytes, capacity));
}

ShmStore::ShmStore(std::filesystem::path file, void* base, std::size_t bytes,
                   std::uint32_t capacity)
    : file_(std::move(file)),
      base_(base),
      bytes_(bytes),
      ring_(&header()->count,
            reinterpret_cast<ShmSlot*>(static_cast<char*>(base) +
                                       sizeof(ShmHeader)),
            capacity) {}

ShmStore::~ShmStore() {
  if (base_ != nullptr) ::munmap(base_, bytes_);
}

std::uint64_t ShmStore::append(const core::HeartbeatRecord& rec) {
  return ring_.push([&rec](std::uint64_t seq) {
    core::HeartbeatRecord stamped = rec;
    stamped.seq = seq;
    return stamped;
  });
}

std::uint64_t ShmStore::count() const { return ring_.count(); }

std::size_t ShmStore::capacity() const { return ring_.capacity(); }

std::vector<core::HeartbeatRecord> ShmStore::history(std::size_t n) const {
  return ring_.last(n);
}

void ShmStore::set_target(core::TargetRate t) {
  header()->target_min_bits.store(std::bit_cast<std::uint64_t>(t.min_bps),
                                  std::memory_order_release);
  header()->target_max_bits.store(std::bit_cast<std::uint64_t>(t.max_bps),
                                  std::memory_order_release);
}

core::TargetRate ShmStore::target() const {
  core::TargetRate t;
  t.min_bps = std::bit_cast<double>(
      header()->target_min_bits.load(std::memory_order_acquire));
  t.max_bps = std::bit_cast<double>(
      header()->target_max_bits.load(std::memory_order_acquire));
  return t;
}

void ShmStore::set_default_window(std::uint32_t w) {
  header()->default_window.store(w == 0 ? 1 : w, std::memory_order_release);
}

std::uint32_t ShmStore::default_window() const {
  return header()->default_window.load(std::memory_order_acquire);
}

std::string ShmStore::channel_name() const {
  const ShmHeader* hdr = header();
  return std::string(hdr->name,
                     ::strnlen(hdr->name, sizeof(hdr->name)));
}

std::uint32_t ShmStore::producer_pid() const { return header()->producer_pid; }

}  // namespace hb::transport
