// ShmStore: a BeatStore backed by an mmap'd file with the ShmLayout format.
//
// This is the high-performance cross-process transport: producers append
// lock-free (one fetch_add plus a seqlock publish), and external observers
// in other processes attach the same file read-only and compute rates without
// ever synchronizing with the producer. tests/transport_shm_test.cpp forks a
// child process to prove cross-process visibility.
#pragma once

#include <filesystem>
#include <memory>
#include <string>

#include "core/store.hpp"
#include "transport/shm_layout.hpp"
#include "util/seqlock_ring.hpp"

namespace hb::transport {

class ShmStore final : public core::BeatStore {
 public:
  /// Create (or overwrite) a segment file and become its producer.
  /// Throws std::system_error on I/O failure.
  static std::shared_ptr<ShmStore> create(const std::filesystem::path& file,
                                          const std::string& channel_name,
                                          std::uint32_t capacity,
                                          std::uint32_t default_window);

  /// Attach to an existing segment (observer or co-producer). Throws
  /// std::runtime_error if the file is missing or has a bad magic, version
  /// or slot size, or a capacity of 0 or past the file's end.
  static std::shared_ptr<ShmStore> attach(const std::filesystem::path& file);

  ~ShmStore() override;
  ShmStore(const ShmStore&) = delete;
  ShmStore& operator=(const ShmStore&) = delete;

  std::uint64_t append(const core::HeartbeatRecord& rec) override;
  std::uint64_t count() const override;
  std::size_t capacity() const override;
  std::vector<core::HeartbeatRecord> history(std::size_t n) const override;
  void set_target(core::TargetRate t) override;
  core::TargetRate target() const override;
  void set_default_window(std::uint32_t w) override;
  std::uint32_t default_window() const override;

  std::string channel_name() const;
  const std::filesystem::path& file() const { return file_; }
  std::uint32_t producer_pid() const;

 private:
  ShmStore(std::filesystem::path file, void* base, std::size_t bytes,
           std::uint32_t capacity);

  ShmHeader* header() { return static_cast<ShmHeader*>(base_); }
  const ShmHeader* header() const { return static_cast<const ShmHeader*>(base_); }

  std::filesystem::path file_;
  void* base_ = nullptr;
  std::size_t bytes_ = 0;
  util::SeqlockRing<ShmSlot> ring_;  ///< keeps the capacity attach() checked
};

}  // namespace hb::transport
