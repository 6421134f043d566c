// FileLogStore: the paper's Section 4 reference implementation, faithfully.
//
// "When the HB_heartbeat function is called, a new entry containing a
//  timestamp, tag and thread ID is written into a file. ... A mutex is used
//  to guarantee mutual exclusion and ordering when multiple threads attempt
//  to register a global heartbeat at the same time. When an external service
//  wants to get information on a Heartbeat-enabled program, the corresponding
//  file is read. The target heart rates are also written into the appropriate
//  file so that the external service can access them."
//
// On-disk format (one file per channel, text, line-oriented):
//   #hblog v1 name=<channel> window=<w>        <- header line, written once
//   #target min=<double> max=<double>          <- re-emitted on every change
//   <seq> <timestamp_ns> <tag> <thread_id>     <- one line per beat
//
// The producer keeps a core::MemoryStore mirror so its own queries do not
// re-read the file, and writes each line as the mirror stored it (a
// backward stamp raised), so its history and the file agree; an attached
// observer parses the file on each query (the paper's "the corresponding
// file is read"), so it supports any n; the mirror is ring-limited.
//
// Also like the paper's implementation, an *attached* store does not support
// changing the target rate ("This implementation does not support changing
// the target heart rates from an external application") — set_target on an
// attached FileLogStore throws std::logic_error. Use the shm transport when
// external goal-setting is needed.
#pragma once

#include <cstdio>
#include <filesystem>
#include <memory>
#include <string>

#include "core/memory_store.hpp"
#include "core/store.hpp"
#include "util/mutex.hpp"

namespace hb::transport {

class FileLogStore final : public core::BeatStore {
 public:
  /// Create/truncate the log file and become its (sole) producer process.
  static std::shared_ptr<FileLogStore> create(
      const std::filesystem::path& file, const std::string& channel_name,
      std::size_t mirror_capacity, std::uint32_t default_window);

  /// Attach to an existing log as an observer. Queries re-read the file.
  static std::shared_ptr<FileLogStore> attach(const std::filesystem::path& file);

  ~FileLogStore() override;
  FileLogStore(const FileLogStore&) = delete;
  FileLogStore& operator=(const FileLogStore&) = delete;

  std::uint64_t append(const core::HeartbeatRecord& rec) override;
  std::uint64_t count() const override;
  std::size_t capacity() const override;
  std::vector<core::HeartbeatRecord> history(std::size_t n) const override;
  void set_target(core::TargetRate t) override;
  core::TargetRate target() const override;
  void set_default_window(std::uint32_t w) override;
  std::uint32_t default_window() const override;

  const std::filesystem::path& file() const { return file_; }
  const std::string& channel_name() const { return name_; }
  bool is_producer() const { return mirror_ != nullptr; }

 private:
  FileLogStore(std::filesystem::path file, std::string name, std::FILE* out,
               std::unique_ptr<core::MemoryStore> mirror);

  struct Parsed {
    std::vector<core::HeartbeatRecord> records;
    core::TargetRate target{0.0, 0.0};
    std::uint32_t window = 0;
    std::string name;
    std::uint64_t count = 0;
  };
  /// Parse the log, keeping at most `keep` trailing records (SIZE_MAX: all).
  Parsed parse(std::size_t keep) const;

  std::filesystem::path file_;
  std::string name_;
  std::FILE* out_;  ///< nullptr when attached (observer mode)
  const std::unique_ptr<core::MemoryStore> mirror_;  ///< nullptr when attached
  /// The paper's global-beat mutex: file lines in seq order. Taken before
  /// the mirror's own.
  util::Mutex mu_;
};

}  // namespace hb::transport
