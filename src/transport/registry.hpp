// Registry: discovery of heartbeat-enabled applications.
//
// External observers (the paper's Figure 1b: OS, schedulers, system-
// administration tools, cloud managers) need to find running heartbeat
// channels before they can attach. Producers place their channel segments in
// a well-known directory ($HB_DIR, or <tmp>/heartbeats); the Registry scans
// it and attaches stores by channel name.
//
// File naming convention inside the registry directory:
//   <channel>.hb   — shared-memory segment (ShmStore, transport of choice)
//   <channel>.hblog — text log (FileLogStore, the paper's reference impl)
// where <channel> is "<app>.global" or "<app>.t<tid>".
#pragma once

#include <filesystem>
#include <memory>
#include <string>
#include <vector>

#include "core/heartbeat.hpp"
#include "core/reader.hpp"
#include "core/store.hpp"
#include "transport/shm_ingest.hpp"

namespace hb::transport {

class Registry {
 public:
  /// Uses `dir` as the registry root (created on demand by producers).
  explicit Registry(std::filesystem::path dir = default_dir());

  /// $HB_DIR if set, else <system temp>/heartbeats.
  static std::filesystem::path default_dir();

  const std::filesystem::path& dir() const { return dir_; }

  /// Channel names of every discoverable segment/log, sorted.
  std::vector<std::string> list() const;

  /// Application names (channels ending in ".global", suffix stripped).
  std::vector<std::string> list_applications() const;

  /// Attach to a channel by name, preferring shm over filelog.
  /// Throws std::runtime_error if the channel does not exist.
  std::shared_ptr<core::BeatStore> attach(const std::string& channel) const;

  /// Convenience: reader on "<app>.global".
  core::HeartbeatReader reader(const std::string& app,
                               std::shared_ptr<const util::Clock> clock =
                                   nullptr) const;

  /// StoreFactory that creates shm segments in this registry's directory,
  /// each sized by its StoreSpec; plug into HeartbeatOptions::store_factory
  /// to publish an application.
  core::StoreFactory shm_factory() const;

  /// StoreFactory creating file logs (the paper's reference transport).
  core::StoreFactory filelog_factory() const;

  /// Well-known path of this registry's fleet ingest ring ("fleet.hbq"):
  /// the rendezvous between producer processes (shm_ingest_factory) and
  /// aggregators (hbmon fleet --live, hub::ShmIngestPump).
  std::filesystem::path ingest_queue_path() const;

  /// StoreFactory that mirrors shared channels into the fleet ingest ring
  /// via transport::ShmHubSink. Opens (create-or-attach) the ring at
  /// ingest_queue_path() immediately, kDefaultIngestCapacity frames when it
  /// creates it. `inner_factory` builds the store the sink wraps — pass
  /// shm_factory() to stay observer-walkable too; default is the
  /// in-process MemoryStore factory. `sink_opts` tunes the producer-side
  /// batching (ShmHubSinkOptions).
  core::StoreFactory shm_ingest_factory(core::StoreFactory inner_factory = {},
                                        ShmHubSinkOptions sink_opts = {}) const;

  /// 32768 frames x 64 bytes plus 32768 directory entries x 128 bytes =
  /// 6 MiB: roomy enough that a fleet of ~100 producers at ~100 beats/s
  /// survives multi-second consumer pauses without laps, and that 32768
  /// producers can hold a directory entry at once.
  static constexpr std::uint32_t kDefaultIngestCapacity = 1u << 15;

  /// Remove a channel's files (cleanup after producer exit).
  void remove(const std::string& channel) const;

 private:
  std::filesystem::path dir_;
};

}  // namespace hb::transport
