// One producer thread's feed into the hub in the shape the shm ingest pump
// uses: records are stamped on the hub clock, collected per shard, and
// handed to HeartbeatHub::ingest_batch in runs of kRun — one shard-lock
// acquire per run. Shared by the benches whose claim is ingest cost
// (bench_hub_throughput, bench_obs_overhead).
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

#include "hub/hub.hpp"

namespace hb::bench {

class ShardRuns {
 public:
  static constexpr std::size_t kRun = 64;

  explicit ShardRuns(hub::HeartbeatHub& hub)
      : hub_(hub), runs_(hub.shard_count()) {
    for (auto& run : runs_) run.reserve(kRun);
  }

  /// Stamp "now" on the hub clock and stage the beat; a full run applies.
  void beat(hub::AppId id) {
    std::vector<hub::AppRecord>& run = runs_[hub::app_id_shard(id)];
    run.push_back({id, hub_.clock()->now()});
    if (run.size() == kRun) {
      hub_.ingest_batch(run);
      run.clear();
    }
  }

  /// Apply every partial run.
  void flush() {
    for (auto& run : runs_) {
      if (run.empty()) continue;
      hub_.ingest_batch(run);
      run.clear();
    }
  }

 private:
  hub::HeartbeatHub& hub_;
  std::vector<std::vector<hub::AppRecord>> runs_;  ///< indexed by shard
};

}  // namespace hb::bench
