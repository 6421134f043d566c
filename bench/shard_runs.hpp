// One producer thread's feed into the hub in the shape the shm ingest pump
// uses: beats are stamped on the hub clock, collected per shard, one app's
// consecutive beats merged into one run, and each shard's kRun beats are
// handed to HeartbeatHub::ingest_batch at once — one shard-lock acquire
// per kRun beats. Shared by the benches whose claim is ingest cost
// (bench_hub_throughput, bench_obs_overhead).
#pragma once

#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

#include "hub/hub.hpp"

namespace hb::bench {

class ShardRuns {
 public:
  static constexpr std::size_t kRun = 64;

  explicit ShardRuns(hub::HeartbeatHub& hub)
      : hub_(hub), shards_(hub.shard_count()) {
    for (Shard& shard : shards_) {
      // Never grown past kRun, so the runs' spans stay valid.
      shard.stamps.reserve(kRun);
      shard.runs.reserve(kRun);
    }
  }

  /// Stamp "now" on the hub clock and stage the beat; kRun staged beats
  /// on one shard apply.
  void beat(hub::AppId id) {
    Shard& shard = shards_[hub::app_id_shard(id)];
    shard.stamps.push_back(hub_.clock()->now());
    if (!shard.runs.empty() && shard.runs.back().id == id) {
      std::span<const util::TimeNs>& last = shard.runs.back().timestamps;
      last = {last.data(), last.size() + 1};
    } else {
      shard.runs.push_back({id, {&shard.stamps.back(), 1}});
    }
    if (shard.stamps.size() == kRun) apply(shard);
  }

  /// Apply every partial run.
  void flush() {
    for (Shard& shard : shards_) {
      if (!shard.runs.empty()) apply(shard);
    }
  }

 private:
  /// One shard's staged beats and the runs that cover them, in order.
  struct Shard {
    std::vector<util::TimeNs> stamps;
    std::vector<hub::AppRun> runs;
  };

  void apply(Shard& shard) {
    hub_.ingest_batch(shard.runs);
    shard.runs.clear();
    shard.stamps.clear();
  }

  hub::HeartbeatHub& hub_;
  std::vector<Shard> shards_;  ///< indexed by shard
};

}  // namespace hb::bench
