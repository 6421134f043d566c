#include "hub/snapshot.hpp"

#include <algorithm>
#include <array>
#include <map>

namespace hb::hub {

std::shared_ptr<const FleetSnapshot> FleetSnapshot::compose(
    std::vector<std::shared_ptr<const ShardSnapshot>> parts,
    util::TimeNs now_ns) {
  // make_shared needs a public constructor; the factory keeps it private.
  auto snap = std::shared_ptr<FleetSnapshot>(new FleetSnapshot());
  snap->shards_ = std::move(parts);
  snap->composed_at_ns_ = now_ns;

  // Cluster: sum the shard partials, then derive fleet-wide percentiles
  // from the merged interval histogram. O(shards), not O(apps) — the
  // per-app walk already happened once, at each shard's publish.
  ClusterSummary& sum = snap->cluster_;
  util::LatencyHistogram intervals;
  bool any_interval = false;
  std::map<std::uint64_t, TagSummary> by_tag;
  for (const auto& shard : snap->shards_) {
    snap->epoch_ += shard->epoch;
    snap->app_count_ += shard->apps.size();

    const ClusterSummary& part = shard->cluster_part;
    sum.apps += part.apps;
    sum.total_beats += part.total_beats;
    sum.window_beats += part.window_beats;
    sum.aggregate_rate_bps += part.aggregate_rate_bps;
    sum.meeting_target += part.meeting_target;
    sum.deficient += part.deficient;
    sum.warming_up += part.warming_up;
    sum.evicted += part.evicted;
    sum.last_beat_ns = std::max(sum.last_beat_ns, part.last_beat_ns);
    if (shard->any_interval) {
      intervals.merge(shard->intervals);
      if (!any_interval) {
        sum.interval_min_ns = part.interval_min_ns;
        sum.interval_max_ns = part.interval_max_ns;
        any_interval = true;
      } else {
        sum.interval_min_ns =
            std::min(sum.interval_min_ns, part.interval_min_ns);
        sum.interval_max_ns =
            std::max(sum.interval_max_ns, part.interval_max_ns);
      }
    }
    for (const TagSummary& t : shard->tags) {
      TagSummary& acc = by_tag[t.tag];
      acc.tag = t.tag;
      acc.beats += t.beats;
      acc.apps += t.apps;
    }
  }
  if (any_interval) {
    // Bucketed percentiles within the window-exact [min, max], the same
    // rule the per-shard publish applies to per-app summaries.
    std::array<std::uint64_t, kIntervalPercentiles.size()> q;
    intervals.percentiles(kIntervalPercentiles, sum.interval_min_ns,
                          sum.interval_max_ns, q);
    sum.interval_p50_ns = q[0];
    sum.interval_p95_ns = q[1];
    sum.interval_p99_ns = q[2];
  }
  snap->tags_.reserve(by_tag.size());
  for (const auto& [_, t] : by_tag) snap->tags_.push_back(t);

  return snap;
}

}  // namespace hb::hub
