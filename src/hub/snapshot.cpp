#include "hub/snapshot.hpp"

namespace hb::hub {

std::shared_ptr<const FleetSnapshot> FleetSnapshot::compose(
    std::vector<std::shared_ptr<const ShardSnapshot>> parts,
    util::TimeNs now_ns) {
  // make_shared needs a public constructor; the factory keeps it private.
  auto snap = std::shared_ptr<FleetSnapshot>(new FleetSnapshot());
  snap->shards_ = std::move(parts);
  snap->composed_at_ns_ = now_ns;
  for (const auto& shard : snap->shards_) {
    snap->epoch_ += shard->epoch;
    snap->app_count_ += shard->apps.size();
  }
  return snap;
}

}  // namespace hb::hub
