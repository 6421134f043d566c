#include "core/heartbeat.hpp"

#include "core/memory_store.hpp"
#include "util/thread_id.hpp"

namespace hb::core {

namespace {

HeartbeatOptions normalize(HeartbeatOptions opts) {
  if (!opts.clock) opts.clock = util::MonotonicClock::instance();
  if (opts.default_window == 0) opts.default_window = 1;
  if (opts.history_capacity == 0) opts.history_capacity = 1;
  return opts;
}

std::shared_ptr<BeatStore> default_factory(const StoreSpec& spec) {
  // Local channels have a single producer, but locals() exposes them to
  // observer threads (the paper's external schedulers read per-thread
  // history), which is why a MemoryStore always locks. An uncontended
  // mutex costs ~20ns per beat; bench/overhead_heartbeat quantifies it.
  return std::make_shared<MemoryStore>(spec.capacity, spec.default_window);
}

Channel make_global(const HeartbeatOptions& opts,
                    const StoreFactory& factory) {
  StoreSpec spec{opts.name + ".global", /*shared=*/true, opts.history_capacity,
                 opts.default_window};
  auto store = factory(spec);
  store->set_target(TargetRate{opts.target_min_bps, opts.target_max_bps});
  return Channel(std::move(store), opts.clock);
}

}  // namespace

Heartbeat::Heartbeat(HeartbeatOptions opts)
    : opts_(normalize(std::move(opts))),
      clock_(opts_.clock),
      global_(make_global(
          opts_, opts_.store_factory ? opts_.store_factory : default_factory)) {}

Heartbeat::~Heartbeat() = default;

std::shared_ptr<BeatStore> Heartbeat::make_store(
    const std::string& channel_name, bool shared) const {
  StoreSpec spec{channel_name, shared, opts_.history_capacity,
                 opts_.default_window};
  if (opts_.store_factory) return opts_.store_factory(spec);
  return default_factory(spec);
}

Channel& Heartbeat::local() {
  const std::uint32_t tid = util::current_thread_id();
  {
    util::ReaderMutexLock lock(locals_mu_);
    auto it = locals_.find(tid);
    if (it != locals_.end()) return *it->second;
  }
  util::WriterMutexLock lock(locals_mu_);
  auto [it, inserted] = locals_.try_emplace(tid);
  if (inserted) {
    auto store = make_store(opts_.name + ".t" + std::to_string(tid),
                            /*shared=*/false);
    it->second = std::make_shared<Channel>(std::move(store), clock_);
  }
  return *it->second;
}

std::vector<std::pair<std::uint32_t, std::shared_ptr<Channel>>>
Heartbeat::locals() const {
  util::ReaderMutexLock lock(locals_mu_);
  std::vector<std::pair<std::uint32_t, std::shared_ptr<Channel>>> out;
  out.reserve(locals_.size());
  for (const auto& [tid, ch] : locals_) out.emplace_back(tid, ch);
  return out;
}

}  // namespace hb::core
