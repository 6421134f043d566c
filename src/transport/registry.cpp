#include "transport/registry.hpp"

#include <algorithm>
#include <cstdlib>
#include <cstring>
#include <stdexcept>

#include "transport/file_log_store.hpp"
#include "transport/shm_ingest.hpp"
#include "transport/shm_store.hpp"

namespace hb::transport {

namespace {
constexpr const char* kShmExt = ".hb";
constexpr const char* kLogExt = ".hblog";
constexpr const char* kGlobalSuffix = ".global";
}  // namespace

Registry::Registry(std::filesystem::path dir) : dir_(std::move(dir)) {}

std::filesystem::path Registry::default_dir() {
  if (const char* env = std::getenv("HB_DIR"); env != nullptr && *env != '\0') {
    return std::filesystem::path(env);
  }
  return std::filesystem::temp_directory_path() / "heartbeats";
}

std::vector<std::string> Registry::list() const {
  std::vector<std::string> out;
  std::error_code ec;
  for (const auto& entry : std::filesystem::directory_iterator(dir_, ec)) {
    if (!entry.is_regular_file()) continue;
    const auto path = entry.path();
    const auto ext = path.extension().string();
    if (ext == kShmExt || ext == kLogExt) {
      out.push_back(path.stem().string());
    }
  }
  std::sort(out.begin(), out.end());
  out.erase(std::unique(out.begin(), out.end()), out.end());
  return out;
}

std::vector<std::string> Registry::list_applications() const {
  std::vector<std::string> out;
  for (const auto& channel : list()) {
    if (channel.size() > std::strlen(kGlobalSuffix) &&
        channel.ends_with(kGlobalSuffix)) {
      out.push_back(
          channel.substr(0, channel.size() - std::strlen(kGlobalSuffix)));
    }
  }
  return out;
}

std::shared_ptr<core::BeatStore> Registry::attach(
    const std::string& channel) const {
  const auto shm_path = dir_ / (channel + kShmExt);
  if (std::filesystem::exists(shm_path)) return ShmStore::attach(shm_path);
  const auto log_path = dir_ / (channel + kLogExt);
  if (std::filesystem::exists(log_path)) {
    return FileLogStore::attach(log_path);
  }
  throw std::runtime_error("Registry::attach: no such channel '" + channel +
                           "' in " + dir_.string());
}

core::HeartbeatReader Registry::reader(
    const std::string& app, std::shared_ptr<const util::Clock> clock) const {
  return core::HeartbeatReader(attach(app + kGlobalSuffix), std::move(clock));
}

core::StoreFactory Registry::shm_factory() const {
  const auto dir = dir_;
  return [dir](const core::StoreSpec& spec) {
    return ShmStore::create(dir / (spec.channel_name + kShmExt),
                            spec.channel_name,
                            static_cast<std::uint32_t>(spec.capacity),
                            spec.default_window);
  };
}

core::StoreFactory Registry::filelog_factory() const {
  const auto dir = dir_;
  return [dir](const core::StoreSpec& spec) {
    return FileLogStore::create(dir / (spec.channel_name + kLogExt),
                                spec.channel_name, spec.capacity,
                                spec.default_window);
  };
}

std::filesystem::path Registry::ingest_queue_path() const {
  return dir_ / "fleet.hbq";
}

core::StoreFactory Registry::shm_ingest_factory(core::StoreFactory inner_factory,
                                                ShmHubSinkOptions sink_opts) const {
  auto queue = ShmIngestQueue::open(ingest_queue_path(), kDefaultIngestCapacity);
  return ShmHubSink::wrap_factory(std::move(queue), std::move(inner_factory),
                                  sink_opts);
}

void Registry::remove(const std::string& channel) const {
  std::error_code ec;
  std::filesystem::remove(dir_ / (channel + kShmExt), ec);
  std::filesystem::remove(dir_ / (channel + kLogExt), ec);
}

}  // namespace hb::transport
