#include "transport/file_log_store.hpp"

#include <cinttypes>
#include <cstdlib>
#include <fstream>
#include <limits>
#include <stdexcept>
#include <system_error>

namespace hb::transport {

namespace {

std::string format_target_line(core::TargetRate t) {
  char buf[128];
  std::snprintf(buf, sizeof(buf), "#target min=%.17g max=%.17g\n", t.min_bps,
                t.max_bps);
  return buf;
}

}  // namespace

std::shared_ptr<FileLogStore> FileLogStore::create(
    const std::filesystem::path& file, const std::string& channel_name,
    std::size_t mirror_capacity, std::uint32_t default_window) {
  if (default_window == 0) default_window = 1;
  if (mirror_capacity < default_window) mirror_capacity = default_window;
  if (file.has_parent_path()) {
    std::filesystem::create_directories(file.parent_path());
  }
  auto mirror =
      std::make_unique<core::MemoryStore>(mirror_capacity, default_window);
  std::FILE* out = std::fopen(file.c_str(), "w");
  if (out == nullptr) {
    throw std::system_error(errno, std::generic_category(),
                            "FileLogStore::create " + file.string());
  }
  std::fprintf(out, "#hblog v1 name=%s window=%u\n", channel_name.c_str(),
               default_window);
  std::fputs(format_target_line(mirror->target()).c_str(), out);
  std::fflush(out);
  return std::shared_ptr<FileLogStore>(
      new FileLogStore(file, channel_name, out, std::move(mirror)));
}

std::shared_ptr<FileLogStore> FileLogStore::attach(
    const std::filesystem::path& file) {
  if (!std::filesystem::exists(file)) {
    throw std::runtime_error("FileLogStore::attach: no such log: " +
                             file.string());
  }
  auto store = std::shared_ptr<FileLogStore>(
      new FileLogStore(file, "", nullptr, nullptr));
  // Validate the format and pick up the name eagerly.
  const Parsed p = store->parse(0);
  if (p.name.empty()) {
    throw std::runtime_error("FileLogStore::attach: bad log header: " +
                             file.string());
  }
  store->name_ = p.name;
  return store;
}

FileLogStore::FileLogStore(std::filesystem::path file, std::string name,
                           std::FILE* out,
                           std::unique_ptr<core::MemoryStore> mirror)
    : file_(std::move(file)),
      name_(std::move(name)),
      out_(out),
      mirror_(std::move(mirror)) {}

FileLogStore::~FileLogStore() {
  if (out_ != nullptr) std::fclose(out_);
}

std::uint64_t FileLogStore::append(const core::HeartbeatRecord& rec) {
  if (!mirror_) {
    throw std::logic_error("FileLogStore: appending on an attached store");
  }
  util::MutexLock lock(mu_);  // paper: mutex serializes writers
  mirror_->append(rec);
  // The line carries the record as the mirror stored it: its seq, and its
  // stamp raised to the newest beat's if it was older.
  const core::HeartbeatRecord stored = mirror_->history(1).back();
  std::fprintf(out_, "%" PRIu64 " %" PRId64 " %" PRIu64 " %" PRIu32 "\n",
               stored.seq, stored.timestamp_ns, stored.tag, stored.thread_id);
  std::fflush(out_);  // observers read the file; make beats visible promptly
  return stored.seq;
}

std::uint64_t FileLogStore::count() const {
  return mirror_ ? mirror_->count() : parse(0).count;
}

std::size_t FileLogStore::capacity() const {
  // Observer-side history is limited only by the file (paper: "can support
  // any value for n because the entire heartbeat history is kept in the
  // file"); the producer's in-memory mirror is ring-limited.
  return mirror_ ? mirror_->capacity()
                 : std::numeric_limits<std::size_t>::max();
}

std::vector<core::HeartbeatRecord> FileLogStore::history(std::size_t n) const {
  return mirror_ ? mirror_->history(n) : parse(n).records;
}

void FileLogStore::set_target(core::TargetRate t) {
  if (!mirror_) {
    // Paper, Section 4: "This implementation does not support changing the
    // target heart rates from an external application."
    throw std::logic_error(
        "FileLogStore: attached observers cannot change targets "
        "(use the shm transport for external goal-setting)");
  }
  util::MutexLock lock(mu_);
  mirror_->set_target(t);
  std::fputs(format_target_line(t).c_str(), out_);
  std::fflush(out_);
}

core::TargetRate FileLogStore::target() const {
  return mirror_ ? mirror_->target() : parse(0).target;
}

void FileLogStore::set_default_window(std::uint32_t w) {
  if (!mirror_) {
    throw std::logic_error("FileLogStore: attached observers cannot change "
                           "the default window");
  }
  mirror_->set_default_window(w);
}

std::uint32_t FileLogStore::default_window() const {
  return mirror_ ? mirror_->default_window() : parse(0).window;
}

FileLogStore::Parsed FileLogStore::parse(std::size_t keep) const {
  Parsed p;
  std::ifstream in(file_);
  if (!in) return p;
  std::string line;
  while (std::getline(in, line)) {
    if (line.empty()) continue;
    if (line[0] == '#') {
      if (line.rfind("#hblog", 0) == 0) {
        const auto name_pos = line.find("name=");
        const auto window_pos = line.find("window=");
        if (name_pos != std::string::npos) {
          const auto end = line.find(' ', name_pos);
          p.name = line.substr(name_pos + 5, end == std::string::npos
                                                 ? std::string::npos
                                                 : end - (name_pos + 5));
        }
        if (window_pos != std::string::npos) {
          p.window = static_cast<std::uint32_t>(
              std::strtoul(line.c_str() + window_pos + 7, nullptr, 10));
        }
      } else if (line.rfind("#target", 0) == 0) {
        // Later target lines override earlier ones.
        double mn = 0.0, mx = 0.0;
        if (std::sscanf(line.c_str(), "#target min=%lg max=%lg", &mn, &mx) ==
            2) {
          p.target = core::TargetRate{mn, mx};
        }
      }
      continue;
    }
    core::HeartbeatRecord rec;
    if (std::sscanf(line.c_str(),
                    "%" SCNu64 " %" SCNd64 " %" SCNu64 " %" SCNu32, &rec.seq,
                    &rec.timestamp_ns, &rec.tag, &rec.thread_id) == 4) {
      ++p.count;
      if (keep > 0) p.records.push_back(rec);
    }
  }
  if (keep > 0 && p.records.size() > keep) {
    p.records.erase(p.records.begin(),
                    p.records.end() - static_cast<std::ptrdiff_t>(keep));
  }
  return p;
}

}  // namespace hb::transport
