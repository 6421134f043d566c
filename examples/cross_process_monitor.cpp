// cross_process_monitor: observing another process's heartbeats — both ways.
//
// Demonstrates the two cross-process observation paths end to end across a
// real process boundary. The parent forks a child that publishes ONE
// heartbeat channel through a composed store factory:
//
//   ShmHubSink( ShmStore )   — every beat lands in the child's registry
//                              shm segment (the paper's §3/§4 single-app
//                              observer path) AND is mirrored into the
//                              fleet ingest ring (the hub's cross-process
//                              front door).
//
// The parent then watches the SAME producer from both sides at once: a
// HeartbeatReader attached to the segment (pull: rate / staleness /
// health, Figure 1b) and a HeartbeatHub fed by a ShmIngestPump draining
// the ring (push: the fleet-scale path hbmon fleet --live uses) — and
// detects the child's death from both.
//
//   ./examples/cross_process_monitor
#include <sys/wait.h>
#include <unistd.h>

#include <chrono>
#include <cmath>
#include <cstdio>
#include <filesystem>
#include <optional>
#include <stdexcept>
#include <thread>

#include "core/heartbeat.hpp"
#include "fault/fleet_detector.hpp"
#include "hub/hub.hpp"
#include "hub/shm_pump.hpp"
#include "transport/registry.hpp"
#include "transport/shm_ingest.hpp"

namespace {

// The observed application: beats ~200/s for a while, then exits. The only
// monitoring-specific line is the store_factory composition.
int child_main() {
  hb::transport::Registry registry;
  hb::core::HeartbeatOptions opts;
  opts.name = "worker";
  opts.default_window = 50;
  opts.target_min_bps = 100.0;
  opts.store_factory = registry.shm_ingest_factory(registry.shm_factory());
  hb::core::Heartbeat hb(opts);

  double sink = 0.0;
  for (int i = 0; i < 600; ++i) {
    for (int j = 1; j < 20000; ++j) sink += std::sqrt(static_cast<double>(j));
    hb.beat(static_cast<std::uint64_t>(i));
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  }
  return sink > 0 ? 0 : 1;
}

}  // namespace

int main() {
  hb::transport::Registry registry;
  std::filesystem::create_directories(registry.dir());
  std::filesystem::remove(registry.ingest_queue_path());  // stale ring
  auto queue = hb::transport::ShmIngestQueue::open(
      registry.ingest_queue_path(),
      hb::transport::Registry::kDefaultIngestCapacity);

  // Hub side: pump the ring the child mirrors its beats into. Constructed
  // BEFORE the fork — a pump consumes from the ring head it sees at birth,
  // so beats published earlier would be (correctly) treated as history.
  hb::hub::HubOptions hub_opts;
  hub_opts.shard_count = 2;
  hb::hub::HeartbeatHub hub(hub_opts);
  hb::hub::ShmIngestPump pump(queue, hub);

  const pid_t pid = ::fork();
  if (pid < 0) {
    std::perror("fork");
    return 1;
  }
  if (pid == 0) ::_exit(child_main());
  // The pump registers "worker" with the hub on its first drained beat;
  // until then the hub has nothing to report.
  const auto worker_summary = [&hub]() -> std::optional<hb::hub::AppSummary> {
    try {
      return hub.summary(hub.id_of("worker"));
    } catch (const std::out_of_range&) {
      return std::nullopt;
    }
  };
  hb::fault::FleetDetector fleet_detector(
      {.absolute_staleness_ns = 1000 * hb::util::kNsPerMs,
       .staleness_slack_ns = 100 * hb::util::kNsPerMs});

  // Reader side: wait for the child to publish its registry segment.
  for (int i = 0; i < 200; ++i) {
    if (!registry.list_applications().empty()) break;
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }

  hb::fault::FleetDetector reader_detector(
      {.staleness_factor = 50.0, .min_beats = 8});
  std::printf(
      "sample,reader_beats,reader_rate,reader_health,hub_beats,hub_rate,"
      "hub_health\n");
  for (int s = 0; s < 40; ++s) {
    pump.poll();
    std::string hub_cell = "-,-,unseen";
    if (const auto summary = worker_summary()) {
      char buf[64];
      std::snprintf(buf, sizeof(buf), "%llu,%.1f,%s",
                    static_cast<unsigned long long>(summary->total_beats),
                    summary->rate_bps,
                    hb::fault::to_string(fleet_detector.classify(*summary)));
      hub_cell = buf;
    }
    try {
      auto reader = registry.reader("worker");
      std::printf("%d,%llu,%.1f,%s,%s\n", s,
                  static_cast<unsigned long long>(reader.count()),
                  reader.current_rate(),
                  hb::fault::to_string(reader_detector.classify(reader)),
                  hub_cell.c_str());
    } catch (const std::exception& e) {
      std::printf("%d,-,-,unpublished (%s),%s\n", s, e.what(),
                  hub_cell.c_str());
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(100));
  }

  int status = 0;
  ::waitpid(pid, &status, 0);
  // One more sample after the child died: beats have stopped on BOTH paths.
  std::this_thread::sleep_for(std::chrono::milliseconds(1100));
  pump.poll();
  auto reader = registry.reader("worker");
  const auto summary = worker_summary();
  std::printf("final,%llu,%.1f,%s,%llu,%.1f,%s\n",
              static_cast<unsigned long long>(reader.count()),
              reader.current_rate(),
              hb::fault::to_string(reader_detector.classify(reader)),
              static_cast<unsigned long long>(summary ? summary->total_beats
                                                      : 0),
              summary ? summary->rate_bps : 0.0,
              summary ? hb::fault::to_string(fleet_detector.classify(*summary))
                      : "unseen");
  registry.remove("worker.global");
  std::filesystem::remove(registry.ingest_queue_path());
  return WIFEXITED(status) ? WEXITSTATUS(status) : 1;
}
