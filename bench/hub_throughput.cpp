// Hub ingest throughput: bulk apply scales with shard count.
//
// Every beat reaches the hub through HeartbeatHub::ingest_batch: each
// producer stages its beats per shard, one app's consecutive beats as one
// run, and applies every 64 of them under the shard's state lock
// (bench/shard_runs.hpp — the shape the shm ingest pump feeds the hub).
// Producers on one stripe queue behind each other's applies; with S
// shards over a fixed fleet, each stripe holds 1/S of the apps and sees
// 1/S of the runs, so contention shrinks as S grows. The bench pins that
// down: a fixed fleet of 64 apps, beaten by P producer threads, swept over
// shard counts {1,2,4,8,16}.
//
// Producers here are multi-tenant ingestion gateways — each thread forwards
// beats for the WHOLE fleet round-robin (a transport front-end relaying
// many tenants), so a 1-shard run always mixes the fleet's apps however
// the OS time-slices the threads. Fairness details:
//   * App names are chosen so their FNV-1a residues mod 16 are perfectly
//     balanced — every swept shard count (divisors of 16) gets an equal
//     slice of apps, so no configuration wins by hash luck.
//   * Threads start round-robin at staggered offsets, and consecutive
//     beats rotate residue classes, spreading stripe pressure evenly.
//   * Each configuration runs 3 times; the summary reports the best run
//     (standard practice to shed scheduler noise on small hosts).
//
//   ./bench_hub_throughput [total_beats_per_config] [--json PATH]
//
// CSV on stdout; a final summary block prints best-of-3 throughput per
// configuration and whether throughput grew monotonically from 1 shard to
// 4+ shards at 16 producers (the acceptance shape).
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <map>
#include <string>
#include <thread>
#include <vector>

#include "bench_json.hpp"
#include "hub/hub.hpp"
#include "shard_runs.hpp"

namespace {

constexpr int kResidues = 16;   // residue classes; shard counts divide this
constexpr int kAppsPerResidue = 4;

/// 64 app names whose fnv1a64 residues mod 16 are exactly balanced, grouped
/// by residue class.
std::vector<std::vector<std::string>> balanced_names() {
  std::vector<std::vector<std::string>> by_residue(kResidues);
  int found = 0, i = 0;
  while (found < kResidues * kAppsPerResidue) {
    std::string name = "tenant-" + std::to_string(i++);
    auto& bucket = by_residue[hb::hub::fnv1a64(name) % kResidues];
    if (bucket.size() < kAppsPerResidue) {
      bucket.push_back(std::move(name));
      ++found;
    }
  }
  return by_residue;
}

struct RunResult {
  std::uint64_t beats = 0;
  double seconds = 0.0;
  double beats_per_sec = 0.0;
};

RunResult run_once(int producers, int shards, std::uint64_t total_beats,
                   const std::vector<std::vector<std::string>>& names) {
  hb::hub::HubOptions opts;
  opts.shard_count = static_cast<std::size_t>(shards);
  opts.window_capacity = 256;
  hb::hub::HeartbeatHub hub(opts);

  // Flat fleet, interleaved by residue class so consecutive beats rotate
  // shards: fleet[i] has residue i % 16.
  std::vector<hb::hub::AppId> fleet;
  for (int i = 0; i < kResidues * kAppsPerResidue; ++i) {
    fleet.push_back(hub.register_app(names[i % kResidues][i / kResidues]));
  }

  // Every gateway thread relays the whole fleet round-robin from a
  // staggered start — the same beat stream whatever the producer count.
  const std::uint64_t per_thread = total_beats / static_cast<std::uint64_t>(producers);
  std::vector<std::thread> threads;
  const auto start = std::chrono::steady_clock::now();
  for (int t = 0; t < producers; ++t) {
    threads.emplace_back([&, t] {
      const std::size_t offset =
          static_cast<std::size_t>(t) * fleet.size() / static_cast<std::size_t>(producers);
      hb::bench::ShardRuns runs(hub);
      for (std::uint64_t k = 0; k < per_thread; ++k) {
        runs.beat(fleet[(offset + k) % fleet.size()]);
      }
      runs.flush();
    });
  }
  for (auto& th : threads) th.join();
  const auto end = std::chrono::steady_clock::now();

  RunResult res;
  res.beats = per_thread * static_cast<std::uint64_t>(producers);
  res.seconds = std::chrono::duration<double>(end - start).count();
  res.beats_per_sec = res.seconds > 0 ? static_cast<double>(res.beats) / res.seconds : 0.0;

  // Sanity: the hub must have seen every beat.
  std::uint64_t ingested = 0;
  hub.snapshot()->for_each_app(
      [&ingested](const hb::hub::AppSummary& s) { ingested += s.total_beats; },
      /*include_evicted=*/true);
  if (ingested != res.beats) {
    std::fprintf(stderr, "BUG: ingested %llu of %llu beats\n",
                 static_cast<unsigned long long>(ingested),
                 static_cast<unsigned long long>(res.beats));
    std::exit(2);
  }
  return res;
}

}  // namespace

int main(int argc, char** argv) {
  std::uint64_t total_beats = 768000;
  const char* json_path = nullptr;
  std::vector<const char*> positional;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--json") == 0 && i + 1 < argc) {
      json_path = argv[++i];
    } else {
      positional.push_back(argv[i]);
    }
  }
  if (!positional.empty()) {
    char* end = nullptr;
    total_beats = std::strtoull(positional[0], &end, 10);
    if (end == positional[0] || *end != '\0' || total_beats == 0) {
      std::fprintf(stderr, "usage: %s [total_beats_per_config] [--json PATH]\n",
                   argv[0]);
      return 1;
    }
    // Below this, thread create/join overhead swamps ingestion and the
    // shard sweep measures nothing.
    constexpr std::uint64_t kMinBeats = 64000;
    if (total_beats < kMinBeats) {
      std::fprintf(stderr, "note: clamping total_beats to %llu\n",
                   static_cast<unsigned long long>(kMinBeats));
      total_beats = kMinBeats;
    }
  }
  const std::vector<int> producer_counts = {1, 4, 16};
  const std::vector<int> shard_counts = {1, 2, 4, 8, 16};
  constexpr int kReps = 3;

  const auto names = balanced_names();

  std::printf("producers,shards,run,beats,seconds,beats_per_sec\n");
  std::map<std::pair<int, int>, double> best;
  for (const int p : producer_counts) {
    for (const int s : shard_counts) {
      for (int rep = 0; rep < kReps; ++rep) {
        const RunResult r = run_once(p, s, total_beats, names);
        std::printf("%d,%d,%d,%llu,%.4f,%.0f\n", p, s, rep,
                    static_cast<unsigned long long>(r.beats), r.seconds,
                    r.beats_per_sec);
        std::fflush(stdout);
        auto& b = best[{p, s}];
        if (r.beats_per_sec > b) b = r.beats_per_sec;
      }
    }
  }

  std::printf("\n# best-of-%d aggregate bulk-apply throughput (beats/s)\n",
              kReps);
  std::printf("# producers");
  for (const int s : shard_counts) std::printf("  shards=%-2d", s);
  std::printf("  speedup(1->16 shards)\n");
  for (const int p : producer_counts) {
    std::printf("# %9d", p);
    for (const int s : shard_counts) {
      std::printf("  %9.0f", best[{p, s}]);
    }
    std::printf("  %.2fx\n", best[{p, 16}] / best[{p, 1}]);
  }

  bool monotone = true;
  double prev = 0.0;
  for (const int s : {1, 2, 4}) {
    const double cur = best[{16, s}];
    if (cur < prev) monotone = false;
    prev = cur;
  }
  std::printf("# monotonic_1_to_4_shards_at_16_producers=%s\n",
              monotone ? "yes" : "no");

  if (json_path) {
    hb::bench::JsonRecord rec("hub_throughput");
    rec.config("total_beats_per_config", total_beats);
    rec.config("apps", kResidues * kAppsPerResidue);
    rec.config("reps", kReps);
    for (const int p : producer_counts) {
      for (const int s : shard_counts) {
        const std::string key = "best_bps_p" + std::to_string(p) + "_s" +
                                std::to_string(s);
        rec.metric(key.c_str(), best[{p, s}]);
      }
    }
    rec.metric("speedup_1_to_16_shards_at_16_producers",
               best[{16, 1}] > 0 ? best[{16, 16}] / best[{16, 1}] : 0.0);
    rec.metric("monotonic_1_to_4_shards_at_16_producers", monotone);
    rec.write(json_path);
  }
  return 0;
}
