// Overhead microbenchmarks (paper, Section 5.1).
//
// The paper's claims: "For all benchmarks presented here, the Heartbeats
// framework is low-overhead. ... in the first attempt a heartbeat was
// registered after every option was processed and this added an order of
// magnitude slow-down."
//
// Measured here with google-benchmark:
//   * raw HB_heartbeat cost per transport (in-process memory, shared-memory
//     segment, and the paper's Section 4 file log) and per channel kind;
//   * HB_current_rate cost vs window size;
//   * multi-threaded global-beat contention;
//   * the blackscholes experiment: time per option when beating every
//     option vs every 25000 options, on both the fast (shm) and the paper's
//     reference (file log) transport — reproducing the order-of-magnitude
//     blow-up the paper reports for per-option beats.
#include <benchmark/benchmark.h>
#include <unistd.h>

#include <filesystem>
#include <memory>

#include "core/heartbeat.hpp"
#include "core/memory_store.hpp"
#include "kernels/blackscholes.hpp"
#include "transport/file_log_store.hpp"
#include "transport/shm_store.hpp"
#include "util/rng.hpp"

namespace {

namespace fs = std::filesystem;

// <tmp>/hb_bench_<pid>, made on first use and removed with whatever is left
// in it when the process exits.
fs::path scratch_dir() {
  struct Dir {
    fs::path path =
        fs::temp_directory_path() / ("hb_bench_" + std::to_string(::getpid()));
    Dir() { fs::create_directories(path); }
    ~Dir() {
      std::error_code ec;
      fs::remove_all(path, ec);
    }
  };
  static const Dir dir;
  return dir.path;
}

// --------------------------------------------------------- raw beat cost

void BM_BeatGlobalMemory(benchmark::State& state) {
  hb::core::Heartbeat hb;
  for (auto _ : state) {
    benchmark::DoNotOptimize(hb.beat());
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_BeatGlobalMemory);

void BM_BeatLocalMemory(benchmark::State& state) {
  hb::core::Heartbeat hb;
  for (auto _ : state) {
    benchmark::DoNotOptimize(hb.beat_local());
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_BeatLocalMemory);

void BM_BeatShm(benchmark::State& state) {
  const auto file = scratch_dir() / "bench.hb";
  auto store = hb::transport::ShmStore::create(file, "bench", 4096, 20);
  hb::core::Channel channel(store, hb::util::MonotonicClock::instance());
  for (auto _ : state) {
    benchmark::DoNotOptimize(channel.beat());
  }
  state.SetItemsProcessed(state.iterations());
  fs::remove(file);
}
BENCHMARK(BM_BeatShm);

void BM_BeatFileLog(benchmark::State& state) {
  // The paper's Section 4 reference implementation: every beat is a
  // formatted line plus a flush. Expect ~2-3 orders of magnitude above the
  // memory transports.
  const auto file = scratch_dir() / "bench.hblog";
  auto store = hb::transport::FileLogStore::create(file, "bench", 4096, 20);
  hb::core::Channel channel(store, hb::util::MonotonicClock::instance());
  for (auto _ : state) {
    benchmark::DoNotOptimize(channel.beat());
  }
  state.SetItemsProcessed(state.iterations());
  fs::remove(file);
}
BENCHMARK(BM_BeatFileLog);

// ------------------------------------------------------------ contention

void BM_BeatGlobalContended(benchmark::State& state) {
  static hb::core::Heartbeat* hb = nullptr;
  if (state.thread_index() == 0) {
    hb::core::HeartbeatOptions opts;
    opts.history_capacity = 1 << 16;
    hb = new hb::core::Heartbeat(opts);
  }
  for (auto _ : state) {
    benchmark::DoNotOptimize(hb->beat());
  }
  state.SetItemsProcessed(state.iterations());
  if (state.thread_index() == 0) {
    delete hb;
    hb = nullptr;
  }
}
BENCHMARK(BM_BeatGlobalContended)->Threads(1)->Threads(2)->Threads(4);

void BM_BeatShmContended(benchmark::State& state) {
  static std::shared_ptr<hb::core::Channel> channel;
  static fs::path file;
  if (state.thread_index() == 0) {
    file = scratch_dir() / "contended.hb";
    channel = std::make_shared<hb::core::Channel>(
        hb::transport::ShmStore::create(file, "c", 1 << 16, 20),
        hb::util::MonotonicClock::instance());
  }
  for (auto _ : state) {
    benchmark::DoNotOptimize(channel->beat());
  }
  state.SetItemsProcessed(state.iterations());
  if (state.thread_index() == 0) {
    channel.reset();
    fs::remove(file);
  }
}
BENCHMARK(BM_BeatShmContended)->Threads(1)->Threads(2)->Threads(4);

// ------------------------------------------------------- rate query cost

void BM_CurrentRate(benchmark::State& state) {
  const auto window = static_cast<std::uint32_t>(state.range(0));
  hb::core::HeartbeatOptions opts;
  opts.history_capacity = 4096;
  hb::core::Heartbeat hb(opts);
  for (int i = 0; i < 4096; ++i) hb.beat();
  for (auto _ : state) {
    benchmark::DoNotOptimize(hb.global().rate(window));
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_CurrentRate)->Arg(1)->Arg(10)->Arg(100)->Arg(1000);

// ---------------------------------------- blackscholes overhead (paper)

// Price options with a beat every `beat_every` options over `transport`
// ("mem", "shm", "log"); report ns/option. The paper's Section 5.1: beats
// every option on the file transport slowed blackscholes by an order of
// magnitude; every 25000, negligible.
template <typename StoreMaker>
void blackscholes_overhead(benchmark::State& state, StoreMaker make_store,
                           std::uint64_t beat_every) {
  auto channel = std::make_shared<hb::core::Channel>(
      make_store(), hb::util::MonotonicClock::instance());
  hb::util::Rng rng(1);
  std::uint64_t i = 0;
  double acc = 0.0;
  for (auto _ : state) {
    acc += hb::kernels::black_scholes_call(
        rng.uniform(20, 120), rng.uniform(20, 120), rng.uniform(0.01, 0.06),
        rng.uniform(0.1, 0.6), rng.uniform(0.25, 2.0));
    if (++i % beat_every == 0) channel->beat();
  }
  benchmark::DoNotOptimize(acc);
  state.SetItemsProcessed(state.iterations());
}

void BM_BlackscholesNoBeats(benchmark::State& state) {
  blackscholes_overhead(
      state, [] { return std::make_shared<hb::core::MemoryStore>(4096); },
      ~0ULL);
}
BENCHMARK(BM_BlackscholesNoBeats);

void BM_BlackscholesBeatEvery25000Mem(benchmark::State& state) {
  blackscholes_overhead(
      state, [] { return std::make_shared<hb::core::MemoryStore>(4096); },
      25000);
}
BENCHMARK(BM_BlackscholesBeatEvery25000Mem);

void BM_BlackscholesBeatEveryOptionMem(benchmark::State& state) {
  blackscholes_overhead(
      state, [] { return std::make_shared<hb::core::MemoryStore>(4096); }, 1);
}
BENCHMARK(BM_BlackscholesBeatEveryOptionMem);

void BM_BlackscholesBeatEvery25000Log(benchmark::State& state) {
  const auto file = scratch_dir() / "bs25000.hblog";
  blackscholes_overhead(
      state,
      [&] {
        return hb::transport::FileLogStore::create(file, "bs", 4096, 20);
      },
      25000);
  fs::remove(file);
}
BENCHMARK(BM_BlackscholesBeatEvery25000Log);

void BM_BlackscholesBeatEveryOptionLog(benchmark::State& state) {
  // The paper's order-of-magnitude slowdown case.
  const auto file = scratch_dir() / "bs1.hblog";
  blackscholes_overhead(
      state,
      [&] {
        return hb::transport::FileLogStore::create(file, "bs", 4096, 20);
      },
      1);
  fs::remove(file);
}
BENCHMARK(BM_BlackscholesBeatEveryOptionLog);

}  // namespace

BENCHMARK_MAIN();
