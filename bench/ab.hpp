// Shared scaffolding for the telemetry kill-switch A/B benches
// (bench_obs_overhead, bench_recorder_overhead): the SAME workload timed with
// obs::set_enabled(true) and (false), interleaved best-of, plus the argv,
// summary-line, BENCH-record and exit-code conventions both follow. Each
// bench keeps its own workload, CSV rows and correctness coda.
//
// Exit codes (finish_ab): 0 ok, 2 on a correctness failure, 3 on a blown
// overhead gate (< 5%) — full mode only; smoke runs on shared CI cores
// report the number without gating on it.
#pragma once

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <vector>

#include "bench_json.hpp"
#include "obs/metrics.hpp"

namespace hb::bench {

/// Wall seconds one call of `fn` takes.
inline double timed(const auto& fn) {
  const auto start = std::chrono::steady_clock::now();
  fn();
  return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                       start)
      .count();
}

struct AbArgs {
  bool smoke = false;
  const char* json_path = nullptr;  ///< --json PATH; null = no record
  std::vector<const char*> positional;
};

/// `--smoke`, `--json PATH`, and everything else as positionals.
inline AbArgs parse_ab_args(int argc, char** argv) {
  AbArgs args;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--smoke") == 0) {
      args.smoke = true;
    } else if (std::strcmp(argv[i], "--json") == 0 && i + 1 < argc) {
      args.json_path = argv[++i];
    } else {
      args.positional.push_back(argv[i]);
    }
  }
  return args;
}

struct AbResult {
  int reps = 0;
  double enabled_s = 1e18;   ///< best telemetry-on pass
  double disabled_s = 1e18;  ///< best telemetry-off pass
  double overhead_pct() const {
    return disabled_s > 0.0 ? (enabled_s - disabled_s) / disabled_s * 100.0
                            : 0.0;
  }
};

/// Interleaved best-of: on/off alternate within each rep, and the rep order
/// flips each time (on-off, off-on, ...) so neither a slow host ramp
/// (frequency scaling warming up across the run) nor a neighbor waking
/// mid-rep can masquerade as overhead — each side samples both ends of
/// every rep. `pass()` returns one pass's seconds; `row(rep, on_s, off_s)`
/// prints the bench's CSV rows. Leaves telemetry enabled.
template <typename Pass, typename Row>
AbResult run_ab(int reps, Pass&& pass, Row&& row) {
  AbResult r;
  r.reps = reps;
  for (int rep = 0; rep < reps; ++rep) {
    const bool on_first = (rep % 2) == 0;
    obs::set_enabled(on_first);
    const double first = pass();
    obs::set_enabled(!on_first);
    const double second = pass();
    obs::set_enabled(true);
    const double on = on_first ? first : second;
    const double off = on_first ? second : first;
    r.enabled_s = std::min(r.enabled_s, on);
    r.disabled_s = std::min(r.disabled_s, off);
    row(rep, on, off);
    std::fflush(stdout);
  }
  return r;
}

/// The shared tail: `# ...` summary lines, the BENCH record (when --json was
/// given; `rec` arrives holding the bench's own config keys), and the exit
/// code. `delta` is the coda's frozen-while-disabled count, reported under
/// `delta_key` and required to be 0 by the coda's `ok`.
inline int finish_ab(const AbArgs& args, const AbResult& r, JsonRecord rec,
                     const char* overhead_key, const char* delta_key,
                     std::uint64_t delta, bool ok) {
  const double pct = r.overhead_pct();
  std::printf("\n# %s=%.2f (enabled %.4fs vs disabled %.4fs)\n", overhead_key,
              pct, r.enabled_s, r.disabled_s);
  std::printf("# %s=%llu (must be 0)\n", delta_key,
              static_cast<unsigned long long>(delta));
  std::printf("# correctness=%s\n", ok ? "ok" : "FAILED");

  if (args.json_path) {
    rec.config("reps", r.reps);
    rec.config("smoke", args.smoke);
    rec.metric("enabled_best_s", r.enabled_s);
    rec.metric("disabled_best_s", r.disabled_s);
    rec.metric(overhead_key, pct);
    rec.metric(delta_key, delta);
    rec.metric("correctness", ok);
    rec.write(args.json_path);
  }

  if (!ok) return 2;
  if (!args.smoke && pct >= 5.0) {
    std::printf("# overhead_ok=no\n");
    return 3;
  }
  std::printf("# overhead_ok=%s\n", pct < 5.0 ? "yes" : "n/a(smoke)");
  return 0;
}

}  // namespace hb::bench
