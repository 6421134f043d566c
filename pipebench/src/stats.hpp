// Fixed-memory measurement helpers for the benchmark harness.
#pragma once

#include <pthread.h>
#include <sched.h>

#include <algorithm>
#include <array>
#include <bit>
#include <cstdint>
#include <ctime>
#include <vector>

#include "util/time.hpp"

namespace pipebench {

/// The measured window is cut into this many equal sub-windows. Rates,
/// costs and latency percentiles are computed per sub-window and reported
/// as the median across them, so a burst of outside interference that
/// hits one part of a run moves the reported figure little.
inline constexpr int kSubWindows = 10;

/// Sub-window of an instant inside [start, start + len).
inline int sub_window(std::int64_t t, std::int64_t start, std::int64_t len) {
  const auto k = static_cast<int>((t - start) * kSubWindows / len);
  return k < 0 ? 0 : (k >= kSubWindows ? kSubWindows - 1 : k);
}

/// Log-linear histogram with 128 linear sub-buckets per octave (<= 0.8%
/// relative bucket width). Fixed 64 KiB of state, trivially copyable (it
/// lives in the shared control page too), so the harness's memory does not
/// grow with the number of samples and does not distort the monitor's RSS.
class FineHistogram {
 public:
  static constexpr int kSubBits = 7;
  static constexpr std::uint64_t kSub = std::uint64_t{1} << kSubBits;
  static constexpr std::size_t kBuckets = (64 - kSubBits + 1) * kSub;

  static std::size_t index(std::uint64_t v) {
    if (v < kSub) return static_cast<std::size_t>(v);
    const int msb = 63 - std::countl_zero(v);
    const int shift = msb - kSubBits;
    return static_cast<std::size_t>(shift + 1) * kSub +
           static_cast<std::size_t>((v >> shift) - kSub);
  }
  /// Lower bound and width of a bucket's value range.
  static double lower(std::size_t idx) {
    if (idx < kSub) return static_cast<double>(idx);
    const std::size_t shift = idx / kSub - 1;
    return static_cast<double>((kSub + idx % kSub) << shift);
  }
  static double width(std::size_t idx) {
    if (idx < kSub) return 1.0;
    return static_cast<double>(std::uint64_t{1} << (idx / kSub - 1));
  }

  void record(std::int64_t v) {
    const std::uint64_t u = v > 0 ? static_cast<std::uint64_t>(v) : 0;
    ++counts_[index(u)];
    ++count_;
  }
  void merge(const FineHistogram& o) {
    for (std::size_t i = 0; i < kBuckets; ++i) counts_[i] += o.counts_[i];
    count_ += o.count_;
  }
  std::uint64_t count() const { return count_; }

  /// Percentile (p in (0, 100]), interpolated linearly inside the bucket
  /// that holds the rank, so it moves continuously with the samples
  /// instead of jumping between bucket bounds; 0 when empty.
  double percentile(double p) const {
    if (count_ == 0) return 0.0;
    double rank = p / 100.0 * static_cast<double>(count_);
    if (rank < 1.0) rank = 1.0;
    std::uint64_t seen = 0;
    for (std::size_t i = 0; i < kBuckets; ++i) {
      if (counts_[i] == 0) continue;
      if (static_cast<double>(seen + counts_[i]) >= rank) {
        const double frac =
            (rank - static_cast<double>(seen)) / static_cast<double>(counts_[i]);
        return lower(i) + frac * width(i);
      }
      seen += counts_[i];
    }
    return 0.0;
  }

 private:
  std::array<std::uint64_t, kBuckets> counts_{};
  std::uint64_t count_ = 0;
};

/// CPUs this process may run on.
inline int usable_cpus() {
  cpu_set_t set;
  CPU_ZERO(&set);
  if (sched_getaffinity(0, sizeof(set), &set) != 0) return 1;
  return CPU_COUNT(&set);
}

/// Pin the calling thread to the k-th CPU this process may run on (no-op
/// when there are fewer). The benchmark gives each of its threads a CPU of
/// its own so a run does not depend on how the scheduler places them.
inline void pin_to_cpu(int k) {
  cpu_set_t allowed;
  CPU_ZERO(&allowed);
  if (sched_getaffinity(0, sizeof(allowed), &allowed) != 0) return;
  for (int cpu = 0; cpu < CPU_SETSIZE; ++cpu) {
    if (!CPU_ISSET(cpu, &allowed) || k-- > 0) continue;
    cpu_set_t one;
    CPU_ZERO(&one);
    CPU_SET(cpu, &one);
    pthread_setaffinity_np(pthread_self(), sizeof(one), &one);
    return;
  }
}

inline std::int64_t thread_cpu_ns() {
  timespec ts{};
  clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts);
  return static_cast<std::int64_t>(ts.tv_sec) * 1'000'000'000 + ts.tv_nsec;
}

inline std::int64_t mono_ns() {
  timespec ts{};
  clock_gettime(CLOCK_MONOTONIC, &ts);
  return static_cast<std::int64_t>(ts.tv_sec) * 1'000'000'000 + ts.tv_nsec;
}

/// Exact nearest-rank percentile (p in (0, 100]); 0 when empty.
inline double percentile(std::vector<double> v, double p) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  auto rank = static_cast<std::size_t>(p / 100.0 * static_cast<double>(v.size()) + 0.999999);
  if (rank < 1) rank = 1;
  if (rank > v.size()) rank = v.size();
  return v[rank - 1];
}

/// Linear-interpolated quantile (q in [0, 1]) of a small sample; 0 when
/// empty.
inline double quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const auto i = static_cast<std::size_t>(pos);
  if (i + 1 >= v.size()) return v.back();
  return v[i] + (pos - static_cast<double>(i)) * (v[i + 1] - v[i]);
}

inline double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

}  // namespace pipebench
