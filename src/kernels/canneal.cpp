#include "kernels/canneal.hpp"

#include <cmath>
#include <utility>
#include <vector>

#include "util/rng.hpp"

namespace hb::kernels {

Canneal::Canneal(Scale scale)
    : grid_(scale == Scale::kNative ? 64 : 24),
      moves_(scale == Scale::kNative ? 400'000 : 30'000) {}

void Canneal::run(core::Heartbeat& hb) {
  util::Rng rng(303);
  const int n = grid_ * grid_;
  // position[e] = slot index of element e; slot = y * grid + x.
  std::vector<int> position(static_cast<std::size_t>(n));
  for (int i = 0; i < n; ++i) position[static_cast<std::size_t>(i)] = i;
  // Random 2-pin nets (endpoints are elements).
  const int nets = n * 2;
  std::vector<std::pair<int, int>> net(static_cast<std::size_t>(nets));
  // nets_of[e]: nets touching element e (for incremental cost evaluation).
  std::vector<std::vector<int>> nets_of(static_cast<std::size_t>(n));
  for (int i = 0; i < nets; ++i) {
    const int a = static_cast<int>(rng.next_below(static_cast<std::uint64_t>(n)));
    int b = static_cast<int>(rng.next_below(static_cast<std::uint64_t>(n)));
    if (b == a) b = (a + 1) % n;
    net[static_cast<std::size_t>(i)] = {a, b};
    nets_of[static_cast<std::size_t>(a)].push_back(i);
    nets_of[static_cast<std::size_t>(b)].push_back(i);
  }

  auto wirelength = [&](int net_id) {
    const auto [a, b] = net[static_cast<std::size_t>(net_id)];
    const int pa = position[static_cast<std::size_t>(a)];
    const int pb = position[static_cast<std::size_t>(b)];
    const int ax = pa % grid_, ay = pa / grid_;
    const int bx = pb % grid_, by = pb / grid_;
    return std::abs(ax - bx) + std::abs(ay - by);  // Manhattan
  };

  double cost = 0.0;
  for (int i = 0; i < nets; ++i) cost += wirelength(i);
  initial_cost_ = cost;

  double temperature = 20.0;
  const double cooling = std::pow(0.05 / temperature,
                                  1.0 / static_cast<double>(moves_));
  for (std::uint64_t m = 0; m < moves_; ++m) {
    const int a = static_cast<int>(rng.next_below(static_cast<std::uint64_t>(n)));
    int b = static_cast<int>(rng.next_below(static_cast<std::uint64_t>(n)));
    if (b == a) b = (a + 1) % n;
    // Incremental delta: only nets touching a or b change.
    double before = 0.0;
    for (int net_id : nets_of[static_cast<std::size_t>(a)]) before += wirelength(net_id);
    for (int net_id : nets_of[static_cast<std::size_t>(b)]) before += wirelength(net_id);
    std::swap(position[static_cast<std::size_t>(a)],
              position[static_cast<std::size_t>(b)]);
    double after = 0.0;
    for (int net_id : nets_of[static_cast<std::size_t>(a)]) after += wirelength(net_id);
    for (int net_id : nets_of[static_cast<std::size_t>(b)]) after += wirelength(net_id);
    const double delta = after - before;
    const bool accept =
        delta <= 0.0 || rng.next_double() < std::exp(-delta / temperature);
    if (accept) {
      cost += delta;
    } else {
      std::swap(position[static_cast<std::size_t>(a)],
                position[static_cast<std::size_t>(b)]);  // undo
    }
    temperature *= cooling;
    if ((m + 1) % kBeatEvery == 0) hb.beat((m + 1) / kBeatEvery);
  }
  final_cost_ = cost;
  checksum_ = cost;
}

}  // namespace hb::kernels
