// PARSEC-like kernels: each computes its real algorithm (verified by
// algorithm-specific assertions), beats at the paper's Table 2 locations,
// and is deterministic.
#include <gtest/gtest.h>

#include <cmath>
#include <set>

#include "kernels/blackscholes.hpp"
#include "kernels/bodytrack.hpp"
#include "kernels/canneal.hpp"
#include "kernels/dedup.hpp"
#include "kernels/kernel.hpp"
#include "kernels/streamcluster.hpp"
#include "kernels/x264_kernel.hpp"

namespace hb::kernels {
namespace {

core::Heartbeat make_hb(const std::string& name) {
  core::HeartbeatOptions o;
  o.name = name;
  o.history_capacity = 1 << 16;
  return core::Heartbeat(o);
}

// ------------------------------------------------------------- registry

TEST(Registry, AllTenKernelsPresentInTable2Order) {
  const auto kernels = make_all_kernels(Scale::kSmall);
  ASSERT_EQ(kernels.size(), 10u);
  const char* expected[] = {"blackscholes", "bodytrack", "canneal",
                            "dedup",        "facesim",   "ferret",
                            "fluidanimate", "streamcluster", "swaptions",
                            "x264"};
  for (std::size_t i = 0; i < 10; ++i) {
    EXPECT_EQ(kernels[i]->name(), expected[i]);
  }
}

TEST(Registry, MakeKernelByName) {
  EXPECT_NE(make_kernel("canneal", Scale::kSmall), nullptr);
  EXPECT_EQ(make_kernel("not_a_benchmark", Scale::kSmall), nullptr);
}

TEST(Registry, HeartbeatLocationsMatchTable2) {
  const auto kernels = make_all_kernels(Scale::kSmall);
  EXPECT_EQ(kernels[0]->heartbeat_location(), "Every 25000 options");
  EXPECT_EQ(kernels[1]->heartbeat_location(), "Every frame");
  EXPECT_EQ(kernels[2]->heartbeat_location(), "Every 1875 moves");
  EXPECT_EQ(kernels[3]->heartbeat_location(), "Every \"chunk\"");
  EXPECT_EQ(kernels[8]->heartbeat_location(), "Every \"swaption\"");
}

// Every kernel beats and produces a reproducible checksum.
class AllKernels : public ::testing::TestWithParam<int> {};

TEST_P(AllKernels, RunsBeatsAndIsDeterministic) {
  const auto idx = static_cast<std::size_t>(GetParam());
  auto run_once = [&](double* checksum) {
    auto kernels = make_all_kernels(Scale::kSmall);
    auto hb = make_hb(kernels[idx]->name());
    kernels[idx]->run(hb);
    *checksum = kernels[idx]->checksum();
    return hb.global().count();
  };
  double c1 = 0, c2 = 0;
  const auto beats1 = run_once(&c1);
  const auto beats2 = run_once(&c2);
  EXPECT_GT(beats1, 0u) << "kernel produced no heartbeats";
  EXPECT_EQ(beats1, beats2);
  EXPECT_EQ(c1, c2) << "kernel not deterministic";
  EXPECT_TRUE(std::isfinite(c1));
}

INSTANTIATE_TEST_SUITE_P(Sweep, AllKernels, ::testing::Range(0, 10));

// ---------------------------------------------- algorithm-level checks

TEST(BlackScholesKernel, KnownPrice) {
  // Classic textbook value: S=100, K=100, r=5%, sigma=20%, T=1 -> ~10.4506.
  EXPECT_NEAR(black_scholes_call(100, 100, 0.05, 0.2, 1.0), 10.4506, 5e-4);
}

TEST(BlackScholesKernel, DeepInTheMoneyApproachesForward) {
  // S >> K: call ~ S - K*exp(-rT).
  const double c = black_scholes_call(500, 10, 0.03, 0.2, 1.0);
  EXPECT_NEAR(c, 500 - 10 * std::exp(-0.03), 1e-6);
}

TEST(BlackScholesKernel, DefaultBatchBeats) {
  BlackScholes bs(Scale::kSmall);  // 100k options, beat every 25k
  auto hb = make_hb("bs");
  bs.run(hb);
  EXPECT_EQ(hb.global().count(), 4u);
}

TEST(BodytrackKernel, TrackerActuallyTracks) {
  Bodytrack bt(Scale::kSmall);
  auto hb = make_hb("bt");
  bt.run(hb);
  // The target wanders over a ~10-unit range; a working filter stays well
  // under 1 unit of mean error.
  EXPECT_LT(bt.mean_error(), 1.0);
  EXPECT_GT(bt.mean_error(), 0.0);
}

TEST(CannealKernel, AnnealingReducesWirelength) {
  Canneal c(Scale::kSmall);
  auto hb = make_hb("canneal");
  c.run(hb);
  EXPECT_LT(c.final_cost(), c.initial_cost() * 0.9)
      << "annealing failed to improve placement";
}

TEST(CannealKernel, BeatsEvery1875Moves) {
  Canneal c(Scale::kSmall);  // 30000 moves
  auto hb = make_hb("canneal");
  c.run(hb);
  EXPECT_EQ(hb.global().count(), 30'000u / 1875u);
}

TEST(DedupKernel, FindsPlantedDuplicates) {
  Dedup d(Scale::kSmall);
  auto hb = make_hb("dedup");
  d.run(hb);
  EXPECT_GT(d.total_chunks(), 100u);
  // ~40% of blocks are repeats; the chunker must find a solid fraction.
  EXPECT_LT(d.dedup_ratio(), 0.9);
  EXPECT_GT(d.dedup_ratio(), 0.2);
  EXPECT_EQ(hb.global().count(), d.total_chunks());
}

TEST(StreamclusterKernel, OpensBoundedCenters) {
  Streamcluster sc(Scale::kSmall);
  auto hb = make_hb("sc");
  sc.run(hb);
  // 12 true clusters: the online algorithm opens more than 12 (it never
  // closes) but must not open a center per point.
  EXPECT_GE(sc.centers_opened(), 12u);
  EXPECT_LT(sc.centers_opened(), 4000u);
  EXPECT_GT(sc.total_cost(), 0.0);
}

TEST(X264Kernel, TagsDistinguishFrameTypes) {
  X264 x(Scale::kSmall);
  auto hb = make_hb("x264");
  x.run(hb);
  const auto history = hb.global().history(1 << 16);
  ASSERT_FALSE(history.empty());
  EXPECT_EQ(history.front().tag, 1u);  // first frame is I
  for (std::size_t i = 1; i < history.size(); ++i) {
    EXPECT_EQ(history[i].tag, 2u);  // rest are P
  }
  EXPECT_GT(x.mean_psnr(), 30.0);
}

// The paper's headline: adding heartbeats to a benchmark is one line in the
// main loop. Verify the beat count scales with work, not with wall time.
TEST(Kernels, BeatCountsScaleWithInput) {
  auto small = make_kernel("bodytrack", Scale::kSmall);
  auto native = make_kernel("bodytrack", Scale::kNative);
  auto hb_small = make_hb("s");
  auto hb_native = make_hb("n");
  small->run(hb_small);
  native->run(hb_native);
  EXPECT_GT(hb_native.global().count(), hb_small.global().count());
}

}  // namespace
}  // namespace hb::kernels
