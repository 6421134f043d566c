// The seeded schedule generator: same seed -> byte-identical schedule,
// different seed -> a different one, and the shape each workload promises.
#include <gtest/gtest.h>

#include <map>
#include <set>

#include "schedule.hpp"

namespace pipebench {
namespace {

constexpr Workload kAll[] = {Workload::kFleetSteady, Workload::kFirehose,
                             Workload::kChurn};

TEST(Schedule, SameSeedSameHash) {
  for (const Workload w : kAll) {
    const Schedule a = make_schedule(w, 7, 10.0);
    const Schedule b = make_schedule(w, 7, 10.0);
    EXPECT_EQ(a.hash(), b.hash()) << workload_name(w);
  }
}

TEST(Schedule, DifferentSeedDifferentHash) {
  for (const Workload w : kAll) {
    std::set<std::uint64_t> hashes;
    for (std::uint64_t seed = 1; seed <= 8; ++seed) {
      hashes.insert(make_schedule(w, seed, 10.0).hash());
    }
    EXPECT_EQ(hashes.size(), 8u) << workload_name(w);
  }
}

TEST(Schedule, ParseWorkloadNames) {
  for (const Workload w : kAll) {
    Workload parsed{};
    ASSERT_TRUE(parse_workload(workload_name(w), &parsed));
    EXPECT_EQ(parsed, w);
  }
  Workload ignored{};
  EXPECT_FALSE(parse_workload("nope", &ignored));
}

TEST(Schedule, FleetSteadyShape) {
  const Schedule s = make_schedule(Workload::kFleetSteady, 3, 10.0);
  ASSERT_EQ(s.apps.size(), 4096u);
  EXPECT_TRUE(s.silences.empty());
  for (const AppPlan& a : s.apps) {
    EXPECT_GE(a.phase_ns, 0);
    EXPECT_LT(a.phase_ns, a.period_ns);
  }
}

TEST(Schedule, FirehoseShape) {
  const Schedule s = make_schedule(Workload::kFirehose, 3, 10.0);
  ASSERT_EQ(s.apps.size(), 32u);
  EXPECT_EQ(s.gen_threads, 2u);
  EXPECT_EQ(s.flush_every % 3, 0u);
  std::size_t per_thread[2] = {0, 0};
  for (const AppPlan& a : s.apps) {
    ++per_thread[a.thread];
    EXPECT_EQ(a.period_ns, s.apps[0].period_ns);
    EXPECT_LT(a.phase_ns, a.period_ns);
  }
  // The first eight constructed (the fast-lane holders) split 4 + 4.
  std::size_t lane_threads[2] = {0, 0};
  for (std::size_t i = 0; i < 8; ++i) ++lane_threads[s.apps[i].thread];
  EXPECT_EQ(lane_threads[0], 4u);
  EXPECT_EQ(per_thread[0], 16u);
  EXPECT_EQ(per_thread[1], 16u);
}

class ChurnWindow : public ::testing::TestWithParam<double> {};

TEST_P(ChurnWindow, EnoughDeathsAndValidSilences) {
  const Schedule s = make_schedule(Workload::kChurn, 11, GetParam());
  ASSERT_EQ(s.apps.size(), 1024u);
  EXPECT_GE(s.silences.size(), 1000u);
  const auto end_slot = static_cast<std::uint64_t>(s.stop_ns() / s.apps[0].period_ns);
  const auto warm_slot = static_cast<std::uint64_t>(s.warmup_ns / s.apps[0].period_ns);
  std::map<std::uint32_t, std::uint64_t> last_resume;
  std::size_t rack_wide = 0;
  for (const Silence& sil : s.silences) {
    EXPECT_GT(sil.first_slot, warm_slot);
    EXPECT_LT(sil.first_slot, sil.resume_slot);
    EXPECT_LE(sil.resume_slot + 20, end_slot);  // revived a second before stop
    auto it = last_resume.find(sil.app);
    if (it != last_resume.end()) {
      EXPECT_LT(it->second, sil.first_slot);
    }
    last_resume[sil.app] = sil.resume_slot;
    if (sil.group_wide) ++rack_wide;
  }
  EXPECT_EQ(rack_wide, 48u * 16u);
  // Rack members share one phase, away from tick boundaries.
  for (const AppPlan& a : s.apps) {
    EXPECT_EQ(a.phase_ns, s.apps[static_cast<std::size_t>(a.group) * 16].phase_ns);
    EXPECT_GE(a.phase_ns % s.tick_ns, 15 * hb::util::kNsPerMs);
    EXPECT_LT(a.phase_ns % s.tick_ns, 35 * hb::util::kNsPerMs);
  }
}

INSTANTIATE_TEST_SUITE_P(Seconds, ChurnWindow,
                         ::testing::Values(kChurnMinSeconds, 10.0, 30.0));

TEST(Schedule, ChurnRejectsShortWindows) {
  EXPECT_THROW(make_schedule(Workload::kChurn, 1, 4.0), std::invalid_argument);
}

TEST(EmitCursor, SkipsSilencedSlots) {
  Schedule s;
  s.apps.resize(2);
  s.apps[0].period_ns = 10;
  s.apps[1].period_ns = 10;
  s.silences = {{0, 2, 5, false}, {0, 7, 8, false}, {1, 0, 1, false}};
  EmitCursor c(&s, 0);
  std::vector<std::uint64_t> slots;
  for (int i = 0; i < 6; ++i) {
    slots.push_back(c.next_slot());
    c.advance();
  }
  EXPECT_EQ(slots, (std::vector<std::uint64_t>{0, 1, 5, 6, 8, 9}));
  EXPECT_EQ(c.emitted(), 6u);
  EmitCursor d(&s, 1);
  EXPECT_EQ(d.next_slot(), 1u);
}

}  // namespace
}  // namespace pipebench
