// The scenario harness contract (ISSUE 8): every named drill is a pure
// function of (spec, config, seed) — same seed twice is byte-identical,
// different seeds genuinely diverge, the seed-42 event stream matches the
// committed golden file, and the spec's own invariants hold across seeds.
// These run under the plain, ASan, and TSan tiers alike; any wall-clock
// read or unordered iteration on the scenario path fails here first.
#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <cstdlib>
#include <fstream>
#include <sstream>
#include <string>

#include "sim/scenario.hpp"

#ifndef HB_TEST_DATA_DIR
#define HB_TEST_DATA_DIR "tests"
#endif

namespace hb::sim {
namespace {

std::string run_text(const ScenarioSpec& spec, std::uint64_t seed) {
  ScenarioRunner runner(spec, spec.correctness, seed);
  runner.run();
  return runner.log().canonical_text();
}

// Everything after the header line. The header names the scenario and seed,
// so two seeds trivially differ there; divergence must be BEHAVIORAL —
// different victims, different fault times, different event streams.
std::string body_after_header(const std::string& text) {
  const auto nl = text.find('\n');
  return nl == std::string::npos ? std::string() : text.substr(nl + 1);
}

// Report the first differing line instead of dumping two full streams.
void expect_same_stream(const std::string& name, const std::string& golden,
                        const std::string& got) {
  if (golden == got) return;
  std::istringstream w(golden), g(got);
  std::string wl, gl;
  int line = 1;
  while (true) {
    const bool more_w = static_cast<bool>(std::getline(w, wl));
    const bool more_g = static_cast<bool>(std::getline(g, gl));
    if (!more_w && !more_g) break;
    if (!more_w || !more_g || wl != gl) {
      ADD_FAILURE() << name << ": event stream diverges from golden at line "
                    << line << "\n  golden: " << (more_w ? wl : "<eof>")
                    << "\n  got:    " << (more_g ? gl : "<eof>")
                    << "\nIf the change is intended, regenerate with "
                       "HB_UPDATE_GOLDEN=1 and review the diff.";
      return;
    }
    ++line;
  }
  ADD_FAILURE() << name << ": streams differ (no per-line divergence?)";
}

TEST(ScenarioDeterminism, SameSeedReplaysByteIdentical) {
  for (const auto& spec : scenarios()) {
    ScenarioRunner a(spec, spec.correctness, /*seed=*/42);
    ScenarioRunner b(spec, spec.correctness, /*seed=*/42);
    const ScenarioResult& ra = a.run();
    const ScenarioResult& rb = b.run();
    EXPECT_EQ(a.log().canonical_text(), b.log().canonical_text())
        << spec.name;
    EXPECT_EQ(ra.log_hash, rb.log_hash) << spec.name;
    EXPECT_EQ(ra.facts, rb.facts) << spec.name;
  }
}

TEST(ScenarioDeterminism, DifferentSeedsDiverge) {
  for (const auto& spec : scenarios()) {
    const std::string a = body_after_header(run_text(spec, /*seed=*/1));
    const std::string b = body_after_header(run_text(spec, /*seed=*/2));
    EXPECT_NE(a, b) << spec.name
                    << ": seeds 1 and 2 produced identical behavior";
  }
}

TEST(ScenarioInvariants, EverySpecVerifiesAcrossSeeds) {
  for (const auto& spec : scenarios()) {
    for (const std::uint64_t seed : {1u, 2u, 3u, 7u, 42u}) {
      ScenarioRunner runner(spec, spec.correctness, seed);
      const ScenarioResult& res = runner.run();
      for (const auto& v : res.violations) {
        ADD_FAILURE() << spec.name << " seed " << seed << ": " << v;
      }
      EXPECT_EQ(res.steps,
                static_cast<std::uint64_t>(
                    llround(spec.correctness.duration_s / kStepS)))
          << spec.name;
      EXPECT_EQ(res.log_hash, runner.log().hash()) << spec.name;
    }
  }
}

TEST(ScenarioRegistry, LookupAndOrderAreStable) {
  const auto& all = scenarios();
  ASSERT_EQ(all.size(), 6u);
  EXPECT_EQ(all[0].name, "rack_kill");
  EXPECT_EQ(all[1].name, "rolling_restart");
  EXPECT_EQ(all[2].name, "flap_storm");
  EXPECT_EQ(all[3].name, "partition_heal");
  EXPECT_EQ(all[4].name, "thundering_herd");
  EXPECT_EQ(all[5].name, "slow_drift");
  for (const auto& spec : all) {
    EXPECT_EQ(find_scenario(spec.name), &spec);
    EXPECT_FALSE(spec.summary.empty()) << spec.name;
    EXPECT_LE(spec.correctness.apps(), 100) << spec.name;
    EXPECT_GE(spec.perf.apps(), 4000) << spec.name;
  }
  EXPECT_EQ(find_scenario("no_such_drill"), nullptr);
}

// The golden event streams: seed 42, correctness machines, committed under
// tests/golden/. Regenerate with HB_UPDATE_GOLDEN=1 (writes the source
// tree) and review the diff like any other code change.
TEST(ScenarioGolden, Seed42MatchesCommittedStream) {
  const std::string dir = std::string(HB_TEST_DATA_DIR) + "/golden/";
  for (const auto& spec : scenarios()) {
    const std::string path = dir + "scenario_" + spec.name + ".txt";
    const std::string got = run_text(spec, /*seed=*/42);
    if (std::getenv("HB_UPDATE_GOLDEN") != nullptr) {
      std::ofstream out(path, std::ios::binary);
      ASSERT_TRUE(out.good()) << "cannot write " << path;
      out << got;
      continue;
    }
    std::ifstream in(path, std::ios::binary);
    ASSERT_TRUE(in.good())
        << "missing golden file " << path
        << " — regenerate with HB_UPDATE_GOLDEN=1 ctest -R scenario";
    std::ostringstream want;
    want << in.rdbuf();
    expect_same_stream(spec.name, want.str(), got);
  }
}

}  // namespace
}  // namespace hb::sim
