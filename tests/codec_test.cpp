// Codec substrate unit tests: frames/PSNR, synthetic video, motion search,
// DCT/quantization, encoder behaviour, preset ladder properties.
#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <limits>

#include "codec/dct.hpp"
#include "codec/encoder.hpp"
#include "codec/frame.hpp"
#include "codec/host.hpp"
#include "codec/motion.hpp"
#include "codec/presets.hpp"
#include "codec/video_source.hpp"
#include "util/clock.hpp"
#include "util/rng.hpp"

namespace hb::codec {
namespace {

// ------------------------------------------------------------------ Frame

TEST(Frame, ConstructAndAccess) {
  Frame f(16, 8, 7);
  EXPECT_EQ(f.width(), 16);
  EXPECT_EQ(f.height(), 8);
  EXPECT_EQ(f.at(0, 0), 7);
  f.at(3, 2) = 100;
  EXPECT_EQ(f.at(3, 2), 100);
}

TEST(Frame, RejectsBadDimensions) {
  EXPECT_THROW(Frame(0, 8), std::invalid_argument);
  EXPECT_THROW(Frame(8, -1), std::invalid_argument);
}

TEST(Frame, ClampedAccessExtendsEdges) {
  Frame f(4, 4);
  f.at(0, 0) = 10;
  f.at(3, 3) = 20;
  EXPECT_EQ(f.at_clamped(-5, -5), 10);
  EXPECT_EQ(f.at_clamped(100, 100), 20);
}

TEST(Frame, QpelIntegerPositionsExact) {
  Frame f(4, 4);
  f.at(2, 1) = 123;
  EXPECT_EQ(f.sample_qpel(8, 4), 123);
}

TEST(Frame, QpelHalfwayInterpolates) {
  Frame f(4, 4, 0);
  f.at(0, 0) = 100;
  f.at(1, 0) = 200;
  // Halfway between (0,0) and (1,0): x4 = 2.
  EXPECT_EQ(f.sample_qpel(2, 0), 150);
  // Quarter of the way: 100*3/4 + 200/4 = 125.
  EXPECT_EQ(f.sample_qpel(1, 0), 125);
}

TEST(Psnr, IdenticalIsInfinite) {
  Frame a(8, 8, 50), b(8, 8, 50);
  EXPECT_TRUE(std::isinf(psnr(a, b)));
  EXPECT_DOUBLE_EQ(mse(a, b), 0.0);
}

TEST(Psnr, KnownValue) {
  Frame a(8, 8, 100), b(8, 8, 110);
  EXPECT_DOUBLE_EQ(mse(a, b), 100.0);
  EXPECT_NEAR(psnr(a, b), 10.0 * std::log10(255.0 * 255.0 / 100.0), 1e-12);
}

TEST(Psnr, MonotoneInError) {
  Frame ref(8, 8, 100);
  Frame small_err(8, 8, 102), big_err(8, 8, 130);
  EXPECT_GT(psnr(ref, small_err), psnr(ref, big_err));
}

// --------------------------------------------------------- SyntheticVideo

TEST(SyntheticVideo, Deterministic) {
  const auto spec = VideoSpec::demanding(10);
  SyntheticVideo a(spec), b(spec);
  const Frame fa = a.frame(5), fb = b.frame(5);
  ASSERT_EQ(fa.size(), fb.size());
  EXPECT_EQ(0, std::memcmp(fa.data(), fb.data(), fa.size()));
}

TEST(SyntheticVideo, ConsecutiveFramesCorrelated) {
  SyntheticVideo v(VideoSpec::demanding(10));
  const Frame f0 = v.frame(0), f1 = v.frame(1), f5 = v.frame(9);
  // Neighbour frames are much closer than distant ones.
  EXPECT_LT(mse(f0, f1), mse(f0, f5));
  // But not identical (there is motion and noise).
  EXPECT_GT(mse(f0, f1), 0.0);
}

TEST(SyntheticVideo, SceneCutDecorrelates) {
  VideoSpec spec;
  spec.width = 64;
  spec.height = 32;
  spec.segments = {{10, 1.0, 20.0, false}, {10, 1.0, 20.0, true}};
  SyntheticVideo v(spec);
  const double within = mse(v.frame(8), v.frame(9));
  const double across = mse(v.frame(9), v.frame(10));
  EXPECT_GT(across, 4.0 * within);
}

TEST(SyntheticVideo, SegmentLookup) {
  VideoSpec spec;
  spec.segments = {{10, 1, 1, false}, {20, 1, 1, false}, {5, 1, 1, false}};
  SyntheticVideo v(spec);
  EXPECT_EQ(v.segment_of(0), 0);
  EXPECT_EQ(v.segment_of(9), 0);
  EXPECT_EQ(v.segment_of(10), 1);
  EXPECT_EQ(v.segment_of(29), 1);
  EXPECT_EQ(v.segment_of(30), 2);
  EXPECT_EQ(v.total_frames(), 35);
}

TEST(SyntheticVideo, RequiresSegments) {
  VideoSpec spec;
  EXPECT_THROW(SyntheticVideo{spec}, std::invalid_argument);
}

// ------------------------------------------------------------------- DCT

TEST(Dct, RoundTripLosslessAtFineQuant) {
  util::Rng rng(3);
  ResidualBlock in;
  for (auto& v : in) {
    v = static_cast<std::int16_t>(rng.next_below(41)) - 20;
  }
  ResidualBlock out;
  transform_quantize_roundtrip(in, /*qstep=*/0.01, out);
  for (int i = 0; i < 64; ++i) EXPECT_EQ(in[i], out[i]) << "i=" << i;
}

TEST(Dct, DcOnlyBlock) {
  ResidualBlock in;
  in.fill(16);
  std::array<double, 64> coeffs;
  forward_dct(in, coeffs);
  // All energy in DC: 16 * 8 = 128 (orthonormal 2D scale is N).
  EXPECT_NEAR(coeffs[0], 128.0, 1e-9);
  for (int i = 1; i < 64; ++i) EXPECT_NEAR(coeffs[i], 0.0, 1e-9);
}

TEST(Dct, ParsevalEnergyPreserved) {
  util::Rng rng(5);
  ResidualBlock in;
  double energy_in = 0;
  for (auto& v : in) {
    v = static_cast<std::int16_t>(rng.next_below(101)) - 50;
    energy_in += static_cast<double>(v) * v;
  }
  std::array<double, 64> coeffs;
  forward_dct(in, coeffs);
  double energy_out = 0;
  for (const double c : coeffs) energy_out += c * c;
  EXPECT_NEAR(energy_out, energy_in, energy_in * 1e-9);
}

TEST(Dct, CoarserQuantMoreError) {
  util::Rng rng(7);
  ResidualBlock in;
  for (auto& v : in) {
    v = static_cast<std::int16_t>(rng.next_below(61)) - 30;
  }
  auto err_at = [&](double qstep) {
    ResidualBlock out;
    transform_quantize_roundtrip(in, qstep, out);
    double e = 0;
    for (int i = 0; i < 64; ++i) {
      const double d = in[i] - out[i];
      e += d * d;
    }
    return e;
  };
  EXPECT_LE(err_at(1.0), err_at(8.0));
  EXPECT_LE(err_at(8.0), err_at(32.0));
}

TEST(Dct, CoarserQuantFewerCoeffs) {
  util::Rng rng(9);
  ResidualBlock in;
  for (auto& v : in) {
    v = static_cast<std::int16_t>(rng.next_below(21)) - 10;
  }
  ResidualBlock out;
  const int fine = transform_quantize_roundtrip(in, 1.0, out);
  const int coarse = transform_quantize_roundtrip(in, 20.0, out);
  EXPECT_GT(fine, coarse);
}

TEST(Dct, QpToQstepDoublesEverySix) {
  EXPECT_NEAR(qp_to_qstep(6) / qp_to_qstep(0), 2.0, 1e-12);
  EXPECT_NEAR(qp_to_qstep(28) / qp_to_qstep(22), 2.0, 1e-12);
  EXPECT_DOUBLE_EQ(qp_to_qstep(-5), qp_to_qstep(0));
  EXPECT_DOUBLE_EQ(qp_to_qstep(99), qp_to_qstep(51));
}

// ---------------------------------------------------------------- motion

// Build a pair of frames where `cur` is `ref` translated by (dx, dy).
// Content is smooth and non-periodic (gradient + wide blob + mild noise) so
// the SAD surface is unimodal — the iterative searches (hexagon, diamond)
// are only expected to descend such surfaces; the periodic-texture trap is
// exactly why real encoders fall back to exhaustive search for hard content.
std::pair<Frame, Frame> translated_pair(int dx, int dy) {
  const int w = 64, h = 32;
  util::Rng rng(11);
  Frame ref(w, h);
  for (int y = 0; y < h; ++y) {
    for (int x = 0; x < w; ++x) {
      const double gx = x - w / 2.0, gy = y - h / 2.0;
      ref.at(x, y) = static_cast<std::uint8_t>(std::clamp(
          40.0 + 1.5 * x + 2.0 * y +
              90.0 * std::exp(-(gx * gx + gy * gy) / 300.0) +
              rng.normal(0, 1),
          0.0, 255.0));
    }
  }
  // The block at (bx, by) in `cur` matches (bx + dx, by + dy) in `ref`,
  // i.e. the expected motion vector is (+dx, +dy).
  Frame cur(w, h);
  for (int y = 0; y < h; ++y) {
    for (int x = 0; x < w; ++x) {
      cur.at(x, y) = ref.at_clamped(x + dx, y + dy);
    }
  }
  return {cur, ref};
}

TEST(Motion, SadZeroForPerfectMatch) {
  auto [cur, ref] = translated_pair(0, 0);
  EXPECT_EQ(block_sad(cur, ref, 16, 8, 16, 16, {0, 0}), 0u);
}

TEST(Motion, ExhaustiveFindsKnownTranslation) {
  auto [cur, ref] = translated_pair(3, -2);
  const auto res = estimate_motion(cur, ref, 32, 8, 16, 16,
                                   MotionSearch::kExhaustive, 8,
                                   SubpelLevel::kNone);
  EXPECT_EQ(res.mv.x4, 3 << 2);
  EXPECT_EQ(res.mv.y4, -2 << 2);
  EXPECT_EQ(res.sad, 0u);
  EXPECT_EQ(res.sad_evals, 17u * 17u);
}

// Blob-only content: the SAD surface is unimodal in the displacement, which
// is the precondition for greedy pattern searches to find the optimum.
// (Linear gradients alias under per-pixel absolute differences and periodic
// textures trap local searches — that weakness vs. exhaustive search is
// real x264 behaviour, not a bug here.)
std::pair<Frame, Frame> smooth_translated_pair(int dx, int dy) {
  const int w = 64, h = 32;
  Frame ref(w, h);
  for (int y = 0; y < h; ++y) {
    for (int x = 0; x < w; ++x) {
      const double gx = x - 36.0, gy = y - 14.0;
      ref.at(x, y) = static_cast<std::uint8_t>(
          100.0 + 120.0 * std::exp(-(gx * gx + gy * gy) / 200.0));
    }
  }
  Frame cur(w, h);
  for (int y = 0; y < h; ++y) {
    for (int x = 0; x < w; ++x) {
      cur.at(x, y) = ref.at_clamped(x + dx, y + dy);
    }
  }
  return {cur, ref};
}

TEST(Motion, HexagonFindsSmoothTranslation) {
  auto [cur, ref] = smooth_translated_pair(4, 2);
  const auto res = estimate_motion(cur, ref, 32, 8, 16, 16,
                                   MotionSearch::kHexagon, 8,
                                   SubpelLevel::kNone);
  EXPECT_EQ(res.mv.x4, 4 << 2);
  EXPECT_EQ(res.mv.y4, 2 << 2);
  EXPECT_EQ(res.sad, 0u);
}

TEST(Motion, DiamondFindsSmallTranslation) {
  auto [cur, ref] = smooth_translated_pair(2, 1);
  const auto res = estimate_motion(cur, ref, 32, 8, 16, 16,
                                   MotionSearch::kDiamond, 8,
                                   SubpelLevel::kNone);
  EXPECT_EQ(res.mv.x4, 2 << 2);
  EXPECT_EQ(res.mv.y4, 1 << 2);
  EXPECT_EQ(res.sad, 0u);
}

TEST(Motion, CostOrderingExhaustiveHexDiamond) {
  auto [cur, ref] = translated_pair(3, 1);
  const auto esa = estimate_motion(cur, ref, 32, 8, 16, 16,
                                   MotionSearch::kExhaustive, 8,
                                   SubpelLevel::kNone);
  const auto hex = estimate_motion(cur, ref, 32, 8, 16, 16,
                                   MotionSearch::kHexagon, 8,
                                   SubpelLevel::kNone);
  const auto dia = estimate_motion(cur, ref, 32, 8, 16, 16,
                                   MotionSearch::kDiamond, 8,
                                   SubpelLevel::kNone);
  EXPECT_GT(esa.sad_evals, hex.sad_evals);
  EXPECT_GE(hex.sad_evals, dia.sad_evals);
}

TEST(Motion, SubpelRefinementNeverWorsens) {
  // Same search with/without subpel: subpel adds candidates, so the final
  // SAD can only improve or stay equal.
  SyntheticVideo v(VideoSpec::demanding(4));
  const Frame f0 = v.frame(0), f1 = v.frame(1);
  const auto full = estimate_motion(f1, f0, 16, 16, 16, 16,
                                    MotionSearch::kExhaustive, 6,
                                    SubpelLevel::kNone);
  const auto half = estimate_motion(f1, f0, 16, 16, 16, 16,
                                    MotionSearch::kExhaustive, 6,
                                    SubpelLevel::kHalf);
  const auto quarter = estimate_motion(f1, f0, 16, 16, 16, 16,
                                       MotionSearch::kExhaustive, 6,
                                       SubpelLevel::kQuarter);
  EXPECT_LE(half.sad, full.sad);
  EXPECT_LE(quarter.sad, half.sad);
  EXPECT_GT(half.sad_evals, full.sad_evals);
  EXPECT_GT(quarter.sad_evals, half.sad_evals);
}

TEST(Motion, EnumNames) {
  EXPECT_STREQ(to_string(MotionSearch::kExhaustive), "esa");
  EXPECT_STREQ(to_string(MotionSearch::kHexagon), "hex");
  EXPECT_STREQ(to_string(MotionSearch::kDiamond), "dia");
  EXPECT_STREQ(to_string(SubpelLevel::kNone), "fullpel");
  EXPECT_STREQ(to_string(SubpelLevel::kQuarter), "qpel");
}

// --------------------------------------------------------------- encoder

TEST(Encoder, RejectsBadDimensions) {
  EXPECT_THROW(Encoder(100, 64), std::invalid_argument);  // not /16
  EXPECT_THROW(Encoder(128, 0), std::invalid_argument);
}

TEST(Encoder, FirstFrameIsKeyframe) {
  SyntheticVideo v(VideoSpec::demanding(3, 64, 32));
  Encoder enc(64, 32);
  const auto s0 = enc.encode(v.frame(0));
  EXPECT_TRUE(s0.keyframe);
  const auto s1 = enc.encode(v.frame(1));
  EXPECT_FALSE(s1.keyframe);
  EXPECT_EQ(s0.frame_index, 0);
  EXPECT_EQ(s1.frame_index, 1);
}

TEST(Encoder, ReasonableReconstructionQuality) {
  SyntheticVideo v(VideoSpec::demanding(5, 64, 32));
  Encoder enc(64, 32);
  for (int i = 0; i < 5; ++i) {
    const auto s = enc.encode(v.frame(i));
    EXPECT_GT(s.psnr_db, 30.0) << "frame " << i;  // qp 23: good quality
    EXPECT_LT(s.psnr_db, 60.0);
  }
}

TEST(Encoder, SizeMismatchThrows) {
  Encoder enc(64, 32);
  EXPECT_THROW(enc.encode(Frame(32, 32)), std::invalid_argument);
}

TEST(Encoder, ResetRestartsWithKeyframe) {
  SyntheticVideo v(VideoSpec::demanding(3, 64, 32));
  Encoder enc(64, 32);
  enc.encode(v.frame(0));
  enc.encode(v.frame(1));
  enc.reset();
  EXPECT_EQ(enc.frames_encoded(), 0);
  EXPECT_TRUE(enc.encode(v.frame(2)).keyframe);
}

TEST(Encoder, Deterministic) {
  SyntheticVideo v(VideoSpec::demanding(4, 64, 32));
  auto run = [&] {
    Encoder enc(64, 32);
    std::uint64_t total_work = 0;
    double last_psnr = 0;
    for (int i = 0; i < 4; ++i) {
      const auto s = enc.encode(v.frame(i));
      total_work += s.work_units;
      last_psnr = s.psnr_db;
    }
    return std::pair{total_work, last_psnr};
  };
  EXPECT_EQ(run(), run());
}

TEST(Encoder, CoarserQpLowersPsnr) {
  SyntheticVideo v(VideoSpec::demanding(4, 64, 32));
  auto mean_psnr_at = [&](int qp) {
    EncoderConfig cfg;
    cfg.qp = qp;
    Encoder enc(64, 32, cfg);
    double acc = 0;
    for (int i = 0; i < 4; ++i) acc += enc.encode(v.frame(i)).psnr_db;
    return acc / 4;
  };
  EXPECT_GT(mean_psnr_at(20), mean_psnr_at(30));
  EXPECT_GT(mean_psnr_at(30), mean_psnr_at(40));
}

TEST(Encoder, MoreRefsNeverCheaper) {
  SyntheticVideo v(VideoSpec::demanding(4, 64, 32));
  auto work_at = [&](int refs) {
    EncoderConfig cfg;
    cfg.ref_frames = refs;
    Encoder enc(64, 32, cfg);
    std::uint64_t acc = 0;
    for (int i = 0; i < 4; ++i) acc += enc.encode(v.frame(i)).work_units;
    return acc;
  };
  EXPECT_GT(work_at(5), work_at(1));
}

TEST(Encoder, SubpartitionCostsMore) {
  SyntheticVideo v(VideoSpec::demanding(3, 64, 32));
  auto work_at = [&](bool part) {
    EncoderConfig cfg;
    cfg.subpartition = part;
    Encoder enc(64, 32, cfg);
    std::uint64_t acc = 0;
    for (int i = 0; i < 3; ++i) acc += enc.encode(v.frame(i)).work_units;
    return acc;
  };
  EXPECT_GT(work_at(true), work_at(false));
}

TEST(Encoder, ConfigClamped) {
  EncoderConfig cfg;
  cfg.ref_frames = 99;
  cfg.qp = 200;
  cfg.search_range = 0;
  Encoder enc(64, 32, cfg);
  EXPECT_EQ(enc.config().ref_frames, 5);
  EXPECT_EQ(enc.config().qp, 51);
  EXPECT_EQ(enc.config().search_range, 1);
}

TEST(Encoder, DescribeMentionsKnobs) {
  EncoderConfig cfg;
  const auto d = cfg.describe();
  EXPECT_NE(d.find("esa"), std::string::npos);
  EXPECT_NE(d.find("qp23"), std::string::npos);
  EXPECT_NE(d.find("ref5"), std::string::npos);
}

// ---------------------------------------------------------------- ladder

TEST(Presets, LadderHasDocumentedShape) {
  auto ladder = make_preset_ladder();
  EXPECT_EQ(ladder.size(), kPresetCount);
  // Rung 0 is the paper's demanding start configuration.
  const auto& top = ladder.rung(0).config;
  EXPECT_EQ(top.search, MotionSearch::kExhaustive);
  EXPECT_EQ(top.subpel, SubpelLevel::kQuarter);
  EXPECT_TRUE(top.subpartition);
  EXPECT_EQ(top.ref_frames, 5);
  // Last rung is the paper's landing zone: light diamond search, no
  // sub-partitions, less demanding subpel.
  const auto& bottom = ladder.rung(kPresetCount - 1).config;
  EXPECT_EQ(bottom.search, MotionSearch::kDiamond);
  EXPECT_FALSE(bottom.subpartition);
  EXPECT_EQ(bottom.ref_frames, 1);
}

TEST(Presets, QpNonDecreasingAlongLadder) {
  auto ladder = make_preset_ladder();
  for (int i = 1; i < ladder.size(); ++i) {
    EXPECT_GE(ladder.rung(i).config.qp, ladder.rung(i - 1).config.qp);
  }
}

TEST(Presets, WorkStrictlyShrinksAlongLadder) {
  // Encode the same clip at every rung: each faster rung must genuinely
  // cost less work (this is the property adaptation relies on). Six frames
  // are needed so the 5-reference rung actually has five references.
  SyntheticVideo v(VideoSpec::demanding(6, 64, 32));
  auto ladder = make_preset_ladder();
  std::uint64_t prev = std::numeric_limits<std::uint64_t>::max();
  for (int r = 0; r < ladder.size(); ++r) {
    Encoder enc(64, 32, ladder.rung(r).config);
    std::uint64_t work = 0;
    for (int i = 0; i < 6; ++i) work += enc.encode(v.frame(i)).work_units;
    EXPECT_LT(work, prev) << "rung " << r << " (" << ladder.rung(r).name
                          << ") not cheaper than rung " << r - 1;
    prev = work;
  }
}

TEST(Presets, QualityTrendsDownAlongLadder) {
  // PSNR should drop from the best rung to the fastest rung; intermediate
  // rungs may tie but the endpoints must be clearly ordered.
  SyntheticVideo v(VideoSpec::demanding(6, 64, 32));
  auto ladder = make_preset_ladder();
  auto mean_psnr = [&](int rung) {
    Encoder enc(64, 32, ladder.rung(rung).config);
    double acc = 0;
    for (int i = 0; i < 6; ++i) acc += enc.encode(v.frame(i)).psnr_db;
    return acc / 6;
  };
  const double best = mean_psnr(0);
  const double fastest = mean_psnr(kPresetCount - 1);
  EXPECT_GT(best, fastest);
  // The loss is in the "about a dB" regime the paper reports, not tens.
  EXPECT_LT(best - fastest, 10.0);
}

// ------------------------------------------------------------------ host

TEST(SimulatedHost, AdvancesClockByWorkOverThroughput) {
  auto clock = std::make_shared<util::ManualClock>();
  SimulatedHost host(clock, /*ups=*/1000.0, /*cores=*/1);
  const double sec = host.run(500);
  EXPECT_DOUBLE_EQ(sec, 0.5);
  EXPECT_EQ(clock->now(), util::from_seconds(0.5));
}

TEST(SimulatedHost, MoreCoresFaster) {
  auto clock = std::make_shared<util::ManualClock>();
  SimulatedHost host(clock, 1000.0, 1);
  const double t1 = host.run(1000);
  host.set_cores(8);
  const double t8 = host.run(1000);
  EXPECT_LT(t8, t1);
  EXPECT_NEAR(t1 / t8,
              sim::amdahl_speedup(8, SimulatedHost::kParallelFraction), 1e-9);
}

TEST(SimulatedHost, FailCoreDecrements) {
  auto clock = std::make_shared<util::ManualClock>();
  SimulatedHost host(clock, 1000.0, 2);
  EXPECT_EQ(host.fail_core(), 1);
  EXPECT_EQ(host.fail_core(), 0);
  EXPECT_EQ(host.fail_core(), 0);  // floor at zero
}

TEST(SimulatedHost, ZeroCoresStallsTime) {
  auto clock = std::make_shared<util::ManualClock>();
  SimulatedHost host(clock, 1000.0, 0);
  host.run(100);
  EXPECT_GT(clock->now(), 0);  // time passes, work does not complete faster
}

TEST(SimulatedHost, CalibrationHitsTargetFps) {
  const double ups =
      SimulatedHost::calibrate_rate(/*work=*/50000.0, /*fps=*/8.8,
                                    /*cores=*/8);
  auto clock = std::make_shared<util::ManualClock>();
  SimulatedHost host(clock, ups, 8);
  const double frame_time = host.run(50000);
  EXPECT_NEAR(1.0 / frame_time, 8.8, 1e-6);
}

TEST(SimulatedHost, RejectsBadInputs) {
  auto clock = std::make_shared<util::ManualClock>();
  EXPECT_THROW(SimulatedHost(clock, 0.0, 1), std::invalid_argument);
  EXPECT_THROW(SimulatedHost::calibrate_rate(0, 30, 8), std::invalid_argument);
}

}  // namespace
}  // namespace hb::codec
