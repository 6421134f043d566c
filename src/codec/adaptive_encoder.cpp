#include "codec/adaptive_encoder.hpp"

namespace hb::codec {

namespace {

core::HeartbeatOptions hb_options(const AdaptiveEncoderOptions& opts,
                                  std::shared_ptr<util::Clock> clock) {
  core::HeartbeatOptions o;
  o.name = opts.name;
  o.default_window = opts.window;
  o.history_capacity = 4096;
  o.target_min_bps = opts.target_min_fps;
  o.target_max_bps = opts.target_max_fps;
  o.clock = std::move(clock);
  return o;
}

}  // namespace

AdaptiveEncoder::AdaptiveEncoder(int width, int height,
                                 AdaptiveEncoderOptions opts,
                                 std::shared_ptr<util::Clock> clock,
                                 WorkModel work_model)
    : opts_(opts),
      work_model_(std::move(work_model)),
      hb_(hb_options(opts_, std::move(clock))),
      encoder_(width, height),
      ladder_(make_preset_ladder()) {
  ladder_.set_level(opts_.initial_level < ladder_.size() ? opts_.initial_level
                                                         : 0);
  encoder_.set_config(ladder_.current());
}

FrameStats AdaptiveEncoder::encode(const Frame& src) {
  const FrameStats stats = encoder_.encode(src);
  if (work_model_) work_model_(stats.work_units);
  // Tag beats with the active preset level so an external observer can see
  // *which* configuration produced each beat (paper, Section 3: tags carry
  // application metadata).
  hb_.beat(static_cast<std::uint64_t>(ladder_.level()));
  if (opts_.adapt && ++frames_since_check_ >= opts_.check_every_frames) {
    frames_since_check_ = 0;
    maybe_adapt();
  }
  return stats;
}

void AdaptiveEncoder::maybe_adapt() {
  last_checked_rate_ = hb_.global().rate(opts_.window);
  const core::TargetRate target{opts_.target_min_fps, opts_.target_max_fps};
  if (ladder_.observe(controller_, last_checked_rate_, target)) {
    encoder_.set_config(ladder_.current());
    ++adaptations_;
  }
}

}  // namespace hb::codec
