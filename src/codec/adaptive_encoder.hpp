// AdaptiveEncoder: the paper's Section 5.2 application, end to end.
//
// "x264 registers a heartbeat after every frame and checks its heart rate
// every 40 frames. When the application checks its heart rate, it looks to
// see if the average over the last forty frames was less than 30 beats per
// second ... If the heart rate is less than the target, the application
// adjusts its encoding algorithms to get more performance while possibly
// sacrificing the quality of the encoded image."
//
// This class wires the Encoder, the preset ladder, a Controller, and a real
// hb::core::Heartbeat into that loop. The same object (with adaptation
// disabled) is the paper's "unmodified x264" baseline, and (with a fault
// plan shrinking the host's cores) the Section 5.4 fault-tolerance subject.
#pragma once

#include <cstdint>
#include <functional>
#include <limits>
#include <memory>
#include <string>

#include "codec/encoder.hpp"
#include "codec/presets.hpp"
#include "control/step_controller.hpp"
#include "core/heartbeat.hpp"

namespace hb::codec {

struct AdaptiveEncoderOptions {
  /// Target heart rate: the paper's loop is one-sided (only "too slow"
  /// triggers adaptation), so max defaults to +infinity. Set a finite max
  /// to let the encoder *recover* quality when it overshoots (an extension
  /// the paper mentions implicitly by settling above 35).
  double target_min_fps = 30.0;
  double target_max_fps = std::numeric_limits<double>::infinity();
  /// Check the heart rate every this many frames (paper: 40).
  int check_every_frames = 40;
  /// Rate window in beats (paper: the same 40 frames).
  std::uint32_t window = 40;
  /// Starting rung on the preset ladder (0 = most demanding).
  int initial_level = 0;
  /// Master switch: false reproduces the unmodified baseline.
  bool adapt = true;
  /// Heartbeat channel name.
  std::string name = "x264";
};

class AdaptiveEncoder {
 public:
  /// `work_model` is invoked with each frame's work units *before* the
  /// heartbeat is registered; it should advance the heartbeat clock by the
  /// frame's (simulated or real) duration — see codec/host.hpp.
  using WorkModel = std::function<void(std::uint64_t work_units)>;

  AdaptiveEncoder(int width, int height, AdaptiveEncoderOptions opts,
                  std::shared_ptr<util::Clock> clock, WorkModel work_model);

  /// Encode one frame: encode, account work, beat, maybe adapt.
  FrameStats encode(const Frame& src);

  core::Heartbeat& heartbeat() { return hb_; }
  const Encoder& encoder() const { return encoder_; }
  int level() const { return ladder_.level(); }
  const std::string& level_name() const { return ladder_.current_name(); }
  int adaptations() const { return adaptations_; }
  double last_checked_rate() const { return last_checked_rate_; }

 private:
  void maybe_adapt();

  AdaptiveEncoderOptions opts_;
  WorkModel work_model_;
  core::Heartbeat hb_;
  Encoder encoder_;
  PresetLadder ladder_;
  /// The paper's single step per out-of-band check: patience 1, no
  /// cooldown (StepControllerOptions' defaults).
  control::StepController controller_;
  int frames_since_check_ = 0;
  int adaptations_ = 0;
  double last_checked_rate_ = 0.0;
};

}  // namespace hb::codec
