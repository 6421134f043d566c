// In-process BeatStore.
//
// The default backing store: a RingBuffer of records plus target/window
// metadata behind one mutex — any channel may have several producer
// threads or concurrent readers (the paper's Section 4 uses a mutex for
// exactly this).
#pragma once

#include "core/store.hpp"
#include "util/mutex.hpp"
#include "util/ring_buffer.hpp"
#include "util/thread_annotations.hpp"

namespace hb::core {

class MemoryStore final : public BeatStore {
 public:
  /// `capacity`: records retained.
  explicit MemoryStore(std::size_t capacity, std::uint32_t default_window = 20);

  std::uint64_t append(const HeartbeatRecord& rec) override;
  std::uint64_t count() const override;
  std::size_t capacity() const override { return capacity_; }
  std::vector<HeartbeatRecord> history(std::size_t n) const override;
  void set_target(TargetRate t) override;
  TargetRate target() const override;
  void set_default_window(std::uint32_t w) override;
  std::uint32_t default_window() const override;

 private:
  mutable util::Mutex mu_;
  /// buf_.capacity() never changes; cached so capacity() stays lock-free.
  const std::size_t capacity_;
  util::RingBuffer<HeartbeatRecord> buf_ HB_GUARDED_BY(mu_);
  TargetRate target_ HB_GUARDED_BY(mu_){0.0, 0.0};
  std::uint32_t default_window_ HB_GUARDED_BY(mu_);
};

}  // namespace hb::core
