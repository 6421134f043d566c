// hb::util::Mutex / MutexLock: std::mutex with thread-safety capabilities.
//
// libstdc++'s std::mutex and std::lock_guard carry no Clang thread-safety
// attributes, so a tree that locks through them gets nothing from
// -Wthread-safety. This shim is the standard fix (the Clang docs' mutex.h
// pattern): a zero-overhead wrapper whose lock()/unlock() are annotated,
// plus the RAII guard every hot path uses. All mutex-guarded classes in
// src/ lock through these types; HB_GUARDED_BY / HB_REQUIRES contracts
// hang off them.
//
// The wrapper adds no state and no indirection: Mutex is layout-identical
// to std::mutex, MutexLock to std::lock_guard. Code that genuinely needs a
// std::unique_lock (condition variables, conditional locking) can reach
// the underlying std::mutex via native(), opting that call site out of the
// analysis — which is exactly the visibility the escape deserves.
#pragma once

#include <mutex>
#include <shared_mutex>

#include "util/thread_annotations.hpp"

namespace hb::util {

class HB_CAPABILITY("mutex") Mutex {
 public:
  Mutex() = default;
  Mutex(const Mutex&) = delete;
  Mutex& operator=(const Mutex&) = delete;

  void lock() HB_ACQUIRE() { mu_.lock(); }
  void unlock() HB_RELEASE() { mu_.unlock(); }
  bool try_lock() HB_TRY_ACQUIRE(true) { return mu_.try_lock(); }

  /// The wrapped std::mutex, for std::unique_lock / condition-variable
  /// call sites. Accesses synchronized through native() are invisible to
  /// the capability analysis — the caller owns the justification.
  std::mutex& native() { return mu_; }

 private:
  std::mutex mu_;
};

/// RAII lock for Mutex — the annotated std::lock_guard.
class HB_SCOPED_CAPABILITY MutexLock {
 public:
  explicit MutexLock(Mutex& mu) HB_ACQUIRE(mu) : mu_(mu) { mu_.lock(); }
  MutexLock(const MutexLock&) = delete;
  MutexLock& operator=(const MutexLock&) = delete;
  ~MutexLock() HB_RELEASE() { mu_.unlock(); }

 private:
  Mutex& mu_;
};

/// std::shared_mutex with capabilities: exclusive for writers, shared for
/// readers (core::Heartbeat's locals map is the one read-mostly user).
class HB_CAPABILITY("shared_mutex") SharedMutex {
 public:
  SharedMutex() = default;
  SharedMutex(const SharedMutex&) = delete;
  SharedMutex& operator=(const SharedMutex&) = delete;

  void lock() HB_ACQUIRE() { mu_.lock(); }
  void unlock() HB_RELEASE() { mu_.unlock(); }
  void lock_shared() HB_ACQUIRE_SHARED() { mu_.lock_shared(); }
  void unlock_shared() HB_RELEASE_SHARED() { mu_.unlock_shared(); }

 private:
  std::shared_mutex mu_;
};

/// RAII exclusive (writer) lock for SharedMutex.
class HB_SCOPED_CAPABILITY WriterMutexLock {
 public:
  explicit WriterMutexLock(SharedMutex& mu) HB_ACQUIRE(mu) : mu_(mu) {
    mu_.lock();
  }
  WriterMutexLock(const WriterMutexLock&) = delete;
  WriterMutexLock& operator=(const WriterMutexLock&) = delete;
  ~WriterMutexLock() HB_RELEASE() { mu_.unlock(); }

 private:
  SharedMutex& mu_;
};

/// RAII shared (reader) lock for SharedMutex. The destructor releases
/// generically, matching the shared acquisition (the Abseil pattern).
class HB_SCOPED_CAPABILITY ReaderMutexLock {
 public:
  explicit ReaderMutexLock(SharedMutex& mu) HB_ACQUIRE_SHARED(mu) : mu_(mu) {
    mu_.lock_shared();
  }
  ReaderMutexLock(const ReaderMutexLock&) = delete;
  ReaderMutexLock& operator=(const ReaderMutexLock&) = delete;
  ~ReaderMutexLock() HB_RELEASE_GENERIC() { mu_.unlock_shared(); }

 private:
  SharedMutex& mu_;
};

}  // namespace hb::util
