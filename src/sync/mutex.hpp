// catalyst/sync -- annotated synchronization primitives.
//
// Thin wrappers over the std primitives carrying Clang thread-safety
// capability annotations (sync/annotations.hpp) and runtime lock-order
// validation hooks (sync/lock_order.hpp).  These are the
// ONLY lock types allowed outside src/sync/ -- catalyst-lint's
// raw-sync-primitive rule fences raw std::mutex & friends -- so every lock
// in the tree is simultaneously:
//
//   * statically checked: fields tagged CATALYST_GUARDED_BY(mutex_) cannot
//     be touched without the lock under `check.sh thread_safety`;
//   * dynamically checked: acquisition order feeds the lock-order graph,
//     and an ABBA inversion aborts with both held-lock stacks.
//
// Naming: give process-wide or long-lived mutexes a construction-site label
// ("obs.metrics", "core.campaign.checkpoint_dirs"); the validator keys its
// order graph by that label, so the name IS the lock's identity in deadlock
// reports.  Short-lived per-call locks (merge accumulators) get one too --
// instances share a graph node, which is exactly right for order analysis.
#pragma once

#include <chrono>
#include <condition_variable>
#include <mutex>
#include <shared_mutex>

#include "sync/annotations.hpp"
#include "sync/lock_order.hpp"

namespace catalyst::sync {

/// Annotated exclusive mutex.  Non-recursive, non-copyable.
class CATALYST_CAPABILITY("mutex") Mutex {
 public:
  Mutex() noexcept = default;
  explicit Mutex(const char* name) noexcept : name_(name) {}
  Mutex(const Mutex&) = delete;
  Mutex& operator=(const Mutex&) = delete;

  void lock() CATALYST_ACQUIRE() {
    // Order validation runs BEFORE blocking: the inversion must be reported
    // by the thread about to deadlock, not discovered post-mortem.
    order::on_acquire(this, name_);
    m_.lock();
  }
  void unlock() CATALYST_RELEASE() {
    m_.unlock();
    order::on_release(this);
  }
  bool try_lock() CATALYST_TRY_ACQUIRE(true) {
    if (!m_.try_lock()) return false;
    order::on_try_acquire(this, name_);
    return true;
  }

  const char* name() const noexcept { return name_; }

 private:
  std::mutex m_;
  const char* name_ = "sync.Mutex";
};

/// Annotated reader/writer mutex.  The validator treats shared and
/// exclusive acquisition identically for ordering purposes: a reader
/// participating in an ABBA cycle deadlocks just as surely.
class CATALYST_CAPABILITY("shared_mutex") SharedMutex {
 public:
  SharedMutex() noexcept = default;
  explicit SharedMutex(const char* name) noexcept : name_(name) {}
  SharedMutex(const SharedMutex&) = delete;
  SharedMutex& operator=(const SharedMutex&) = delete;

  void lock() CATALYST_ACQUIRE() {
    order::on_acquire(this, name_);
    m_.lock();
  }
  void unlock() CATALYST_RELEASE() {
    m_.unlock();
    order::on_release(this);
  }
  void lock_shared() CATALYST_ACQUIRE_SHARED() {
    order::on_acquire(this, name_);
    m_.lock_shared();
  }
  void unlock_shared() CATALYST_RELEASE_SHARED() {
    m_.unlock_shared();
    order::on_release(this);
  }

  const char* name() const noexcept { return name_; }

 private:
  std::shared_mutex m_;
  const char* name_ = "sync.SharedMutex";
};

/// RAII exclusive guard (std::lock_guard shape).
class CATALYST_SCOPED_CAPABILITY LockGuard {
 public:
  explicit LockGuard(Mutex& m) CATALYST_ACQUIRE(m) : m_(m) { m_.lock(); }
  ~LockGuard() CATALYST_RELEASE() { m_.unlock(); }
  LockGuard(const LockGuard&) = delete;
  LockGuard& operator=(const LockGuard&) = delete;

 private:
  Mutex& m_;
};

/// RAII exclusive guard over a SharedMutex (the writer side).
class CATALYST_SCOPED_CAPABILITY WriteLockGuard {
 public:
  explicit WriteLockGuard(SharedMutex& m) CATALYST_ACQUIRE(m) : m_(m) {
    m_.lock();
  }
  ~WriteLockGuard() CATALYST_RELEASE() { m_.unlock(); }
  WriteLockGuard(const WriteLockGuard&) = delete;
  WriteLockGuard& operator=(const WriteLockGuard&) = delete;

 private:
  SharedMutex& m_;
};

/// RAII shared guard over a SharedMutex (the reader side).
class CATALYST_SCOPED_CAPABILITY ReadLockGuard {
 public:
  explicit ReadLockGuard(SharedMutex& m) CATALYST_ACQUIRE_SHARED(m) : m_(m) {
    m_.lock_shared();
  }
  ~ReadLockGuard() CATALYST_RELEASE_GENERIC() { m_.unlock_shared(); }
  ReadLockGuard(const ReadLockGuard&) = delete;
  ReadLockGuard& operator=(const ReadLockGuard&) = delete;

 private:
  SharedMutex& m_;
};

/// Relockable scoped guard (std::unique_lock shape); the lock type CondVar
/// waits on.  Unlike LockGuard it may be released and reacquired mid-scope.
class CATALYST_SCOPED_CAPABILITY UniqueLock {
 public:
  explicit UniqueLock(Mutex& m) CATALYST_ACQUIRE(m) : m_(&m), owns_(true) {
    m_->lock();
  }
  UniqueLock(Mutex& m, std::defer_lock_t) CATALYST_EXCLUDES(m)
      : m_(&m), owns_(false) {}
  ~UniqueLock() CATALYST_RELEASE() {
    if (owns_) m_->unlock();
  }
  UniqueLock(const UniqueLock&) = delete;
  UniqueLock& operator=(const UniqueLock&) = delete;

  void lock() CATALYST_ACQUIRE() {
    m_->lock();
    owns_ = true;
  }
  void unlock() CATALYST_RELEASE() {
    owns_ = false;
    m_->unlock();
  }
  bool owns_lock() const noexcept { return owns_; }
  Mutex* mutex() const noexcept { return m_; }

 private:
  Mutex* m_;
  bool owns_;
};

/// Condition variable over sync::Mutex (via UniqueLock).
///
/// Thread-safety analysis cannot model a wait's release-and-reacquire, so
/// wait() carries no capability annotation; the UniqueLock parameter makes
/// the holding requirement structural instead.  The lock-order validator
/// stays exact through waits: the wait releases through UniqueLock::unlock
/// (popping the held stack) and reacquires through UniqueLock::lock.
class CondVar {
 public:
  CondVar() = default;
  CondVar(const CondVar&) = delete;
  CondVar& operator=(const CondVar&) = delete;

  void notify_one() noexcept { cv_.notify_one(); }
  void notify_all() noexcept { cv_.notify_all(); }

  /// Caller must hold `lock` (it is released while blocked, reacquired
  /// before return).  Use the predicate overload: bare waits wake
  /// spuriously.
  void wait(UniqueLock& lock) { cv_.wait(lock); }
  template <typename Pred>
  void wait(UniqueLock& lock, Pred pred) {
    cv_.wait(lock, pred);
  }
  template <typename Rep, typename Period>
  std::cv_status wait_for(UniqueLock& lock,
                          const std::chrono::duration<Rep, Period>& d) {
    return cv_.wait_for(lock, d);
  }
  template <typename Rep, typename Period, typename Pred>
  bool wait_for(UniqueLock& lock, const std::chrono::duration<Rep, Period>& d,
                Pred pred) {
    return cv_.wait_for(lock, d, pred);
  }

 private:
  std::condition_variable_any cv_;
};

}  // namespace catalyst::sync
