// catalyst::sync with everything compiled out: CATALYST_SYNC_DISABLE_VALIDATOR
// selects the unchecked inline namespace (no lock-order hooks at all) and
// CATALYST_SYNC_NO_ANNOTATIONS strips the thread-safety attributes.  The
// wrappers must behave identically to the checked build -- same API, same
// locking semantics -- with order::this_thread_held() pinned at zero.
//
// This test deliberately links ONLY catalyst::sync and includes no other
// catalyst headers: library TUs are compiled with the checked namespace, so
// pulling in a class that embeds csync::Mutex (e.g. core/parallel.hpp's
// FirstError) under these defines would be an ODR violation.  Everything
// here is single-threaded for the same reason -- the point is API parity,
// not concurrency.
#include "sync/sync.hpp"

#include <gtest/gtest.h>

#include <chrono>

namespace csync = catalyst::sync;
namespace order = catalyst::sync::order;

namespace {

TEST(SyncNoValidateTest, LockGuardLocksAndUnlocks) {
  csync::Mutex m("novalidate.m");
  {
    const csync::LockGuard lock(m);
    EXPECT_FALSE(m.try_lock());  // really held
  }
  EXPECT_TRUE(m.try_lock());  // really released
  m.unlock();
}

TEST(SyncNoValidateTest, SharedMutexGuards) {
  csync::SharedMutex s("novalidate.s");
  {
    const csync::ReadLockGuard r1(s);
    s.lock_shared();  // readers share: a second shared hold must not block
    s.unlock_shared();
  }
  {
    const csync::WriteLockGuard w(s);
  }
  s.lock();  // exclusive hold available again once the guard released
  s.unlock();
  EXPECT_STREQ(s.name(), "novalidate.s");
}

TEST(SyncNoValidateTest, UniqueLockDeferAndRelock) {
  csync::Mutex m("novalidate.unique");
  csync::UniqueLock lock(m, std::defer_lock);
  EXPECT_FALSE(lock.owns_lock());
  lock.lock();
  EXPECT_TRUE(lock.owns_lock());
  lock.unlock();
  lock.lock();
  EXPECT_EQ(lock.mutex(), &m);
}

TEST(SyncNoValidateTest, CondVarWaitForWithTruePredicate) {
  csync::Mutex m("novalidate.cv");
  csync::CondVar cv;
  csync::UniqueLock lock(m);
  // Predicate already true: wait_for must return immediately with true.
  const bool ok =
      cv.wait_for(lock, std::chrono::milliseconds(1), [] { return true; });
  EXPECT_TRUE(ok);
  EXPECT_TRUE(lock.owns_lock());
}

// GUARDED_BY / EXCLUDES expand to nothing under CATALYST_SYNC_NO_ANNOTATIONS
// but the guarded-field pattern must still compile and behave the same.
class GuardedValue {
 public:
  void set(int v) CATALYST_EXCLUDES(mutex_) {
    const csync::LockGuard lock(mutex_);
    value_ = v;
  }
  int get() const CATALYST_EXCLUDES(mutex_) {
    const csync::LockGuard lock(mutex_);
    return value_;
  }

 private:
  mutable csync::Mutex mutex_{"novalidate.guarded"};
  int value_ CATALYST_GUARDED_BY(mutex_) = 0;
};

TEST(SyncNoValidateTest, GuardedFieldBehavesIdentically) {
  GuardedValue v;
  EXPECT_EQ(v.get(), 0);
  v.set(41);
  v.set(42);
  EXPECT_EQ(v.get(), 42);
}

TEST(SyncNoValidateTest, ValidatorHooksAreCompiledOut) {
  // Even with the order API force-enabled, the unchecked wrappers never call
  // the hooks: the held count stays zero through lock/unlock cycles.
  order::set_enabled(true);
  order::reset();
  csync::Mutex a("novalidate.hooks.a");
  csync::Mutex b("novalidate.hooks.b");
  {
    const csync::LockGuard ga(a);
    const csync::LockGuard gb(b);
    EXPECT_EQ(order::this_thread_held(), 0u);
  }
  {
    // No a -> b edge was recorded either: the inverted order, taken through
    // the hooks themselves, is no inversion to the validator and does not
    // abort.  (Inverting the real mutexes would trip TSan's own deadlock
    // detector instead.)
    order::on_acquire(&b, b.name());
    order::on_acquire(&a, a.name());
    EXPECT_EQ(order::this_thread_held(), 2u);
    order::on_release(&a);
    order::on_release(&b);
  }
  EXPECT_EQ(order::this_thread_held(), 0u);
  order::set_enabled(false);
  order::reset();
}

}  // namespace
