// catalyst::sync tests: the annotated mutex wrappers and the runtime
// lock-order validator (src/sync).  The validator's contract under test:
//
//   * an ABBA inversion aborts, printing both held-lock stacks (death test);
//   * a consistent acquisition order is silent;
//   * try_lock records the hold but no order edges (opportunistic locking
//     cannot deadlock, so the reverse order stays legal);
//   * releases are tracked even after the validator is toggled off;
//   * reset() really forgets the order graph.
//
// Every test resets the process-wide graph and disables validation on exit
// so tests cannot contaminate each other (the graph is keyed by lock name;
// names here are namespaced per test anyway).
#include "sync/sync.hpp"

#include <gtest/gtest.h>

#include <cstddef>

#include "core/parallel.hpp"

namespace csync = catalyst::sync;
namespace order = catalyst::sync::order;

namespace {

class SyncTest : public ::testing::Test {
 protected:
  void SetUp() override {
    order::set_enabled(false);
    order::reset();
  }
  void TearDown() override {
    order::set_enabled(false);
    order::reset();
  }
};

TEST_F(SyncTest, InversionAborts) {
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  EXPECT_DEATH(
      {
        order::reset();
        order::set_enabled(true);
        csync::Mutex a("sync_test.death.a");
        csync::Mutex b("sync_test.death.b");
        {
          const csync::LockGuard ga(a);
          const csync::LockGuard gb(b);  // establishes a -> b
        }
        {
          const csync::LockGuard gb(b);
          const csync::LockGuard ga(a);  // b held while acquiring a: inversion
        }
      },
      "lock-order inversion");
}

TEST_F(SyncTest, ConsistentOrderIsSilent) {
  order::set_enabled(true);
  csync::Mutex a("sync_test.consistent.a");
  csync::Mutex b("sync_test.consistent.b");
  for (int i = 0; i < 3; ++i) {
    const csync::LockGuard ga(a);
    const csync::LockGuard gb(b);
  }
  EXPECT_EQ(order::this_thread_held(), 0u);
}

TEST_F(SyncTest, TryLockRecordsNoOrderEdges) {
  order::set_enabled(true);
  csync::Mutex a("sync_test.trylock.a");
  csync::Mutex b("sync_test.trylock.b");
  {
    const csync::LockGuard ga(a);
    ASSERT_TRUE(b.try_lock());  // hold recorded, but NO a -> b edge
    EXPECT_EQ(order::this_thread_held(), 2u);
    b.unlock();
  }
  {
    // The reverse blocking order must stay legal: had try_lock recorded an
    // edge, this would abort as an inversion.
    const csync::LockGuard gb(b);
    const csync::LockGuard ga(a);
  }
  EXPECT_EQ(order::this_thread_held(), 0u);
}

TEST_F(SyncTest, HeldCountTracksGuards) {
  order::set_enabled(true);
  EXPECT_EQ(order::this_thread_held(), 0u);
  csync::Mutex a("sync_test.held.a");
  csync::SharedMutex s("sync_test.held.s");
  {
    const csync::LockGuard ga(a);
    EXPECT_EQ(order::this_thread_held(), 1u);
    {
      const csync::ReadLockGuard rs(s);
      EXPECT_EQ(order::this_thread_held(), 2u);
    }
    EXPECT_EQ(order::this_thread_held(), 1u);
    {
      const csync::WriteLockGuard ws(s);
      EXPECT_EQ(order::this_thread_held(), 2u);
    }
    EXPECT_EQ(order::this_thread_held(), 1u);
  }
  EXPECT_EQ(order::this_thread_held(), 0u);
}

TEST_F(SyncTest, DisabledValidatorTracksNothing) {
  // set_enabled(false) in SetUp: acquisitions must not touch the stack, and
  // the unhooked release must be harmless.
  csync::Mutex a("sync_test.disabled.a");
  {
    const csync::LockGuard ga(a);
    EXPECT_EQ(order::this_thread_held(), 0u);
  }
  EXPECT_EQ(order::this_thread_held(), 0u);
}

TEST_F(SyncTest, ResetForgetsTheOrderGraph) {
  // Driven through the validator's hooks, which is all a guard does to it:
  // taking two real mutexes in both orders would be a lock-order inversion
  // to TSan's own deadlock detector.
  order::set_enabled(true);
  const int a = 0;
  const int b = 0;
  order::on_acquire(&a, "sync_test.reset.a");
  order::on_acquire(&b, "sync_test.reset.b");  // a -> b
  order::on_release(&b);
  order::on_release(&a);
  order::reset();
  // Without the reset this is the death-test inversion; after it the graph
  // is empty and the reverse order is a fresh commitment.
  order::on_acquire(&b, "sync_test.reset.b");
  order::on_acquire(&a, "sync_test.reset.a");
  EXPECT_EQ(order::this_thread_held(), 2u);
  order::on_release(&a);
  order::on_release(&b);
  EXPECT_EQ(order::this_thread_held(), 0u);
}

TEST_F(SyncTest, UniqueLockRelockAndOwnership) {
  order::set_enabled(true);
  csync::Mutex m("sync_test.unique.m");
  csync::UniqueLock lock(m, std::defer_lock);
  EXPECT_FALSE(lock.owns_lock());
  EXPECT_EQ(order::this_thread_held(), 0u);
  lock.lock();
  EXPECT_TRUE(lock.owns_lock());
  EXPECT_EQ(order::this_thread_held(), 1u);
  lock.unlock();
  EXPECT_FALSE(lock.owns_lock());
  EXPECT_EQ(order::this_thread_held(), 0u);
  lock.lock();  // destructor releases the reacquired lock
  EXPECT_EQ(lock.mutex(), &m);
}

TEST_F(SyncTest, MutexNames) {
  csync::Mutex named("sync_test.named");
  csync::Mutex anonymous;
  EXPECT_STREQ(named.name(), "sync_test.named");
  EXPECT_STREQ(anonymous.name(), "sync.Mutex");
}

// The annotated pattern every registry in the tree follows; counted from
// worker threads to show mutual exclusion (and, with the validator on, that
// cross-thread held stacks stay independent).
class GuardedCounter {
 public:
  void bump() CATALYST_EXCLUDES(mutex_) {
    const csync::LockGuard lock(mutex_);
    ++value_;
  }
  int value() const CATALYST_EXCLUDES(mutex_) {
    const csync::LockGuard lock(mutex_);
    return value_;
  }

 private:
  mutable csync::Mutex mutex_{"sync_test.guarded_counter"};
  int value_ CATALYST_GUARDED_BY(mutex_) = 0;
};

TEST_F(SyncTest, GuardedFieldUnderWorkerPool) {
  order::set_enabled(true);
  GuardedCounter counter;
  constexpr std::size_t kUnits = 200;
  catalyst::core::parallel_for(kUnits, 4,
                               [&](std::size_t) { counter.bump(); });
  EXPECT_EQ(counter.value(), static_cast<int>(kUnits));
  EXPECT_EQ(order::this_thread_held(), 0u);
}

TEST_F(SyncTest, CondVarHandsOffThroughUniqueLock) {
  order::set_enabled(true);
  csync::Mutex m("sync_test.cv.m");
  csync::CondVar cv;
  bool ready = false;
  int observed = -1;
  // Unit 0 produces, unit 1 consumes; parallel_for's cursor hands out unit
  // 0 first, so the consumer can never run on a pool whose producer unit
  // was dropped.  The wait releases/reacquires through UniqueLock, so the
  // validator's held stack stays exact across the block.
  catalyst::core::parallel_for(2, 2, [&](std::size_t unit) {
    if (unit == 0) {
      {
        const csync::LockGuard lock(m);
        ready = true;
      }
      cv.notify_one();
    } else {
      csync::UniqueLock lock(m);
      cv.wait(lock, [&] { return ready; });
      observed = 1;
    }
  });
  EXPECT_EQ(observed, 1);
  EXPECT_EQ(order::this_thread_held(), 0u);
}

}  // namespace
