// Concurrency regression tests for the annotated locking primitives
// (src/core/mutex.h). These are the tests the tsan preset exists for:
// every assertion also doubles as a data-race probe — ThreadSanitizer sees
// the raw interleavings, and on Clang builds the thread-safety annotations
// prove the lock discipline at compile time.

#include <atomic>
#include <cstdint>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "src/core/mutex.h"

namespace adpa {
namespace {

TEST(MutexTest, TryLockReflectsOwnership) {
  Mutex mu;
  mu.Lock();
  std::atomic<bool> contended_try{true};
  std::thread other([&] { contended_try = mu.TryLock(); });
  other.join();
  EXPECT_FALSE(contended_try.load());
  mu.Unlock();
  EXPECT_TRUE(mu.TryLock());
  mu.Unlock();
}

TEST(MutexTest, MutexLockSerializesIncrements) {
  constexpr int kThreads = 8;
  constexpr int kPerThread = 10000;
  Mutex mu;
  int64_t counter = 0;  // guarded by mu (locally scoped, so no annotation)
  std::vector<std::thread> workers;
  for (int t = 0; t < kThreads; ++t) {
    workers.emplace_back([&] {
      for (int i = 0; i < kPerThread; ++i) {
        MutexLock lock(&mu);
        ++counter;
      }
    });
  }
  for (auto& w : workers) w.join();
  MutexLock lock(&mu);
  EXPECT_EQ(counter, int64_t{kThreads} * kPerThread);
}

TEST(CondVarTest, PredicateLoopSurvivesNotifyAllWithManyWaiters) {
  constexpr int kWaiters = 6;
  Mutex mu;
  CondVar cv;
  int generation = 0;
  int observed = 0;
  std::vector<std::thread> waiters;
  for (int t = 0; t < kWaiters; ++t) {
    waiters.emplace_back([&] {
      MutexLock lock(&mu);
      while (generation == 0) cv.Wait(&mu);
      ++observed;
    });
  }
  {
    MutexLock lock(&mu);
    generation = 1;
  }
  cv.NotifyAll();
  for (auto& w : waiters) w.join();
  MutexLock lock(&mu);
  EXPECT_EQ(observed, kWaiters);
}

}  // namespace
}  // namespace adpa
