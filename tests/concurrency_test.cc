// Concurrency regression tests for the annotated locking primitives
// (src/core/mutex.h) and the serving-path counters. These are the tests the
// tsan preset exists for: every assertion also doubles as a data-race probe
// — ThreadSanitizer sees the raw interleavings, and on Clang builds the
// thread-safety annotations prove the lock discipline at compile time.

#include <atomic>
#include <cstdint>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "src/core/mutex.h"
#include "src/serve/metrics.h"

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

// Satellite regression for the unguarded-counter audit: hammer every
// ServeMetrics recorder from concurrent threads while a reader snapshots
// mid-flight, then check the totals are exact. An unguarded counter read or
// write shows up here as a TSan race and (on Clang) as a -Wthread-safety
// error before the test even runs.
TEST(ServeMetricsConcurrencyTest, CountersStayExactUnderContention) {
  constexpr int kThreads = 8;
  constexpr int kPerThread = 2000;
  serve::ServeMetrics metrics;
  std::atomic<bool> stop{false};
  std::thread reader([&] {
    while (!stop.load()) {
      serve::MetricsSnapshot snap = metrics.Snapshot();
      // Monotone sanity while racing the writers.
      EXPECT_LE(snap.errors, snap.requests);
    }
  });
  std::vector<std::thread> writers;
  for (int t = 0; t < kThreads; ++t) {
    writers.emplace_back([&metrics, t] {
      for (int i = 0; i < kPerThread; ++i) {
        const bool ok = (i % 4) != 0;
        metrics.RecordRequest(/*latency_ms=*/1.0 + i % 7,
                              /*nodes_answered=*/3, ok);
        metrics.RecordBatch(/*coalesced_requests=*/2);
        metrics.RecordQueueDepth(/*depth=*/t * kPerThread + i);
        if (i % 5 == 0) metrics.RecordRejected();
        if (i % 6 == 0) metrics.RecordShed();
      }
    });
  }
  for (auto& w : writers) w.join();
  stop = true;
  reader.join();

  const serve::MetricsSnapshot snap = metrics.Snapshot();
  const uint64_t total = uint64_t{kThreads} * kPerThread;
  EXPECT_EQ(snap.requests, total);
  EXPECT_EQ(snap.errors, total / 4);
  EXPECT_EQ(snap.nodes, 3 * total);
  EXPECT_EQ(snap.batches, total);
  EXPECT_EQ(snap.rejected, kThreads * ((kPerThread + 4) / 5));
  EXPECT_EQ(snap.shed, kThreads * ((kPerThread + 5) / 6));
  EXPECT_EQ(snap.max_queue_depth, int64_t{kThreads} * kPerThread - 1);
  EXPECT_EQ(snap.mean_batch_requests, 2.0);
  EXPECT_GT(snap.mean_latency_ms, 0.0);
}

}  // namespace
}  // namespace adpa
