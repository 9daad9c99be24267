#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <future>
#include <thread>
#include <vector>

#include "common/concurrent_queue.hpp"
#include "common/thread_pool.hpp"

namespace laminar {
namespace {

TEST(ConcurrentQueue, FifoOrder) {
  ConcurrentQueue<int> q;
  q.Push(1);
  q.Push(2);
  q.Push(3);
  EXPECT_EQ(q.Pop().value(), 1);
  EXPECT_EQ(q.Pop().value(), 2);
  EXPECT_EQ(q.Pop().value(), 3);
}

TEST(ConcurrentQueue, CloseDrainsThenEnds) {
  ConcurrentQueue<int> q;
  q.Push(1);
  q.Close();
  EXPECT_EQ(q.Pop().value(), 1);
  EXPECT_FALSE(q.Pop().has_value());
  EXPECT_FALSE(q.Push(9));  // rejected after close
}

TEST(ConcurrentQueue, PopBlocksUntilPush) {
  ConcurrentQueue<int> q;
  std::thread producer([&] {
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
    q.Push(42);
  });
  EXPECT_EQ(q.Pop().value(), 42);  // must block, then wake
  producer.join();
}

TEST(ConcurrentQueue, PopForTimesOut) {
  ConcurrentQueue<int> q;
  auto v = q.PopFor(std::chrono::milliseconds(10));
  EXPECT_FALSE(v.has_value());
}

TEST(ConcurrentQueue, TryOpsNonBlocking) {
  ConcurrentQueue<int> q(/*capacity=*/1);
  EXPECT_FALSE(q.TryPop().has_value());
  EXPECT_TRUE(q.TryPush(1));
  EXPECT_FALSE(q.TryPush(2));  // full
  EXPECT_EQ(q.TryPop().value(), 1);
}

TEST(ConcurrentQueue, BoundedPushBlocksUntilSpace) {
  ConcurrentQueue<int> q(/*capacity=*/1);
  q.Push(1);
  std::atomic<bool> pushed{false};
  std::thread t([&] {
    q.Push(2);  // blocks until Pop
    pushed = true;
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  EXPECT_FALSE(pushed.load());
  EXPECT_EQ(q.Pop().value(), 1);
  t.join();
  EXPECT_TRUE(pushed.load());
  EXPECT_EQ(q.Pop().value(), 2);
}

TEST(ConcurrentQueue, MpmcStress) {
  ConcurrentQueue<int> q;
  constexpr int kProducers = 4, kItemsEach = 2000, kConsumers = 4;
  std::atomic<long long> sum{0};
  std::atomic<int> count{0};
  std::vector<std::thread> threads;
  for (int p = 0; p < kProducers; ++p) {
    threads.emplace_back([&, p] {
      for (int i = 0; i < kItemsEach; ++i) q.Push(p * kItemsEach + i);
    });
  }
  for (int c = 0; c < kConsumers; ++c) {
    threads.emplace_back([&] {
      while (auto v = q.Pop()) {
        sum += *v;
        ++count;
      }
    });
  }
  for (int p = 0; p < kProducers; ++p) threads[static_cast<size_t>(p)].join();
  q.Close();
  for (size_t c = kProducers; c < threads.size(); ++c) threads[c].join();
  long long n = kProducers * kItemsEach;
  EXPECT_EQ(count.load(), n);
  EXPECT_EQ(sum.load(), n * (n - 1) / 2);
}

TEST(ThreadPool, RunsAllTasks) {
  std::atomic<int> counter{0};
  {
    ThreadPool pool(4);
    for (int i = 0; i < 100; ++i) {
      pool.Submit([&counter] { counter.fetch_add(1); });
    }
    pool.Shutdown();
  }
  EXPECT_EQ(counter.load(), 100);
}

TEST(ThreadPool, ShutdownIdempotentAndRejectsNewWork) {
  ThreadPool pool(2);
  pool.Shutdown();
  pool.Shutdown();
  EXPECT_FALSE(pool.Submit([] {}));
}

TEST(ThreadPool, ParallelismActuallyHappens) {
  ThreadPool pool(4);
  std::atomic<int> concurrent{0};
  std::atomic<int> peak{0};
  for (int i = 0; i < 8; ++i) {
    pool.Submit([&] {
      int now = concurrent.fetch_add(1) + 1;
      int prev = peak.load();
      while (now > prev && !peak.compare_exchange_weak(prev, now)) {
      }
      std::this_thread::sleep_for(std::chrono::milliseconds(30));
      concurrent.fetch_sub(1);
    });
  }
  pool.Shutdown();
  EXPECT_GE(peak.load(), 2);
}

// Runs ParallelFor over n items and checks every index ran exactly once.
void ExpectEachIndexOnce(ThreadPool* pool, size_t n) {
  std::vector<std::atomic<int>> runs(n);
  ParallelFor(pool, n, [&](size_t i) { runs[i].fetch_add(1); });
  for (size_t i = 0; i < n; ++i) {
    ASSERT_EQ(runs[i].load(), 1) << "index " << i << " of " << n;
  }
}

TEST(ThreadPool, ParallelForRunsEveryIndexExactlyOnce) {
  ThreadPool pool(3);
  for (size_t n : {size_t{0}, size_t{1}, pool.size(), size_t{10000}}) {
    ExpectEachIndexOnce(&pool, n);
  }
}

TEST(ThreadPool, ParallelForCallerParticipates) {
  // The pool's only worker is parked until every index has run, so the
  // helper ParallelFor submits cannot start: the caller must run them all,
  // and ParallelFor must still wait for that helper before returning. The
  // park is bounded, so a ParallelFor that leaves the work to its helpers
  // fails here instead of hanging.
  ThreadPool pool(1);
  std::promise<void> release;
  std::shared_future<void> released = release.get_future().share();
  pool.Submit([released] { released.wait_for(std::chrono::seconds(10)); });
  const std::thread::id caller = std::this_thread::get_id();
  constexpr size_t kItems = 64;
  std::vector<std::thread::id> ran_on(kItems);
  std::atomic<size_t> done{0};
  ParallelFor(&pool, kItems, [&](size_t i) {
    ran_on[i] = std::this_thread::get_id();
    if (done.fetch_add(1) + 1 == kItems) release.set_value();
  });
  for (size_t i = 0; i < kItems; ++i) EXPECT_EQ(ran_on[i], caller) << i;
}

TEST(ThreadPool, ParallelForWithoutWorkersRunsSeriallyOnCaller) {
  // A null pool, an empty pool and a shut-down pool all degrade to a plain
  // loop on the calling thread, in index order, instead of deadlocking.
  ThreadPool empty(0);
  ThreadPool stopped(2);
  stopped.Shutdown();
  for (ThreadPool* pool : {static_cast<ThreadPool*>(nullptr), &empty,
                           &stopped}) {
    const std::thread::id caller = std::this_thread::get_id();
    std::vector<size_t> order;
    ParallelFor(pool, 100, [&](size_t i) {
      EXPECT_EQ(std::this_thread::get_id(), caller);
      order.push_back(i);
    });
    ASSERT_EQ(order.size(), 100u);
    for (size_t i = 0; i < order.size(); ++i) EXPECT_EQ(order[i], i);
  }
}

TEST(ThreadPool, ParallelForUnevenCostsAllComplete) {
  // Every 50th item sleeps, and so does every item a pool thread runs; the
  // caller's other items are trivial. The shared counter hands out indices
  // as threads free up, so all complete and each runs once, and since the
  // caller runs out of work first, ParallelFor must wait for the helpers.
  ThreadPool pool(3);
  constexpr size_t kItems = 2000;
  const std::thread::id caller = std::this_thread::get_id();
  std::vector<std::atomic<int>> runs(kItems);
  ParallelFor(&pool, kItems, [&](size_t i) {
    if (i % 50 == 0 || std::this_thread::get_id() != caller) {
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
    runs[i].fetch_add(1);
  });
  for (size_t i = 0; i < kItems; ++i) ASSERT_EQ(runs[i].load(), 1) << i;
}

TEST(ThreadPool, ParallelForConcurrentCallersShareOnePool) {
  // Bulk registrations from several connections share the server's one
  // ingest pool; each caller's loop must still see each index exactly once.
  ThreadPool pool(3);
  std::vector<std::thread> callers;
  for (int c = 0; c < 3; ++c) {
    callers.emplace_back([&] {
      for (int round = 0; round < 5; ++round) ExpectEachIndexOnce(&pool, 500);
    });
  }
  for (auto& t : callers) t.join();
}

}  // namespace
}  // namespace laminar
