#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <mutex>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "broker/broker.hpp"

namespace laminar::broker {
namespace {

TEST(Broker, ListPushPopFifo) {
  Broker b;
  EXPECT_EQ(b.RPush("q", "1"), 1u);
  EXPECT_EQ(b.RPush("q", "2"), 2u);
  EXPECT_EQ(b.LPop("q").value(), "1");
  EXPECT_EQ(b.LPop("q").value(), "2");
  EXPECT_FALSE(b.LPop("q").has_value());
  EXPECT_EQ(b.LLen("q"), 0u);
}

TEST(Broker, BlpopImmediateWhenAvailable) {
  Broker b;
  b.RPush("a", "x");
  auto hit = b.BLPop({"a", "b"}, std::chrono::milliseconds(10));
  ASSERT_TRUE(hit.has_value());
  EXPECT_EQ(hit->first, "a");
  EXPECT_EQ(hit->second, "x");
}

TEST(Broker, BlpopKeyPriorityOrder) {
  Broker b;
  b.RPush("second", "s");
  b.RPush("first", "f");
  auto hit = b.BLPop({"first", "second"}, std::chrono::milliseconds(10));
  ASSERT_TRUE(hit.has_value());
  EXPECT_EQ(hit->first, "first");  // first listed key wins, BLPOP semantics
}

TEST(Broker, BlpopTimesOut) {
  Broker b;
  auto hit = b.BLPop({"empty"}, std::chrono::milliseconds(20));
  EXPECT_FALSE(hit.has_value());
  EXPECT_GE(b.stats().blocked_pops, 1u);
}

TEST(Broker, BlpopWakesOnPush) {
  Broker b;
  std::thread producer([&] {
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
    b.RPush("q", "late");
  });
  auto hit = b.BLPop({"q"});  // wait forever
  producer.join();
  ASSERT_TRUE(hit.has_value());
  EXPECT_EQ(hit->second, "late");
}

TEST(Broker, BlpopConcurrentConsumersEachItemOnce) {
  Broker b;
  constexpr int kItems = 500;
  std::atomic<int> received{0};
  std::vector<std::thread> consumers;
  for (int c = 0; c < 4; ++c) {
    consumers.emplace_back([&] {
      while (true) {
        auto hit = b.BLPop({"work"}, std::chrono::milliseconds(50));
        if (!hit.has_value()) return;
        received.fetch_add(1);
      }
    });
  }
  for (int i = 0; i < kItems; ++i) b.RPush("work", std::to_string(i));
  for (auto& t : consumers) t.join();
  EXPECT_EQ(received.load(), kItems);
}

TEST(Broker, ShutdownWakesBlockedConsumers) {
  Broker b;
  std::atomic<bool> returned{false};
  std::thread consumer([&] {
    auto hit = b.BLPop({"never"});
    EXPECT_FALSE(hit.has_value());
    returned = true;
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  EXPECT_FALSE(returned.load());
  b.Shutdown();
  consumer.join();
  EXPECT_TRUE(returned.load());
}

TEST(Broker, TotalQueuedByPrefix) {
  Broker b;
  b.RPush("wf:1:q:0", "a");
  b.RPush("wf:1:q:1", "b");
  b.RPush("wf:2:q:0", "c");
  EXPECT_EQ(b.TotalQueued("wf:1:"), 2u);
  EXPECT_EQ(b.TotalQueued("wf:"), 3u);
  EXPECT_EQ(b.TotalQueued("nope"), 0u);
}

TEST(Broker, StatsCountOperations) {
  Broker b;
  b.RPush("q", "x");
  b.LPop("q");
  BrokerStats s = b.stats();
  EXPECT_EQ(s.pushes, 1u);
  EXPECT_EQ(s.pops, 1u);
}

TEST(Broker, DelPrefixRemovesAllKeyKinds) {
  Broker b;
  b.RPush("wf:1:q:0", "a");
  b.RPush("wf:1:q:1", "b");
  b.RPush("wf:2:q:0", "other-run");
  b.RPush("unrelated", "y");
  EXPECT_EQ(b.KeyCount("wf:1:"), 2u);
  EXPECT_EQ(b.DelPrefix("wf:1:"), 2u);
  EXPECT_EQ(b.KeyCount("wf:1:"), 0u);
  EXPECT_EQ(b.TotalQueued("wf:1:"), 0u);
  // Other runs and unrelated keys are untouched.
  EXPECT_EQ(b.KeyCount("wf:2:"), 1u);
  EXPECT_EQ(b.LLen("wf:2:q:0"), 1u);
  EXPECT_EQ(b.LLen("unrelated"), 1u);
}

// Losing a pop race to another consumer must not re-arm the full timeout:
// the deadline is absolute, so every BLPop returns within timeout + small
// scheduling slack even when other consumers keep winning.
TEST(Broker, BLPopTimeoutBoundedUnderContention) {
  Broker b;
  constexpr auto kTimeout = std::chrono::milliseconds(60);
  std::atomic<bool> stop{false};

  // A rival consumer on the same key wins every race: it blocks with no
  // timeout and is notified by the same pushes.
  std::vector<std::pair<std::string, std::string>> rival_got;
  std::thread rival([&] {
    while (auto item = b.BLPop({"contested"})) {
      rival_got.push_back(*item);
    }
  });
  // A pusher feeds items steadily so the waiters keep waking up.
  std::thread pusher([&] {
    while (!stop.load()) {
      b.RPush("contested", "item");
      std::this_thread::sleep_for(std::chrono::milliseconds(5));
    }
  });

  // The measured consumer asks for a 60 ms pop. Under the old re-arming
  // loop, every lost race restarted the clock and this could block for the
  // whole contention window; with an absolute deadline it returns (with or
  // without an item) within the timeout plus scheduling slack.
  auto start = std::chrono::steady_clock::now();
  (void)b.BLPop({"contested"}, kTimeout);
  auto elapsed = std::chrono::steady_clock::now() - start;
  EXPECT_LT(elapsed, kTimeout + std::chrono::milliseconds(500));

  stop.store(true);
  b.Shutdown();
  rival.join();
  pusher.join();
}

// With many short-timeout consumers racing for a trickle of items, every
// call completes within its own deadline bound.
TEST(Broker, BLPopManyConsumersAllReturnWithinBound) {
  Broker b;
  constexpr auto kTimeout = std::chrono::milliseconds(50);
  constexpr int kConsumers = 4;
  std::atomic<int> items_won{0};
  std::vector<std::thread> consumers;
  std::atomic<int64_t> worst_ms{0};
  for (int i = 0; i < kConsumers; ++i) {
    consumers.emplace_back([&] {
      for (int round = 0; round < 3; ++round) {
        auto start = std::chrono::steady_clock::now();
        auto item = b.BLPop({"drip"}, kTimeout);
        auto ms = std::chrono::duration_cast<std::chrono::milliseconds>(
                      std::chrono::steady_clock::now() - start)
                      .count();
        int64_t prev = worst_ms.load();
        while (ms > prev && !worst_ms.compare_exchange_weak(prev, ms)) {
        }
        if (item) items_won.fetch_add(1);
      }
    });
  }
  // One item per timeout window: most BLPop calls lose and must time out
  // on their own schedule.
  for (int i = 0; i < 3; ++i) {
    b.RPush("drip", std::to_string(i));
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
  }
  for (std::thread& t : consumers) t.join();
  EXPECT_EQ(items_won.load(), 3);
  EXPECT_LT(worst_ms.load(), 50 + 500);
}

// ---- Batched list ops (RPushMulti / BLPopUpTo) ----

TEST(Broker, RPushMultiAppendsInOrderAndReturnsLength) {
  Broker b;
  b.RPush("q", "head");
  std::vector<std::string> batch = {"a", "b", "c"};
  EXPECT_EQ(b.RPushMulti("q", std::move(batch)), 4u);
  // The source vector is emptied (moved out) but stays reusable.
  EXPECT_TRUE(batch.empty());
  EXPECT_EQ(b.LPop("q").value(), "head");
  EXPECT_EQ(b.LPop("q").value(), "a");
  EXPECT_EQ(b.LPop("q").value(), "b");
  EXPECT_EQ(b.LPop("q").value(), "c");
  EXPECT_FALSE(b.LPop("q").has_value());
}

TEST(Broker, RPushMultiEmptyVectorIsNoop) {
  Broker b;
  EXPECT_EQ(b.RPushMulti("q", {}), 0u);
  EXPECT_EQ(b.KeyCount("q"), 0u);
  EXPECT_EQ(b.LLen("q"), 0u);
}

TEST(Broker, BLPopUpToDrainsFirstNonEmptyKeyInKeyOrder) {
  Broker b;
  b.RPushMulti("second", {"x", "y"});
  b.RPushMulti("first", {"1", "2", "3", "4", "5"});
  // "first" precedes "second" in key order, so it is drained first even
  // though "second" was pushed earlier.
  auto batch = b.BLPopUpTo({"first", "second"}, 3);
  ASSERT_TRUE(batch.has_value());
  EXPECT_EQ(batch->first, "first");
  EXPECT_EQ(batch->second, (std::vector<std::string>{"1", "2", "3"}));
  // The remainder stays queued in order.
  EXPECT_EQ(b.LLen("first"), 2u);
  batch = b.BLPopUpTo({"first", "second"}, 10);
  ASSERT_TRUE(batch.has_value());
  EXPECT_EQ(batch->second, (std::vector<std::string>{"4", "5"}));
  batch = b.BLPopUpTo({"first", "second"}, 10);
  ASSERT_TRUE(batch.has_value());
  EXPECT_EQ(batch->first, "second");
  EXPECT_EQ(batch->second, (std::vector<std::string>{"x", "y"}));
}

TEST(Broker, BLPopUpToZeroMaxItemsMeansOne) {
  Broker b;
  b.RPushMulti("q", {"a", "b"});
  auto batch = b.BLPopUpTo({"q"}, 0);
  ASSERT_TRUE(batch.has_value());
  EXPECT_EQ(batch->second.size(), 1u);
  EXPECT_EQ(b.LLen("q"), 1u);
}

TEST(Broker, BLPopUpToTimesOutOnEmptyKeys) {
  Broker b;
  auto start = std::chrono::steady_clock::now();
  auto batch = b.BLPopUpTo({"empty"}, 8, std::chrono::milliseconds(30));
  EXPECT_FALSE(batch.has_value());
  EXPECT_GE(std::chrono::steady_clock::now() - start,
            std::chrono::milliseconds(25));
}

TEST(Broker, BLPopUpToWakesOnBatchPushAndDrainsIt) {
  Broker b;
  std::optional<std::pair<std::string, std::vector<std::string>>> got;
  std::thread consumer([&] {
    got = b.BLPopUpTo({"q"}, 8, std::chrono::milliseconds(2000));
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  b.RPushMulti("q", {"a", "b", "c"});
  consumer.join();
  ASSERT_TRUE(got.has_value());
  // One wake hands the whole pushed batch (it fits under max_items).
  EXPECT_EQ(got->second, (std::vector<std::string>{"a", "b", "c"}));
  EXPECT_EQ(b.LLen("q"), 0u);
}

TEST(Broker, StatsCountBatchedOpsAndScans) {
  Broker b;
  b.RPushMulti("wf:1:q:0", {"a", "b", "c"});
  (void)b.BLPopUpTo({"wf:1:q:0"}, 2);
  (void)b.KeyCount("wf:1:");
  BrokerStats s = b.stats();
  EXPECT_EQ(s.batch_pushes, 1u);
  EXPECT_EQ(s.batch_pops, 1u);
  EXPECT_EQ(s.pushes, 3u);
  EXPECT_EQ(s.pops, 2u);
  EXPECT_GE(s.keys_scanned, 1u);
}

// ---- Cancellation (Notify + cancel flag) ----

TEST(Broker, NotifyWithCancelFlagUnblocksPopPromptly) {
  Broker b;
  std::atomic<bool> cancel{false};
  std::optional<std::pair<std::string, std::string>> got;
  std::thread consumer([&] {
    got = b.BLPop({"q"}, std::chrono::milliseconds(5000), &cancel);
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  auto start = std::chrono::steady_clock::now();
  cancel.store(true);
  b.Notify();
  consumer.join();
  EXPECT_FALSE(got.has_value());
  EXPECT_LT(std::chrono::steady_clock::now() - start,
            std::chrono::milliseconds(1000));
  // Unlike Shutdown, the broker stays fully usable afterwards.
  EXPECT_FALSE(b.shut_down());
  b.RPush("q", "x");
  EXPECT_EQ(b.BLPop({"q"}).value().second, "x");
}

TEST(Broker, NotifyWithoutCancelIsSpuriousWake) {
  Broker b;
  std::optional<std::pair<std::string, std::string>> got;
  std::thread consumer(
      [&] { got = b.BLPop({"q"}, std::chrono::milliseconds(2000)); });
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  b.Notify();  // no cancel flag set: the consumer must keep waiting
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  b.RPush("q", "payload");
  consumer.join();
  ASSERT_TRUE(got.has_value());
  EXPECT_EQ(got->second, "payload");
}

// ---- Batch-op contention (run under LAMINAR_SANITIZE=thread via the
// `faults`-labelled broker_batch_contention_stress ctest node) ----

// Producers push unique items in batches while consumers drain with
// BLPopUpTo: every item must arrive exactly once, across both queues.
TEST(Broker, BatchOpsConcurrentProducersConsumersEachItemOnce) {
  Broker b;
  constexpr int kProducers = 4;
  constexpr int kConsumers = 4;
  constexpr int kBatches = 40;
  constexpr int kBatchSize = 16;
  constexpr int kTotal = kProducers * kBatches * kBatchSize;
  const std::vector<std::string> keys = {"q:0", "q:1"};

  std::atomic<int> consumed{0};
  std::mutex seen_mu;
  std::vector<std::string> seen;
  std::vector<std::thread> threads;
  for (int c = 0; c < kConsumers; ++c) {
    threads.emplace_back([&] {
      while (consumed.load(std::memory_order_acquire) < kTotal) {
        auto batch = b.BLPopUpTo(keys, 8, std::chrono::milliseconds(50));
        if (!batch.has_value()) continue;
        consumed.fetch_add(static_cast<int>(batch->second.size()),
                           std::memory_order_acq_rel);
        std::scoped_lock lock(seen_mu);
        for (std::string& item : batch->second) {
          seen.push_back(std::move(item));
        }
      }
    });
  }
  for (int p = 0; p < kProducers; ++p) {
    threads.emplace_back([&, p] {
      for (int i = 0; i < kBatches; ++i) {
        std::vector<std::string> batch;
        batch.reserve(kBatchSize);
        for (int j = 0; j < kBatchSize; ++j) {
          batch.push_back(std::to_string(p) + ":" +
                          std::to_string(i * kBatchSize + j));
        }
        b.RPushMulti(keys[static_cast<size_t>(i) % keys.size()],
                     std::move(batch));
      }
    });
  }
  for (std::thread& t : threads) t.join();

  EXPECT_EQ(seen.size(), static_cast<size_t>(kTotal));
  std::sort(seen.begin(), seen.end());
  EXPECT_EQ(std::adjacent_find(seen.begin(), seen.end()), seen.end())
      << "an item was delivered twice";
  EXPECT_EQ(b.LLen("q:0") + b.LLen("q:1"), 0u);
}

// Single-item and batched ops interleaved on the same keys: conservation
// still holds and per-key FIFO survives for a designated ordered key.
TEST(Broker, BatchOpsMixedSingleAndBatchedKeepPerKeyFifo) {
  Broker b;
  constexpr int kItems = 500;
  // One producer thread writes an ordered stream with a mix of RPush and
  // RPushMulti; one consumer reads with a mix of BLPop and BLPopUpTo.
  std::thread producer([&] {
    int next = 0;
    while (next < kItems) {
      if (next % 3 == 0 && next + 4 <= kItems) {
        std::vector<std::string> batch;
        for (int j = 0; j < 4; ++j) batch.push_back(std::to_string(next++));
        b.RPushMulti("ordered", std::move(batch));
      } else {
        b.RPush("ordered", std::to_string(next++));
      }
    }
  });
  std::vector<std::string> received;
  while (received.size() < kItems) {
    if (received.size() % 2 == 0) {
      auto batch =
          b.BLPopUpTo({"ordered"}, 8, std::chrono::milliseconds(1000));
      if (!batch.has_value()) break;
      for (std::string& item : batch->second) {
        received.push_back(std::move(item));
      }
    } else {
      auto item = b.BLPop({"ordered"}, std::chrono::milliseconds(1000));
      if (!item.has_value()) break;
      received.push_back(std::move(item->second));
    }
  }
  producer.join();
  ASSERT_EQ(received.size(), static_cast<size_t>(kItems));
  for (int i = 0; i < kItems; ++i) {
    EXPECT_EQ(received[static_cast<size_t>(i)], std::to_string(i));
  }
}

// ---- Keyspace sharding stress (TSan target: every op class hammered
// concurrently across many keys; run via broker_sharding_stress) ----

TEST(Broker, ShardingStressConcurrentMixedOpsAcrossKeys) {
  Broker b;
  constexpr int kThreads = 8;
  constexpr int kIters = 400;
  std::atomic<int> popped{0};
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      const std::string mine = "own:" + std::to_string(t) + ":";
      for (int i = 0; i < kIters; ++i) {
        b.RPush(mine + std::to_string(i % 16), std::to_string(i));
        b.RPush("q:" + std::to_string(i % 5), "item");
        if (b.LPop("q:" + std::to_string((i + 2) % 5)).has_value()) {
          popped.fetch_add(1, std::memory_order_relaxed);
        }
        if (i % 31 == 0) {
          (void)b.KeyCount("own:");
          (void)b.TotalQueued("q:");
          (void)b.LPop(mine + std::to_string((i + 7) % 16));
        }
        if (i % 97 == 0) b.DelPrefix(mine);
      }
    });
  }
  for (std::thread& t : threads) t.join();

  // Queue conservation: pushes - pops == what is left on the queues.
  size_t remaining = 0;
  for (int q = 0; q < 5; ++q) remaining += b.LLen("q:" + std::to_string(q));
  EXPECT_EQ(remaining,
            static_cast<size_t>(kThreads * kIters - popped.load()));
}

// ---- DelPrefix vs concurrent blocking pops (run-scope teardown, ISSUE 8;
// run under LAMINAR_SANITIZE=thread via broker_delprefix_churn_stress) ----

// A dynamic-mapping run ends with DelPrefix("t:<tenant>:wf:N:") while its
// workers may still sit in BLPopUpTo on those keys. Churn that teardown
// against producers and consumers: no tuple may be delivered twice, no
// tuple may "resurrect" after its prefix was deleted (delivered-then-
// deleted double accounting), the keyspace must end empty, and — via
// DebugWaiterCount — no blocked-pop waiter may leak past its call.
TEST(Broker, DelPrefixDuringBlockingPopsNeverResurrectsOrLeaks) {
  Broker b;
  constexpr int kRounds = 30;
  constexpr int kConsumers = 4;
  constexpr int kItemsPerRound = 64;
  const std::string prefix = "t:alice:wf:1:";
  const std::vector<std::string> keys = {prefix + "q:0", prefix + "q:1"};

  for (int round = 0; round < kRounds; ++round) {
    std::atomic<bool> stop{false};
    std::atomic<int> delivered{0};
    std::mutex seen_mu;
    std::vector<std::string> seen;

    std::vector<std::thread> consumers;
    for (int c = 0; c < kConsumers; ++c) {
      consumers.emplace_back([&] {
        while (!stop.load(std::memory_order_acquire)) {
          auto batch = b.BLPopUpTo(keys, 8, std::chrono::milliseconds(5),
                                   &stop);
          if (!batch.has_value()) continue;
          delivered.fetch_add(static_cast<int>(batch->second.size()),
                              std::memory_order_acq_rel);
          std::scoped_lock lock(seen_mu);
          for (std::string& item : batch->second) {
            seen.push_back(std::move(item));
          }
        }
      });
    }

    std::thread producer([&] {
      for (int i = 0; i < kItemsPerRound; ++i) {
        b.RPush(keys[static_cast<size_t>(i) % keys.size()],
                std::to_string(round) + ":" + std::to_string(i));
      }
    });
    producer.join();

    // Tear the run down while consumers are mid-pop: whatever DelPrefix
    // removes was, by linearizability, never handed to a consumer.
    size_t deleted_keys = b.DelPrefix(prefix);
    (void)deleted_keys;
    stop.store(true, std::memory_order_release);
    b.Notify();  // wake parked pops so they observe the stop flag
    for (std::thread& t : consumers) t.join();

    // Conservation per round: every delivered item is unique, and items
    // the teardown swallowed are simply gone — not delivered afterwards.
    std::sort(seen.begin(), seen.end());
    ASSERT_EQ(std::adjacent_find(seen.begin(), seen.end()), seen.end())
        << "an item was delivered twice in round " << round;
    ASSERT_LE(seen.size(), static_cast<size_t>(kItemsPerRound));
    ASSERT_EQ(b.KeyCount(prefix), 0u) << "keys survived teardown";
    ASSERT_EQ(b.DebugWaiterCount(), 0u)
        << "a blocking pop leaked its waiter registration in round " << round;
  }
}

}  // namespace
}  // namespace laminar::broker
