// Fixed-size worker pool: the server's ingest pool and bench_ingest. Tasks
// are type-erased closures; Shutdown() drains the queue, Cancel() discards
// pending work. ParallelFor() layers a blocking fork-join loop on top for
// data-parallel work: the prepares of /registry/bulk_register and
// SearchService::ReindexAll, which also rebuilds the indexes after WAL
// recovery.
#pragma once

#include <atomic>
#include <condition_variable>
#include <functional>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

#include "common/concurrent_queue.hpp"

namespace laminar {

class ThreadPool {
 public:
  explicit ThreadPool(size_t num_threads) {
    workers_.reserve(num_threads);
    for (size_t i = 0; i < num_threads; ++i) {
      workers_.emplace_back([this] {
        while (auto task = tasks_.Pop()) {
          (*task)();
        }
      });
    }
  }

  ~ThreadPool() { Shutdown(); }

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  /// Enqueues a task; returns false after shutdown.
  bool Submit(std::function<void()> task) {
    return tasks_.Push(std::move(task));
  }

  size_t size() const { return workers_.size(); }

  /// Stops accepting tasks, finishes queued ones, joins workers. Idempotent.
  void Shutdown() {
    tasks_.Close();
    for (auto& w : workers_) {
      if (w.joinable()) w.join();
    }
  }

 private:
  ConcurrentQueue<std::function<void()>> tasks_;
  std::vector<std::thread> workers_;
};

/// Blocking fork-join loop: runs fn(0) .. fn(n-1) across `pool` and the
/// calling thread, returning once every call has finished. Indices are
/// claimed from a shared atomic counter, so uneven per-item cost balances
/// automatically. The caller always participates (a pool of K workers gives
/// up to K+1-way parallelism), which also means a null/shut-down/empty pool
/// degrades to a plain serial loop instead of deadlocking. `fn` must not
/// throw — helpers run it on pool threads with nowhere to propagate.
inline void ParallelFor(ThreadPool* pool, size_t n,
                        const std::function<void(size_t)>& fn) {
  if (n == 0) return;
  const size_t helper_count =
      pool == nullptr ? 0 : std::min(pool->size(), n - 1);
  if (helper_count == 0) {
    for (size_t i = 0; i < n; ++i) fn(i);
    return;
  }
  struct State {
    std::atomic<size_t> next{0};
    std::atomic<size_t> helpers_live{0};
    std::mutex mu;
    std::condition_variable done;
  };
  auto state = std::make_shared<State>();
  auto drain = [state, n, &fn] {
    for (size_t i = state->next.fetch_add(1, std::memory_order_relaxed);
         i < n; i = state->next.fetch_add(1, std::memory_order_relaxed)) {
      fn(i);
    }
  };
  for (size_t h = 0; h < helper_count; ++h) {
    state->helpers_live.fetch_add(1, std::memory_order_relaxed);
    // `fn` outlives the join below, so helpers may reference it directly.
    bool accepted = pool->Submit([state, drain] {
      drain();
      {
        std::scoped_lock lock(state->mu);
        state->helpers_live.fetch_sub(1, std::memory_order_relaxed);
      }
      state->done.notify_one();
    });
    if (!accepted) {
      state->helpers_live.fetch_sub(1, std::memory_order_relaxed);
      break;  // pool shut down; the caller covers the remaining items
    }
  }
  drain();
  std::unique_lock lock(state->mu);
  state->done.wait(lock, [&] {
    return state->helpers_live.load(std::memory_order_relaxed) == 0;
  });
}

}  // namespace laminar
