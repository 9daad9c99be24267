// In-memory message broker modelling the subset of Redis that dispel4py's
// dynamic mapping uses: lists with blocking pop (BLPOP semantics), batched
// push/pop, and run-scoped prefix cleanup.
//
// Substitution rationale (DESIGN.md): the dynamic mapping needs atomic
// shared queues with blocking consumers; nothing it measures depends on
// the TCP hop, so an in-process broker with the same API preserves the
// scheduling behaviour while keeping benches deterministic.
//
// Concurrency model: the keyspace is sharded 16 ways by key hash, each
// shard with its own mutex, so operations on keys in different shards never
// contend. Every operation is linearizable per key (Redis itself serializes
// per command; per-key linearizability is what its clients can observe).
// Blocking pops register a per-consumer waiter with each shard covering a
// watched key; a push signals only waiters watching that key, so unrelated
// queues never cause wakeups. Batched ops (RPushMulti, BLPopUpTo) move many
// items under one lock acquisition and one signalling pass — the dynamic
// mapping's tuple micro-batching rides on them.
//
// Per-shard key maps are *sorted* (std::map), so prefix operations
// (DelPrefix, KeyCount, TotalQueued) seek straight to the first matching
// key and stop at the first non-match instead of scanning every key.
#pragma once

#include <array>
#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <map>
#include <mutex>
#include <optional>
#include <string>
#include <vector>

#include "telemetry/telemetry.hpp"

namespace laminar::broker {

/// Counters for the broker-ops micro bench and the autoscaler. Kept as a
/// cheap per-instance snapshot; the same increments are mirrored into the
/// process telemetry registry (laminar_broker_ops_total{op=...},
/// laminar_broker_batch_*, laminar_broker_scan_keys_total).
struct BrokerStats {
  uint64_t pushes = 0;  ///< items appended (RPush + RPushMulti items)
  uint64_t pops = 0;    ///< items removed (LPop/BLPop/BLPopUpTo items)
  uint64_t blocked_pops = 0;  ///< pops that had to wait
  uint64_t batch_pushes = 0;  ///< RPushMulti calls
  uint64_t batch_pops = 0;    ///< BLPopUpTo calls that returned items
  uint64_t keys_scanned = 0;  ///< keys examined by prefix scans
};

class Broker {
 public:
  Broker();
  Broker(const Broker&) = delete;
  Broker& operator=(const Broker&) = delete;

  // ---- lists / queues ----
  /// Appends to the tail; returns new length. The rvalue overload moves the
  /// value into the list (the tuple enqueue path hands its encoded item
  /// straight over, no copy).
  size_t RPush(const std::string& key, std::string&& value);
  size_t RPush(const std::string& key, const std::string& value);
  /// Appends all values (in order) under ONE lock acquisition and one
  /// waiter-signalling pass; returns the new length. Values are moved out
  /// of the vector (it is left empty, capacity retained, so send buffers
  /// can be reused).
  size_t RPushMulti(const std::string& key, std::vector<std::string>&& values);
  /// Pops the head without blocking.
  std::optional<std::string> LPop(const std::string& key);
  /// Blocking head pop across any of `keys` (first non-empty wins, in key
  /// order — BLPOP semantics). Returns (key, value); nullopt on timeout,
  /// shutdown, or when `cancel` (if given) becomes true and Notify() is
  /// called. timeout of zero means wait forever (until Shutdown/cancel).
  std::optional<std::pair<std::string, std::string>> BLPop(
      const std::vector<std::string>& keys,
      std::chrono::milliseconds timeout = std::chrono::milliseconds(0),
      const std::atomic<bool>* cancel = nullptr);
  /// Batched BLPop: drains up to `max_items` from the FIRST non-empty key
  /// (key order, as BLPop) in one wake / one lock acquisition, preserving
  /// FIFO order within that key. Returns (key, items); nullopt on timeout,
  /// shutdown, or cancellation. The deadline is absolute, as with BLPop.
  std::optional<std::pair<std::string, std::vector<std::string>>> BLPopUpTo(
      const std::vector<std::string>& keys, size_t max_items,
      std::chrono::milliseconds timeout = std::chrono::milliseconds(0),
      const std::atomic<bool>* cancel = nullptr);
  size_t LLen(const std::string& key) const;
  /// Total queued items across keys with the given prefix (autoscaler probe).
  size_t TotalQueued(const std::string& prefix) const;
  /// Deletes every key starting with `prefix`; returns the number of keys
  /// removed. Run-scoped cleanup: a dynamic-mapping run deletes all its
  /// `wf:N:` keys with one call, including undrained queues after a
  /// deadline expiry. Sorted per-shard iteration: cost is
  /// O(shards * log keys + matches), not O(total keys).
  size_t DelPrefix(const std::string& prefix);
  /// Number of live keys starting with `prefix`; leak checks assert this
  /// returns to its pre-run value.
  size_t KeyCount(const std::string& prefix) const;

  // ---- lifecycle / introspection ----
  /// Wakes every blocked consumer; subsequent BLPop calls return nullopt
  /// once their queues drain.
  void Shutdown();
  /// Spuriously wakes every blocked pop so it re-checks its cancel flag.
  /// Unlike Shutdown the broker stays fully usable: consumers whose flag is
  /// unset simply resume waiting against their original deadline. A
  /// dynamic-mapping run calls this when it stops, so idle workers return
  /// immediately instead of sleeping out their pop timeout.
  void Notify();
  bool shut_down() const;
  BrokerStats stats() const;
  /// Registered blocking-pop waiters across all shards (tests: a quiesced
  /// broker must report 0 — a leaked entry means a BLPop/BLPopUpTo exited
  /// without deregistering, which would dangle once its stack frame dies).
  size_t DebugWaiterCount() const;

 private:
  /// One blocked BLPop/BLPopUpTo call: its own mutex/condvar, signalled by
  /// pushes to watched keys (and by Shutdown). Stack-allocated by the
  /// blocking call and deregistered before it returns.
  struct Waiter {
    std::mutex mu;
    std::condition_variable cv;
    bool signaled = false;
  };

  /// One keyspace stripe: a sorted list map plus the waiters whose watched
  /// keys hash here. Cacheline-aligned so shard mutexes never false-share.
  struct alignas(64) Shard {
    mutable std::mutex mu;
    std::map<std::string, std::deque<std::string>> lists;
    /// (waiter, keys-in-this-shard it watches), registration order.
    std::vector<std::pair<Waiter*, std::vector<const std::string*>>> waiters;
  };

  /// All counters relaxed: snapshots need no cross-field consistency.
  struct AtomicStats {
    std::atomic<uint64_t> pushes{0};
    std::atomic<uint64_t> pops{0};
    std::atomic<uint64_t> blocked_pops{0};
    std::atomic<uint64_t> batch_pushes{0};
    std::atomic<uint64_t> batch_pops{0};
    std::atomic<uint64_t> keys_scanned{0};
  };

  static constexpr size_t kShards = 16;  // power of two; see ShardIndex
  static size_t ShardIndex(const std::string& key);
  Shard& ShardFor(const std::string& key) {
    return shards_[ShardIndex(key)];
  }
  const Shard& ShardFor(const std::string& key) const {
    return shards_[ShardIndex(key)];
  }

  /// Wakes up to `max_waiters` not-yet-signalled waiters watching `key`.
  /// Caller holds shard.mu, which also keeps every registered Waiter*
  /// alive (deregistration needs the same lock).
  static void SignalWatchersLocked(Shard& shard, const std::string& key,
                                   size_t max_waiters);

  /// Shared wait loop of BLPop/BLPopUpTo: fast-path try_pop, then register
  /// a waiter, then pop/wait against one absolute deadline.
  template <typename TryPop>
  auto BlockingPop(const std::vector<std::string>& keys,
                   std::chrono::milliseconds timeout,
                   const std::atomic<bool>* cancel, TryPop&& try_pop)
      -> decltype(try_pop());

  std::array<Shard, kShards> shards_;
  std::atomic<bool> shutdown_{false};

  mutable AtomicStats stats_;

  /// Process-wide op counters (shared across broker instances); resolved
  /// once at construction so increments are a single relaxed atomic add.
  telemetry::Counter& c_pushes_;
  telemetry::Counter& c_pops_;
  telemetry::Counter& c_blocked_pops_;
  telemetry::Counter& c_batch_push_ops_;
  telemetry::Counter& c_batch_push_items_;
  telemetry::Counter& c_batch_pop_ops_;
  telemetry::Counter& c_batch_pop_items_;
  telemetry::Counter& c_scan_keys_;
};

}  // namespace laminar::broker
