#include "broker/broker.hpp"

#include <algorithm>

#include "common/hashing.hpp"

namespace laminar::broker {
namespace {

telemetry::Counter& OpCounter(const char* op) {
  return telemetry::MetricsRegistry::Global().GetCounter(
      "laminar_broker_ops_total", std::string("op=\"") + op + "\"");
}

telemetry::Counter& BatchCounter(const char* name, const char* op) {
  return telemetry::MetricsRegistry::Global().GetCounter(
      name, std::string("op=\"") + op + "\"");
}

}  // namespace

Broker::Broker()
    : c_pushes_(OpCounter("push")),
      c_pops_(OpCounter("pop")),
      c_blocked_pops_(OpCounter("blocked_pop")),
      c_batch_push_ops_(
          BatchCounter("laminar_broker_batch_ops_total", "push_multi")),
      c_batch_push_items_(
          BatchCounter("laminar_broker_batch_items_total", "push_multi")),
      c_batch_pop_ops_(
          BatchCounter("laminar_broker_batch_ops_total", "pop_up_to")),
      c_batch_pop_items_(
          BatchCounter("laminar_broker_batch_items_total", "pop_up_to")),
      c_scan_keys_(telemetry::MetricsRegistry::Global().GetCounter(
          "laminar_broker_scan_keys_total")) {}

size_t Broker::ShardIndex(const std::string& key) {
  // splitmix finalizer decorrelates the structured "wf:N:q:i" key families
  // the dynamic mapping generates, so one run's queues spread over shards.
  return hashing::SplitMix64(hashing::Fnv1a64(key)) & (kShards - 1);
}

void Broker::SignalWatchersLocked(Shard& shard, const std::string& key,
                                  size_t max_waiters) {
  size_t signaled = 0;
  for (auto& [waiter, watched] : shard.waiters) {
    if (signaled >= max_waiters) break;
    bool watches = std::any_of(
        watched.begin(), watched.end(),
        [&](const std::string* k) { return *k == key; });
    if (!watches) continue;
    std::scoped_lock waiter_lock(waiter->mu);
    if (waiter->signaled) continue;  // already owes a wake; skip, keep count
    waiter->signaled = true;
    waiter->cv.notify_one();
    ++signaled;
  }
}

size_t Broker::DelPrefix(const std::string& prefix) {
  size_t removed = 0;
  uint64_t scanned = 0;
  for (Shard& shard : shards_) {
    std::scoped_lock lock(shard.mu);
    auto it = shard.lists.lower_bound(prefix);
    while (it != shard.lists.end()) {
      ++scanned;
      if (!it->first.starts_with(prefix)) break;  // sorted: no more matches
      it = shard.lists.erase(it);
      ++removed;
    }
  }
  stats_.keys_scanned.fetch_add(scanned, std::memory_order_relaxed);
  c_scan_keys_.Inc(scanned);
  return removed;
}

size_t Broker::KeyCount(const std::string& prefix) const {
  size_t count = 0;
  uint64_t scanned = 0;
  for (const Shard& shard : shards_) {
    std::scoped_lock lock(shard.mu);
    for (auto it = shard.lists.lower_bound(prefix); it != shard.lists.end();
         ++it) {
      ++scanned;
      if (!it->first.starts_with(prefix)) break;
      ++count;
    }
  }
  stats_.keys_scanned.fetch_add(scanned, std::memory_order_relaxed);
  c_scan_keys_.Inc(scanned);
  return count;
}

size_t Broker::RPush(const std::string& key, std::string&& value) {
  Shard& shard = ShardFor(key);
  size_t len;
  {
    std::scoped_lock lock(shard.mu);
    auto& list = shard.lists[key];
    list.push_back(std::move(value));
    len = list.size();
    SignalWatchersLocked(shard, key, 1);
  }
  stats_.pushes.fetch_add(1, std::memory_order_relaxed);
  c_pushes_.Inc();
  return len;
}

size_t Broker::RPush(const std::string& key, const std::string& value) {
  return RPush(key, std::string(value));
}

size_t Broker::RPushMulti(const std::string& key,
                          std::vector<std::string>&& values) {
  if (values.empty()) return LLen(key);
  const size_t n = values.size();
  Shard& shard = ShardFor(key);
  size_t len;
  {
    std::scoped_lock lock(shard.mu);
    auto& list = shard.lists[key];
    for (std::string& value : values) list.push_back(std::move(value));
    len = list.size();
    // One item can wake one consumer: signal at most n waiters.
    SignalWatchersLocked(shard, key, n);
  }
  values.clear();  // consumed; capacity retained for buffer reuse
  stats_.pushes.fetch_add(n, std::memory_order_relaxed);
  stats_.batch_pushes.fetch_add(1, std::memory_order_relaxed);
  c_pushes_.Inc(n);
  c_batch_push_ops_.Inc();
  c_batch_push_items_.Inc(n);
  return len;
}

std::optional<std::string> Broker::LPop(const std::string& key) {
  Shard& shard = ShardFor(key);
  std::scoped_lock lock(shard.mu);
  auto it = shard.lists.find(key);
  if (it == shard.lists.end() || it->second.empty()) return std::nullopt;
  std::string value = std::move(it->second.front());
  it->second.pop_front();
  stats_.pops.fetch_add(1, std::memory_order_relaxed);
  c_pops_.Inc();
  return value;
}

template <typename TryPop>
auto Broker::BlockingPop(const std::vector<std::string>& keys,
                         std::chrono::milliseconds timeout,
                         const std::atomic<bool>* cancel, TryPop&& try_pop)
    -> decltype(try_pop()) {
  if (auto hit = try_pop()) return hit;
  if (shutdown_.load(std::memory_order_acquire)) return {};
  if (cancel != nullptr && cancel->load(std::memory_order_acquire)) return {};
  stats_.blocked_pops.fetch_add(1, std::memory_order_relaxed);
  c_blocked_pops_.Inc();

  // Register one waiter entry per shard that covers a watched key; pushes
  // to those keys signal it. Ordering guarantee against lost wakeups: we
  // register first, then re-run try_pop in the loop — a push before
  // registration is found by that pop, a push after sets `signaled`.
  Waiter waiter;
  std::array<std::vector<const std::string*>, kShards> by_shard;
  for (const std::string& key : keys) {
    by_shard[ShardIndex(key)].push_back(&key);
  }
  std::array<bool, kShards> registered{};
  for (size_t s = 0; s < kShards; ++s) {
    if (by_shard[s].empty()) continue;
    std::scoped_lock lock(shards_[s].mu);
    shards_[s].waiters.emplace_back(&waiter, std::move(by_shard[s]));
    registered[s] = true;
  }

  // The deadline is absolute, computed once: losing a pop race to another
  // consumer must never re-arm the full timeout, so a 20 ms pop stays a
  // 20 ms pop no matter how contended the queue is.
  const auto deadline = std::chrono::steady_clock::now() + timeout;
  decltype(try_pop()) result{};
  while (true) {
    if ((result = try_pop())) break;
    if (shutdown_.load(std::memory_order_acquire)) break;
    if (cancel != nullptr && cancel->load(std::memory_order_acquire)) break;
    std::unique_lock wait_lock(waiter.mu);
    if (!waiter.signaled) {
      if (timeout.count() == 0) {
        waiter.cv.wait(wait_lock, [&] { return waiter.signaled; });
      } else if (!waiter.cv.wait_until(wait_lock, deadline,
                                       [&] { return waiter.signaled; })) {
        break;  // timed out
      }
    }
    waiter.signaled = false;
    // Loop: re-try the pop (a rival may have won the race) against the
    // same deadline.
  }

  for (size_t s = 0; s < kShards; ++s) {
    if (!registered[s]) continue;
    std::scoped_lock lock(shards_[s].mu);
    std::erase_if(shards_[s].waiters,
                  [&](const auto& entry) { return entry.first == &waiter; });
  }
  if (!result) {
    // A push may have handed its (single) wake to us in the instant we
    // timed out; if its item is still unclaimed, take it rather than
    // strand it until the next push.
    result = try_pop();
  }
  return result;
}

std::optional<std::pair<std::string, std::string>> Broker::BLPop(
    const std::vector<std::string>& keys, std::chrono::milliseconds timeout,
    const std::atomic<bool>* cancel) {
  auto try_pop = [&]() -> std::optional<std::pair<std::string, std::string>> {
    for (const std::string& key : keys) {
      Shard& shard = ShardFor(key);
      std::scoped_lock lock(shard.mu);
      auto it = shard.lists.find(key);
      if (it == shard.lists.end() || it->second.empty()) continue;
      std::string value = std::move(it->second.front());
      it->second.pop_front();
      stats_.pops.fetch_add(1, std::memory_order_relaxed);
      c_pops_.Inc();
      return std::make_pair(key, std::move(value));
    }
    return std::nullopt;
  };
  return BlockingPop(keys, timeout, cancel, try_pop);
}

std::optional<std::pair<std::string, std::vector<std::string>>>
Broker::BLPopUpTo(const std::vector<std::string>& keys, size_t max_items,
                  std::chrono::milliseconds timeout,
                  const std::atomic<bool>* cancel) {
  if (max_items == 0) max_items = 1;
  auto try_pop =
      [&]() -> std::optional<std::pair<std::string, std::vector<std::string>>> {
    for (const std::string& key : keys) {
      Shard& shard = ShardFor(key);
      std::scoped_lock lock(shard.mu);
      auto it = shard.lists.find(key);
      if (it == shard.lists.end() || it->second.empty()) continue;
      std::deque<std::string>& list = it->second;
      const size_t n = std::min(max_items, list.size());
      std::vector<std::string> items;
      items.reserve(n);
      for (size_t i = 0; i < n; ++i) {
        items.push_back(std::move(list.front()));
        list.pop_front();
      }
      stats_.pops.fetch_add(n, std::memory_order_relaxed);
      stats_.batch_pops.fetch_add(1, std::memory_order_relaxed);
      c_pops_.Inc(n);
      c_batch_pop_ops_.Inc();
      c_batch_pop_items_.Inc(n);
      return std::make_pair(key, std::move(items));
    }
    return std::nullopt;
  };
  return BlockingPop(keys, timeout, cancel, try_pop);
}

size_t Broker::LLen(const std::string& key) const {
  const Shard& shard = ShardFor(key);
  std::scoped_lock lock(shard.mu);
  auto it = shard.lists.find(key);
  return it == shard.lists.end() ? 0 : it->second.size();
}

size_t Broker::TotalQueued(const std::string& prefix) const {
  size_t total = 0;
  uint64_t scanned = 0;
  for (const Shard& shard : shards_) {
    std::scoped_lock lock(shard.mu);
    for (auto it = shard.lists.lower_bound(prefix); it != shard.lists.end();
         ++it) {
      ++scanned;
      if (!it->first.starts_with(prefix)) break;
      total += it->second.size();
    }
  }
  stats_.keys_scanned.fetch_add(scanned, std::memory_order_relaxed);
  c_scan_keys_.Inc(scanned);
  return total;
}

void Broker::Shutdown() {
  shutdown_.store(true, std::memory_order_release);
  Notify();
}

void Broker::Notify() {
  for (Shard& shard : shards_) {
    std::scoped_lock lock(shard.mu);
    for (auto& [waiter, watched] : shard.waiters) {
      std::scoped_lock waiter_lock(waiter->mu);
      waiter->signaled = true;
      waiter->cv.notify_one();
    }
  }
}

bool Broker::shut_down() const {
  return shutdown_.load(std::memory_order_acquire);
}

size_t Broker::DebugWaiterCount() const {
  size_t count = 0;
  for (const Shard& shard : shards_) {
    std::scoped_lock lock(shard.mu);
    count += shard.waiters.size();
  }
  return count;
}

BrokerStats Broker::stats() const {
  BrokerStats s;
  s.pushes = stats_.pushes.load(std::memory_order_relaxed);
  s.pops = stats_.pops.load(std::memory_order_relaxed);
  s.blocked_pops = stats_.blocked_pops.load(std::memory_order_relaxed);
  s.batch_pushes = stats_.batch_pushes.load(std::memory_order_relaxed);
  s.batch_pops = stats_.batch_pops.load(std::memory_order_relaxed);
  s.keys_scanned = stats_.keys_scanned.load(std::memory_order_relaxed);
  return s;
}

}  // namespace laminar::broker
