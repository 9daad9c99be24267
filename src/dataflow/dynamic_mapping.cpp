#include "dataflow/dynamic_mapping.hpp"

#include <algorithm>
#include <atomic>
#include <charconv>
#include <condition_variable>
#include <deque>
#include <mutex>
#include <thread>
#include <unordered_map>

#include "common/clock.hpp"
#include "common/json.hpp"
#include "telemetry/telemetry.hpp"

namespace laminar::dataflow {
namespace {

std::atomic<uint64_t> g_run_counter{1};

/// Work-item wire format on the broker queues: `<port>\x1f<payload-json>`.
/// A framed header instead of a JSON object wrap, so a decode parses only
/// the payload — the wrap used to cost more than the broker ops it carried
/// (the Python implementation pays the same shape of tax pickling items
/// through Redis; here the data plane is the hot path we measure). The
/// separator is the ASCII unit separator, which port names never contain
/// and which JSON string payloads always escape. Integer payloads — the
/// overwhelmingly common stream tuple — skip the JSON parser both ways.
constexpr char kFrameSep = '\x1f';

void AppendPayload(std::string& out, const Value& value) {
  if (value.is_int()) {
    char buf[24];
    auto [end, ec] = std::to_chars(buf, buf + sizeof(buf), value.as_int(0));
    out.append(buf, end);
  } else {
    out += value.ToJson();
  }
}

std::string EncodeItem(std::string_view port, const Value& value) {
  std::string item;
  item.reserve(port.size() + 24);
  item.append(port);
  item.push_back(kFrameSep);
  AppendPayload(item, value);
  return item;
}

bool DecodeItem(const std::string& text, std::string& port, Value& value) {
  const size_t sep = text.find(kFrameSep);
  if (sep == std::string::npos) return false;
  port.assign(text, 0, sep);
  const std::string_view payload(text.data() + sep + 1,
                                 text.size() - sep - 1);
  if (!payload.empty()) {
    int64_t n = 0;
    auto [end, ec] =
        std::from_chars(payload.data(), payload.data() + payload.size(), n);
    if (ec == std::errc() && end == payload.data() + payload.size()) {
      value = Value(n);
      return true;
    }
  }
  Result<Value> parsed = json::Parse(payload);
  if (!parsed.ok()) return false;
  value = std::move(parsed).value();
  return true;
}

/// Dead-letter record: the quarantined work item plus why it failed.
std::string EncodeDlqItem(const std::string& item, const std::string& error) {
  Value obj = Value::MakeObject();
  obj["item"] = item;
  obj["error"] = error;
  return obj.ToJson();
}

struct SendBuffers;

struct RunState {
  const WorkflowGraph* graph = nullptr;
  int64_t deadline_us = 0;  ///< 0 = no limit
  std::atomic<bool> expired{false};
  broker::Broker* broker = nullptr;
  std::string prefix;        ///< run scope on the shared broker ("wf:N:")
  std::string queue_prefix;  ///< work queues ("wf:N:q:"; autoscaler probe)
  std::string dlq_key;       ///< dead-letter list ("wf:N:dlq")
  std::vector<std::string> queue_keys;  // per PE
  /// The same keys in pop order: reverse topological, so every PE's queue
  /// comes before the queues of all PEs upstream of it. The broker serves
  /// the first non-empty key, so a worker drains sinks before it pulls
  /// more producer work, and output streams while the run is young instead
  /// of waiting for the upstream queues to empty.
  std::vector<std::string> pop_keys;
  /// Queue key -> PE index, so batch routing is one hash lookup instead of
  /// a linear scan per popped item.
  std::unordered_map<std::string, size_t> queue_index;
  /// Outgoing routing precomputed per PE: each output port with its
  /// destinations, the destination's frame prefix ("<to_port>\x1f") already
  /// encoded. An emit walks a couple of entries instead of allocating an
  /// edge vector and scanning the whole edge list per tuple.
  struct Destination {
    size_t to_pe;
    std::string frame_prefix;
  };
  struct PortRoute {
    std::string port;
    std::vector<Destination> dests;
  };
  std::vector<std::vector<PortRoute>> routes;  // indexed by source PE
  std::atomic<int64_t> pending{0};
  std::atomic<bool> stop{false};
  std::atomic<uint64_t> tuples{0};
  SharedOutput* output = nullptr;
  FaultContext* faults = nullptr;
  /// Micro-batching knobs (clamped from RunOptions to at least 1).
  size_t send_batch = 1;
  size_t recv_batch = 1;
  int64_t send_max_age_us = 1000;
  telemetry::Counter* batched_tuples = nullptr;
  /// Shared single instances for stateful PEs (+ the finish pass).
  std::vector<std::unique_ptr<ProcessingElement>> shared_instances;
  std::vector<std::unique_ptr<std::mutex>> pe_mutexes;
  /// Send buffers for stateful PEs, one per shared instance, guarded by
  /// the matching pe_mutexes entry (nullptr for stateless PEs). Emissions
  /// are appended and flushed under that mutex, in processing order, so
  /// per-edge FIFO survives batching even for serialized PEs.
  std::vector<std::unique_ptr<SendBuffers>> shared_buffers;

  /// Wakes the drain waiter, the autoscaler, and every worker blocked in a
  /// broker pop the moment the run stops, instead of letting them sleep out
  /// their polling ticks (workers pass &stop as the pop's cancel flag).
  std::mutex stop_mu;
  std::condition_variable stop_cv;
  void RequestStop() {
    stop.store(true, std::memory_order_release);
    broker->Notify();
    std::scoped_lock lock(stop_mu);
    stop_cv.notify_all();
  }
};

/// Per-destination-PE tuple micro-batch buffers. One instance per worker
/// (stateless emissions, no locking) and one per stateful shared instance
/// (guarded by its pe mutex). A buffer flushes as one RPushMulti when it
/// reaches state.send_batch items, when its oldest item exceeds
/// state.send_max_age_us, or before the owning worker blocks on an empty
/// queue — so no tuple can be stranded in a buffer while consumers sleep.
struct SendBuffers {
  explicit SendBuffers(RunState& state)
      : state(state), per_dest(state.graph->NodeCount()) {}

  RunState& state;
  struct DestBuffer {
    std::vector<std::string> items;
    int64_t oldest_us = 0;
  };
  std::vector<DestBuffer> per_dest;
  /// Cheap emptiness probe so other workers can skip locking a stateful
  /// PE's buffers when there is nothing to flush.
  std::atomic<size_t> total{0};

  void Add(size_t dest_pe, std::string&& item) {
    DestBuffer& buf = per_dest[dest_pe];
    if (buf.items.empty()) buf.oldest_us = NowMicros();
    buf.items.push_back(std::move(item));
    total.fetch_add(1, std::memory_order_relaxed);
    if (buf.items.size() >= state.send_batch) Flush(dest_pe);
  }

  void Flush(size_t dest_pe) {
    DestBuffer& buf = per_dest[dest_pe];
    if (buf.items.empty()) return;
    const size_t n = buf.items.size();
    state.broker->RPushMulti(state.queue_keys[dest_pe], std::move(buf.items));
    total.fetch_sub(n, std::memory_order_relaxed);
    state.batched_tuples->Inc(n);
  }

  void FlushAll() {
    if (total.load(std::memory_order_relaxed) == 0) return;
    for (size_t pe = 0; pe < per_dest.size(); ++pe) Flush(pe);
  }

  void FlushAged(int64_t now_us) {
    if (total.load(std::memory_order_relaxed) == 0) return;
    for (size_t pe = 0; pe < per_dest.size(); ++pe) {
      DestBuffer& buf = per_dest[pe];
      if (!buf.items.empty() && now_us - buf.oldest_us >= state.send_max_age_us)
        Flush(pe);
    }
  }
};

/// Flushes every stateful shared instance's buffers (taking each pe mutex)
/// plus the caller's own; every worker runs this before blocking on an
/// empty queue, so all buffered tuples are visible before anyone sleeps.
void FlushAllBuffers(RunState& state, SendBuffers& worker_buffers) {
  worker_buffers.FlushAll();
  for (size_t pe = 0; pe < state.shared_buffers.size(); ++pe) {
    SendBuffers* shared = state.shared_buffers[pe].get();
    if (shared == nullptr ||
        shared->total.load(std::memory_order_relaxed) == 0) {
      continue;
    }
    std::scoped_lock lock(*state.pe_mutexes[pe]);
    shared->FlushAll();
  }
}

/// Emits by appending downstream work items to the run's micro-batch
/// buffers.
class QueueEmitter final : public Emitter {
 public:
  QueueEmitter(RunState& state, SendBuffers& buffers, size_t pe_index)
      : state_(state), buffers_(buffers), pe_index_(pe_index) {}

  void Emit(std::string_view output_port, Value value) override {
    for (const RunState::PortRoute& route : state_.routes[pe_index_]) {
      if (route.port != output_port) continue;
      for (const RunState::Destination& dest : route.dests) {
        state_.pending.fetch_add(1, std::memory_order_acq_rel);
        std::string item;
        item.reserve(dest.frame_prefix.size() + 24);
        item += dest.frame_prefix;
        AppendPayload(item, value);
        buffers_.Add(dest.to_pe, std::move(item));
      }
    }
  }

  void Log(std::string_view line) override { state_.output->Log(line); }

 private:
  RunState& state_;
  SendBuffers& buffers_;
  size_t pe_index_;
};

/// Processes one tuple on the right instance (shared for stateful PEs,
/// caller-local clone otherwise). A Process throw is retried under the
/// run's policy; once exhausted the raw item is quarantined on the DLQ.
/// Stateful emissions go through the instance's shared buffers (under its
/// mutex, keeping per-edge FIFO); stateless ones through the worker's own.
/// Cold path of ProcessItem: the first attempt threw. Builds the closure
/// and context string the fast path avoids, runs the remaining retries, and
/// quarantines the item on exhaustion.
void RetryOrQuarantine(RunState& state, SendBuffers& worker_buffers,
                       std::vector<std::unique_ptr<ProcessingElement>>& local,
                       size_t pe, const std::string& port, const Value& value,
                       const std::string& raw_item, std::string first_error) {
  auto attempt = [&] {
    if (state.shared_buffers[pe] != nullptr) {
      std::scoped_lock lock(*state.pe_mutexes[pe]);
      QueueEmitter emitter(state, *state.shared_buffers[pe], pe);
      state.shared_instances[pe]->Process(port, value, emitter);
    } else {
      QueueEmitter emitter(state, worker_buffers, pe);
      local[pe]->Process(port, value, emitter);
    }
  };
  const std::string context = state.graph->Node(pe).name() + "[" + port + "]";
  if (state.faults->RetryAfterFailure(attempt, context,
                                      std::move(first_error))) {
    state.tuples.fetch_add(1, std::memory_order_relaxed);
  } else {
    state.broker->RPush(state.dlq_key, EncodeDlqItem(raw_item, context));
  }
}

void ProcessItem(RunState& state, SendBuffers& worker_buffers,
                 std::vector<std::unique_ptr<ProcessingElement>>& local,
                 size_t pe, const std::string& port, const Value& value,
                 const std::string& raw_item) {
  try {
    // Stateful PEs run serialized on the shared instance, emitting through
    // its shared buffers; stateless ones on the worker's clone and buffers.
    if (SendBuffers* shared = state.shared_buffers[pe].get()) {
      std::scoped_lock lock(*state.pe_mutexes[pe]);
      QueueEmitter emitter(state, *shared, pe);
      state.shared_instances[pe]->Process(port, value, emitter);
    } else {
      QueueEmitter emitter(state, worker_buffers, pe);
      local[pe]->Process(port, value, emitter);
    }
    state.tuples.fetch_add(1, std::memory_order_relaxed);
  } catch (const std::exception& e) {
    RetryOrQuarantine(state, worker_buffers, local, pe, port, value, raw_item,
                      e.what());
  } catch (...) {
    RetryOrQuarantine(state, worker_buffers, local, pe, port, value, raw_item,
                      "non-standard exception");
  }
}

void WorkerLoop(RunState& state) {
  // Per-worker clones for stateless PEs.
  std::vector<std::unique_ptr<ProcessingElement>> local;
  local.reserve(state.graph->NodeCount());
  for (size_t i = 0; i < state.graph->NodeCount(); ++i) {
    local.push_back(state.graph->Node(i).Clone());
    local.back()->Setup(0, 1);
  }
  SendBuffers buffers(state);
  while (!state.stop.load(std::memory_order_acquire)) {
    if (state.deadline_us != 0 && NowMicros() > state.deadline_us) {
      state.expired.store(true, std::memory_order_release);
      state.RequestStop();
      break;
    }
    // Everything buffered must be on the broker before we can block.
    FlushAllBuffers(state, buffers);
    auto batch =
        state.broker->BLPopUpTo(state.pop_keys, state.recv_batch,
                                std::chrono::milliseconds(20), &state.stop);
    if (!batch.has_value()) continue;  // timeout/stop; re-check stop flag
    const std::string& queue_key = batch->first;
    std::vector<std::string>& items = batch->second;
    // Map queue key back to PE index.
    auto route = state.queue_index.find(queue_key);
    const size_t pe = route != state.queue_index.end()
                          ? route->second
                          : state.graph->NodeCount();
    for (std::string& raw_item : items) {
      // A deadline expiry elsewhere kills the run mid-batch, as it kills
      // queued-but-unpopped items (the cleanup deletes both).
      if (state.stop.load(std::memory_order_acquire)) break;
      std::string port;
      Value value;
      if (pe >= state.graph->NodeCount()) {
        // Never dropped silently: quarantine with the reason attached.
        std::string error = "unroutable queue key '" + queue_key + "'";
        state.faults->RecordDecodeFailure(error);
        state.broker->RPush(state.dlq_key, EncodeDlqItem(raw_item, error));
      } else if (!DecodeItem(raw_item, port, value)) {
        std::string error = "undecodable work item on '" + queue_key + "'";
        state.faults->RecordDecodeFailure(error);
        state.broker->RPush(state.dlq_key, EncodeDlqItem(raw_item, error));
      } else {
        ProcessItem(state, buffers, local, pe, port, value, raw_item);
        if (buffers.total.load(std::memory_order_relaxed) != 0) {
          buffers.FlushAged(NowMicros());
        }
      }
      if (state.pending.fetch_sub(1, std::memory_order_acq_rel) == 1) {
        state.RequestStop();
      }
    }
  }
}

}  // namespace

DynamicMapping::DynamicMapping()
    : owned_broker_(std::make_unique<broker::Broker>()),
      broker_(owned_broker_.get()) {}

DynamicMapping::DynamicMapping(broker::Broker* shared_broker)
    : broker_(shared_broker) {}

RunResult DynamicMapping::Execute(const WorkflowGraph& graph,
                                  const RunOptions& options,
                                  const LineSink& sink) {
  auto& registry = telemetry::MetricsRegistry::Global();
  static telemetry::Counter& enactments = registry.GetCounter(
      "laminar_dataflow_enactments_total", "mapping=\"dynamic\"");
  static telemetry::Counter& tuples_total = registry.GetCounter(
      "laminar_dataflow_tuples_total", "mapping=\"dynamic\"");
  static telemetry::Counter& batched_tuples = registry.GetCounter(
      "laminar_dataflow_batched_tuples_total", "mapping=\"dynamic\"");
  static telemetry::Histogram& enact_ms = registry.GetHistogram(
      "laminar_dataflow_enact_ms", "mapping=\"dynamic\"");
  static telemetry::Gauge& workers_gauge =
      registry.GetGauge("laminar_dataflow_peak_workers");
  enactments.Inc();
  telemetry::ScopedSpan enact_span("mapping.dynamic", &enact_ms);

  RunResult result;
  Stopwatch watch;
  result.status = graph.Validate();
  if (!result.status.ok()) return result;
  // Validate() has already rejected cycles, so the order exists.
  const std::vector<size_t> topo = graph.TopologicalOrder().value();

  SharedOutput output(result, sink);
  FaultContext faults("dynamic", options);
  RunState state;
  state.graph = &graph;
  state.broker = broker_;
  state.output = &output;
  state.faults = &faults;
  state.send_batch = static_cast<size_t>(std::max(options.send_batch_size, 1));
  state.recv_batch = static_cast<size_t>(std::max(options.recv_batch_size, 1));
  state.send_max_age_us = static_cast<int64_t>(
      std::max(options.send_batch_max_delay_ms, 0.0) * 1000.0);
  state.batched_tuples = &batched_tuples;
  // Run keys are `<run_scope>wf:N:*` — the empty default keeps the legacy
  // `wf:N:*` keys; the server scopes non-default tenants as `t:<tenant>:`.
  state.prefix = options.run_scope + "wf:" +
                 std::to_string(g_run_counter.fetch_add(1)) + ":";
  state.queue_prefix = state.prefix + "q:";
  state.dlq_key = state.prefix + "dlq";
  // Run-scoped broker cleanup: every exit path — success, partial failure,
  // deadline expiry — deletes this run's queue and DLQ keys, so the
  // engine's long-lived shared broker never accumulates dead lists.
  struct BrokerCleanup {
    broker::Broker* broker;
    const std::string& prefix;
    ~BrokerCleanup() { broker->DelPrefix(prefix); }
  } broker_cleanup{broker_, state.prefix};
  state.deadline_us = DeadlineMicrosFromNow(options.deadline_ms);
  for (size_t i = 0; i < graph.NodeCount(); ++i) {
    state.queue_keys.push_back(state.queue_prefix + std::to_string(i));
    state.queue_index[state.queue_keys.back()] = i;
    state.shared_instances.push_back(graph.Node(i).Clone());
    state.shared_instances.back()->Setup(0, 1);
    state.pe_mutexes.push_back(std::make_unique<std::mutex>());
    state.shared_buffers.push_back(
        graph.Node(i).stateful() ? std::make_unique<SendBuffers>(state)
                                 : nullptr);
    result.partition[graph.Node(i).name()] = {0, 1};
  }
  for (auto pe = topo.rbegin(); pe != topo.rend(); ++pe) {
    state.pop_keys.push_back(state.queue_keys[*pe]);
  }
  state.routes.resize(graph.NodeCount());
  for (const Edge& edge : graph.Edges()) {
    std::vector<RunState::PortRoute>& pe_routes = state.routes[edge.from_pe];
    auto route = std::find_if(
        pe_routes.begin(), pe_routes.end(),
        [&](const RunState::PortRoute& r) { return r.port == edge.from_port; });
    if (route == pe_routes.end()) {
      pe_routes.push_back({edge.from_port, {}});
      route = std::prev(pe_routes.end());
    }
    route->dests.push_back({edge.to_pe, edge.to_port + kFrameSep});
  }

  // Seed producer iterations as work items — one batched push per producer
  // queue (workers have not started; nothing to wake).
  std::vector<Value> iterations = ProducerIterations(options.input);
  for (size_t producer : graph.Producers()) {
    std::vector<std::string> seed_items;
    seed_items.reserve(iterations.size());
    for (const Value& payload : iterations) {
      seed_items.push_back(EncodeItem("iteration", payload));
    }
    state.pending.fetch_add(static_cast<int64_t>(seed_items.size()),
                            std::memory_order_acq_rel);
    state.broker->RPushMulti(state.queue_keys[producer],
                             std::move(seed_items));
  }
  if (state.pending.load() == 0) {
    // Nothing to do; still run the finish pass below.
    state.RequestStop();
  }

  // Worker pool + autoscaler.
  int max_workers = std::max(options.max_workers, 1);
  int initial = std::clamp(options.initial_workers, 1, max_workers);
  std::vector<std::thread> workers;
  std::mutex workers_mu;
  workers.reserve(static_cast<size_t>(max_workers));
  for (int i = 0; i < initial; ++i) {
    workers.emplace_back([&state] { WorkerLoop(state); });
  }
  int peak = initial;

  std::thread autoscaler;
  if (options.autoscale) {
    autoscaler = std::thread([&] {
      while (!state.stop.load(std::memory_order_acquire)) {
        size_t queued = state.broker->TotalQueued(state.queue_prefix);
        {
          std::scoped_lock lock(workers_mu);
          // Re-check stop under workers_mu: a worker can flip it between
          // the probe and here, and emplacing then would burn a thread
          // spawn per run tail.
          if (!state.stop.load(std::memory_order_acquire) &&
              workers.size() < static_cast<size_t>(max_workers) &&
              queued > workers.size() *
                           static_cast<size_t>(std::max(
                               options.autoscale_queue_per_worker, 1))) {
            workers.emplace_back([&state] { WorkerLoop(state); });
            peak = std::max(peak, static_cast<int>(workers.size()));
          }
        }
        // Tick every 5 ms, but wake immediately on stop.
        std::unique_lock lock(state.stop_mu);
        state.stop_cv.wait_for(lock, std::chrono::milliseconds(5), [&] {
          return state.stop.load(std::memory_order_acquire);
        });
      }
    });
  }

  {
    // Wait for the drain (workers request stop when pending hits zero).
    std::unique_lock lock(state.stop_mu);
    state.stop_cv.wait(
        lock, [&] { return state.stop.load(std::memory_order_acquire); });
  }
  if (autoscaler.joinable()) autoscaler.join();
  for (std::thread& w : workers) w.join();

  // Finish pass: topological, synchronous, on the shared instances, so
  // stateful aggregations flush exactly once. Skipped when the run expired
  // (a killed serverless instance flushes nothing).
  if (!state.expired.load()) {
    std::deque<std::pair<size_t, std::string>> local_queue;  // (pe, item)
    struct FinishEmitter final : Emitter {
      RunState& state;
      size_t pe;
      std::deque<std::pair<size_t, std::string>>& queue;
      const WorkflowGraph& graph;
      FinishEmitter(RunState& s, size_t p,
                    std::deque<std::pair<size_t, std::string>>& q,
                    const WorkflowGraph& g)
          : state(s), pe(p), queue(q), graph(g) {}
      void Emit(std::string_view output_port, Value value) override {
        for (const Edge* edge : graph.OutgoingEdges(pe, output_port)) {
          queue.emplace_back(edge->to_pe, EncodeItem(edge->to_port, value));
        }
      }
      void Log(std::string_view line) override { state.output->Log(line); }
    };
    auto drain = [&] {
      while (!local_queue.empty()) {
        auto [pe, text] = std::move(local_queue.front());
        local_queue.pop_front();
        std::string port;
        Value value;
        if (!DecodeItem(text, port, value)) {
          std::string error = "undecodable finish-pass item for '" +
                              graph.Node(pe).name() + "'";
          faults.RecordDecodeFailure(error);
          state.broker->RPush(state.dlq_key, EncodeDlqItem(text, error));
          continue;
        }
        FinishEmitter emitter(state, pe, local_queue, graph);
        const std::string context =
            graph.Node(pe).name() + "[" + port + "]";
        if (faults.InvokeWithRetries(
                [&] {
                  state.shared_instances[pe]->Process(port, value, emitter);
                },
                context)) {
          state.tuples.fetch_add(1, std::memory_order_relaxed);
        } else {
          state.broker->RPush(state.dlq_key, EncodeDlqItem(text, context));
        }
      }
    };
    for (size_t pe : topo) {
      FinishEmitter emitter(state, pe, local_queue, graph);
      faults.InvokeWithRetries(
          [&] { state.shared_instances[pe]->Finish(emitter); },
          graph.Node(pe).name() + "[finish]");
      drain();
    }
  }

  if (options.verbose) {
    output.Log("Dynamic run complete: " + std::to_string(state.tuples.load()) +
               " tuples, peak workers " + std::to_string(peak) + ".");
  }
  result.tuples_processed = state.tuples.load();
  if (state.expired.load()) {
    result.status = Status::DeadlineExceeded(
        "execution exceeded " + std::to_string(options.deadline_ms) + " ms");
  }
  faults.Finalize(result);
  result.peak_workers = peak;
  result.elapsed_ms = watch.ElapsedMillis();
  tuples_total.Inc(result.tuples_processed);
  workers_gauge.Set(result.peak_workers);
  return result;
}

}  // namespace laminar::dataflow
