#include "dataflow/multi_mapping.hpp"

#include <atomic>
#include <thread>

#include "common/clock.hpp"
#include "common/concurrent_queue.hpp"
#include "common/strings.hpp"
#include "telemetry/telemetry.hpp"

namespace laminar::dataflow {
namespace {

struct Message {
  enum class Kind { kData, kEos };
  Kind kind = Kind::kData;
  std::string port;
  Value value;
};

struct RankContext {
  size_t pe_index = 0;
  int global_rank = 0;
  int local_rank = 0;
  int local_ranks = 1;
};

/// Per-rank emitter: routes each emitted tuple to the destination rank(s)
/// chosen by the edge grouping.
class RankEmitter final : public Emitter {
 public:
  RankEmitter(const WorkflowGraph& graph, const RankContext& ctx,
              const std::vector<std::pair<int, int>>& partition,
              std::vector<std::unique_ptr<ConcurrentQueue<Message>>>& queues,
              SharedOutput& output)
      : graph_(graph),
        ctx_(ctx),
        partition_(partition),
        queues_(queues),
        output_(output) {}

  void Emit(std::string_view output_port, Value value) override {
    for (const Edge* edge : graph_.OutgoingEdges(ctx_.pe_index, output_port)) {
      auto [first, last] = partition_[edge->to_pe];
      int fan = last - first;
      switch (edge->grouping.type) {
        case GroupingType::kShuffle: {
          int target = first + static_cast<int>(round_robin_[edge]++ %
                                                static_cast<uint64_t>(fan));
          queues_[static_cast<size_t>(target)]->Push(
              Message{Message::Kind::kData, edge->to_port, value});
          break;
        }
        case GroupingType::kGroupBy: {
          uint64_t h = GroupingHash(value, edge->grouping.key);
          int target = first + static_cast<int>(h % static_cast<uint64_t>(fan));
          queues_[static_cast<size_t>(target)]->Push(
              Message{Message::Kind::kData, edge->to_port, value});
          break;
        }
        case GroupingType::kOneToAll:
          for (int r = first; r < last; ++r) {
            queues_[static_cast<size_t>(r)]->Push(
                Message{Message::Kind::kData, edge->to_port, value});
          }
          break;
        case GroupingType::kAllToOne:
          queues_[static_cast<size_t>(first)]->Push(
              Message{Message::Kind::kData, edge->to_port, value});
          break;
      }
    }
  }

  void Log(std::string_view line) override { output_.Log(line); }

  /// Sends end-of-stream from this rank to every rank of every downstream PE.
  void Broadcast_Eos() {
    for (const std::string& port : graph_.Node(ctx_.pe_index).output_ports()) {
      for (const Edge* edge : graph_.OutgoingEdges(ctx_.pe_index, port)) {
        auto [first, last] = partition_[edge->to_pe];
        for (int r = first; r < last; ++r) {
          queues_[static_cast<size_t>(r)]->Push(
              Message{Message::Kind::kEos, edge->to_port, Value()});
        }
      }
    }
  }

 private:
  const WorkflowGraph& graph_;
  const RankContext& ctx_;
  const std::vector<std::pair<int, int>>& partition_;
  std::vector<std::unique_ptr<ConcurrentQueue<Message>>>& queues_;
  SharedOutput& output_;
  std::unordered_map<const Edge*, uint64_t> round_robin_;
};

}  // namespace

std::vector<std::pair<int, int>> PartitionRanks(const WorkflowGraph& graph,
                                                int num_processes) {
  size_t n = graph.NodeCount();
  std::vector<std::pair<int, int>> partition(n, {0, 0});
  std::vector<size_t> producers = graph.Producers();
  size_t consumers = n - producers.size();
  int min_needed = static_cast<int>(n);
  if (num_processes < min_needed) num_processes = min_needed;

  int spare = num_processes - static_cast<int>(producers.size());
  // Even split of the non-producer budget, first PEs get the remainder.
  int base = consumers > 0 ? spare / static_cast<int>(consumers) : 0;
  int extra = consumers > 0 ? spare % static_cast<int>(consumers) : 0;

  int next_rank = 0;
  for (size_t i = 0; i < n; ++i) {
    int count;
    if (graph.Node(i).IsProducer()) {
      count = 1;
    } else {
      count = base + (extra > 0 ? 1 : 0);
      if (extra > 0) --extra;
      if (count < 1) count = 1;
    }
    partition[i] = {next_rank, next_rank + count};
    next_rank += count;
  }
  return partition;
}

RunResult MultiMapping::Execute(const WorkflowGraph& graph,
                                const RunOptions& options,
                                const LineSink& sink) {
  auto& registry = telemetry::MetricsRegistry::Global();
  static telemetry::Counter& enactments = registry.GetCounter(
      "laminar_dataflow_enactments_total", "mapping=\"multi\"");
  static telemetry::Counter& tuples_total = registry.GetCounter(
      "laminar_dataflow_tuples_total", "mapping=\"multi\"");
  static telemetry::Histogram& enact_ms = registry.GetHistogram(
      "laminar_dataflow_enact_ms", "mapping=\"multi\"");
  enactments.Inc();
  telemetry::ScopedSpan enact_span("mapping.multi", &enact_ms);

  RunResult result;
  Stopwatch watch;
  result.status = graph.Validate();
  if (!result.status.ok()) return result;

  std::vector<std::pair<int, int>> partition =
      PartitionRanks(graph, options.num_processes);
  int total_ranks = 0;
  for (size_t i = 0; i < graph.NodeCount(); ++i) {
    result.partition[graph.Node(i).name()] = partition[i];
    total_ranks = std::max(total_ranks, partition[i].second);
  }

  SharedOutput output(result, sink);
  if (options.verbose) {
    std::string line = "Partition: {";
    for (size_t i = 0; i < graph.NodeCount(); ++i) {
      if (i) line += ", ";
      line += "'" + graph.Node(i).name() + "': range(" +
              std::to_string(partition[i].first) + ", " +
              std::to_string(partition[i].second) + ")";
    }
    line += "}";
    output.Log(line);
  }

  // Expected EOS count per PE rank: one from every rank of every incoming
  // edge's source PE.
  std::vector<int> expected_eos(graph.NodeCount(), 0);
  for (const Edge& e : graph.Edges()) {
    expected_eos[e.to_pe] += partition[e.from_pe].second -
                             partition[e.from_pe].first;
  }

  std::vector<std::unique_ptr<ConcurrentQueue<Message>>> queues;
  queues.reserve(static_cast<size_t>(total_ranks));
  for (int r = 0; r < total_ranks; ++r) {
    queues.push_back(std::make_unique<ConcurrentQueue<Message>>());
  }

  std::atomic<uint64_t> tuples{0};
  std::atomic<bool> expired{false};
  int64_t deadline_us = DeadlineMicrosFromNow(options.deadline_ms);
  auto past_deadline = [&] {
    if (deadline_us == 0) return false;
    if (expired.load(std::memory_order_relaxed)) return true;
    if (NowMicros() > deadline_us) {
      expired.store(true, std::memory_order_relaxed);
      return true;
    }
    return false;
  };
  std::vector<Value> iterations = ProducerIterations(options.input);
  FaultContext faults("multi", options);

  std::vector<std::thread> threads;
  threads.reserve(static_cast<size_t>(total_ranks));
  for (size_t pe = 0; pe < graph.NodeCount(); ++pe) {
    auto [first, last] = partition[pe];
    for (int rank = first; rank < last; ++rank) {
      threads.emplace_back([&, pe, rank, first, last] {
        RankContext ctx{pe, rank, rank - first, last - first};
        std::unique_ptr<ProcessingElement> instance = graph.Node(pe).Clone();
        instance->Setup(ctx.local_rank, ctx.local_ranks);
        RankEmitter emitter(graph, ctx, partition, queues, output);
        uint64_t processed = 0;

        if (graph.Node(pe).IsProducer()) {
          for (const Value& payload : iterations) {
            if (past_deadline()) break;
            if (faults.InvokeWithRetries(
                    [&] { instance->Process("iteration", payload, emitter); },
                    instance->name() + "[iteration]")) {
              ++processed;
            }
          }
        } else {
          int eos_remaining = expected_eos[pe];
          while (eos_remaining > 0) {
            std::optional<Message> msg =
                queues[static_cast<size_t>(rank)]->Pop();
            if (!msg.has_value()) break;  // queue closed (shutdown path)
            if (msg->kind == Message::Kind::kEos) {
              --eos_remaining;
              continue;
            }
            if (past_deadline()) continue;  // drop tuples, still await EOS
            if (faults.InvokeWithRetries(
                    [&] { instance->Process(msg->port, msg->value, emitter); },
                    instance->name() + "[" + msg->port + "]")) {
              ++processed;
            }
          }
        }
        faults.InvokeWithRetries([&] { instance->Finish(emitter); },
                                 instance->name() + "[finish]");
        emitter.Broadcast_Eos();
        tuples.fetch_add(processed, std::memory_order_relaxed);
        if (options.verbose) {
          output.Log(instance->name() + " (rank " + std::to_string(rank) +
                     "): Processed " + std::to_string(processed) +
                     " iterations.");
        }
      });
    }
  }

  for (std::thread& t : threads) t.join();
  for (auto& q : queues) q->Close();

  result.tuples_processed = tuples.load();
  if (expired.load()) {
    result.status = Status::DeadlineExceeded(
        "execution exceeded " + std::to_string(options.deadline_ms) + " ms");
  }
  faults.Finalize(result);
  result.elapsed_ms = watch.ElapsedMillis();
  tuples_total.Inc(result.tuples_processed);
  return result;
}

}  // namespace laminar::dataflow
