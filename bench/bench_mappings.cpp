// Reproduces the dispel4py parallel-execution behaviour the paper's §IV-A
// showcases (run vs run_multiprocess vs run_dynamic): throughput scaling of
// a CPU-bound pipeline under the three mappings, plus the dynamic mapping's
// autoscaling response — and, since the data-plane rework, a broker
// data-plane section that measures dynamic-mapping tuple throughput with
// micro-batching on and off against the pre-PR per-tuple protocol.
//
// Usage: bench_mappings [--smoke]
// --smoke shrinks the workloads to sub-second sizes and runs the parity
// gate only: batched dynamic output must equal the sequential mapping's
// (exit 1 on divergence), so ctest catches data-plane regressions.
#include <cstdio>
#include <cstring>
#include <memory>
#include <optional>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "bench_util.hpp"
#include "broker/broker.hpp"
#include "common/clock.hpp"
#include "common/json.hpp"
#include "dataflow/dynamic_mapping.hpp"
#include "dataflow/multi_mapping.hpp"
#include "dataflow/pe_library.hpp"
#include "dataflow/sequential_mapping.hpp"

using namespace laminar;
using namespace laminar::dataflow;

namespace {

std::unique_ptr<WorkflowGraph> BurnGraph(uint64_t iters) {
  auto g = std::make_unique<WorkflowGraph>("burn_wf");
  auto& producer = g->AddPE<NumberProducer>(17);
  auto& burn = g->AddPE<CpuBurn>(iters);
  auto& sink = g->AddPE<NullSink>();
  (void)g->Connect(producer, burn);
  (void)g->Connect(burn, sink);
  return g;
}

// ---- data-plane section: trivial PEs so the transport dominates ----

/// Forwards the iteration payload (stateless: parallelizes across workers).
class FwdProducer final : public Clonable<FwdProducer, ProducerBase> {
 public:
  FwdProducer() { set_name("FwdProducer"); }
  void Process(std::string_view, const Value& value, Emitter& out) override {
    out.Emit(kDefaultOutput, value);
  }
};

class AddOne final : public Clonable<AddOne, IterativePE> {
 public:
  AddOne() { set_name("AddOne"); }
  std::optional<Value> ProcessItem(const Value& v, Emitter&) override {
    // Built in place: GCC 12 under ASan reads the move of a Value
    // temporary into the optional as possibly uninitialized.
    return std::make_optional<Value>(v.as_int(0) + 1);
  }
};

class Drop final : public Clonable<Drop, ConsumerBase> {
 public:
  Drop() { set_name("Drop"); }
  void Process(std::string_view, const Value&, Emitter&) override {}
};

std::unique_ptr<WorkflowGraph> DataPlaneGraph() {
  auto g = std::make_unique<WorkflowGraph>("dataplane_wf");
  auto& producer = g->AddPE<FwdProducer>();
  auto& stage = g->AddPE<AddOne>();
  auto& sink = g->AddPE<Drop>();
  (void)g->Connect(producer, stage);
  (void)g->Connect(stage, sink);
  return g;
}

/// The pre-PR per-tuple protocol, reproduced against the same broker: every
/// tuple is one {"port","value"} JSON object wrap, one RPush, one
/// single-item BLPop, and one full JSON parse — exactly what the dynamic
/// mapping's data plane did per tuple before micro-batching and the framed
/// wire format. A worker pool drives the same 3-stage forwarding pipeline,
/// so the measured difference is protocol cost, not workload. Deliberately
/// does NOT use the cancel-flag/Notify fast wakeup: pre-PR workers slept
/// out their pop timeout at end of run, and that tail was part of the
/// baseline's cost.
double LegacyProtocolTps(int workers, int tuples) {
  broker::Broker broker;
  const std::vector<std::string> keys = {"legacy:q:0", "legacy:q:1",
                                         "legacy:q:2"};
  auto encode = [](const char* port, const Value& value) {
    Value obj = Value::MakeObject();
    obj["port"] = port;
    obj["value"] = value;
    return obj.ToJson();
  };
  std::atomic<int64_t> pending{0};
  std::atomic<uint64_t> processed{0};
  std::atomic<bool> stop{false};
  for (int i = 0; i < tuples; ++i) {
    pending.fetch_add(1, std::memory_order_acq_rel);
    broker.RPush(keys[0], encode("iteration", Value(i)));
  }
  Stopwatch watch;
  std::vector<std::thread> pool;
  for (int w = 0; w < workers; ++w) {
    pool.emplace_back([&] {
      while (!stop.load(std::memory_order_acquire)) {
        auto item = broker.BLPop(keys, std::chrono::milliseconds(20));
        if (!item.has_value()) continue;
        Result<Value> parsed = json::Parse(item->second);
        if (parsed.ok()) {
          const Value payload = parsed->at("value");
          if (item->first == keys[0]) {
            pending.fetch_add(1, std::memory_order_acq_rel);
            broker.RPush(keys[1], encode("input", payload));
          } else if (item->first == keys[1]) {
            pending.fetch_add(1, std::memory_order_acq_rel);
            broker.RPush(keys[2],
                         encode("input", Value(payload.as_int(0) + 1)));
          }
          processed.fetch_add(1, std::memory_order_relaxed);
        }
        if (pending.fetch_sub(1, std::memory_order_acq_rel) == 1) {
          stop.store(true, std::memory_order_release);
        }
      }
    });
  }
  for (std::thread& t : pool) t.join();
  double ms = watch.ElapsedMillis();
  return static_cast<double>(processed.load()) / (ms / 1000.0);
}

double DynamicTps(const WorkflowGraph& graph, int workers, int tuples,
                  int send_batch, int recv_batch, int reps,
                  uint64_t* tuples_out = nullptr) {
  double best = 0;
  for (int rep = 0; rep < reps; ++rep) {
    RunOptions options;
    options.input = Value(tuples);
    options.initial_workers = workers;
    options.max_workers = workers;
    options.autoscale = false;
    options.send_batch_size = send_batch;
    options.recv_batch_size = recv_batch;
    DynamicMapping dynamic;
    Stopwatch watch;
    RunResult result = dynamic.Execute(graph, options);
    double ms = watch.ElapsedMillis();
    if (!result.status.ok()) {
      std::printf("dynamic run failed: %s\n", result.status.ToString().c_str());
      return 0;
    }
    if (tuples_out != nullptr) *tuples_out = result.tuples_processed;
    double tps = static_cast<double>(result.tuples_processed) / (ms / 1000.0);
    best = std::max(best, tps);
  }
  return best;
}

std::multiset<std::string> AsMultiset(const std::vector<std::string>& lines) {
  return {lines.begin(), lines.end()};
}

/// Parity gate: the batched dynamic mapping must produce exactly the
/// sequential mapping's output multiset on a primes pipeline. Returns
/// false (and prints the divergence) on regression.
bool ParityGate(int tuples) {
  auto g = std::make_unique<WorkflowGraph>("parity_wf");
  auto& producer = g->AddPE<FwdProducer>();
  auto& filter = g->AddPE<IsPrime>();
  auto& printer = g->AddPE<PrintPrime>();
  (void)g->Connect(producer, filter);
  (void)g->Connect(filter, printer);

  RunOptions options;
  options.input = Value(tuples);
  SequentialMapping sequential;
  RunResult expected = sequential.Execute(*g, options);

  options.initial_workers = 8;
  options.max_workers = 8;
  options.autoscale = false;
  options.send_batch_size = 32;
  options.recv_batch_size = 32;
  DynamicMapping dynamic;
  RunResult actual = dynamic.Execute(*g, options);

  const bool ok = actual.status.ok() &&
                  AsMultiset(actual.output_lines) ==
                      AsMultiset(expected.output_lines) &&
                  actual.failed_tuples == 0 && actual.dlq_depth == 0;
  std::printf("parity gate (batched dynamic == sequential, %d tuples): %s\n",
              tuples, ok ? "OK" : "FAILED");
  if (!ok) {
    std::printf("  status=%s lines=%zu (expected %zu) failed=%llu dlq=%llu\n",
                actual.status.ToString().c_str(), actual.output_lines.size(),
                expected.output_lines.size(),
                static_cast<unsigned long long>(actual.failed_tuples),
                static_cast<unsigned long long>(actual.dlq_depth));
  }
  return ok;
}

}  // namespace

int main(int argc, char** argv) {
  bool smoke = false;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--smoke") == 0) smoke = true;
  }
  bench::BenchReport report("mappings");
  unsigned hw = std::thread::hardware_concurrency();

  // ---- data-plane throughput: batched vs unbatched vs pre-PR protocol ----
  const int kDpWorkers = 8;
  const int kDpTuples = smoke ? 3000 : 60000;
  const int kDpReps = smoke ? 2 : 3;
  std::printf("== dynamic-mapping data plane: tuple micro-batching over the "
              "sharded broker ==\n\n");
  std::printf("workload: %d seed tuples x 3 trivial PE stages, %d workers "
              "(host has %u hardware threads)\n\n",
              kDpTuples, kDpWorkers, hw);

  auto dp_graph = DataPlaneGraph();
  double legacy_tps = LegacyProtocolTps(kDpWorkers, kDpTuples);
  uint64_t dp_tuples = 0;
  double unbatched_tps =
      DynamicTps(*dp_graph, kDpWorkers, kDpTuples, 1, 1, kDpReps, &dp_tuples);
  double batched_tps =
      DynamicTps(*dp_graph, kDpWorkers, kDpTuples, 32, 32, kDpReps);

  std::printf("%-40s %14s %10s\n", "data plane (8 workers)", "tuples/s",
              "speedup");
  std::printf("%-40s %14.0f %10s\n",
              "pre-PR per-tuple protocol (reference)", legacy_tps, "1.0x");
  std::printf("%-40s %14.0f %9.1fx\n", "dynamic, unbatched (batch=1)",
              unbatched_tps, unbatched_tps / legacy_tps);
  std::printf("%-40s %14.0f %9.1fx\n", "dynamic, batched (batch=32, default)",
              batched_tps, batched_tps / legacy_tps);
  std::printf("\nbatched vs pre-PR unbatched baseline: %.1fx (target >=3x)\n",
              batched_tps / legacy_tps);
  std::printf("batched vs unbatched same binary:     %.1fx\n\n",
              batched_tps / unbatched_tps);

  report.Set("dataplane_workers", static_cast<int64_t>(kDpWorkers));
  report.Set("dataplane_seed_tuples", static_cast<int64_t>(kDpTuples));
  report.Set("dataplane_tuples_processed", static_cast<int64_t>(dp_tuples));
  report.Set("legacy_protocol_tps", legacy_tps);
  report.Set("dynamic_unbatched_tps", unbatched_tps);
  report.Set("dynamic_batched_tps", batched_tps);
  report.Set("batched_vs_legacy_speedup", batched_tps / legacy_tps);
  report.Set("batched_vs_unbatched_speedup", batched_tps / unbatched_tps);

  // ---- parity gate ----
  const bool parity_ok = ParityGate(smoke ? 500 : 2000);
  report.Set("parity_gate", parity_ok ? std::string("ok")
                                      : std::string("FAILED"));
  std::printf("\n");

  if (!smoke) {
    // ---- the paper's three-mapping comparison on a CPU-bound pipeline ----
    std::printf("== dispel4py mappings: sequential vs multiprocessing vs "
                "dynamic (Redis-style) ==\n\n");
    constexpr int kTuples = 256;
    constexpr uint64_t kIters = 400'000;
    std::printf("workload: %d tuples x %llu busy-iterations\n\n", kTuples,
                static_cast<unsigned long long>(kIters));

    RunOptions base;
    base.input = Value(kTuples);

    SequentialMapping seq;
    Stopwatch seq_watch;
    RunResult seq_result = seq.Execute(*BurnGraph(kIters), base);
    double seq_ms = seq_watch.ElapsedMillis();
    std::printf("%-24s %-10s %-12s %-10s\n", "mapping", "procs", "elapsed ms",
                "speedup");
    std::printf("%-24s %-10s %-12.1f %-10s\n", "simple (sequential)", "1",
                seq_ms, "1.0x");
    {
      Value& row = report.AddRow();
      row["mapping"] = "simple";
      row["procs"] = static_cast<int64_t>(1);
      row["elapsed_ms"] = seq_ms;
    }

    for (int procs : {3, 4, 6, 8, 12, 16}) {
      MultiMapping multi;
      RunOptions options = base;
      options.num_processes = procs;
      Stopwatch watch;
      RunResult result = multi.Execute(*BurnGraph(kIters), options);
      double ms = watch.ElapsedMillis();
      if (!result.status.ok()) {
        std::printf("multi(%d) failed: %s\n", procs,
                    result.status.ToString().c_str());
        continue;
      }
      std::printf("%-24s %-10d %-12.1f %-9.1fx\n", "multi (static)", procs, ms,
                  seq_ms / ms);
      Value& row = report.AddRow();
      row["mapping"] = "multi";
      row["procs"] = static_cast<int64_t>(procs);
      row["elapsed_ms"] = ms;
    }

    for (int workers : {2, 4, 8}) {
      DynamicMapping dynamic;
      RunOptions options = base;
      options.initial_workers = workers;
      options.max_workers = workers;
      options.autoscale = false;
      Stopwatch watch;
      RunResult result = dynamic.Execute(*BurnGraph(kIters), options);
      double ms = watch.ElapsedMillis();
      std::printf("%-24s %-10d %-12.1f %-9.1fx\n", "dynamic (fixed pool)",
                  workers, ms, seq_ms / ms);
      (void)result;
      Value& row = report.AddRow();
      row["mapping"] = "dynamic";
      row["procs"] = static_cast<int64_t>(workers);
      row["elapsed_ms"] = ms;
    }
    {
      DynamicMapping dynamic;
      RunOptions options = base;
      options.initial_workers = 1;
      options.max_workers = 12;
      options.autoscale = true;
      options.autoscale_queue_per_worker = 4;
      Stopwatch watch;
      RunResult result = dynamic.Execute(*BurnGraph(kIters), options);
      double ms = watch.ElapsedMillis();
      std::printf("%-24s %d->%-7d %-12.1f %-9.1fx\n", "dynamic (autoscale)", 1,
                  result.peak_workers, ms, seq_ms / ms);
      Value& row = report.AddRow();
      row["mapping"] = "dynamic-autoscale";
      row["procs"] = static_cast<int64_t>(result.peak_workers);
      row["elapsed_ms"] = ms;
    }

    if (hw <= 1) {
      std::printf(
          "\nNOTE: this host exposes a single hardware thread, so parallel "
          "mappings cannot beat sequential wall-clock here; the meaningful "
          "readings are each mapping's *overhead* (how close its elapsed "
          "stays to 1.0x), the autoscaler's pool growth, and the data-plane "
          "protocol speedups above (which measure per-tuple transport cost, "
          "not parallelism). On a multi-core host, multi and dynamic scale "
          "with the CpuBurn stage's rank count until core saturation.\n");
    } else {
      std::printf(
          "\nexpected shape: multi scales until the CpuBurn stage saturates "
          "cores; dynamic matches multi at equal worker counts without a "
          "static partition, and the autoscaler grows the pool from 1 toward "
          "the saturation point on its own.\n");
    }
    std::printf("\n");
    bench::PrintHistogramSummary(
        "telemetry: per-mapping enactment percentiles",
        {{"laminar_dataflow_enact_ms", "mapping=\"simple\""},
         {"laminar_dataflow_enact_ms", "mapping=\"multi\""},
         {"laminar_dataflow_enact_ms", "mapping=\"dynamic\""}});
  }

  report.AddHistogram("laminar_dataflow_enact_ms", "mapping=\"simple\"");
  report.AddHistogram("laminar_dataflow_enact_ms", "mapping=\"multi\"");
  report.AddHistogram("laminar_dataflow_enact_ms", "mapping=\"dynamic\"");
  if (!smoke) report.Write();  // a smoke run gates; it records nothing
  return parity_ok ? 0 : 1;
}
