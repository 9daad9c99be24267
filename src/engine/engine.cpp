#include "engine/engine.hpp"

#include <thread>

#include "common/clock.hpp"
#include "common/concurrent_queue.hpp"
#include "dataflow/dynamic_mapping.hpp"
#include "dataflow/multi_mapping.hpp"
#include "dataflow/sequential_mapping.hpp"
#include "telemetry/telemetry.hpp"

namespace laminar::engine {
namespace {

/// Registry handles for every engine metric, resolved once per process.
/// Counters/gauges are process-wide: multiple engines (tests, benches)
/// aggregate into the same series, exactly like multiple function instances
/// reporting to one scrape endpoint.
struct EngineMetrics {
  telemetry::Counter& exec_ok;
  telemetry::Counter& exec_error;
  telemetry::Counter& cold_starts;
  telemetry::Counter& tuples;
  telemetry::Counter& lines;
  telemetry::Histogram& cold_start_ms;
  telemetry::Histogram& run_ms;
  /// Enactment start -> first line handed to the sink, per mapping.
  telemetry::Histogram& first_output_simple;
  telemetry::Histogram& first_output_multi;
  telemetry::Histogram& first_output_dynamic;
  telemetry::Gauge& warm;
  telemetry::Gauge& running;

  static EngineMetrics& Get() {
    static EngineMetrics* metrics = [] {
      auto& reg = telemetry::MetricsRegistry::Global();
      return new EngineMetrics{
          reg.GetCounter("laminar_engine_executions_total", "result=\"ok\""),
          reg.GetCounter("laminar_engine_executions_total",
                         "result=\"error\""),
          reg.GetCounter("laminar_engine_cold_starts_total"),
          reg.GetCounter("laminar_engine_tuples_total"),
          reg.GetCounter("laminar_engine_output_lines_total"),
          reg.GetHistogram("laminar_engine_cold_start_ms"),
          reg.GetHistogram("laminar_engine_run_ms"),
          reg.GetHistogram("laminar_engine_first_output_ms",
                           "mapping=\"simple\""),
          reg.GetHistogram("laminar_engine_first_output_ms",
                           "mapping=\"multi\""),
          reg.GetHistogram("laminar_engine_first_output_ms",
                           "mapping=\"dynamic\""),
          reg.GetGauge("laminar_engine_warm_instances"),
          reg.GetGauge("laminar_engine_running_executions")};
    }();
    return *metrics;
  }
};

}  // namespace

Value ExecutionTotalsJson() {
  EngineMetrics& em = EngineMetrics::Get();
  const uint64_t ok = em.exec_ok.Value();
  const uint64_t error = em.exec_error.Value();
  Value v = Value::MakeObject();
  v["executionsTotal"] = static_cast<int64_t>(ok + error);
  v["executionsOk"] = static_cast<int64_t>(ok);
  v["executionsError"] = static_cast<int64_t>(error);
  v["coldStartsTotal"] = static_cast<int64_t>(em.cold_starts.Value());
  v["tuplesTotal"] = static_cast<int64_t>(em.tuples.Value());
  v["linesTotal"] = static_cast<int64_t>(em.lines.Value());
  const telemetry::Histogram::Snapshot run = em.run_ms.snapshot();
  v["runMsP50"] = run.Percentile(0.50);
  v["runMsP95"] = run.Percentile(0.95);
  v["runMsP99"] = run.Percentile(0.99);
  // One distribution over every mapping's series (they share buckets).
  telemetry::Histogram::Snapshot first = em.first_output_simple.snapshot();
  for (const telemetry::Histogram* h :
       {&em.first_output_multi, &em.first_output_dynamic}) {
    const telemetry::Histogram::Snapshot s = h->snapshot();
    for (size_t i = 0; i < s.counts.size(); ++i) first.counts[i] += s.counts[i];
    first.count += s.count;
    first.sum += s.sum;
  }
  v["firstOutputMsP50"] = first.Percentile(0.50);
  v["firstOutputMsP95"] = first.Percentile(0.95);
  const telemetry::Histogram::Snapshot cold = em.cold_start_ms.snapshot();
  v["coldStartSamples"] = static_cast<int64_t>(cold.count);
  v["coldStartMsP95"] = cold.Percentile(0.95);
  return v;
}

ExecutionEngine::ExecutionEngine(EngineConfig config)
    : config_(config), cache_(config.resource_cache_bytes) {}

ExecutionEngine::~ExecutionEngine() { broker_.Shutdown(); }

std::vector<ResourceRef> ExecutionEngine::MissingResources(
    const std::vector<ResourceRef>& refs) const {
  return cache_.Missing(refs);
}

void ExecutionEngine::PutResource(const std::string& name,
                                  std::string content) {
  cache_.Put(name, std::move(content));
}

bool ExecutionEngine::AcquireInstance() {
  std::unique_lock lock(pool_mu_);
  pool_cv_.wait(lock, [&] { return running_ < config_.max_concurrent; });
  ++running_;
  EngineMetrics::Get().running.Add(1);
  if (warm_ > 0) {
    --warm_;
    EngineMetrics::Get().warm.Add(-1);
    return false;  // reused a warm instance
  }
  return true;  // cold start
}

void ExecutionEngine::ReleaseInstance() {
  {
    std::scoped_lock lock(pool_mu_);
    --running_;
    EngineMetrics::Get().running.Add(-1);
    if (warm_ < config_.max_warm_instances) {
      ++warm_;
      EngineMetrics::Get().warm.Add(1);
    }
  }
  pool_cv_.notify_one();
}

int ExecutionEngine::warm_instances() const {
  std::scoped_lock lock(pool_mu_);
  return warm_;
}

Result<dataflow::RunResult> ExecutionEngine::Execute(
    const ExecuteRequest& request, const dataflow::LineSink& sink,
    ExecuteStats* stats) {
  EngineMetrics& em = EngineMetrics::Get();
  telemetry::ScopedSpan exec_span("engine.execute");
  // Every exit increments exactly one result-labelled execution counter.
  bool succeeded = false;
  struct CountResult {
    EngineMetrics& em;
    bool* succeeded;
    ~CountResult() { (*succeeded ? em.exec_ok : em.exec_error).Inc(); }
  } count_result{em, &succeeded};

  // Resource gate (§IV-F): refuse with the missing list encoded in the
  // message; the server layer turns this into a "resources" response.
  std::vector<ResourceRef> missing = MissingResources(request.resources);
  if (!missing.empty()) {
    std::string msg = "missing resources:";
    for (const ResourceRef& r : missing) msg += " " + r.name;
    return Status::FailedPrecondition(msg);
  }
  // Import gate: every dependency of the registered code must resolve.
  if (!request.workflow_code.empty()) {
    Status st = importer_.CheckSatisfied(request.workflow_code);
    if (!st.ok()) return st;
  }
  Result<dataflow::WorkflowGraph> graph = BuildGraph(request.workflow_spec);
  if (!graph.ok()) return graph.status();

  bool cold = AcquireInstance();
  struct Release {
    ExecutionEngine* engine;
    ~Release() { engine->ReleaseInstance(); }
  } release{this};

  if (cold) {
    em.cold_starts.Inc();
    telemetry::ScopedSpan cold_span("engine.cold_start", &em.cold_start_ms);
    if (config_.cold_start_ms > 0) {
      std::this_thread::sleep_for(std::chrono::duration<double, std::milli>(
          config_.cold_start_ms));
    }
  }

  dataflow::RunOptions run_options = request.run_options;
  // Written as !(x > 0) so a NaN deadline (library callers bypass the
  // server's 400 validation) also falls back to the engine default instead
  // of slipping through the <= comparison.
  if (!(run_options.deadline_ms > 0) && config_.max_execution_ms > 0) {
    run_options.deadline_ms = config_.max_execution_ms;
  }

  std::unique_ptr<dataflow::Mapping> mapping;
  telemetry::Histogram* first_output_ms = nullptr;
  if (request.mapping == "simple") {
    mapping = std::make_unique<dataflow::SequentialMapping>();
    first_output_ms = &em.first_output_simple;
  } else if (request.mapping == "multi") {
    mapping = std::make_unique<dataflow::MultiMapping>();
    first_output_ms = &em.first_output_multi;
  } else if (request.mapping == "dynamic") {
    mapping = std::make_unique<dataflow::DynamicMapping>(&broker_);
    first_output_ms = &em.first_output_dynamic;
  } else {
    return Status::InvalidArgument("unknown mapping '" + request.mapping +
                                   "'");
  }

  // §IV-E true-streaming: the mapping's emitter threads push lines into a
  // concurrent queue; a dedicated drainer forwards them to the transport
  // sink in order, so slow network writes never block PE threads. Its
  // first hand-off is the run's first output, observed once per run.
  Stopwatch watch;
  laminar::ConcurrentQueue<std::string> stdout_queue;
  std::thread drainer;
  dataflow::LineSink queue_sink;
  if (sink) {
    queue_sink = [&stdout_queue](const std::string& line) {
      stdout_queue.Push(line);
    };
    drainer = std::thread([&stdout_queue, &sink, &watch, first_output_ms] {
      bool first = true;
      while (auto line = stdout_queue.Pop()) {
        if (first) first_output_ms->Observe(watch.ElapsedMillis());
        first = false;
        sink(*line);
      }
    });
  }

  // Enactment starts here. The drainer reads the watch only after popping
  // a line pushed during the enactment, so the queue orders the two.
  watch.Reset();
  dataflow::RunResult result;
  {
    telemetry::ScopedSpan enact_span("engine.mapping_enact", &em.run_ms);
    result = mapping->Execute(graph.value(), run_options,
                              sink ? queue_sink : nullptr);
  }
  double run_ms = watch.ElapsedMillis();

  stdout_queue.Close();
  if (drainer.joinable()) drainer.join();

  em.tuples.Inc(result.tuples_processed);
  em.lines.Inc(result.output_lines.size());

  if (stats != nullptr) {
    stats->cold_start = cold;
    stats->cold_start_ms = cold ? config_.cold_start_ms : 0.0;
    stats->run_ms = run_ms;
    stats->tuples = result.tuples_processed;
    stats->lines = result.output_lines.size();
    stats->peak_workers = result.peak_workers;
    stats->failed_tuples = result.failed_tuples;
    stats->retries = result.retries;
    stats->dlq_depth = result.dlq_depth;
    stats->error_samples = result.error_samples;
  }
  if (!result.status.ok()) return result.status;
  succeeded = true;
  return result;
}

}  // namespace laminar::engine
