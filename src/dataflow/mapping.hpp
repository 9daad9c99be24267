// Mappings translate an abstract workflow graph onto an execution substrate
// (paper §II-A): Sequential (simple), Multi (static rank partitioning over
// threads — dispel4py's multiprocessing mapping), and Dynamic (broker-fed
// worker pool with autoscaling — dispel4py's Redis mapping).
#pragma once

#include <atomic>
#include <cstdint>
#include <functional>
#include <map>
#include <mutex>
#include <string>
#include <utility>
#include <vector>

#include "common/status.hpp"
#include "common/value.hpp"
#include "dataflow/graph.hpp"
#include "telemetry/telemetry.hpp"

namespace laminar::dataflow {

/// Receives workflow stdout line by line (thread-safe to call from any
/// mapping thread). The serverless engine bridges this into the HTTP/2
/// response stream; nullptr sinks are allowed (lines are still collected in
/// RunResult).
using LineSink = std::function<void(const std::string&)>;

struct RunOptions {
  /// Producer seed: an integer N drives each producer N times with the
  /// iteration index; an array drives once per element; any other value
  /// drives exactly once.
  Value input = Value(1);
  /// Multi mapping: total rank count to partition across PEs.
  int num_processes = 4;
  /// Dynamic mapping: worker pool shape.
  int initial_workers = 2;
  int max_workers = 8;
  bool autoscale = true;
  /// Dynamic mapping: queue depth per worker that triggers scale-up.
  int autoscale_queue_per_worker = 4;
  /// Dynamic mapping data plane: emitted tuples accumulate in
  /// per-destination send buffers and are flushed to the broker with one
  /// batched push when a buffer reaches send_batch_size items or its oldest
  /// item exceeds send_batch_max_delay_ms, whichever comes first; workers
  /// drain up to recv_batch_size items per blocking pop. Per-edge FIFO
  /// order is preserved. 1/1 runs the same buffers and batched broker
  /// operations with one tuple in each push and pop. Micro-batching
  /// trades up to send_batch_max_delay_ms of per-tuple latency for a large
  /// cut in broker lock/wake traffic. Workers pop
  /// downstream queues before upstream ones (reverse topological order),
  /// so a sink's first line waits for about one recv batch of producer
  /// work, not for the producer's whole queue to drain.
  int send_batch_size = 32;
  double send_batch_max_delay_ms = 1.0;
  int recv_batch_size = 32;
  /// Print per-rank iteration summaries (the paper's -v output).
  bool verbose = false;
  /// Serverless duration limit in milliseconds (0 = none). A run that
  /// exceeds it stops processing further tuples and reports
  /// kDeadlineExceeded; output produced before the cutoff is kept.
  double deadline_ms = 0.0;
  /// Namespace prefix for this run's broker keys (dynamic mapping). The
  /// run's keys become `<run_scope>wf:N:*`; empty (the default) keeps the
  /// legacy `wf:N:*` keys. The server sets `t:<tenant>:` for non-default
  /// tenants so one tenant's runs are scoped apart in the shared broker.
  std::string run_scope;
  /// Fault containment: a tuple whose Process throws is retried up to
  /// max_retries times (exponential backoff: retry_backoff_ms doubling per
  /// attempt, capped at 250 ms) before it is quarantined on the run's
  /// dead-letter queue. Retries re-run Process on the same instance, so
  /// emissions from failed attempts may duplicate (at-least-once).
  int max_retries = 0;
  double retry_backoff_ms = 0.0;
};

struct RunResult {
  Status status;
  /// Workflow stdout in emission order.
  std::vector<std::string> output_lines;
  /// Tuples processed across all PEs and ranks.
  uint64_t tuples_processed = 0;
  double elapsed_ms = 0.0;
  /// PE name -> [first_rank, last_rank) under the Multi mapping;
  /// PE name -> instance count elsewhere.
  std::map<std::string, std::pair<int, int>> partition;
  /// Dynamic mapping: peak concurrent workers.
  int peak_workers = 0;
  /// Fault containment: tuples that permanently failed after exhausting the
  /// retry policy (a partial failure downgrades an otherwise-OK status to
  /// kInternal with a summary; tuples_processed counts successes only).
  uint64_t failed_tuples = 0;
  /// Retry attempts spent across all tuples.
  uint64_t retries = 0;
  /// Items quarantined on the run's dead-letter queue: permanent Process
  /// failures plus undecodable/unroutable work items. Under the dynamic
  /// mapping these are mirrored onto the broker's `wf:N:dlq` list for the
  /// run's lifetime (deleted with the run's other keys on exit).
  uint64_t dlq_depth = 0;
  /// First few failure messages ("pe[port]: what()"), for diagnostics.
  std::vector<std::string> error_samples;
};

class Mapping {
 public:
  virtual ~Mapping() = default;
  /// Executes the workflow. The graph's PEs are used as prototypes and
  /// cloned per rank; the graph itself is not mutated.
  virtual RunResult Execute(const WorkflowGraph& graph,
                            const RunOptions& options,
                            const LineSink& sink = nullptr) = 0;
  virtual std::string_view name() const = 0;
};

/// Thread-safe output collector of the threaded mappings: appends each line
/// to the run's result and forwards it to the sink, one line at a time.
class SharedOutput {
 public:
  SharedOutput(RunResult& result, const LineSink& sink)
      : result_(result), sink_(sink) {}

  void Log(std::string_view line) {
    std::scoped_lock lock(mu_);
    result_.output_lines.emplace_back(line);
    if (sink_) sink_(result_.output_lines.back());
  }

 private:
  std::mutex mu_;
  RunResult& result_;
  const LineSink& sink_;
};

/// Per-run fault-containment context shared by the three mappings
/// (thread-safe). Converts PE throws into recorded per-tuple failures
/// instead of process death, applying the run's bounded
/// retry-with-exponential-backoff policy, and mirrors totals into the
/// process telemetry counters (laminar_dataflow_tuple_failures_total,
/// laminar_dataflow_retries_total, laminar_dataflow_dlq_total,
/// laminar_dataflow_decode_failures_total; all labelled mapping="...").
class FaultContext {
 public:
  FaultContext(std::string_view mapping, const RunOptions& options);

  /// Runs one tuple through `attempt` under the retry policy. Returns true
  /// on success; on exhaustion records the failure (context + the throw's
  /// what()) and returns false — the caller quarantines the tuple.
  bool InvokeWithRetries(const std::function<void()>& attempt,
                         const std::string& context);

  /// Continues the retry policy after the caller already ran — and caught —
  /// the first attempt itself. Hot loops invoke the tuple inline (no
  /// closure, no context string) and only pay for both here, on the cold
  /// failure path. `first_error` is the what() of the caught throw.
  bool RetryAfterFailure(const std::function<void()>& attempt,
                         const std::string& context, std::string first_error);

  /// Records a work item that cannot even reach a PE (undecodable payload,
  /// unroutable queue key). Counted as a decode failure and a DLQ item,
  /// not as a retryable tuple failure.
  void RecordDecodeFailure(const std::string& error);

  uint64_t failures() const {
    return failures_.load(std::memory_order_relaxed);
  }
  uint64_t retries() const { return retries_.load(std::memory_order_relaxed); }
  uint64_t dlq_items() const { return dlq_.load(std::memory_order_relaxed); }

  /// Copies totals into the result and, if any item failed while the run
  /// status is otherwise OK, downgrades it to kInternal with a failure
  /// summary (deadline/validation errors keep precedence).
  void Finalize(RunResult& result) const;

 private:
  void RecordSample(const std::string& error);

  const int max_retries_;
  const double backoff_ms_;
  std::atomic<uint64_t> failures_{0};
  std::atomic<uint64_t> retries_{0};
  std::atomic<uint64_t> dlq_{0};
  std::atomic<uint64_t> decode_failures_{0};
  mutable std::mutex samples_mu_;
  std::vector<std::string> samples_;
  telemetry::Counter& c_failures_;
  telemetry::Counter& c_retries_;
  telemetry::Counter& c_dlq_;
  telemetry::Counter& c_decode_failures_;
};

/// Expands RunOptions::input into the per-iteration payloads fed to each
/// producer (see RunOptions::input).
std::vector<Value> ProducerIterations(const Value& input);

/// Absolute NowMicros() deadline for a run, or 0 for "no deadline".
/// Defensive at the library boundary (the server additionally rejects bad
/// wire values with 400): NaN/Inf and non-positive values mean "none", and
/// huge values clamp instead of overflowing the int64 microsecond cast (UB).
int64_t DeadlineMicrosFromNow(double deadline_ms);

/// Stable routing hash for kGroupBy: hashes the grouping key field of the
/// tuple (or its full JSON if the field is missing).
uint64_t GroupingHash(const Value& tuple, const std::string& key);

}  // namespace laminar::dataflow
