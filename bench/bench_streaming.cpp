// Reproduces the §IV-E true-streaming evaluation: HTTP/1.1-style batch
// responses (Laminar 1.0) vs HTTP/2-style streamed responses (Laminar 2.0).
//
// A workflow emits one output line per tuple while burning CPU per tuple, so
// output trickles out over the run. The batch transport buffers everything
// until the workflow ends; the streaming transport forwards each line as it
// is produced. The headline metric is time-to-first-output. The batch row
// runs the simple mapping (the Laminar 1.0 baseline); the streamed rows run
// each of the three mappings, since a mapping that holds back its sink's
// queue defeats streaming as surely as a batch transport does.
//
// Usage: bench_streaming [--smoke]
// Every cell is the median of 3 trials (min and max in the report). --smoke
// runs one small trial per cell and is the parity gate: every mapping's
// sorted lines, streamed or batched, must equal the simple mapping's
// streamed lines (exit 1 on divergence).
#include <algorithm>
#include <cstdio>
#include <cstring>
#include <string>
#include <vector>

#include "bench_util.hpp"
#include "client/connect.hpp"
#include "common/json.hpp"

using namespace laminar;

namespace {

constexpr const char* kMappings[] = {"simple", "multi", "dynamic"};

Value StreamSpec(int64_t burn_iters) {
  const char* templ = R"({
    "name": "stream_wf",
    "pes": [
      {"name": "Producer", "type": "NumberProducer",
       "params": {"seed": 5, "lo": 1, "hi": 100}},
      {"name": "Burn", "type": "CpuBurn", "params": {"iters": %lld}},
      {"name": "Echo", "type": "EchoSink", "params": {}}
    ],
    "edges": [
      {"from": "Producer", "to": "Burn"},
      {"from": "Burn", "to": "Echo"}
    ]
  })";
  char buf[1024];
  std::snprintf(buf, sizeof buf, templ, static_cast<long long>(burn_iters));
  return json::Parse(buf).value();
}

/// Median and range of one timing over a cell's trials.
struct Spread {
  double median = 0.0, min = 0.0, max = 0.0;
};

Spread Summarize(std::vector<double> v) {
  std::sort(v.begin(), v.end());
  return {v[v.size() / 2], v.front(), v.back()};
}

/// One table cell: first-line and total times over `trials` runs, each on a
/// fresh in-process server, plus the first run's sorted lines for the
/// parity check.
struct Cell {
  Spread first_line, total;
  std::vector<std::string> sorted_lines;
  bool ok = true;
};

Cell Measure(net::HttpConnection::Mode mode, const char* mapping, int tuples,
             int64_t burn, int trials) {
  Cell cell;
  std::vector<double> first_line, total;
  for (int t = 0; t < trials; ++t) {
    server::ServerConfig config;
    config.engine.cold_start_ms = 0;
    client::InProcessLaminar laminar = client::ConnectInProcess(config, mode);
    client::RunOutcome outcome =
        laminar.client->RunSpec(StreamSpec(burn), mapping, Value(tuples));
    if (!outcome.status.ok()) {
      std::printf("%s run failed: %s\n", mapping,
                  outcome.status.ToString().c_str());
      cell.ok = false;
    }
    first_line.push_back(outcome.first_line_ms);
    total.push_back(outcome.total_ms);
    if (t == 0) {
      cell.sorted_lines = std::move(outcome.lines);
      std::sort(cell.sorted_lines.begin(), cell.sorted_lines.end());
    }
  }
  cell.first_line = Summarize(std::move(first_line));
  cell.total = Summarize(std::move(total));
  return cell;
}

void AddRow(bench::BenchReport& report, int tuples, const char* mode,
            const char* mapping, const Cell& cell, double gain) {
  Value& row = report.AddRow();
  row["tuples"] = static_cast<int64_t>(tuples);
  row["mode"] = mode;
  row["mapping"] = mapping;
  row["first_line_ms"] = cell.first_line.median;
  row["first_line_ms_min"] = cell.first_line.min;
  row["first_line_ms_max"] = cell.first_line.max;
  row["total_ms"] = cell.total.median;
  row["total_ms_min"] = cell.total.min;
  row["total_ms_max"] = cell.total.max;
  row["lines"] = static_cast<int64_t>(cell.sorted_lines.size());
  if (gain > 0) row["ttfb_gain"] = gain;
}

}  // namespace

int main(int argc, char** argv) {
  bool smoke = false;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--smoke") == 0) smoke = true;
  }
  std::printf("== §IV-E: batch (HTTP/1.1, Laminar 1.0) vs true streaming "
              "(HTTP/2, Laminar 2.0) ==\n\n");
  const int64_t burn = smoke ? 100'000 : 1'500'000;  // CPU work per tuple
  const int trials = smoke ? 1 : 3;
  const std::vector<int> tuple_counts =
      smoke ? std::vector<int>{40} : std::vector<int>{20, 50, 100, 200};
  std::printf("workflow: NumberProducer -> CpuBurn(%lld iters/tuple) -> "
              "EchoSink (1 line per tuple); median of %d trial(s)\n\n",
              static_cast<long long>(burn), trials);
  std::printf("%-8s %-8s %-9s %-16s %-16s %-8s %-10s\n", "tuples", "mode",
              "mapping", "first-line (ms)", "total (ms)", "lines",
              "ttfb gain");

  bench::BenchReport report("streaming");
  double max_gain = 0.0;
  bool parity_ok = true;
  for (int tuples : tuple_counts) {
    Cell batch = Measure(net::HttpConnection::Mode::kBatch, "simple", tuples,
                         burn, trials);
    std::printf("%-8d %-8s %-9s %-16.2f %-16.2f %-8zu\n", tuples, "batch",
                "simple", batch.first_line.median, batch.total.median,
                batch.sorted_lines.size());
    AddRow(report, tuples, "batch", "simple", batch, 0.0);
    std::vector<std::string> reference;
    for (const char* mapping : kMappings) {
      Cell stream = Measure(net::HttpConnection::Mode::kStreaming, mapping,
                            tuples, burn, trials);
      const double gain = stream.first_line.median > 0
                              ? batch.first_line.median /
                                    stream.first_line.median
                              : 0.0;
      max_gain = std::max(max_gain, gain);
      std::printf("%-8s %-8s %-9s %-16.2f %-16.2f %-8zu %-.1fx\n", "",
                  "stream", mapping, stream.first_line.median,
                  stream.total.median, stream.sorted_lines.size(), gain);
      AddRow(report, tuples, "stream", mapping, stream, gain);
      if (reference.empty()) reference = stream.sorted_lines;
      const bool same = stream.ok && !stream.sorted_lines.empty() &&
                        stream.sorted_lines == reference;
      if (!same) {
        std::printf("  PARITY FAILED: %s streamed %zu lines, simple %zu\n",
                    mapping, stream.sorted_lines.size(), reference.size());
      }
      parity_ok = parity_ok && same;
    }
    if (!batch.ok || batch.sorted_lines != reference) {
      std::printf("  PARITY FAILED: batched lines differ from streamed\n");
      parity_ok = false;
    }
  }
  report.Set("max_ttfb_gain", max_gain);
  report.Set("trials", static_cast<int64_t>(trials));
  report.Set("parity_gate",
             parity_ok ? std::string("ok") : std::string("FAILED"));
  std::printf("\nparity gate (every mapping's sorted lines == simple's): %s\n",
              parity_ok ? "OK" : "FAILED");
  std::printf(
      "\nexpected shape: batch first-line ~= total runtime; streaming "
      "first-line ~= one tuple's work under simple and multi, plus the wait "
      "for a free worker under dynamic. The gap widens linearly with "
      "workflow length.\n\n");
  bench::PrintHistogramSummary(
      "telemetry: server-side latency percentiles",
      {{"laminar_server_request_ms", "path=\"/execute\""},
       {"laminar_engine_run_ms", ""},
       {"laminar_engine_first_output_ms", "mapping=\"simple\""},
       {"laminar_engine_first_output_ms", "mapping=\"multi\""},
       {"laminar_engine_first_output_ms", "mapping=\"dynamic\""}});
  report.AddHistogram("laminar_server_request_ms", "path=\"/execute\"");
  report.AddHistogram("laminar_engine_run_ms");
  for (const char* mapping : kMappings) {
    const std::string labels = std::string("mapping=\"") + mapping + "\"";
    report.AddHistogram("laminar_engine_first_output_ms", labels.c_str());
    report.AddHistogram("laminar_dataflow_enact_ms", labels.c_str());
  }
  if (!smoke) report.Write();  // a smoke run gates; it records nothing
  return parity_ok ? 0 : 1;
}
