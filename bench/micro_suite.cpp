// google-benchmark micro-suite: throughput of the hot paths every other
// bench and the server depend on — lexing, parsing, SPT build +
// featurization, embedding encoders, JSON, broker ops, and the SPT index.
#include <benchmark/benchmark.h>

#include "broker/broker.hpp"
#include "common/json.hpp"
#include "dataset/generator.hpp"
#include "embed/reacc_sim.hpp"
#include "embed/unixcoder_sim.hpp"
#include "pycode/lexer.hpp"
#include "pycode/parser.hpp"
#include "spt/recommend.hpp"
#include "telemetry/telemetry.hpp"

namespace laminar {
namespace {

const std::string& SamplePeCode() {
  static const std::string kCode = [] {
    dataset::DatasetConfig config;
    config.families = 1;
    config.variants_per_family = 1;
    return dataset::CodeSearchNetPeDataset::Generate(config)
        .example(0)
        .pe_code;
  }();
  return kCode;
}

void BM_Lex(benchmark::State& state) {
  const std::string& code = SamplePeCode();
  for (auto _ : state) {
    auto tokens = pycode::Lex(code);
    benchmark::DoNotOptimize(tokens);
  }
  state.SetBytesProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(code.size()));
}
BENCHMARK(BM_Lex);

void BM_Parse(benchmark::State& state) {
  const std::string& code = SamplePeCode();
  for (auto _ : state) {
    auto tree = pycode::Parse(code);
    benchmark::DoNotOptimize(tree);
  }
}
BENCHMARK(BM_Parse);

void BM_SptBuildAndFeaturize(benchmark::State& state) {
  const std::string& code = SamplePeCode();
  for (auto _ : state) {
    auto spt = spt::SptFromSource(code);
    auto features = spt::ExtractFeatures(*spt.value());
    benchmark::DoNotOptimize(features);
  }
}
BENCHMARK(BM_SptBuildAndFeaturize);

void BM_UnixcoderEncode(benchmark::State& state) {
  embed::UnixcoderSim model;
  std::string text =
      "a processing element that detects anomalies in streaming sensor "
      "temperature readings using a rolling z score window";
  for (auto _ : state) {
    auto v = model.Encode(text);
    benchmark::DoNotOptimize(v);
  }
}
BENCHMARK(BM_UnixcoderEncode);

void BM_ReaccEncode(benchmark::State& state) {
  embed::ReaccSim model;
  const std::string& code = SamplePeCode();
  for (auto _ : state) {
    auto v = model.Encode(code);
    benchmark::DoNotOptimize(v);
  }
}
BENCHMARK(BM_ReaccEncode);

void BM_JsonRoundTrip(benchmark::State& state) {
  Value doc = Value::MakeObject();
  for (int i = 0; i < 32; ++i) {
    Value pe = Value::MakeObject();
    pe["name"] = "PE" + std::to_string(i);
    pe["score"] = 0.5 + i;
    pe["tags"].push_back("stream");
    pe["tags"].push_back("serverless");
    doc["pes"].push_back(std::move(pe));
  }
  std::string text = doc.ToJson();
  for (auto _ : state) {
    auto parsed = json::Parse(text);
    benchmark::DoNotOptimize(parsed);
  }
  state.SetBytesProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(text.size()));
}
BENCHMARK(BM_JsonRoundTrip);

void BM_BrokerPushPop(benchmark::State& state) {
  broker::Broker broker;
  std::string payload(128, 'x');
  for (auto _ : state) {
    broker.RPush("q", payload);
    auto v = broker.LPop("q");
    benchmark::DoNotOptimize(v);
  }
}
BENCHMARK(BM_BrokerPushPop);

void BM_SptIndexTopK(benchmark::State& state) {
  static spt::AromaEngine* engine = [] {
    auto* e = new spt::AromaEngine();
    dataset::DatasetConfig config;
    config.variants_per_family = static_cast<size_t>(8);
    auto ds = dataset::CodeSearchNetPeDataset::Generate(config);
    for (const auto& ex : ds.examples()) {
      (void)e->AddSnippet(ex.id, ex.pe_code);
    }
    return e;
  }();
  const std::string& query = SamplePeCode();
  for (auto _ : state) {
    auto hits = engine->Search(query, 5, spt::Metric::kOverlap);
    benchmark::DoNotOptimize(hits);
  }
}
BENCHMARK(BM_SptIndexTopK);

// The budget for instrumenting hot paths: one counter increment must stay
// under 100ns even with every core incrementing the same counter (the
// sharded design keeps the contended case close to the single-thread case).
void BM_TelemetryCounterInc(benchmark::State& state) {
  static telemetry::Counter counter;
  for (auto _ : state) {
    counter.Inc();
  }
  if (state.thread_index() == 0) {
    benchmark::DoNotOptimize(counter.Value());
  }
}
BENCHMARK(BM_TelemetryCounterInc)->ThreadRange(1, 8);

void BM_TelemetryHistogramObserve(benchmark::State& state) {
  static telemetry::Histogram histogram;
  double v = 0.0;
  for (auto _ : state) {
    histogram.Observe(v);
    v += 0.125;
    if (v > 5000.0) v = 0.0;
  }
}
BENCHMARK(BM_TelemetryHistogramObserve)->ThreadRange(1, 4);

void BM_TelemetryScopedSpan(benchmark::State& state) {
  static telemetry::Histogram histogram;
  static telemetry::TraceBuffer buffer(256);
  for (auto _ : state) {
    telemetry::ScopedSpan span("bench.span", &histogram, &buffer);
    benchmark::DoNotOptimize(&span);
  }
}
BENCHMARK(BM_TelemetryScopedSpan);

void BM_TelemetryRegistryLookup(benchmark::State& state) {
  auto& reg = telemetry::MetricsRegistry::Global();
  for (auto _ : state) {
    telemetry::Counter& c =
        reg.GetCounter("laminar_bench_lookup_total", "op=\"bench\"");
    benchmark::DoNotOptimize(&c);
  }
}
BENCHMARK(BM_TelemetryRegistryLookup);

void BM_DatasetGenerate(benchmark::State& state) {
  for (auto _ : state) {
    dataset::DatasetConfig config;
    config.families = 8;
    config.variants_per_family = 4;
    auto ds = dataset::CodeSearchNetPeDataset::Generate(config);
    benchmark::DoNotOptimize(ds);
  }
}
BENCHMARK(BM_DatasetGenerate);

}  // namespace
}  // namespace laminar

BENCHMARK_MAIN();
