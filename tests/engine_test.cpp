#include <gtest/gtest.h>

#include <atomic>
#include <thread>

#include "common/json.hpp"
#include "engine/engine.hpp"
#include "telemetry/telemetry.hpp"

namespace laminar::engine {
namespace {

Value IsPrimeSpec() {
  const char* spec = R"({
    "name": "isprime_wf",
    "pes": [
      {"name": "NumberProducer", "type": "NumberProducer",
       "params": {"seed": 42, "lo": 1, "hi": 1000}},
      {"name": "IsPrime", "type": "IsPrime", "params": {}},
      {"name": "PrintPrime", "type": "PrintPrime", "params": {}}
    ],
    "edges": [
      {"from": "NumberProducer", "to": "IsPrime"},
      {"from": "IsPrime", "to": "PrintPrime"}
    ]
  })";
  return json::Parse(spec).value();
}

// ---- Resource cache ----

TEST(ResourceCache, MissingUntilPut) {
  ResourceCache cache;
  ResourceRef ref{"data.csv", HashResourceContent("a,b\n")};
  EXPECT_EQ(cache.Missing({ref}).size(), 1u);
  cache.Put("data.csv", "a,b\n");
  EXPECT_TRUE(cache.Missing({ref}).empty());
  EXPECT_TRUE(cache.Has(ref));
  EXPECT_EQ(cache.Get("data.csv").value(), "a,b\n");
}

TEST(ResourceCache, ContentHashDetectsStaleness) {
  ResourceCache cache;
  cache.Put("f", "old content");
  ResourceRef updated{"f", HashResourceContent("new content")};
  // Same name, different content: must re-upload.
  EXPECT_EQ(cache.Missing({updated}).size(), 1u);
  cache.Put("f", "new content");
  EXPECT_TRUE(cache.Missing({updated}).empty());
}

TEST(ResourceCache, StatsTrackHitsMisses) {
  ResourceCache cache;
  ResourceRef ref{"x", HashResourceContent("1")};
  cache.Missing({ref});  // miss
  cache.Put("x", "1");
  cache.Missing({ref});  // hit
  ResourceCacheStats stats = cache.stats();
  EXPECT_EQ(stats.misses, 1u);
  EXPECT_EQ(stats.hits, 1u);
  EXPECT_EQ(stats.bytes_stored, 1u);
}

TEST(ResourceCache, LruEvictionUnderBudget) {
  ResourceCache cache(/*max_bytes=*/100);
  cache.Put("a", std::string(60, 'a'));
  cache.Put("b", std::string(60, 'b'));  // evicts a
  EXPECT_FALSE(cache.Get("a").has_value());
  EXPECT_TRUE(cache.Get("b").has_value());
  EXPECT_GE(cache.stats().evictions, 1u);
}

TEST(ResourceCache, PutReplacesAndAdjustsBytes) {
  ResourceCache cache;
  cache.Put("f", std::string(100, 'x'));
  cache.Put("f", "tiny");
  EXPECT_EQ(cache.stats().bytes_stored, 4u);
}

// ---- AutoImporter ----

TEST(AutoImporter, ClassifiesImports) {
  AutoImporter importer;
  importer.RegisterModule("my_pe_module");
  Result<ImportScan> scan = importer.Scan(
      "import os\n"
      "import numpy as np\n"
      "from my_pe_module import Helper\n"
      "from totally_missing import thing\n");
  ASSERT_TRUE(scan.ok());
  EXPECT_EQ(scan->imports.size(), 4u);
  EXPECT_EQ(scan->preinstalled,
            (std::vector<std::string>{"os", "numpy"}));
  EXPECT_EQ(scan->registered, (std::vector<std::string>{"my_pe_module"}));
  EXPECT_EQ(scan->missing, (std::vector<std::string>{"totally_missing"}));
}

TEST(AutoImporter, DottedAndMultiImports) {
  AutoImporter importer;
  Result<ImportScan> scan = importer.Scan(
      "import os.path, json\n"
      "from collections import OrderedDict, deque\n");
  ASSERT_TRUE(scan.ok());
  EXPECT_EQ(scan->imports,
            (std::vector<std::string>{"os", "json", "collections"}));
  EXPECT_TRUE(scan->missing.empty());
}

TEST(AutoImporter, DeduplicatesAndKeepsOrder) {
  AutoImporter importer;
  Result<ImportScan> scan = importer.Scan(
      "import zlib9\nimport os\nimport zlib9\n");
  ASSERT_TRUE(scan.ok());
  EXPECT_EQ(scan->imports, (std::vector<std::string>{"zlib9", "os"}));
  EXPECT_EQ(scan->missing, (std::vector<std::string>{"zlib9"}));
}

TEST(AutoImporter, CheckSatisfiedGate) {
  AutoImporter importer;
  EXPECT_TRUE(importer.CheckSatisfied("import math\nx = math.sqrt(2)\n").ok());
  Status st = importer.CheckSatisfied("import nonexistent_pkg\n");
  EXPECT_EQ(st.code(), StatusCode::kFailedPrecondition);
  importer.AddPreinstalled("nonexistent_pkg");
  EXPECT_TRUE(importer.CheckSatisfied("import nonexistent_pkg\n").ok());
}

TEST(AutoImporter, RelativeImportsIgnored) {
  AutoImporter importer;
  Result<ImportScan> scan = importer.Scan("from . import sibling\n");
  ASSERT_TRUE(scan.ok());
  EXPECT_TRUE(scan->imports.empty());
}

// ---- Workflow spec ----

TEST(WorkflowSpec, BuildsValidGraph) {
  Result<dataflow::WorkflowGraph> graph = BuildGraph(IsPrimeSpec());
  ASSERT_TRUE(graph.ok()) << graph.status().ToString();
  EXPECT_EQ(graph->NodeCount(), 3u);
  EXPECT_EQ(graph->Edges().size(), 2u);
  EXPECT_EQ(graph->Node(0).name(), "NumberProducer");
}

TEST(WorkflowSpec, RejectsUnknownType) {
  Value spec = IsPrimeSpec();
  spec["pes"].mutable_array()[0]["type"] = "Nonexistent";
  EXPECT_FALSE(BuildGraph(spec).ok());
}

TEST(WorkflowSpec, RejectsDuplicateNamesAndBadEdges) {
  Value spec = IsPrimeSpec();
  spec["pes"].mutable_array()[1]["name"] = "NumberProducer";
  EXPECT_FALSE(BuildGraph(spec).ok());

  Value spec2 = IsPrimeSpec();
  spec2["edges"].mutable_array()[0]["to"] = "Ghost";
  EXPECT_FALSE(BuildGraph(spec2).ok());
}

TEST(WorkflowSpec, GroupByRequiresKey) {
  Value edge = Value::MakeObject();
  edge["grouping"] = "group_by";
  EXPECT_FALSE(ParseGrouping(edge).ok());
  edge["key"] = "word";
  Result<dataflow::Grouping> g = ParseGrouping(edge);
  ASSERT_TRUE(g.ok());
  EXPECT_EQ(g->key, "word");
  Value bad = Value::MakeObject();
  bad["grouping"] = "teleport";
  EXPECT_FALSE(ParseGrouping(bad).ok());
}

TEST(WorkflowSpec, EveryKnownTypeConstructs) {
  for (const std::string& type : KnownPeTypes()) {
    Value params = Value::MakeObject();
    if (type == "LineProducer") {
      params["lines"].push_back("a line");
    }
    Result<std::unique_ptr<dataflow::ProcessingElement>> pe =
        CreatePe(type, params);
    EXPECT_TRUE(pe.ok()) << type << ": " << pe.status().ToString();
  }
}

// ---- ExecutionEngine ----

EngineConfig FastConfig() {
  EngineConfig config;
  config.cold_start_ms = 0;
  return config;
}

TEST(Engine, ExecutesAndStreamsLines) {
  ExecutionEngine engine(FastConfig());
  ExecuteRequest req;
  req.workflow_spec = IsPrimeSpec();
  req.run_options.input = Value(30);
  std::vector<std::string> streamed;
  ExecuteStats stats;
  Result<dataflow::RunResult> result = engine.Execute(
      req, [&](const std::string& line) { streamed.push_back(line); }, &stats);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_EQ(streamed.size(), result->output_lines.size());
  EXPECT_EQ(stats.lines, streamed.size());
  EXPECT_GE(stats.tuples, 30u);
}

TEST(Engine, AllMappingsWork) {
  ExecutionEngine engine(FastConfig());
  for (const char* mapping : {"simple", "multi", "dynamic"}) {
    ExecuteRequest req;
    req.workflow_spec = IsPrimeSpec();
    req.mapping = mapping;
    req.run_options.input = Value(10);
    Result<dataflow::RunResult> result = engine.Execute(req);
    EXPECT_TRUE(result.ok()) << mapping << ": " << result.status().ToString();
  }
  ExecuteRequest bad;
  bad.workflow_spec = IsPrimeSpec();
  bad.mapping = "teleport";
  EXPECT_FALSE(engine.Execute(bad).ok());
}

// One first-output sample per streamed run that produced a line: none for
// an unstreamed run, none for a streamed run with no output.
TEST(Engine, FirstOutputObservedOncePerStreamedRunWithOutput) {
  ExecutionEngine engine(FastConfig());
  auto samples = [](const std::string& mapping) {
    const telemetry::Histogram* h =
        telemetry::MetricsRegistry::Global().FindHistogram(
            "laminar_engine_first_output_ms", "mapping=\"" + mapping + "\"");
    return h == nullptr ? uint64_t{0} : h->snapshot().count;
  };
  for (const char* mapping : {"simple", "multi", "dynamic"}) {
    ExecuteRequest req;
    req.workflow_spec = IsPrimeSpec();
    req.mapping = mapping;
    req.run_options.input = Value(30);
    size_t lines = 0;
    auto sink = [&lines](const std::string&) { ++lines; };

    const uint64_t before = samples(mapping);
    ASSERT_TRUE(engine.Execute(req, sink).ok()) << mapping;
    ASSERT_GT(lines, 1u) << mapping;
    EXPECT_EQ(samples(mapping), before + 1) << mapping;

    ASSERT_TRUE(engine.Execute(req).ok()) << mapping;  // not streamed
    req.run_options.input = Value(0);                  // streamed, no lines
    lines = 0;
    ASSERT_TRUE(engine.Execute(req, sink).ok()) << mapping;
    EXPECT_EQ(lines, 0u) << mapping;
    EXPECT_EQ(samples(mapping), before + 1) << mapping;
  }
  const Value totals = ExecutionTotalsJson();
  EXPECT_GT(totals.GetDouble("firstOutputMsP50"), 0.0);
  EXPECT_GE(totals.GetDouble("firstOutputMsP95"),
            totals.GetDouble("firstOutputMsP50"));
}

TEST(Engine, MissingResourcesBlockExecution) {
  ExecutionEngine engine(FastConfig());
  ExecuteRequest req;
  req.workflow_spec = IsPrimeSpec();
  req.resources = {{"input.csv", HashResourceContent("1,2,3")}};
  Result<dataflow::RunResult> result = engine.Execute(req);
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kFailedPrecondition);
  EXPECT_NE(result.status().message().find("input.csv"), std::string::npos);
  // Upload, then it runs.
  engine.PutResource("input.csv", "1,2,3");
  EXPECT_TRUE(engine.Execute(req).ok());
}

TEST(Engine, ImportGateUsesWorkflowCode) {
  ExecutionEngine engine(FastConfig());
  ExecuteRequest req;
  req.workflow_spec = IsPrimeSpec();
  req.workflow_code = "import missing_dependency\n";
  Result<dataflow::RunResult> result = engine.Execute(req);
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kFailedPrecondition);
  engine.auto_importer().RegisterModule("missing_dependency");
  EXPECT_TRUE(engine.Execute(req).ok());
}

TEST(Engine, ColdStartThenWarm) {
  EngineConfig config;
  config.cold_start_ms = 40;
  config.max_warm_instances = 2;
  ExecutionEngine engine(config);
  ExecuteRequest req;
  req.workflow_spec = IsPrimeSpec();
  req.run_options.input = Value(3);
  ExecuteStats first_stats;
  ASSERT_TRUE(engine.Execute(req, nullptr, &first_stats).ok());
  EXPECT_TRUE(first_stats.cold_start);
  EXPECT_EQ(engine.warm_instances(), 1);
  ExecuteStats second_stats;
  ASSERT_TRUE(engine.Execute(req, nullptr, &second_stats).ok());
  EXPECT_FALSE(second_stats.cold_start);  // warm reuse
}

TEST(Engine, ConcurrencyBounded) {
  EngineConfig config;
  config.cold_start_ms = 0;
  config.max_concurrent = 2;
  ExecutionEngine engine(config);
  // 4 concurrent executions with a CPU-heavy workflow: all must finish.
  Value spec = json::Parse(R"({
    "name": "burn",
    "pes": [
      {"name": "P", "type": "NumberProducer", "params": {}},
      {"name": "B", "type": "CpuBurn", "params": {"iters": 2000000}},
      {"name": "S", "type": "NullSink", "params": {}}
    ],
    "edges": [{"from": "P", "to": "B"}, {"from": "B", "to": "S"}]
  })").value();
  std::vector<std::thread> threads;
  std::atomic<int> ok_count{0};
  for (int i = 0; i < 4; ++i) {
    threads.emplace_back([&] {
      ExecuteRequest req;
      req.workflow_spec = spec;
      req.run_options.input = Value(4);
      if (engine.Execute(req).ok()) ok_count.fetch_add(1);
    });
  }
  for (auto& t : threads) t.join();
  EXPECT_EQ(ok_count.load(), 4);
}

TEST(Engine, InvalidSpecFailsCleanly) {
  ExecutionEngine engine(FastConfig());
  ExecuteRequest req;
  req.workflow_spec = Value("not an object");
  EXPECT_FALSE(engine.Execute(req).ok());
}

}  // namespace
}  // namespace laminar::engine
