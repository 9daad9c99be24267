#include <set>
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <map>

#include "dataflow/dynamic_mapping.hpp"
#include "dataflow/multi_mapping.hpp"
#include "dataflow/pe_library.hpp"
#include "dataflow/sequential_mapping.hpp"

namespace laminar::dataflow {
namespace {

std::unique_ptr<WorkflowGraph> IsPrimeGraph(uint64_t seed = 42) {
  auto g = std::make_unique<WorkflowGraph>("isprime_wf");
  auto& producer = g->AddPE<NumberProducer>(seed);
  auto& isprime = g->AddPE<IsPrime>();
  auto& printer = g->AddPE<PrintPrime>();
  EXPECT_TRUE(g->Connect(producer, isprime).ok());
  EXPECT_TRUE(g->Connect(isprime, printer).ok());
  return g;
}

std::unique_ptr<WorkflowGraph> WordCountGraph() {
  auto g = std::make_unique<WorkflowGraph>("wordcount_wf");
  auto& lines = g->AddPE<LineProducer>(std::vector<std::string>{
      "the quick brown fox", "the lazy dog", "the fox again"});
  auto& tok = g->AddPE<Tokenizer>();
  auto& counter = g->AddPE<WordCounter>();
  auto& printer = g->AddPE<CountPrinter>();
  EXPECT_TRUE(g->Connect(lines, tok).ok());
  EXPECT_TRUE(g->Connect(tok, counter, Grouping::GroupBy("word")).ok());
  EXPECT_TRUE(g->Connect(counter, printer, Grouping::AllToOne()).ok());
  return g;
}

std::unique_ptr<Mapping> MakeMapping(const std::string& name) {
  if (name == "simple") return std::make_unique<SequentialMapping>();
  if (name == "multi") return std::make_unique<MultiMapping>();
  return std::make_unique<DynamicMapping>();
}

std::multiset<std::string> AsMultiset(const std::vector<std::string>& lines) {
  return {lines.begin(), lines.end()};
}

// ---- Sequential reference behaviour ----

TEST(SequentialMapping, IsPrimeOutputsOnlyPrimes) {
  auto g = IsPrimeGraph();
  SequentialMapping mapping;
  RunOptions options;
  options.input = Value(50);
  RunResult result = mapping.Execute(*g, options);
  ASSERT_TRUE(result.status.ok());
  EXPECT_FALSE(result.output_lines.empty());
  for (const std::string& line : result.output_lines) {
    EXPECT_NE(line.find("is prime"), std::string::npos);
  }
  EXPECT_GE(result.tuples_processed, 50u);
}

TEST(SequentialMapping, ArrayInputDrivesPerElement) {
  WorkflowGraph g;
  auto& lines = g.AddPE<LineProducer>(std::vector<std::string>{"a b", "c"});
  auto& tok = g.AddPE<Tokenizer>();
  auto& sink = g.AddPE<NullSink>();
  ASSERT_TRUE(g.Connect(lines, tok).ok());
  ASSERT_TRUE(g.Connect(tok, sink).ok());
  SequentialMapping mapping;
  RunOptions options;
  options.input = Value(Value::Array{Value(0), Value(1)});
  RunResult result = mapping.Execute(g, options);
  ASSERT_TRUE(result.status.ok());
  // 2 producer iterations -> "a b" + "c" -> 3 words.
  ASSERT_EQ(result.output_lines.size(), 1u);
  EXPECT_EQ(result.output_lines[0], "NullSink received 3 tuples");
}

TEST(SequentialMapping, InvalidGraphFails) {
  WorkflowGraph g;
  SequentialMapping mapping;
  RunResult result = mapping.Execute(g, RunOptions{});
  EXPECT_FALSE(result.status.ok());
}

TEST(SequentialMapping, WordCountExactCounts) {
  auto g = WordCountGraph();
  SequentialMapping mapping;
  RunOptions options;
  options.input = Value(3);  // all three lines, once each
  RunResult result = mapping.Execute(*g, options);
  ASSERT_TRUE(result.status.ok());
  ASSERT_FALSE(result.output_lines.empty());
  EXPECT_EQ(result.output_lines[0], "the: 3");  // most frequent word first
  std::multiset<std::string> lines = AsMultiset(result.output_lines);
  EXPECT_TRUE(lines.contains("fox: 2"));
  EXPECT_TRUE(lines.contains("dog: 1"));
}

// ---- Multi mapping specifics ----

TEST(MultiMapping, PartitionMatchesPaperExample) {
  // Fig. 5b: 9 processes over NumberProducer/IsPrime/PrintPrime ->
  // {producer: range(0,1), isprime: range(1,5), printer: range(5,9)}.
  auto g = IsPrimeGraph();
  auto partition = PartitionRanks(*g, 9);
  EXPECT_EQ(partition[0], std::make_pair(0, 1));
  EXPECT_EQ(partition[1], std::make_pair(1, 5));
  EXPECT_EQ(partition[2], std::make_pair(5, 9));
}

TEST(MultiMapping, PartitionRaisesTooSmallProcessCount) {
  auto g = IsPrimeGraph();
  auto partition = PartitionRanks(*g, 1);  // infeasible, min is 3
  int total = 0;
  for (auto [first, last] : partition) {
    EXPECT_LT(first, last);
    total = std::max(total, last);
  }
  EXPECT_EQ(total, 3);
}

TEST(MultiMapping, VerbosePrintsPartitionAndRanks) {
  auto g = IsPrimeGraph();
  MultiMapping mapping;
  RunOptions options;
  options.input = Value(10);
  options.num_processes = 9;
  options.verbose = true;
  RunResult result = mapping.Execute(*g, options);
  ASSERT_TRUE(result.status.ok());
  bool partition_line = false;
  int rank_lines = 0;
  for (const std::string& line : result.output_lines) {
    if (line.find("Partition: {'NumberProducer': range(0, 1)") == 0) {
      partition_line = true;
    }
    if (line.find("): Processed ") != std::string::npos) ++rank_lines;
  }
  EXPECT_TRUE(partition_line);
  EXPECT_EQ(rank_lines, 9);
  EXPECT_EQ(result.partition.at("IsPrime"), std::make_pair(1, 5));
}

TEST(MultiMapping, GroupByKeepsKeysTogether) {
  auto g = WordCountGraph();
  MultiMapping mapping;
  RunOptions options;
  options.input = Value(3);
  options.num_processes = 8;
  RunResult result = mapping.Execute(*g, options);
  ASSERT_TRUE(result.status.ok());
  // Counts must be exact despite 'the' tuples flowing through many ranks:
  // group_by('word') pins each word to one WordCounter rank.
  std::multiset<std::string> lines = AsMultiset(result.output_lines);
  EXPECT_TRUE(lines.contains("the: 3")) << result.output_lines.size();
  EXPECT_TRUE(lines.contains("fox: 2"));
}

TEST(MultiMapping, OneToAllBroadcasts) {
  WorkflowGraph g;
  auto& producer = g.AddPE<NumberProducer>(1);
  auto& sink = g.AddPE<NullSink>();
  ASSERT_TRUE(g.Connect(g.IndexOf(producer), kDefaultOutput, g.IndexOf(sink),
                        kDefaultInput, Grouping::OneToAll())
                  .ok());
  MultiMapping mapping;
  RunOptions options;
  options.input = Value(5);
  options.num_processes = 4;  // producer 1 rank + sink 3 ranks
  RunResult result = mapping.Execute(g, options);
  ASSERT_TRUE(result.status.ok());
  // Every sink rank logs its own count; totals must be 5 per rank.
  int total = 0;
  for (const std::string& line : result.output_lines) {
    size_t pos = line.find("received ");
    ASSERT_NE(pos, std::string::npos);
    total += std::stoi(line.substr(pos + 9));
  }
  EXPECT_EQ(total, 15);  // 5 tuples x 3 ranks
}

// ---- Dynamic mapping specifics ----

TEST(DynamicMapping, AutoscalesUnderLoad) {
  WorkflowGraph g;
  auto& producer = g.AddPE<NumberProducer>(3);
  auto& burn = g.AddPE<CpuBurn>(3'000'000);
  auto& sink = g.AddPE<NullSink>();
  ASSERT_TRUE(g.Connect(producer, burn).ok());
  ASSERT_TRUE(g.Connect(burn, sink).ok());
  DynamicMapping mapping;
  RunOptions options;
  options.input = Value(64);
  options.initial_workers = 1;
  options.max_workers = 6;
  options.autoscale = true;
  options.autoscale_queue_per_worker = 2;
  RunResult result = mapping.Execute(g, options);
  ASSERT_TRUE(result.status.ok());
  EXPECT_GT(result.peak_workers, 1);
}

TEST(DynamicMapping, NoAutoscaleKeepsPoolFixed) {
  auto g = IsPrimeGraph();
  DynamicMapping mapping;
  RunOptions options;
  options.input = Value(20);
  options.initial_workers = 2;
  options.autoscale = false;
  RunResult result = mapping.Execute(*g, options);
  ASSERT_TRUE(result.status.ok());
  EXPECT_EQ(result.peak_workers, 2);
}

TEST(DynamicMapping, SharedBrokerAccumulatesStats) {
  broker::Broker shared;
  auto g = IsPrimeGraph();
  DynamicMapping mapping(&shared);
  RunOptions options;
  options.input = Value(10);
  RunResult result = mapping.Execute(*g, options);
  ASSERT_TRUE(result.status.ok());
  EXPECT_GT(shared.stats().pushes, 0u);
  EXPECT_GT(shared.stats().pops, 0u);
}

/// Forwards each iteration index and counts its Process calls, so a sink
/// can tell how far the producer had got when a line arrived.
class CountingProducer final
    : public Clonable<CountingProducer, ProducerBase> {
 public:
  static inline std::atomic<int64_t> processed{0};
  void Process(std::string_view, const Value& value, Emitter& out) override {
    processed.fetch_add(1, std::memory_order_relaxed);
    out.Emit(kDefaultOutput, value);
  }
};

std::unique_ptr<WorkflowGraph> CountingEchoGraph() {
  auto g = std::make_unique<WorkflowGraph>("counting_echo");
  auto& producer = g->AddPE<CountingProducer>();
  auto& pass = g->AddPE<FunctionPE>(
      [](const Value& v) -> std::optional<Value> { return v; }, "Pass");
  auto& echo = g->AddPE<EchoSink>();
  EXPECT_TRUE(g->Connect(producer, pass).ok());
  EXPECT_TRUE(g->Connect(pass, echo).ok());
  return g;
}

// Workers pop downstream queues first, so the sink's first line arrives
// after about one receive batch of producer work, not after the producer's
// whole queue has drained.
TEST(DynamicMapping, FirstSinkLineBeforeProducerDrains) {
  constexpr int64_t kIterations = 2000;
  RunOptions reference_options;
  reference_options.input = Value(kIterations);
  RunResult expected =
      SequentialMapping().Execute(*CountingEchoGraph(), reference_options);
  ASSERT_TRUE(expected.status.ok());
  ASSERT_EQ(expected.output_lines.size(), static_cast<size_t>(kIterations));

  // Returns the producer's count when the first line reached the sink.
  auto run = [&](const RunOptions& options) {
    CountingProducer::processed.store(0);
    int64_t count_at_first_line = -1;
    LineSink sink = [&](const std::string&) {
      if (count_at_first_line < 0) {
        count_at_first_line = CountingProducer::processed.load();
      }
    };
    RunResult result =
        DynamicMapping().Execute(*CountingEchoGraph(), options, sink);
    EXPECT_TRUE(result.status.ok()) << result.status.ToString();
    EXPECT_EQ(AsMultiset(result.output_lines),
              AsMultiset(expected.output_lines));
    EXPECT_EQ(CountingProducer::processed.load(), kIterations);
    return count_at_first_line;
  };

  // One worker: serial and deterministic. It pops one receive batch of
  // producer iterations, then drains their tuples through Pass and EchoSink
  // before it pops the next.
  RunOptions serial;
  serial.input = Value(kIterations);
  serial.initial_workers = 1;
  serial.max_workers = 1;
  serial.autoscale = false;
  const int64_t serial_count = run(serial);
  EXPECT_GE(serial_count, 1);
  EXPECT_LE(serial_count, serial.recv_batch_size);

  RunOptions defaults;
  defaults.input = Value(kIterations);
  const int64_t default_count = run(defaults);
  EXPECT_GE(default_count, 1);
  EXPECT_LT(default_count, 1000);
}

// ---- Equivalence property: every mapping computes the same answer ----

class MappingEquivalence : public ::testing::TestWithParam<const char*> {};

TEST_P(MappingEquivalence, IsPrimeSameOutputMultiset) {
  SequentialMapping reference;
  RunOptions options;
  options.input = Value(40);
  options.num_processes = 7;
  RunResult expected = reference.Execute(*IsPrimeGraph(), options);
  ASSERT_TRUE(expected.status.ok());

  std::unique_ptr<Mapping> mapping = MakeMapping(GetParam());
  RunResult actual = mapping->Execute(*IsPrimeGraph(), options);
  ASSERT_TRUE(actual.status.ok()) << actual.status.ToString();
  EXPECT_EQ(AsMultiset(actual.output_lines), AsMultiset(expected.output_lines));
}

TEST_P(MappingEquivalence, WordCountSameOutputMultiset) {
  SequentialMapping reference;
  RunOptions options;
  options.input = Value(6);
  options.num_processes = 8;
  RunResult expected = reference.Execute(*WordCountGraph(), options);
  ASSERT_TRUE(expected.status.ok());

  std::unique_ptr<Mapping> mapping = MakeMapping(GetParam());
  RunResult actual = mapping->Execute(*WordCountGraph(), options);
  ASSERT_TRUE(actual.status.ok()) << actual.status.ToString();
  EXPECT_EQ(AsMultiset(actual.output_lines), AsMultiset(expected.output_lines));
}

TEST_P(MappingEquivalence, AggregationMatches) {
  auto make_graph = [] {
    auto g = std::make_unique<WorkflowGraph>("agg");
    auto& sensor = g->AddPE<SensorProducer>(11);
    auto& agg = g->AddPE<AggregateData>("temperature");
    auto& sink = g->AddPE<NullSink>();
    EXPECT_TRUE(g->Connect(sensor, agg, Grouping::AllToOne()).ok());
    EXPECT_TRUE(g->Connect(agg, sink).ok());
    return g;
  };
  RunOptions options;
  options.input = Value(30);
  options.num_processes = 6;
  SequentialMapping reference;
  RunResult expected = reference.Execute(*make_graph(), options);
  std::unique_ptr<Mapping> mapping = MakeMapping(GetParam());
  RunResult actual = mapping->Execute(*make_graph(), options);
  ASSERT_TRUE(actual.status.ok());
  EXPECT_EQ(AsMultiset(actual.output_lines), AsMultiset(expected.output_lines));
}

INSTANTIATE_TEST_SUITE_P(AllMappings, MappingEquivalence,
                         ::testing::Values("simple", "multi", "dynamic"));

// ---- Input expansion helper ----

TEST(ProducerIterations, IntArrayAndScalar) {
  EXPECT_EQ(ProducerIterations(Value(3)).size(), 3u);
  EXPECT_EQ(ProducerIterations(Value(0)).size(), 0u);
  Value arr = Value::MakeArray();
  arr.push_back("a");
  arr.push_back("b");
  EXPECT_EQ(ProducerIterations(arr).size(), 2u);
  EXPECT_EQ(ProducerIterations(arr)[1].as_string(), "b");
  EXPECT_EQ(ProducerIterations(Value("once")).size(), 1u);
}

TEST(GroupingHashFn, StableAndKeyed) {
  Value t1 = Value::MakeObject();
  t1["word"] = "fox";
  t1["count"] = 1;
  Value t2 = Value::MakeObject();
  t2["word"] = "fox";
  t2["count"] = 99;  // different payload, same key
  EXPECT_EQ(GroupingHash(t1, "word"), GroupingHash(t2, "word"));
  Value t3 = Value::MakeObject();
  t3["word"] = "dog";
  EXPECT_NE(GroupingHash(t1, "word"), GroupingHash(t3, "word"));
  // Missing key: falls back to whole-tuple hash.
  EXPECT_NE(GroupingHash(t1, "missing"), GroupingHash(t2, "missing"));
}

}  // namespace
}  // namespace laminar::dataflow
