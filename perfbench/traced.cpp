// The traced run (--trace 1): the per-layer breakdown behind the
// end-to-end numbers.
//
// 1. The same LaminarServer stands up in-process behind a net::TcpListener
//    whose handler is a closure that times LaminarServer::Handle() and keeps
//    each request and reply body. One TCP client sends a fixed, seeded
//    sequence of every op class (search, recommend, register, remove, run);
//    call time minus handle time is the transport share.
// 2. Right after each traced request, a separate in-process instance loaded
//    with the same corpus replays the same input against each layer's public
//    functions (encoders, vector search, Aroma stages, registry, engine,
//    mappings), one timed call at a time. Pairing the two in time keeps the
//    host's drift out of the derived self times. Counts come from
//    telemetry::MetricsRegistry counter deltas; self times are derived by
//    subtraction: server.self = handle - replayed service call.
// 3. "Where the time goes": per op class, the client-observed mean and p50
//    split into transport, body JSON, the replayed service and the
//    unattributed rest (dispatch, admission, lock wait, framing), which must
//    stay within kResidualShare of the client mean. Negative derived
//    transport or self times are printed as warnings.
#include <algorithm>
#include <cstdio>
#include <map>
#include <mutex>
#include <string>
#include <thread>

#include "bench_lib.hpp"
#include "common/json.hpp"
#include "dataflow/dynamic_mapping.hpp"
#include "dataflow/sequential_mapping.hpp"
#include "embed/codet5_sim.hpp"
#include "engine/workflow_spec.hpp"
#include "harness.hpp"
#include "net/tcp.hpp"
#include "pycode/parser.hpp"
#include "simd/simd.hpp"
#include "telemetry/telemetry.hpp"

namespace perfbench {
namespace {

using laminar::Result;
using laminar::Status;
using laminar::Value;
namespace client = laminar::client;
namespace net = laminar::net;

/// Ops per class in the traced sequence (register/remove come in pairs).
constexpr size_t kTraceOps[kOpClasses] = {400, 80, 40, 40, 20};
/// The unattributed share of an op's client mean the breakdown may leave.
constexpr double kResidualShare = 0.25;

OpClass ClassOf(const std::string& path) {
  if (path == "/search/semantic") return kSearch;
  if (path == "/search/code") return kRecommend;
  if (path == "/pes/register") return kRegister;
  if (path == "/pes/remove") return kRemove;
  if (path == "/execute") return kRun;
  return kOpClasses;
}

double Since(Clock::time_point t0) { return MillisBetween(t0, Clock::now()); }

uint64_t CounterValue(const char* name, const char* labels = "") {
  const laminar::telemetry::Counter* c =
      laminar::telemetry::MetricsRegistry::Global().FindCounter(name, labels);
  return c == nullptr ? 0 : c->Value();
}

struct HandledRequest {
  double handle_ms = 0.0;
  std::string request_body;
  std::string reply_body;
};

/// Forwards a response while keeping its body (for a run, only the
/// ##END## record). End() hands the finished record to `done` before the
/// client can see the response complete, so records land in request order.
class CapturingResponder final : public net::StreamResponder {
 public:
  CapturingResponder(net::StreamResponder& inner, bool whole,
                     std::function<void(double, std::string)> done)
      : inner_(inner), whole_(whole), done_(std::move(done)) {}
  void SendChunk(std::string_view chunk) override {
    if (whole_) {
      body_.append(chunk);
    } else if (chunk.starts_with(laminar::server::LaminarServer::kEndMarker)) {
      body_ = chunk.substr(laminar::server::LaminarServer::kEndMarker.size());
    }
    inner_.SendChunk(chunk);
  }
  void End(int status) override {
    done_(Since(start_), std::move(body_));
    inner_.End(status);
  }

 private:
  net::StreamResponder& inner_;
  bool whole_;
  std::function<void(double, std::string)> done_;
  const Clock::time_point start_ = Clock::now();
  std::string body_;
};

/// LaminarServer behind a TCP listener whose handler times Handle().
class TracedServer {
 public:
  TracedServer()
      : server_(std::make_unique<laminar::server::LaminarServer>(
            ServeConfig())) {
    net::TcpListenerConfig cfg;
    cfg.port = 0;
    listener_ = std::make_unique<net::TcpListener>(
        cfg, [this](const net::HttpRequest& req, net::StreamResponder& out) {
          Handle(req, out);
        });
  }
  ~TracedServer() { listener_->Stop(); }
  TracedServer(const TracedServer&) = delete;
  TracedServer& operator=(const TracedServer&) = delete;

  Status Start() { return listener_->Start(); }
  uint16_t port() const { return listener_->port(); }
  void set_tracing(bool on) { tracing_ = on; }
  std::vector<HandledRequest> Take(OpClass cls) {
    std::lock_guard<std::mutex> lock(mu_);
    return std::move(handled_[cls]);
  }

 private:
  void Handle(const net::HttpRequest& req, net::StreamResponder& out) {
    const OpClass cls = ClassOf(req.path);
    if (!tracing_ || cls == kOpClasses) {
      server_->Handle(req, out);
      return;
    }
    CapturingResponder capture(
        out, cls != kRun, [this, cls, &req](double ms, std::string reply) {
          std::lock_guard<std::mutex> lock(mu_);
          handled_[cls].push_back({ms, req.body, std::move(reply)});
        });
    server_->Handle(req, capture);
  }

  std::unique_ptr<laminar::server::LaminarServer> server_;
  std::atomic<bool> tracing_{false};
  std::mutex mu_;
  std::vector<HandledRequest> handled_[kOpClasses];
  /// Declared last: its threads call Handle() until Stop() joins them.
  std::unique_ptr<net::TcpListener> listener_;
};

/// Per-metric samples; a metric's value is its mean.
class Samples {
 public:
  void Add(const std::string& name, double v) { s_[name].push_back(v); }
  double MeanOf(const std::string& name) const {
    auto it = s_.find(name);
    return it == s_.end() ? 0.0 : Mean(it->second);
  }

 private:
  std::map<std::string, std::vector<double>> s_;
};

}  // namespace

int RunTraced(const Options& opt, const Workload& w) {
  // Every op class runs on every workload; workloads without a corpus or
  // churn inputs borrow the small-registry ones for the same seed.
  Inputs in = MakeInputs(w, opt.seed);
  {
    const Inputs small = MakeInputs(*FindWorkload("small_registry_churn"),
                                    opt.seed);
    if (in.corpus.empty()) {
      in.corpus = small.corpus;
      in.code_queries = small.code_queries;
    }
    if (in.fresh.empty()) in.fresh = small.fresh;
  }
  Samples s;
  std::vector<double> call_ms[kOpClasses];
  std::vector<double> service[kOpClasses];
  double bytes_per_req[kOpClasses] = {};
  std::vector<double> lag_ms;
  int64_t attempted = 0;
  int64_t failed = 0;
  auto check = [&](bool ok, const std::string& what) {
    ++attempted;
    if (!ok) {
      ++failed;
      std::fprintf(stderr, "perfbench: FAILED %s\n", what.c_str());
    }
  };
  auto register_workflow = [&](client::LaminarClient& c) {
    return c.RegisterWorkflow(in.run_spec.GetString("name"), in.run_spec,
                              in.run_pes, in.run_code);
  };

  // The replay instance, loaded first so each traced request can be
  // replayed right after it: the host's speed drifts over seconds, and a
  // pair measured together keeps that drift out of the derived self times.
  client::InProcessLaminar replay = client::ConnectInProcess(ServeConfig());
  if (Result<int64_t> r = LoadCorpus(*replay.client, in);
      !r.ok() || !register_workflow(*replay.client).ok()) {
    std::fprintf(stderr, "perfbench: replay set-up failed\n");
    return 1;
  }
  laminar::search::SearchService& search = replay.server->search();
  laminar::registry::Repository& repo = replay.server->repository();
  const laminar::spt::AromaEngine& aroma = search.aroma();
  // Postings of the corpus bags, for the Aroma candidate count.
  std::map<uint64_t, std::vector<uint32_t>> postings;
  for (uint32_t d = 0; d < in.corpus.size(); ++d) {
    Result<laminar::spt::FeatureBag> bag = aroma.Featurize(in.corpus[d].code);
    if (!bag.ok()) continue;
    for (const auto& [feature, count] : bag->counts) postings[feature].push_back(d);
  }

  double cache_hits = 0.0;
  double cache_lookups = 0.0;
  auto replay_search = [&](const std::string& q) {
    const uint64_t h0 = CounterValue("laminar_search_query_cache_hits_total");
    const uint64_t m0 = CounterValue("laminar_search_query_cache_misses_total");
    Clock::time_point t0 = Clock::now();
    auto hits = search.SemanticSearch(q, laminar::search::SearchTarget::kPe, 5);
    const double semantic = Since(t0);
    const uint64_t hit =
        CounterValue("laminar_search_query_cache_hits_total") - h0;
    const uint64_t miss =
        CounterValue("laminar_search_query_cache_misses_total") - m0;
    cache_hits += static_cast<double>(hit);
    cache_lookups += static_cast<double>(hit + miss);
    t0 = Clock::now();
    laminar::embed::Vector v = search.text_encoder().EncodeText(q);
    const double encode = Since(t0);
    s.Add("search.semantic_ms", semantic);
    s.Add("embed.encode_text_ms", encode);
    if (miss > 0) s.Add("search.rank_ms", semantic - encode);
    service[kSearch].push_back(semantic);
    check(hits.size() == 5 && !v.empty(), "replayed search");
  };

  double candidates = 0.0;
  double returned = 0.0;
  const size_t retrieve_top = aroma.config().retrieve_top;
  auto replay_recommend = [&](const std::string& code) {
    Clock::time_point t0 = Clock::now();
    auto recs = search.CodeRecommendation(
        code, laminar::search::SearchTarget::kPe, 5);
    const double total = Since(t0);
    t0 = Clock::now();
    auto parsed = laminar::pycode::ParseLenient(code);
    s.Add("pycode.parse_ms", Since(t0));
    t0 = Clock::now();
    Result<laminar::spt::FeatureBag> bag = aroma.Featurize(code);
    const double featurize = Since(t0);
    t0 = Clock::now();
    auto top = aroma.Search(code, retrieve_top, laminar::spt::Metric::kOverlap);
    const double search_ms = Since(t0);
    t0 = Clock::now();
    auto full = aroma.Recommend(code);
    const double recommend = Since(t0);
    s.Add("search.recommend_ms", total);
    s.Add("spt.featurize_ms", featurize);
    s.Add("spt.topk_ms", search_ms - featurize);
    s.Add("spt.rerank_cluster_ms", recommend - search_ms);
    service[kRecommend].push_back(total);
    std::vector<char> seen(in.corpus.size(), 0);
    if (bag.ok()) {
      for (const auto& [feature, count] : bag->counts) {
        auto it = postings.find(feature);
        if (it == postings.end()) continue;
        for (uint32_t d : it->second) seen[d] = 1;
      }
    }
    candidates += static_cast<double>(std::count(seen.begin(), seen.end(), 1));
    returned += recs.ok() ? static_cast<double>(recs->size()) : 0.0;
    check(recs.ok() && parsed.ok() && top.ok() && full.ok(),
          "replayed recommend");
  };

  // Register mirrors the server's prepare + commit; returns the new id.
  const laminar::embed::CodeT5Sim codet5;
  double row_bytes = 0.0;
  auto replay_register = [&](const client::PeSource& pe) -> int64_t {
    Clock::time_point t0 = Clock::now();
    std::string description =
        codet5.Summarize(pe.code, laminar::embed::DescriptionContext::kFullClass);
    const double summarize = Since(t0);
    t0 = Clock::now();
    auto prepared = search.PreparePe(pe.name, description, "", pe.code);
    const double prepare = Since(t0);
    t0 = Clock::now();
    laminar::embed::Vector code_vec = search.code_encoder().EncodeCode(pe.code);
    s.Add("embed.encode_code_ms", Since(t0));
    laminar::registry::PeRecord record;
    record.name = pe.name;
    record.description = description;
    record.code = pe.code;
    record.type = "IterativePE";
    t0 = Clock::now();
    record.description_embedding =
        laminar::embed::ToJson(prepared.text_embedding);
    const double embedding_json = Since(t0);
    t0 = Clock::now();
    if (prepared.has_features) {
      record.spt_embedding = laminar::spt::FeatureBagToJson(prepared.features);
    }
    const double spt_json = Since(t0);
    row_bytes += static_cast<double>(
        record.name.size() + record.description.size() + record.code.size() +
        record.description_embedding.size() + record.spt_embedding.size());
    t0 = Clock::now();
    Result<int64_t> id = repo.CreatePe(record);
    const double create = Since(t0);
    t0 = Clock::now();
    if (id.ok()) search.CommitPe(id.value(), std::move(prepared));
    const double commit = Since(t0);
    s.Add("embed.summarize_ms", summarize);
    s.Add("search.prepare_pe_ms", prepare);
    s.Add("json.embedding_ms", embedding_json);
    s.Add("registry.create_pe_ms", create);
    s.Add("search.commit_pe_ms", commit);
    service[kRegister].push_back(summarize + prepare + embedding_json +
                                 spt_json + create + commit);
    check(id.ok() && !code_vec.empty(), "replayed register");
    return id.ok() ? id.value() : 0;
  };
  auto replay_remove = [&](int64_t id) {
    Clock::time_point t0 = Clock::now();
    Result<laminar::registry::PeRecord> row = repo.GetPe(id);
    const double lookup = Since(t0);
    t0 = Clock::now();
    Status removed = repo.RemovePe(id);
    const double remove = Since(t0);
    t0 = Clock::now();
    search.RemovePe(id);
    const double unindex = Since(t0);
    s.Add("registry.remove_pe_ms", remove);
    s.Add("search.remove_pe_ms", unindex);
    service[kRemove].push_back(lookup + remove + unindex);
    check(row.ok() && removed.ok(), "replayed remove");
  };

  // run: the engine, then the two mappings on their own.
  auto& broker = replay.server->engine().broker();
  Result<laminar::dataflow::WorkflowGraph> graph =
      laminar::engine::BuildGraph(in.run_spec);
  if (!graph.ok()) {
    std::fprintf(stderr, "perfbench: graph: %s\n",
                 graph.status().ToString().c_str());
    return 1;
  }
  laminar::dataflow::RunOptions run_options;
  run_options.input = Value(kRunInput);
  const char* kBrokerOps[] = {"get", "set", "push", "pop", "blocked_pop",
                              "publish"};
  auto broker_ops = [&] {
    uint64_t n = CounterValue("laminar_broker_batch_ops_total",
                              "op=\"push_multi\"") +
                 CounterValue("laminar_broker_batch_ops_total",
                              "op=\"pop_up_to\"");
    for (const char* op : kBrokerOps) {
      n += CounterValue("laminar_broker_ops_total",
                        ("op=\"" + std::string(op) + "\"").c_str());
    }
    return n;
  };
  auto batch_counts = [&] {
    return std::make_pair(
        CounterValue("laminar_broker_batch_items_total", "op=\"push_multi\"") +
            CounterValue("laminar_broker_batch_items_total",
                         "op=\"pop_up_to\""),
        CounterValue("laminar_broker_batch_ops_total", "op=\"push_multi\"") +
            CounterValue("laminar_broker_batch_ops_total", "op=\"pop_up_to\""));
  };
  uint64_t dyn_tuples = 0;
  uint64_t dyn_broker_ops = 0;
  uint64_t dyn_batch_items = 0;
  uint64_t dyn_batches = 0;
  double peak_workers = 0.0;
  auto replay_run = [&] {
    laminar::engine::ExecuteRequest req;
    req.workflow_spec = in.run_spec;
    req.workflow_code = in.run_code;
    req.mapping = "dynamic";
    req.run_options = run_options;
    Clock::time_point t0 = Clock::now();
    auto executed = replay.server->engine().Execute(req);
    const double execute = Since(t0);

    const uint64_t ops0 = broker_ops();
    const auto batch0 = batch_counts();
    Clock::time_point first{};
    auto first_sink = [&first](const std::string&) {
      if (first == Clock::time_point{}) first = Clock::now();
    };
    laminar::dataflow::DynamicMapping dynamic(&broker);
    t0 = Clock::now();
    laminar::dataflow::RunResult dyn =
        dynamic.Execute(graph.value(), run_options, first_sink);
    const double enact_dynamic = Since(t0);
    const double first_dynamic = MillisBetween(t0, first);
    dyn_broker_ops += broker_ops() - ops0;
    const auto batch1 = batch_counts();
    dyn_batch_items += batch1.first - batch0.first;
    dyn_batches += batch1.second - batch0.second;
    dyn_tuples += dyn.tuples_processed;
    peak_workers = std::max(peak_workers, static_cast<double>(dyn.peak_workers));

    first = Clock::time_point{};
    laminar::dataflow::SequentialMapping simple;
    t0 = Clock::now();
    laminar::dataflow::RunResult seq =
        simple.Execute(graph.value(), run_options, first_sink);
    const double enact_simple = Since(t0);
    s.Add("engine.execute_ms", execute);
    s.Add("dataflow.enact_ms.dynamic", enact_dynamic);
    s.Add("dataflow.enact_ms.simple", enact_simple);
    s.Add("dataflow.first_output_ms.dynamic", first_dynamic);
    s.Add("dataflow.first_output_ms.simple", MillisBetween(t0, first));
    s.Add("dataflow.tuples_per_s.dynamic",
          dyn.tuples_processed / (enact_dynamic / 1000.0));
    service[kRun].push_back(execute);
    check(executed.ok() && dyn.status.ok() && seq.status.ok() &&
              dyn.tuples_processed == seq.tuples_processed,
          "replayed run");
  };

  // ---- 1. traced requests over TCP, each replayed right after ------------
  TracedServer traced;
  if (Status st = traced.Start(); !st.ok()) {
    std::fprintf(stderr, "perfbench: listener: %s\n", st.ToString().c_str());
    return 1;
  }
  auto connected = ConnectClients(traced.port(), 1);
  if (!connected.ok()) {
    std::fprintf(stderr, "perfbench: connect: %s\n",
                 connected.status().ToString().c_str());
    return 1;
  }
  client::LaminarClient& cl = *connected.value()[0].client;
  const Clock::time_point load0 = Clock::now();
  Result<int64_t> loaded = LoadCorpus(cl, in);
  const double bulk_register_s = Since(load0) / 1000.0;
  Result<client::WorkflowInfo> wf = loaded.ok()
                                        ? register_workflow(cl)
                                        : Result<client::WorkflowInfo>(
                                              loaded.status());
  if (!wf.ok()) {
    std::fprintf(stderr, "perfbench: traced set-up: %s\n",
                 wf.status().ToString().c_str());
    return 1;
  }
  const int64_t workflow_id = wf->id;

  // Both ends run in this process, so bytes read = request + reply bytes.
  auto net_bytes = [] { return CounterValue("laminar_net_bytes_read_total"); };
  uint64_t bytes[kOpClasses] = {};
  laminar::Rng rng(DeriveSeed(in.seed, 300));
  const ZipfSampler zipf(in.queries.size(), 1.0);
  traced.set_tracing(true);
  for (size_t i = 0; i < kTraceOps[kSearch]; ++i) {
    const std::string& q = in.queries[zipf.Sample(rng)];
    const uint64_t b0 = net_bytes();
    const Clock::time_point t0 = Clock::now();
    auto hits = cl.SearchRegistrySemantic(q, "pe", 5);
    call_ms[kSearch].push_back(Since(t0));
    bytes[kSearch] += net_bytes() - b0;
    check(hits.ok() && hits->size() == 5, "traced search");
    replay_search(q);
  }
  for (size_t i = 0; i < kTraceOps[kRecommend]; ++i) {
    const std::string& code =
        in.code_queries[rng.NextBelow(in.code_queries.size())];
    const uint64_t b0 = net_bytes();
    const Clock::time_point t0 = Clock::now();
    auto hits = cl.CodeRecommendation(code, "pe", "spt", 5);
    call_ms[kRecommend].push_back(Since(t0));
    bytes[kRecommend] += net_bytes() - b0;
    check(hits.ok(), "traced recommend");
    replay_recommend(code);
  }
  for (size_t i = 0; i < kTraceOps[kRegister]; ++i) {
    client::PeSource pe = in.fresh[0][i % in.fresh[0].size()];
    pe.name = "Traced_" + std::to_string(i);
    uint64_t b0 = net_bytes();
    Clock::time_point t0 = Clock::now();
    auto reg = cl.RegisterPe(pe.code, pe.name, "");
    call_ms[kRegister].push_back(Since(t0));
    bytes[kRegister] += net_bytes() - b0;
    check(reg.ok(), "traced register");
    const int64_t replayed_id = replay_register(pe);
    b0 = net_bytes();
    t0 = Clock::now();
    Status st = reg.ok() ? cl.RemovePe(reg->id) : reg.status();
    call_ms[kRemove].push_back(Since(t0));
    bytes[kRemove] += net_bytes() - b0;
    check(st.ok(), "traced remove");
    replay_remove(replayed_id);
  }
  for (size_t i = 0; i < kTraceOps[kRun]; ++i) {
    const uint64_t b0 = net_bytes();
    const Clock::time_point t0 = Clock::now();
    client::RunOutcome run = cl.RunRaw(RunRequest(workflow_id));
    call_ms[kRun].push_back(Since(t0));
    bytes[kRun] += net_bytes() - b0;
    check(run.status.ok(), "traced run");
    replay_run();
  }
  std::vector<HandledRequest> handled[kOpClasses];
  for (int c = 0; c < kOpClasses; ++c) {
    bytes_per_req[c] = static_cast<double>(bytes[c]) / kTraceOps[c];
    handled[c] = traced.Take(static_cast<OpClass>(c));
    if (handled[c].size() != call_ms[c].size() ||
        service[c].size() != call_ms[c].size()) {
      std::fprintf(stderr, "perfbench: %s: %zu handled for %zu sent\n",
                   kOpNames[c], handled[c].size(), call_ms[c].size());
      return 1;
    }
  }

  // Open-loop lateness of the generator at the workload's run rate (20/s
  // for the closed-loop workloads), untraced.
  traced.set_tracing(false);
  const double rate = w.open_loop ? w.runs_per_s : 20.0;
  for (const OpenLoopSample& r :
       RunOpenLoop(rate, kTraceOps[kRun] / rate, 1,
                   [&](size_t, int, Clock::time_point*) {
                     return cl.RunRaw(RunRequest(workflow_id))
                         .status.ok();
                   })) {
    lag_ms.push_back(r.lag_ms);
    check(r.ok, "open-loop run");
  }

  // Tracing overhead: one repeated (cache-hit) search in short alternating
  // blocks with the timing closure off and on.
  std::vector<double> untraced_ms, traced_ms;
  for (int block = 0; block < 40; ++block) {
    const bool on = block % 2 == 1;
    traced.set_tracing(on);
    for (int i = 0; i < 10; ++i) {
      const Clock::time_point t0 = Clock::now();
      auto hits = cl.SearchRegistrySemantic(in.queries[0], "pe", 5);
      (on ? traced_ms : untraced_ms).push_back(Since(t0));
      check(hits.ok(), "overhead probe");
    }
  }
  traced.set_tracing(false);
  traced.Take(kSearch);
  // Medians: on a shared host one stalled request moves a mean of 200 by
  // more than the closure costs.
  const double traced_p50 = PercentileAt(traced_ms, 500).value;
  const double untraced_p50 = PercentileAt(untraced_ms, 500).value;
  const double overhead_pct = (traced_p50 / untraced_p50 - 1.0) * 100.0;
  connected.value().clear();

  // ---- 2. layer-only measurements --------------------------------------------
  double scan_mb = 0.0;
  for (const auto& [name, st] : search.IndexStats()) {
    if (name == "peText") scan_mb = st.rows * st.dims * 4.0 / 1e6;
  }

  // simd: the scan kernel over a copy of the corpus rows.
  const auto& encoder = search.text_encoder();
  const size_t dims = encoder.dims();
  std::vector<float> rows;
  rows.reserve(in.corpus.size() * dims);
  for (const client::PeSource& pe : in.corpus) {
    laminar::embed::Vector v = encoder.EncodeText(pe.description);
    rows.insert(rows.end(), v.begin(), v.end());
  }
  const laminar::embed::Vector query = encoder.EncodeText(in.queries[0]);
  std::vector<float> scores(in.corpus.size());
  const double scan_bytes = static_cast<double>(rows.size()) * sizeof(float);
  const int passes = std::max(5, static_cast<int>(2e9 / scan_bytes));
  std::vector<double> pass_gb_s;
  for (int p = 0; p < passes; ++p) {
    const Clock::time_point t0 = Clock::now();
    laminar::simd::DotBatch(query.data(), rows.data(), in.corpus.size(), dims,
                            scores.data());
    pass_gb_s.push_back(scan_bytes / (Since(t0) / 1000.0) / 1e9);
  }

  // JSON of the captured bodies.
  for (int c = 0; c < kOpClasses; ++c) {
    for (const HandledRequest& h : handled[c]) {
      Clock::time_point t0 = Clock::now();
      Result<Value> body = laminar::json::Parse(h.request_body);
      s.Add(std::string("json.parse_ms.") + kOpNames[c], Since(t0));
      Result<Value> reply = laminar::json::Parse(h.reply_body);
      t0 = Clock::now();
      std::string text = reply.ok() ? reply->ToJson() : "";
      s.Add(std::string("json.reply_ms.") + kOpNames[c], Since(t0));
      check(body.ok() && reply.ok() && !text.empty(), "captured body JSON");
    }
  }

  // ---- 3. metrics and the breakdown ----------------------------------------
  std::vector<Metric> m;
  auto add = [&](const std::string& name, double v, const char* unit) {
    m.push_back({name, v, unit});
  };
  PrintStamp(laminar::simd::TierName(laminar::simd::ActiveTier()), opt.commit);
  std::printf("# traced workload=%s seed=%llu corpus=%zu PEs\n",
              w.name.c_str(), static_cast<unsigned long long>(opt.seed),
              in.corpus.size());
  std::printf("\nwhere the time goes (ms; self = handle - replayed service, "
              "other = self - body JSON)\n");
  std::printf("  %-9s %-4s %5s %9s %9s %9s %9s %9s %9s %9s %7s\n", "op", "stat",
              "n", "client", "transport", "handle", "json", "service", "other",
              "self", "other%");
  for (int c = 0; c < kOpClasses; ++c) {
    const std::string op = kOpNames[c];
    std::vector<double> transport, self;
    for (size_t i = 0; i < handled[c].size(); ++i) {
      transport.push_back(call_ms[c][i] - handled[c][i].handle_ms);
      self.push_back(handled[c][i].handle_ms - service[c][i]);
    }
    std::vector<double> handle_ms;
    for (const HandledRequest& h : handled[c]) handle_ms.push_back(h.handle_ms);
    const double json = s.MeanOf("json.parse_ms." + op) +
                        s.MeanOf("json.reply_ms." + op);
    for (const char* stat : {"mean", "p50"}) {
      const bool mean = stat[0] == 'm';
      auto v = [&](const std::vector<double>& xs) {
        return mean ? Mean(xs) : PercentileAt(xs, 500).value;
      };
      const double client_v = v(call_ms[c]);
      const double self_v = v(self);
      const double other = self_v - json;
      std::printf("  %-9s %-4s %5zu %9.4f %9.4f %9.4f %9.4f %9.4f %9.4f %9.4f "
                  "%6.1f%%\n",
                  op.c_str(), stat, call_ms[c].size(), client_v, v(transport),
                  v(handle_ms), json, v(service[c]), other, self_v,
                  100.0 * other / client_v);
      if (mean && std::abs(other) > kResidualShare * client_v) {
        std::printf("  WARNING: %s unattributed time %.4f ms exceeds %.0f%% "
                    "of the client mean\n",
                    op.c_str(), other, 100 * kResidualShare);
      }
      if (v(transport) < 0 || self_v < 0) {
        std::printf("  WARNING: %s %s: negative derived transport or self "
                    "time\n",
                    op.c_str(), stat);
      }
    }
    add("client.call_ms." + op, Mean(call_ms[c]), "ms");
    add("net.transport_ms." + op, Mean(transport), "ms");
    add("net.bytes_per_req." + op, bytes_per_req[c], "B");
    add("server.handle_ms." + op, Mean(handle_ms), "ms");
    add("server.self_ms." + op, Mean(handle_ms) - Mean(service[c]), "ms");
    add("json.parse_ms." + op, s.MeanOf("json.parse_ms." + op), "ms");
    add("json.reply_ms." + op, s.MeanOf("json.reply_ms." + op), "ms");
  }
  std::printf("  service = search: SemanticSearch; recommend: "
              "CodeRecommendation; register: summarize + PreparePe + "
              "embedding JSON + SPT JSON + CreatePe + CommitPe; remove: "
              "GetPe + RemovePe + search RemovePe; run: engine Execute\n");
  std::printf("  tracing overhead: %.2f%% (traced %.4f ms vs untraced %.4f ms "
              "client p50, n=%zu each)\n\n",
              overhead_pct, traced_p50, untraced_p50, traced_ms.size());

  add("client.lag_ms", Mean(lag_ms), "ms");
  for (const char* name :
       {"json.embedding_ms", "embed.encode_text_ms", "embed.encode_code_ms",
        "embed.summarize_ms", "search.semantic_ms", "search.rank_ms"}) {
    add(name, s.MeanOf(name), "ms");
  }
  add("search.scan_mb_per_query", scan_mb, "MB");
  add("search.cache_hit_ratio",
      cache_lookups > 0 ? cache_hits / cache_lookups : 0.0, "ratio");
  add("search.cache_hits", cache_hits, "count");
  add("search.cache_lookups", cache_lookups, "count");
  for (const char* name :
       {"search.prepare_pe_ms", "search.commit_pe_ms", "search.remove_pe_ms",
        "search.recommend_ms"}) {
    add(name, s.MeanOf(name), "ms");
  }
  add("simd.dot_gb_s", PercentileAt(pass_gb_s, 500).value, "GB/s");
  for (const char* name : {"pycode.parse_ms", "spt.featurize_ms",
                           "spt.topk_ms", "spt.rerank_cluster_ms"}) {
    add(name, s.MeanOf(name), "ms");
  }
  const double queries = static_cast<double>(kTraceOps[kRecommend]);
  add("spt.candidates_per_query", candidates / queries, "count");
  add("spt.useful_ratio", candidates > 0 ? returned / candidates : 0.0,
      "ratio");
  add("spt.returned", returned, "count");
  add("spt.candidates_scored", candidates, "count");
  add("registry.create_pe_ms", s.MeanOf("registry.create_pe_ms"), "ms");
  add("registry.remove_pe_ms", s.MeanOf("registry.remove_pe_ms"), "ms");
  add("registry.row_kb", row_bytes / 1024.0 / kTraceOps[kRegister], "KB");
  add("engine.execute_ms", s.MeanOf("engine.execute_ms"), "ms");
  add("engine.overhead_ms",
      s.MeanOf("engine.execute_ms") - s.MeanOf("dataflow.enact_ms.dynamic"),
      "ms");
  for (const char* name :
       {"dataflow.enact_ms.dynamic", "dataflow.enact_ms.simple",
        "dataflow.first_output_ms.dynamic", "dataflow.first_output_ms.simple"}) {
    add(name, s.MeanOf(name), "ms");
  }
  add("dataflow.tuples_per_s.dynamic", s.MeanOf("dataflow.tuples_per_s.dynamic"),
      "1/s");
  add("dataflow.peak_workers", peak_workers, "count");
  add("broker.ops_per_tuple",
      dyn_tuples > 0 ? static_cast<double>(dyn_broker_ops) / dyn_tuples : 0.0,
      "ratio");
  add("broker.items_per_batch",
      dyn_batches > 0 ? static_cast<double>(dyn_batch_items) / dyn_batches
                      : 0.0,
      "ratio");
  add("setup.bulk_register_s", bulk_register_s, "s");
  add("trace.overhead_pct", overhead_pct, "%");

  for (const Metric& metric : m) {
    std::printf("  %-36s %14.4f %s\n", metric.name.c_str(), metric.value,
                metric.unit.c_str());
  }
  PrintResult(failed == 0, attempted, failed, m);
  return 0;
}

}  // namespace perfbench
