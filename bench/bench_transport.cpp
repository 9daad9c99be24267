// Transport bench (ISSUE 7): the same Laminar server driven over the two
// ByteStream transports — in-memory duplex pipes (the deterministic test
// default) and real TCP loopback sockets through the epoll listener — on a
// 90/10 semantic-search/register mix and a streamed /execute workflow.
//
// Headline numbers: QPS and p50/p95/p99 per transport on the mixed load,
// protocol bytes/frame, and first-line vs total latency for the streamed
// run (incremental delivery over TCP is an acceptance criterion).
//
// --smoke runs a reduced load and turns the parity checks into gates:
// identical client-visible results over both transports, incremental
// streamed chunks over TCP, and TCP-loopback QPS within a loose factor of
// in-memory (the committed BENCH_transport.json carries the real ratio).
#include <algorithm>
#include <cstdio>
#include <cstring>
#include <memory>
#include <string>
#include <vector>

#include "bench_util.hpp"
#include "client/connect.hpp"
#include "common/json.hpp"

using namespace laminar;

namespace {

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

server::ServerConfig FastServer() {
  server::ServerConfig config;
  config.engine.cold_start_ms = 0;
  return config;
}

/// One server+client pair over either transport, torn down per measurement
/// so each run starts from a fresh registry.
struct Harness {
  // pipe transport
  std::unique_ptr<client::InProcessLaminar> pipe;
  // tcp transport
  std::unique_ptr<client::TcpLaminarServer> tcp_server;
  std::unique_ptr<client::TcpClient> tcp_client;

  client::LaminarClient& client() {
    return pipe ? *pipe->client : *tcp_client->client;
  }
  ~Harness() {
    tcp_client.reset();  // close the socket before stopping the listener
    if (tcp_server) tcp_server->listener->Stop();
  }
};

std::unique_ptr<Harness> MakeHarness(bool tcp) {
  auto h = std::make_unique<Harness>();
  if (!tcp) {
    h->pipe = std::make_unique<client::InProcessLaminar>(
        client::ConnectInProcess(FastServer()));
    return h;
  }
  Result<client::TcpLaminarServer> srv = client::ServeTcp(FastServer());
  if (!srv.ok()) {
    std::fprintf(stderr, "ServeTcp: %s\n", srv.status().ToString().c_str());
    std::exit(1);
  }
  h->tcp_server =
      std::make_unique<client::TcpLaminarServer>(std::move(srv.value()));
  Result<client::TcpClient> cli =
      client::ConnectTcp("127.0.0.1", h->tcp_server->port());
  if (!cli.ok()) {
    std::fprintf(stderr, "ConnectTcp: %s\n", cli.status().ToString().c_str());
    std::exit(1);
  }
  h->tcp_client = std::make_unique<client::TcpClient>(std::move(cli.value()));
  return h;
}

// Seeded PE corpus: varied themed descriptions so semantic search has real
// work to do, varied code so registrations are not cache hits.
const char* kThemes[] = {
    "detects anomalies in a numeric stream",
    "computes a running average over a sliding window",
    "filters tuples below a configurable threshold",
    "joins two keyed streams on a session identifier",
    "parses json payloads into typed records",
    "deduplicates events by content hash",
};

std::string PeCode(int i) {
  char buf[256];
  std::snprintf(buf, sizeof buf,
                "class BenchPe%d(IterativePE):\n"
                "    def _process(self, v):\n"
                "        return v * %d + %d\n",
                i, i % 7 + 1, i);
  return buf;
}

std::string PeDescription(int i) {
  std::string d = kThemes[i % std::size(kThemes)];
  d += " variant ";
  d += std::to_string(i);
  return d;
}

double Percentile(std::vector<double> sorted_ms, double q) {
  if (sorted_ms.empty()) return 0.0;
  size_t idx = static_cast<size_t>(q * (sorted_ms.size() - 1) + 0.5);
  return sorted_ms[std::min(idx, sorted_ms.size() - 1)];
}

struct MixResult {
  size_t ops = 0;
  size_t search_hits = 0;  // parity: total hits across all searches
  double qps = 0.0;
  double p50 = 0.0, p95 = 0.0, p99 = 0.0;
  uint64_t frames = 0;       // protocol frames written (both endpoints)
  uint64_t frame_bytes = 0;  // protocol bytes inside those frames
};

/// Seeds `seed_pes` PEs, then drives `ops` operations at a 90/10
/// search/register split, measuring per-op latency client-side.
MixResult RunMix(client::LaminarClient& client, int seed_pes, int ops) {
  auto& reg = telemetry::MetricsRegistry::Global();
  telemetry::Counter& frames = reg.GetCounter("laminar_net_frames_written_total");
  telemetry::Counter& frame_bytes = reg.GetCounter("laminar_net_frame_bytes_total");

  for (int i = 0; i < seed_pes; ++i) {
    Result<client::PeInfo> pe =
        client.RegisterPe(PeCode(i), "", PeDescription(i));
    if (!pe.ok()) {
      std::fprintf(stderr, "seed register: %s\n",
                   pe.status().ToString().c_str());
      std::exit(1);
    }
  }

  MixResult r;
  uint64_t frames0 = frames.Value();
  uint64_t bytes0 = frame_bytes.Value();
  std::vector<double> lat_ms;
  lat_ms.reserve(ops);
  Stopwatch wall;
  int next_pe = seed_pes;
  for (int i = 0; i < ops; ++i) {
    Stopwatch op;
    if (i % 10 == 9) {  // 10% registers
      Result<client::PeInfo> pe =
          client.RegisterPe(PeCode(next_pe), "", PeDescription(next_pe));
      ++next_pe;
      if (!pe.ok()) {
        std::fprintf(stderr, "mix register: %s\n",
                     pe.status().ToString().c_str());
        std::exit(1);
      }
    } else {  // 90% semantic searches
      Result<std::vector<client::SearchHit>> hits = client.SearchRegistrySemantic(
          kThemes[i % std::size(kThemes)], "pe", 5);
      if (!hits.ok()) {
        std::fprintf(stderr, "mix search: %s\n",
                     hits.status().ToString().c_str());
        std::exit(1);
      }
      r.search_hits += hits->size();
    }
    lat_ms.push_back(op.ElapsedMillis());
  }
  double secs = wall.ElapsedSeconds();
  r.ops = static_cast<size_t>(ops);
  r.qps = secs > 0 ? ops / secs : 0.0;
  std::sort(lat_ms.begin(), lat_ms.end());
  r.p50 = Percentile(lat_ms, 0.50);
  r.p95 = Percentile(lat_ms, 0.95);
  r.p99 = Percentile(lat_ms, 0.99);
  r.frames = frames.Value() - frames0;
  r.frame_bytes = frame_bytes.Value() - bytes0;
  return r;
}

struct StreamResult {
  double first_line_ms = 0.0;
  double total_ms = 0.0;
  size_t lines = 0;
};

StreamResult RunStream(client::LaminarClient& client, int tuples,
                       int64_t burn) {
  client::RunOutcome outcome =
      client.RunSpec(StreamSpec(burn), "simple", Value(tuples));
  if (!outcome.status.ok()) {
    std::fprintf(stderr, "stream run: %s\n",
                 outcome.status.ToString().c_str());
    std::exit(1);
  }
  return {outcome.first_line_ms, outcome.total_ms, outcome.lines.size()};
}

}  // namespace

int main(int argc, char** argv) {
  bool smoke = argc > 1 && std::strcmp(argv[1], "--smoke") == 0;
  const int kSeedPes = smoke ? 12 : 60;
  const int kOps = smoke ? 100 : 1000;
  const int kTuples = smoke ? 20 : 50;
  const int64_t kBurn = smoke ? 200'000 : 1'500'000;

  std::printf("== transport bench: in-memory pipe vs TCP loopback ==\n");
  std::printf("mix: %d ops (90%% semantic search / 10%% register) over %d "
              "seeded PEs; stream: %d tuples\n\n",
              kOps, kSeedPes, kTuples);
  std::printf("%-6s %-9s %-9s %-9s %-9s %-10s %-12s\n", "mode", "qps", "p50",
              "p95", "p99", "frames", "bytes/frame");

  bench::BenchReport report("transport");
  MixResult mix[2];
  StreamResult stream[2];
  const char* names[2] = {"pipe", "tcp"};
  for (int t = 0; t < 2; ++t) {
    std::unique_ptr<Harness> h = MakeHarness(/*tcp=*/t == 1);
    mix[t] = RunMix(h->client(), kSeedPes, kOps);
    stream[t] = RunStream(h->client(), kTuples, kBurn);
    double bpf = mix[t].frames ? double(mix[t].frame_bytes) / mix[t].frames : 0;
    std::printf("%-6s %-9.0f %-9.3f %-9.3f %-9.3f %-10llu %-12.1f\n",
                names[t], mix[t].qps, mix[t].p50, mix[t].p95, mix[t].p99,
                static_cast<unsigned long long>(mix[t].frames), bpf);
    Value& row = report.AddRow();
    row["transport"] = names[t];
    row["ops"] = static_cast<int64_t>(mix[t].ops);
    row["qps"] = mix[t].qps;
    row["p50_ms"] = mix[t].p50;
    row["p95_ms"] = mix[t].p95;
    row["p99_ms"] = mix[t].p99;
    row["frames"] = static_cast<int64_t>(mix[t].frames);
    row["bytes_per_frame"] = bpf;
    row["stream_first_line_ms"] = stream[t].first_line_ms;
    row["stream_total_ms"] = stream[t].total_ms;
    row["stream_lines"] = static_cast<int64_t>(stream[t].lines);
  }

  double ratio = mix[0].qps > 0 ? mix[1].qps / mix[0].qps : 0.0;
  std::printf("\nstreamed /execute (%d tuples):\n", kTuples);
  for (int t = 0; t < 2; ++t) {
    std::printf("  %-6s first-line %-9.2fms total %-9.2fms lines %zu\n",
                names[t], stream[t].first_line_ms, stream[t].total_ms,
                stream[t].lines);
  }
  std::printf("\ntcp/pipe QPS ratio on the 90/10 mix: %.2fx\n\n", ratio);
  report.Set("pipe_qps", mix[0].qps);
  report.Set("tcp_qps", mix[1].qps);
  report.Set("tcp_over_pipe_qps", ratio);
  bench::PrintHistogramSummary(
      "telemetry: socket + server latency percentiles",
      {{"laminar_net_io_ms", "op=\"read\""},
       {"laminar_net_io_ms", "op=\"write\""},
       {"laminar_server_request_ms", "path=\"/search/semantic\""}});
  report.AddHistogram("laminar_net_io_ms", "op=\"read\"");
  report.AddHistogram("laminar_net_io_ms", "op=\"write\"");
  report.AddHistogram("laminar_server_request_ms", "path=\"/search/semantic\"");
  if (!smoke) report.Write();  // a smoke run gates; it records nothing

  if (smoke) {
    // Parity + sanity gates (loose on purpose: the committed JSON carries
    // the real numbers; these only catch functional regressions and order-
    // of-magnitude transport collapses without flaking CI).
    bool ok = true;
    auto gate = [&](bool cond, const char* what) {
      if (!cond) {
        std::fprintf(stderr, "SMOKE GATE FAILED: %s\n", what);
        ok = false;
      }
    };
    gate(mix[0].search_hits > 0 && mix[1].search_hits > 0,
         "semantic search returned hits over both transports");
    gate(mix[0].search_hits == mix[1].search_hits,
         "identical search hit counts over both transports");
    gate(stream[0].lines == stream[1].lines,
         "identical streamed line counts over both transports");
    gate(stream[1].first_line_ms >= 0 &&
             stream[1].first_line_ms < stream[1].total_ms,
         "streamed /execute chunks arrive incrementally over TCP");
    gate(mix[1].qps >= mix[0].qps / 8.0,
         "TCP-loopback QPS within 8x of in-memory on the 90/10 mix");
    if (!ok) return 1;
    std::printf("smoke gates passed\n");
  }
  return 0;
}
