// Transport-parity matrix: the same client-visible behaviour — registration,
// semantic search, streamed /execute, and the 428 resource-negotiation path —
// must hold over BOTH transports: in-memory duplex pipes (the deterministic
// test default) and real TCP loopback sockets through the epoll listener.
// A cross-transport test drives one server over each with the same mixed
// load and compares the answers. Plus TCP-only coverage: connection-cap
// rejection, reaping of dead connections, large-body round trips (EAGAIN
// partial writes), a full two-OS-process round trip against a spawned
// laminar_serve, and that binary's refusal of flag values it cannot honour.
#include <gtest/gtest.h>

#include <chrono>
#include <cstdlib>
#include <iterator>
#include <memory>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "client/connect.hpp"
#include "client/demo_workflows.hpp"
#include "common/byte_buffer.hpp"
#include "serve_process.hpp"

namespace laminar::client {
namespace {

server::ServerConfig FastServer() {
  server::ServerConfig config;
  config.engine.cold_start_ms = 0;
  return config;
}

enum class Transport { kPipe, kTcp };

class TransportParity : public ::testing::TestWithParam<Transport> {
 protected:
  void SetUp() override {
    if (GetParam() == Transport::kPipe) {
      pipe_ = std::make_unique<InProcessLaminar>(ConnectInProcess(FastServer()));
      return;
    }
    Result<TcpLaminarServer> srv = ServeTcp(FastServer());
    ASSERT_TRUE(srv.ok()) << srv.status().ToString();
    tcp_server_ =
        std::make_unique<TcpLaminarServer>(std::move(srv.value()));
    Result<TcpClient> cli = ConnectTcp("127.0.0.1", tcp_server_->port());
    ASSERT_TRUE(cli.ok()) << cli.status().ToString();
    tcp_client_ = std::make_unique<TcpClient>(std::move(cli.value()));
  }

  void TearDown() override {
    tcp_client_.reset();  // close the socket before stopping the listener
    if (tcp_server_) tcp_server_->listener->Stop();
  }

  LaminarClient& client() {
    return pipe_ ? *pipe_->client : *tcp_client_->client;
  }

  WorkflowInfo RegisterIsPrime() {
    const DemoWorkflow* demo = FindDemoWorkflow("isprime_wf");
    Result<WorkflowInfo> wf = client().RegisterWorkflow(
        demo->name, demo->spec, demo->pes, demo->code);
    EXPECT_TRUE(wf.ok()) << wf.status().ToString();
    return wf.value();
  }

  std::unique_ptr<InProcessLaminar> pipe_;
  std::unique_ptr<TcpLaminarServer> tcp_server_;
  std::unique_ptr<TcpClient> tcp_client_;
};

TEST_P(TransportParity, RegisterAndFetchPe) {
  Result<PeInfo> pe = client().RegisterPe(
      "class Doubler(IterativePE):\n"
      "    def _process(self, x):\n"
      "        return x * 2\n");
  ASSERT_TRUE(pe.ok()) << pe.status().ToString();
  EXPECT_EQ(pe->name, "Doubler");
  Result<PeInfo> fetched = client().GetPe(pe->id);
  ASSERT_TRUE(fetched.ok());
  // The register reply omits code; the fetch must return it in full.
  EXPECT_NE(fetched->code.find("def _process(self, x)"), std::string::npos);
}

TEST_P(TransportParity, SemanticSearchFindsRegisteredPe) {
  WorkflowInfo wf = RegisterIsPrime();
  ASSERT_TRUE(client()
                  .UpdatePeDescription(wf.pe_ids[1],
                                       "verifies integer primality")
                  .ok());
  Result<std::vector<SearchHit>> hits =
      client().SearchRegistrySemantic("verifies integer primality", "pe", 1);
  ASSERT_TRUE(hits.ok()) << hits.status().ToString();
  ASSERT_FALSE(hits->empty());
  EXPECT_EQ(hits->front().id, wf.pe_ids[1]);
}

TEST_P(TransportParity, StreamedExecuteDeliversIncrementally) {
  // §IV-E: output chunks must reach the client while the run is still in
  // flight — over the pipe AND over real sockets (acceptance criterion:
  // "streamed /execute chunks arrive incrementally over TCP").
  const DemoWorkflow* demo = FindDemoWorkflow("isprime_wf");
  RunOutcome outcome = client().RunSpec(demo->spec, "simple", Value(400));
  ASSERT_TRUE(outcome.status.ok()) << outcome.status.ToString();
  ASSERT_GT(outcome.lines.size(), 10u);
  EXPECT_GE(outcome.first_line_ms, 0.0);
  EXPECT_LT(outcome.first_line_ms, outcome.total_ms);
}

TEST_P(TransportParity, ResourceNegotiation428Path) {
  // First run returns 428 with the missing list; the client uploads and
  // retries — one extra round trip, same result, over either transport.
  WorkflowInfo wf = RegisterIsPrime();
  std::vector<Resource> resources = {
      {"data/config.json", R"({"threshold": 3})"},
      {"data/blob.bin", std::string(50'000, 'b')},
  };
  RunOutcome first = client().Run(wf.id, Value(5), nullptr, resources);
  ASSERT_TRUE(first.status.ok()) << first.status.ToString();
  EXPECT_FALSE(first.lines.empty());
  // Warm cache: the second run must not renegotiate.
  RunOutcome second = client().Run(wf.id, Value(5), nullptr, resources);
  ASSERT_TRUE(second.status.ok());
}

INSTANTIATE_TEST_SUITE_P(
    Transports, TransportParity,
    ::testing::Values(Transport::kPipe, Transport::kTcp),
    [](const ::testing::TestParamInfo<Transport>& info) {
      return info.param == Transport::kPipe ? "Pipe" : "Tcp";
    });

// ---- Pipe against TCP ----

// Themed descriptions, so each semantic search ranks several PEs.
const char* const kThemes[] = {
    "detects anomalies in a numeric stream",
    "computes a running average over a sliding window",
    "filters tuples below a configurable threshold",
    "joins two keyed streams on a session identifier",
    "parses json payloads into typed records",
    "deduplicates events by content hash",
};

TEST(TransportCrossParity, MixedLoadAnswersAlikeOverPipeAndTcp) {
  // A fresh server behind each transport, driven in lockstep: 12 seed PEs,
  // then 100 operations, 90% semantic searches and 10% registrations. Every
  // search must return the same (id, score) list over both, and the same
  // seeded workflow run must stream the same lines in the same order.
  InProcessLaminar pipe = ConnectInProcess(FastServer());
  Result<TcpLaminarServer> srv = ServeTcp(FastServer());
  ASSERT_TRUE(srv.ok()) << srv.status().ToString();
  Result<TcpClient> tcp = ConnectTcp("127.0.0.1", srv->port());
  ASSERT_TRUE(tcp.ok()) << tcp.status().ToString();
  LaminarClient* const clients[] = {pipe.client.get(), tcp->client.get()};

  constexpr int kSeedPes = 12;
  constexpr int kOps = 100;
  int next_pe = 0;
  size_t hits = 0;
  for (int op = -kSeedPes; op < kOps; ++op) {
    if (op < 0 || op % 10 == 9) {
      const std::string n = std::to_string(next_pe);
      const std::string code = "class MixPe" + n +
                               "(IterativePE):\n"
                               "    def _process(self, v):\n"
                               "        return v + " + n + "\n";
      const std::string description =
          kThemes[next_pe % std::size(kThemes)] + (" variant " + n);
      int64_t ids[2] = {0, 0};
      for (int t = 0; t < 2; ++t) {
        Result<PeInfo> pe = clients[t]->RegisterPe(code, "", description);
        ASSERT_TRUE(pe.ok()) << pe.status().ToString();
        ids[t] = pe->id;
      }
      EXPECT_EQ(ids[0], ids[1]) << "registration " << n;
      ++next_pe;
      continue;
    }
    const char* query = kThemes[op % std::size(kThemes)];
    std::vector<std::pair<int64_t, double>> rankings[2];
    for (int t = 0; t < 2; ++t) {
      Result<std::vector<SearchHit>> answer =
          clients[t]->SearchRegistrySemantic(query, "pe", 5);
      ASSERT_TRUE(answer.ok()) << answer.status().ToString();
      for (const SearchHit& hit : *answer) {
        rankings[t].emplace_back(hit.id, hit.score);
      }
    }
    EXPECT_EQ(rankings[0], rankings[1]) << "op " << op << ": " << query;
    hits += rankings[0].size();
  }
  EXPECT_GT(hits, 0u);

  const DemoWorkflow* demo = FindDemoWorkflow("isprime_wf");
  RunOutcome runs[2];
  for (int t = 0; t < 2; ++t) {
    runs[t] = clients[t]->RunSpec(demo->spec, "simple", Value(200));
    ASSERT_TRUE(runs[t].status.ok()) << runs[t].status.ToString();
  }
  EXPECT_FALSE(runs[0].lines.empty());
  EXPECT_EQ(runs[0].lines, runs[1].lines);
}

// ---- TCP-only behaviour ----

TEST(TcpTransport, ConnectionCapRejectsExcess) {
  net::TcpListenerConfig listener;
  listener.max_connections = 2;
  Result<TcpLaminarServer> srv = ServeTcp(FastServer(), listener);
  ASSERT_TRUE(srv.ok()) << srv.status().ToString();

  Result<TcpClient> a = ConnectTcp("127.0.0.1", srv->port());
  Result<TcpClient> b = ConnectTcp("127.0.0.1", srv->port());
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(b.ok());
  ASSERT_TRUE(a->client->GetStats().ok());
  ASSERT_TRUE(b->client->GetStats().ok());

  // Third connection completes the TCP handshake (it sits in the listen
  // backlog) but the server closes it at accept time: any request fails.
  Result<TcpClient> c = ConnectTcp("127.0.0.1", srv->port());
  if (c.ok()) {
    EXPECT_FALSE(c->client->GetStats().ok());
  }
  EXPECT_LE(srv->listener->open_connections(), 2u);
}

TEST(TcpTransport, ClosedConnectionsAreReaped) {
  Result<TcpLaminarServer> srv = ServeTcp(FastServer());
  ASSERT_TRUE(srv.ok()) << srv.status().ToString();
  for (int i = 0; i < 20; ++i) {
    Result<TcpClient> cli = ConnectTcp("127.0.0.1", srv->port());
    ASSERT_TRUE(cli.ok()) << "i=" << i << ": " << cli.status().ToString();
    ASSERT_TRUE(cli->client->GetStats().ok()) << "i=" << i;
  }  // client destructor closes the socket; the reaper collects server side
  for (int i = 0; i < 500 && srv->listener->open_connections() > 0; ++i) {
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  EXPECT_EQ(srv->listener->open_connections(), 0u);
}

TEST(TcpTransport, RestartedListenerStillReaps) {
  // Stop() closes the reap queue; Start() must rebuild it or a restarted
  // listener silently drops every reap push and hung-up connections pile up
  // against max_connections.
  Result<TcpLaminarServer> srv = ServeTcp(FastServer());
  ASSERT_TRUE(srv.ok()) << srv.status().ToString();
  srv->listener->Stop();
  ASSERT_TRUE(srv->listener->Start().ok());
  {
    Result<TcpClient> cli = ConnectTcp("127.0.0.1", srv->listener->port());
    ASSERT_TRUE(cli.ok()) << cli.status().ToString();
    ASSERT_TRUE(cli->client->GetStats().ok());
  }  // hang up; the restarted reaper must collect the server side
  for (int i = 0; i < 500 && srv->listener->open_connections() > 0; ++i) {
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  EXPECT_EQ(srv->listener->open_connections(), 0u);
}

TEST(TcpTransport, MalformedFrameConnectionIsReaped) {
  // A protocol violation closes the connection server-side (ProtocolError ->
  // Close -> CloseRead). That locally-initiated close must reach the reaper
  // even though the client never hangs up — otherwise every garbage frame
  // permanently burns a conns_ slot and socket fd until the cap starves out
  // all future accepts.
  Result<TcpLaminarServer> srv = ServeTcp(FastServer());
  ASSERT_TRUE(srv.ok()) << srv.status().ToString();
  Result<std::unique_ptr<net::ByteStream>> raw =
      net::TcpConnect("127.0.0.1", srv->port());
  ASSERT_TRUE(raw.ok()) << raw.status().ToString();
  for (int i = 0; i < 500 && srv->listener->open_connections() == 0; ++i) {
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  }
  ASSERT_EQ(srv->listener->open_connections(), 1u);
  // Frame header (u32 payload_len | u8 type | u64 stream_id) declaring a
  // hostile 4 GiB payload — rejected before any allocation.
  ByteWriter frame;
  frame.PutU32(0xFFFF'FFFFu);
  frame.PutU8(1);  // HEADERS
  frame.PutU64(1);
  ASSERT_TRUE((*raw)->Write(frame.data()));
  // The client socket stays open throughout the wait: only the server-side
  // close can trigger the reap.
  for (int i = 0; i < 500 && srv->listener->open_connections() > 0; ++i) {
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  EXPECT_EQ(srv->listener->open_connections(), 0u);
}

TEST(TcpTransport, LargeBodyRoundTripSurvivesPartialWrites) {
  // A multi-megabyte resource upload overflows every socket buffer on the
  // way, forcing the EAGAIN partial-write path on the client and partial
  // reads on the server.
  Result<TcpLaminarServer> srv = ServeTcp(FastServer());
  ASSERT_TRUE(srv.ok()) << srv.status().ToString();
  Result<TcpClient> cli = ConnectTcp("127.0.0.1", srv->port());
  ASSERT_TRUE(cli.ok());
  std::string big(4 * 1024 * 1024, 'x');
  for (size_t i = 0; i < big.size(); i += 4096) big[i] = char('a' + i % 23);
  ASSERT_TRUE(cli->client->UploadResources({{"blob", big}}).ok());
  // The run must find the resource already cached (no 428 renegotiation
  // would re-upload it, but the content-hash must match the 4 MiB body).
  WorkflowInfo wf = [&] {
    const DemoWorkflow* demo = FindDemoWorkflow("isprime_wf");
    Result<WorkflowInfo> w = cli->client->RegisterWorkflow(
        demo->name, demo->spec, demo->pes, demo->code);
    EXPECT_TRUE(w.ok()) << w.status().ToString();
    return w.value();
  }();
  RunOutcome outcome =
      cli->client->Run(wf.id, Value(5), nullptr, {{"blob", big}});
  EXPECT_TRUE(outcome.status.ok()) << outcome.status.ToString();
}

TEST(TcpTransport, TwoProcessRoundTrip) {
  // The acceptance-criteria scenario: spawn laminar_serve as a separate OS
  // process, dial it over loopback, register a workflow and stream a run.
  const char* bin = std::getenv("LAMINAR_SERVE_BIN");
  if (bin == nullptr || bin[0] == '\0') {
    GTEST_SKIP() << "LAMINAR_SERVE_BIN not set (run via ctest)";
  }
  ServeProcess server(bin, {"--cold-start-ms", "0"});
  const uint16_t port = server.port();
  ASSERT_GT(port, 0) << "laminar_serve printed no listening banner";

  {
    Result<TcpClient> cli = ConnectTcp("127.0.0.1", port);
    ASSERT_TRUE(cli.ok()) << cli.status().ToString();
    const DemoWorkflow* demo = FindDemoWorkflow("isprime_wf");
    Result<WorkflowInfo> wf = cli->client->RegisterWorkflow(
        demo->name, demo->spec, demo->pes, demo->code);
    ASSERT_TRUE(wf.ok()) << wf.status().ToString();
    RunOutcome outcome = cli->client->Run(wf->id, Value(10));
    EXPECT_TRUE(outcome.status.ok()) << outcome.status.ToString();
    EXPECT_FALSE(outcome.lines.empty());
    EXPECT_GT(outcome.stats.GetInt("tuples"), 0);
  }  // disconnect before shutting the server down

  // stdin EOF => laminar_serve exits cleanly.
  EXPECT_EQ(server.Exit(), 0) << "laminar_serve died abnormally";
}

TEST(ServeFlags, RefusesValuesItCannotHonour) {
  // Read leniently, these would start a server on port 4464 (70000 cast to
  // 16 bits), on an ephemeral port (abc), with a SIZE_MAX connection cap
  // (-1) or with no fsync (a mistyped mode). Each must exit 2 before the
  // banner.
  const char* bin = std::getenv("LAMINAR_SERVE_BIN");
  if (bin == nullptr || bin[0] == '\0') {
    GTEST_SKIP() << "LAMINAR_SERVE_BIN not set (run via ctest)";
  }
  const std::vector<std::vector<std::string>> refused = {
      {"--port", "70000"},
      {"--port", "abc"},
      {"--port", "80x"},
      {"--port", "-1"},
      {"--port", ""},
      {"--max-connections", "-1"},
      {"--max-connections", "0"},
      {"--ingest-threads", "-1"},
      {"--handler-threads", "2.5"},
      {"--backlog", "99999999999"},
      {"--wal-fsync", "per-record"},
      {"--wal-fsync-interval-ms", "0"},
      {"--max-replica-lag-ms", "-5"},
      {"--rps", "-1"},
      {"--rps", "inf"},
      {"--cold-start-ms", "nan"},
  };
  for (const std::vector<std::string>& args : refused) {
    ServeProcess server(bin, args);
    EXPECT_EQ(server.port(), 0) << args[0] << " " << args[1];
    EXPECT_EQ(server.Exit(), 2) << args[0] << " " << args[1];
  }
}

}  // namespace
}  // namespace laminar::client
