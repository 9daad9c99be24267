// WAL-shipping read replicas (ISSUE 9): follower bootstrap + tail parity,
// the read-only 421 gate, the bounded-staleness 503 contract, follower
// kill/restart resync, and the ConnectTcp startup-race retry.
//
// Leader and followers run in ONE process as separate LaminarServer
// instances behind real TCP listeners — the replication path exercised is
// identical to separate OS processes (same sockets, same protocol), while
// teardown stays deterministic and sanitizer-friendly.
#include <atomic>
#include <chrono>
#include <map>
#include <memory>
#include <string>
#include <string_view>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "client/connect.hpp"
#include "client/demo_workflows.hpp"
#include "client/fanout.hpp"
#include "common/json.hpp"
#include "net/tcp.hpp"
#include "server/server.hpp"
#include "telemetry/telemetry.hpp"
#include "dense_embedding.hpp"
#include "scratch_dir.hpp"

namespace laminar::client {
namespace {

/// A request for `path` with an empty JSON body.
net::HttpRequest Request(const std::string& path) {
  net::HttpRequest req;
  req.path = path;
  req.body = "{}";
  return req;
}

std::string PeCode(const std::string& cls) {
  return "class " + cls + ":\n    def process(self, x):\n        return x\n";
}

/// One leader (WAL-enabled) plus N followers, all on ephemeral ports.
class ReplicationTest : public ::testing::Test {
 protected:
  void StartLeader() {
    server::ServerConfig config;
    config.wal_path = wal_path_;
    config.snapshot_path = snapshot_path_;
    net::TcpListenerConfig listener;
    listener.port = 0;
    Result<TcpLaminarServer> leader = ServeTcp(std::move(config), listener);
    ASSERT_TRUE(leader.ok()) << leader.status().ToString();
    leader_ = std::make_unique<TcpLaminarServer>(std::move(leader.value()));
  }

  std::unique_ptr<TcpLaminarServer> StartFollower(int max_replica_lag_ms = 0,
                                                  uint16_t leader_port = 0) {
    server::ServerConfig config;
    config.replica_of =
        "127.0.0.1:" +
        std::to_string(leader_port != 0 ? leader_port : leader_->port());
    config.max_replica_lag_ms = max_replica_lag_ms;
    net::TcpListenerConfig listener;
    listener.port = 0;
    Result<TcpLaminarServer> follower = ServeTcp(std::move(config), listener);
    EXPECT_TRUE(follower.ok()) << follower.status().ToString();
    if (!follower.ok()) return nullptr;
    return std::make_unique<TcpLaminarServer>(std::move(follower.value()));
  }

  static Result<TcpClient> Dial(uint16_t port) {
    return ConnectTcp("127.0.0.1", port);
  }

  /// Polls the follower's /replication/status until appliedSeq >= the
  /// leader's current headSeq.
  static void AwaitCatchUp(LaminarClient& leader_client,
                           LaminarClient& follower_client,
                           int timeout_ms = 10'000) {
    Result<Value> leader_status = leader_client.ReplicationStatus();
    ASSERT_TRUE(leader_status.ok()) << leader_status.status().ToString();
    const int64_t head = leader_status->GetInt("headSeq", 0);
    const auto deadline = std::chrono::steady_clock::now() +
                          std::chrono::milliseconds(timeout_ms);
    while (true) {
      Result<Value> status = follower_client.ReplicationStatus();
      if (status.ok() && status->GetInt("appliedSeq", 0) >= head) return;
      ASSERT_LT(std::chrono::steady_clock::now(), deadline)
          << "follower never caught up to leader headSeq " << head << ": "
          << (status.ok() ? status->ToJson() : status.status().ToString());
      std::this_thread::sleep_for(std::chrono::milliseconds(10));
    }
  }

  ScratchDir dir_;
  std::string wal_path_ = dir_.File("wal.jsonl");
  std::string snapshot_path_ = dir_.File("snap.json");
  std::unique_ptr<TcpLaminarServer> leader_;
};

TEST_F(ReplicationTest, FollowerBootstrapsTailsAndServesIdenticalReads) {
  StartLeader();
  Result<TcpClient> leader_cli = Dial(leader_->port());
  ASSERT_TRUE(leader_cli.ok());

  // Rows registered BEFORE the follower exists arrive via the snapshot...
  Result<PeInfo> pe1 = leader_cli->client->RegisterPe(
      PeCode("SnapshotSource"), "SnapshotSource", "reads tuples from a file");
  ASSERT_TRUE(pe1.ok()) << pe1.status().ToString();

  std::unique_ptr<TcpLaminarServer> follower = StartFollower();
  ASSERT_NE(follower, nullptr);
  Result<TcpClient> follower_cli = Dial(follower->port());
  ASSERT_TRUE(follower_cli.ok());
  AwaitCatchUp(*leader_cli->client, *follower_cli->client);

  // ...and rows registered AFTER it bootstrapped arrive via the WAL tail.
  Result<PeInfo> pe2 = leader_cli->client->RegisterPe(
      PeCode("TailFilter"), "TailFilter", "filters tuples by a predicate");
  ASSERT_TRUE(pe2.ok()) << pe2.status().ToString();
  AwaitCatchUp(*leader_cli->client, *follower_cli->client);

  // Point reads resolve identically on both nodes.
  Result<PeInfo> got = follower_cli->client->GetPe(pe2->id);
  ASSERT_TRUE(got.ok()) << got.status().ToString();
  EXPECT_EQ(got->name, "TailFilter");
  EXPECT_EQ(got->code, PeCode("TailFilter"));

  // Parity gate at quiesce: follower search results are bit-identical to
  // the leader's — same ids, same order, same scores (the follower indexes
  // the stored embeddings, it never re-encodes).
  for (const char* query : {"reads tuples", "filters tuples", "tuples"}) {
    Result<std::vector<SearchHit>> on_leader =
        leader_cli->client->SearchRegistrySemantic(query);
    Result<std::vector<SearchHit>> on_follower =
        follower_cli->client->SearchRegistrySemantic(query);
    ASSERT_TRUE(on_leader.ok() && on_follower.ok());
    ASSERT_EQ(on_leader->size(), on_follower->size()) << query;
    for (size_t i = 0; i < on_leader->size(); ++i) {
      EXPECT_EQ((*on_leader)[i].id, (*on_follower)[i].id) << query;
      EXPECT_EQ((*on_leader)[i].score, (*on_follower)[i].score) << query;
    }
  }
  Result<std::vector<SearchHit>> literal =
      follower_cli->client->SearchRegistryLiteral("Filter");
  ASSERT_TRUE(literal.ok());
  EXPECT_EQ(literal->size(), 1u);

  // Removal also replicates: erase on the leader disappears on the replica.
  ASSERT_TRUE(leader_cli->client->RemovePe(pe1->id).ok());
  AwaitCatchUp(*leader_cli->client, *follower_cli->client);
  EXPECT_FALSE(follower_cli->client->GetPe(pe1->id).ok());

  // /stats surfaces the replication role on both sides.
  Result<Value> leader_stats = leader_cli->client->GetStats();
  ASSERT_TRUE(leader_stats.ok());
  EXPECT_EQ(leader_stats->at("replication").GetString("role"), "leader");
  EXPECT_TRUE(leader_stats->at("wal").GetBool("enabled"));
  Result<Value> follower_stats = follower_cli->client->GetStats();
  ASSERT_TRUE(follower_stats.ok());
  EXPECT_EQ(follower_stats->at("replication").GetString("role"), "follower");
  EXPECT_GE(follower_stats->at("replication").GetInt("recordsApplied"), 1);
}

/// Collects the response a handler writes.
struct BufferedResponder : net::StreamResponder {
  void SendChunk(std::string_view chunk) override { body.append(chunk); }
  void End(int code) override { status = code; }
  std::string body;
  int status = 0;
};

TEST_F(ReplicationTest, FollowerAppliesDenseEmbeddingRecordsOfAnOlderLeader) {
  StartLeader();
  // A proxy in front of the leader ships every WAL record as a leader from
  // before the sparse column would: descriptionEmbedding as a dense array.
  const net::StreamHandler leader_handler = leader_->server->HandlerFn();
  std::atomic<int> densified{0};
  net::TcpListenerConfig proxy_config;
  proxy_config.port = 0;
  net::TcpListener proxy(
      proxy_config,
      [&](const net::HttpRequest& req, net::StreamResponder& out) {
        if (req.path != "/replication/fetch") return leader_handler(req, out);
        BufferedResponder fetched;
        leader_handler(req, fetched);
        Result<Value> body = json::Parse(fetched.body);
        if (body.ok()) {
          for (Value& line : (*body)["lines"].mutable_array()) {
            Result<Value> record = json::Parse(line.as_string());
            if (!record.ok() ||
                record->at("data").GetString("descriptionEmbedding").empty()) {
              continue;
            }
            DensifyEmbeddingColumn((*record)["data"]);
            line = record->ToJson();
            ++densified;
          }
          fetched.body = body->ToJson();
        }
        out.SendChunk(fetched.body);
        out.End(fetched.status);
      });
  ASSERT_TRUE(proxy.Start().ok());

  std::unique_ptr<TcpLaminarServer> follower = StartFollower(0, proxy.port());
  ASSERT_NE(follower, nullptr);
  Result<TcpClient> leader_cli = Dial(leader_->port());
  Result<TcpClient> follower_cli = Dial(follower->port());
  ASSERT_TRUE(leader_cli.ok() && follower_cli.ok());
  AwaitCatchUp(*leader_cli->client, *follower_cli->client);

  // Registrations, one of them summarized by the server, a workflow and a
  // re-description all reach the follower through the fetch tail.
  auto text_encodes = [] {
    return telemetry::MetricsRegistry::Global()
        .GetCounter("laminar_embed_encodes_total", "model=\"unixcoder\"")
        .Value();
  };
  const uint64_t encodes_before = text_encodes();
  std::vector<int64_t> ids;
  for (const char* name : {"DenseReader", "DenseFilter", "DenseSink"}) {
    Result<PeInfo> pe = leader_cli->client->RegisterPe(
        PeCode(name), name,
        std::string(name) == "DenseSink" ? "" : "streams tuples by key");
    ASSERT_TRUE(pe.ok()) << pe.status().ToString();
    ids.push_back(pe->id);
  }
  const DemoWorkflow* demo = FindDemoWorkflow("isprime_wf");
  ASSERT_TRUE(leader_cli->client
                  ->RegisterWorkflow(demo->name, demo->spec, demo->pes,
                                     demo->code)
                  .ok());
  ASSERT_TRUE(leader_cli->client
                  ->UpdatePeDescription(ids[1], "drops tuples below a bound")
                  .ok());
  AwaitCatchUp(*leader_cli->client, *follower_cli->client);
  // 3 PE rows, 3 workflow PE rows, the workflow row and the update.
  EXPECT_GE(densified.load(), 8);
  // Only the leader encoded descriptions (3 PEs, the workflow's 3 and the
  // workflow); the follower decoded every dense row instead.
  EXPECT_EQ(text_encodes() - encodes_before, 7u);

  auto same = [](const Result<std::vector<SearchHit>>& a,
                 const Result<std::vector<SearchHit>>& b) {
    ASSERT_TRUE(a.ok() && b.ok());
    ASSERT_EQ(a->size(), b->size());
    for (size_t i = 0; i < a->size(); ++i) {
      EXPECT_EQ((*a)[i].id, (*b)[i].id);
      EXPECT_EQ((*a)[i].score, (*b)[i].score);
    }
  };
  for (const char* target : {"pe", "workflow"}) {
    for (const char* query : {"streams tuples", "drops tuples", "prime"}) {
      same(leader_cli->client->SearchRegistrySemantic(query, target),
           follower_cli->client->SearchRegistrySemantic(query, target));
    }
    same(leader_cli->client->CodeRecommendation(PeCode("Probe"), target, "llm"),
         follower_cli->client->CodeRecommendation(PeCode("Probe"), target,
                                                  "llm"));
  }
  follower.reset();
  proxy.Stop();
}

TEST_F(ReplicationTest, FollowerReencodesHostileEmbeddingColumnsFromFetches) {
  StartLeader();
  // A proxy in front of the leader replaces the descriptionEmbedding of
  // PE "HostileN" with column N: a well-formed row of 2^20 dimensions
  // (one entry, which no index takes), then malformed rows that mean
  // "re-encode".
  const std::vector<std::string> columns = {
      R"({"dims":1048576,"nz":[[5,0.5]]})",
      R"({"dims":1048577,"nz":[[5,0.5]]})",
      R"({"dims":4096,"nz":[[9,0.5],[3,0.25]]})",
      R"({"dims":4096,"nz":[[3,0.5],[3,0.25]]})",
      R"({"dims":4096,"nz":[[4096,0.5]]})",
      R"({"dims":4096,"nz":[[3,"0.5"]]})",
  };
  const net::StreamHandler leader_handler = leader_->server->HandlerFn();
  std::atomic<int> rewritten{0};
  net::TcpListenerConfig proxy_config;
  proxy_config.port = 0;
  net::TcpListener proxy(
      proxy_config,
      [&](const net::HttpRequest& req, net::StreamResponder& out) {
        if (req.path != "/replication/fetch") return leader_handler(req, out);
        BufferedResponder fetched;
        leader_handler(req, fetched);
        Result<Value> body = json::Parse(fetched.body);
        if (body.ok()) {
          for (Value& line : (*body)["lines"].mutable_array()) {
            Result<Value> record = json::Parse(line.as_string());
            if (!record.ok()) continue;
            const std::string name = record->at("data").GetString("peName");
            if (name.rfind("Hostile", 0) != 0 ||
                record->at("data").GetString("descriptionEmbedding").empty()) {
              continue;
            }
            (*record)["data"]["descriptionEmbedding"] =
                columns[std::stoul(name.substr(7))];
            line = record->ToJson();
            ++rewritten;
          }
          fetched.body = body->ToJson();
        }
        out.SendChunk(fetched.body);
        out.End(fetched.status);
      });
  ASSERT_TRUE(proxy.Start().ok());

  std::unique_ptr<TcpLaminarServer> follower = StartFollower(0, proxy.port());
  ASSERT_NE(follower, nullptr);
  Result<TcpClient> leader_cli = Dial(leader_->port());
  Result<TcpClient> follower_cli = Dial(follower->port());
  ASSERT_TRUE(leader_cli.ok() && follower_cli.ok());
  AwaitCatchUp(*leader_cli->client, *follower_cli->client);

  auto text_encodes = [] {
    return telemetry::MetricsRegistry::Global()
        .GetCounter("laminar_embed_encodes_total", "model=\"unixcoder\"")
        .Value();
  };
  const uint64_t encodes_before = text_encodes();
  const std::vector<std::string> descriptions = {
      "windows a stream of sensor readings", "filters tuples below a bound",
      "joins two keyed streams",             "counts words per line",
      "parses comma separated rows",         "writes records to a sink"};
  std::vector<int64_t> ids;
  for (size_t i = 0; i < columns.size(); ++i) {
    const std::string name = "Hostile" + std::to_string(i);
    Result<PeInfo> pe =
        leader_cli->client->RegisterPe(PeCode(name), name, descriptions[i]);
    ASSERT_TRUE(pe.ok()) << pe.status().ToString();
    ids.push_back(pe->id);
  }
  AwaitCatchUp(*leader_cli->client, *follower_cli->client);
  EXPECT_EQ(rewritten.load(), static_cast<int>(columns.size()));
  // The leader encoded every description; the follower re-encoded the
  // malformed rows and took the wide row as stored.
  EXPECT_EQ(text_encodes() - encodes_before,
            columns.size() + columns.size() - 1);

  // Every row scores as on the leader, except the wide row, which has no
  // postings on the follower and scores 0 there.
  for (size_t i = 0; i < columns.size(); ++i) {
    Result<std::vector<SearchHit>> on_leader =
        leader_cli->client->SearchRegistrySemantic(descriptions[i], "pe", 10);
    Result<std::vector<SearchHit>> on_follower =
        follower_cli->client->SearchRegistrySemantic(descriptions[i], "pe", 10);
    ASSERT_TRUE(on_leader.ok() && on_follower.ok());
    ASSERT_EQ(on_leader->size(), columns.size());
    ASSERT_EQ(on_follower->size(), columns.size());
    EXPECT_EQ(on_leader->front().id, ids[i]) << descriptions[i];
    std::map<int64_t, double> leader_scores;
    for (const SearchHit& hit : *on_leader) leader_scores[hit.id] = hit.score;
    for (const SearchHit& hit : *on_follower) {
      EXPECT_EQ(hit.score, hit.id == ids[0] ? 0.0 : leader_scores[hit.id])
          << descriptions[i] << ", id " << hit.id;
    }
  }
  follower.reset();
  proxy.Stop();
}

TEST_F(ReplicationTest, FollowerRejectsMutationsWith421) {
  StartLeader();
  std::unique_ptr<TcpLaminarServer> follower = StartFollower();
  ASSERT_NE(follower, nullptr);

  // Wire-level: the raw HTTP status must be 421 and the body must name the
  // leader, so any client can fail over without Laminar-specific logic.
  Result<std::unique_ptr<net::ByteStream>> stream =
      net::TcpConnect("127.0.0.1", follower->port());
  ASSERT_TRUE(stream.ok());
  net::HttpConnection raw(std::move(stream.value()),
                          net::HttpConnection::Mode::kStreaming);
  size_t redirects = 0;
  for (const server::LaminarServer::Route& route :
       server::LaminarServer::Routes()) {
    if (route.replica != server::LaminarServer::Replica::kRedirect) continue;
    ++redirects;
    const std::string path(route.path);
    Result<std::pair<int, std::string>> resp = raw.Call(Request(path));
    ASSERT_TRUE(resp.ok()) << path;
    EXPECT_EQ(resp->first, 421) << path;
    Result<Value> body = json::Parse(resp->second);
    ASSERT_TRUE(body.ok()) << path;
    EXPECT_EQ(body->GetString("leader"),
              "127.0.0.1:" + std::to_string(leader_->port()))
        << path;
  }
  EXPECT_GT(redirects, 0u);
  raw.Close();

  // Client-level: 421 maps to kUnavailable (the fan-out failover trigger).
  Result<TcpClient> follower_cli = Dial(follower->port());
  ASSERT_TRUE(follower_cli.ok());
  Result<PeInfo> refused =
      follower_cli->client->RegisterPe(PeCode("Nope"), "Nope");
  ASSERT_FALSE(refused.ok());
  EXPECT_EQ(refused.status().code(), StatusCode::kUnavailable);
}

// The follower gate comes from the route table's replica column: every read
// row is served by a caught-up follower and refused with 503 by a stale
// one, and every always row is served even by a stale follower.
TEST_F(ReplicationTest, FollowerGateFollowsRouteTable) {
  using Server = server::LaminarServer;
  auto call_each = [](uint16_t port, Server::Replica replica, auto check) {
    Result<std::unique_ptr<net::ByteStream>> stream =
        net::TcpConnect("127.0.0.1", port);
    ASSERT_TRUE(stream.ok());
    net::HttpConnection raw(std::move(stream.value()),
                            net::HttpConnection::Mode::kStreaming);
    for (const Server::Route& route : Server::Routes()) {
      if (route.replica != replica) continue;
      Result<std::pair<int, std::string>> resp =
          raw.Call(Request(std::string(route.path)));
      ASSERT_TRUE(resp.ok()) << route.path;
      check(route.path, resp->first);
    }
    raw.Close();
  };
  auto served = [](std::string_view path, int status) {
    EXPECT_NE(status, 421) << path;
    EXPECT_NE(status, 503) << path;
  };

  std::unique_ptr<TcpLaminarServer> stale =
      StartFollower(/*max_replica_lag_ms=*/50, /*leader_port=*/1);
  ASSERT_NE(stale, nullptr);
  call_each(stale->port(), Server::Replica::kRead,
            [](std::string_view path, int status) {
              EXPECT_EQ(status, 503) << path;
            });
  call_each(stale->port(), Server::Replica::kAlways,
            [](std::string_view path, int status) {
              EXPECT_EQ(status, 200) << path;
            });

  StartLeader();
  std::unique_ptr<TcpLaminarServer> fresh =
      StartFollower(/*max_replica_lag_ms=*/60'000);
  ASSERT_NE(fresh, nullptr);
  Result<TcpClient> leader_cli = Dial(leader_->port());
  Result<TcpClient> fresh_cli = Dial(fresh->port());
  ASSERT_TRUE(leader_cli.ok() && fresh_cli.ok());
  AwaitCatchUp(*leader_cli->client, *fresh_cli->client);
  call_each(fresh->port(), Server::Replica::kRead, served);
  call_each(fresh->port(), Server::Replica::kAlways, served);
}

// An unknown path gets 404 before any parse, admission or lock, on a leader
// and on a follower alike: it is counted as path="other" and spends none of
// the tenant's tokens.
TEST_F(ReplicationTest, UnknownPathIs404BeforeAdmission) {
  server::TenantQuotas one_token;
  one_token.burst = 1.0;
  one_token.requests_per_sec = 1e-6;  // no refill within the test
  server::ServerConfig leader;
  leader.tenant_overrides["rl"] = one_token;
  server::ServerConfig follower = leader;
  follower.replica_of = "127.0.0.1:1";
  const telemetry::Counter& other =
      telemetry::MetricsRegistry::Global().GetCounter(
          "laminar_server_requests_total", "path=\"other\"");
  for (const server::ServerConfig* config : {&leader, &follower}) {
    net::TcpListenerConfig listener;
    listener.port = 0;
    Result<TcpLaminarServer> node = ServeTcp(*config, listener);
    ASSERT_TRUE(node.ok()) << node.status().ToString();
    Result<std::unique_ptr<net::ByteStream>> stream =
        net::TcpConnect("127.0.0.1", node->port());
    ASSERT_TRUE(stream.ok());
    net::HttpConnection raw(std::move(stream.value()),
                            net::HttpConnection::Mode::kStreaming);
    const uint64_t other_before = other.Value();
    net::HttpRequest unknown = Request("/no/such/endpoint");
    unknown.headers["x-laminar-tenant"] = "rl";
    Result<std::pair<int, std::string>> resp = raw.Call(unknown);
    ASSERT_TRUE(resp.ok());
    EXPECT_EQ(resp->first, 404) << config->replica_of;
    EXPECT_EQ(other.Value(), other_before + 1) << config->replica_of;

    net::HttpRequest search = Request("/search/literal");
    search.headers["x-laminar-tenant"] = "rl";
    resp = raw.Call(search);
    ASSERT_TRUE(resp.ok());
    EXPECT_EQ(resp->first, 200) << config->replica_of << ": " << resp->second;
    raw.Close();
  }
}

TEST_F(ReplicationTest, StalenessContractRefusesReadsWith503) {
  // A follower whose leader does not exist can never confirm freshness:
  // with a staleness bound configured, reads must fail 503, not serve an
  // empty (infinitely stale) registry.
  uint16_t dead_port = 1;  // nothing listens on port 1
  std::unique_ptr<TcpLaminarServer> orphan =
      StartFollower(/*max_replica_lag_ms=*/50, /*leader_port=*/dead_port);
  ASSERT_NE(orphan, nullptr);
  Result<TcpClient> orphan_cli = Dial(orphan->port());
  ASSERT_TRUE(orphan_cli.ok());
  Result<std::vector<SearchHit>> stale =
      orphan_cli->client->SearchRegistryLiteral("anything");
  ASSERT_FALSE(stale.ok());
  EXPECT_EQ(stale.status().code(), StatusCode::kUnavailable);
  // /replication/status stays observable even while reads are refused.
  Result<Value> status = orphan_cli->client->ReplicationStatus();
  ASSERT_TRUE(status.ok());
  EXPECT_FALSE(status->GetBool("bootstrapped", true));
  orphan.reset();

  // With a live leader and a generous bound, the same gate passes once the
  // follower has confirmed catch-up.
  StartLeader();
  Result<TcpClient> leader_cli = Dial(leader_->port());
  ASSERT_TRUE(leader_cli.ok());
  ASSERT_TRUE(
      leader_cli->client->RegisterPe(PeCode("Fresh"), "Fresh").ok());
  std::unique_ptr<TcpLaminarServer> follower =
      StartFollower(/*max_replica_lag_ms=*/60'000);
  ASSERT_NE(follower, nullptr);
  Result<TcpClient> follower_cli = Dial(follower->port());
  ASSERT_TRUE(follower_cli.ok());
  AwaitCatchUp(*leader_cli->client, *follower_cli->client);
  Result<std::vector<SearchHit>> fresh =
      follower_cli->client->SearchRegistryLiteral("Fresh");
  ASSERT_TRUE(fresh.ok()) << fresh.status().ToString();
  EXPECT_EQ(fresh->size(), 1u);
}

TEST_F(ReplicationTest, ReplicaSetClientRoutesReadsAndFailsOver) {
  StartLeader();
  Result<TcpClient> seed = Dial(leader_->port());
  ASSERT_TRUE(seed.ok());
  ASSERT_TRUE(seed->client->RegisterPe(PeCode("Routed"), "Routed").ok());
  std::unique_ptr<TcpLaminarServer> f1 = StartFollower();
  std::unique_ptr<TcpLaminarServer> f2 = StartFollower();
  ASSERT_NE(f1, nullptr);
  ASSERT_NE(f2, nullptr);

  const std::string leader_spec =
      "127.0.0.1:" + std::to_string(leader_->port());
  Result<std::unique_ptr<ReplicaSetClient>> set = ReplicaSetClient::Connect(
      leader_spec, {"127.0.0.1:" + std::to_string(f1->port()),
                    "127.0.0.1:" + std::to_string(f2->port())});
  ASSERT_TRUE(set.ok()) << set.status().ToString();
  EXPECT_EQ((*set)->follower_count(), 2u);
  ASSERT_TRUE((*set)->WaitForCatchUp(10'000).ok());

  // Reads succeed through the set; writes go to the leader explicitly.
  Result<std::vector<SearchHit>> hits =
      (*set)->Read<std::vector<SearchHit>>([](LaminarClient& c) {
        return c.SearchRegistryLiteral("Routed");
      });
  ASSERT_TRUE(hits.ok()) << hits.status().ToString();
  EXPECT_EQ(hits->size(), 1u);
  Result<PeInfo> write = (*set)->leader().RegisterPe(PeCode("ViaSet"));
  ASSERT_TRUE(write.ok()) << write.status().ToString();

  // Kill both followers: every read must fail over to the leader rather
  // than surface kUnavailable to the caller.
  f1.reset();
  f2.reset();
  for (int i = 0; i < 8; ++i) {
    Result<std::vector<SearchHit>> after =
        (*set)->Read<std::vector<SearchHit>>([](LaminarClient& c) {
          return c.SearchRegistryLiteral("Routed");
        });
    ASSERT_TRUE(after.ok())
        << "read " << i << ": " << after.status().ToString();
  }
}

TEST_F(ReplicationTest, FollowerRestartResyncsWithoutDupOrSkip) {
  StartLeader();
  Result<TcpClient> leader_cli = Dial(leader_->port());
  ASSERT_TRUE(leader_cli.ok());
  for (int i = 0; i < 3; ++i) {
    ASSERT_TRUE(leader_cli->client
                    ->RegisterPe(PeCode("Before" + std::to_string(i)),
                                 "Before" + std::to_string(i))
                    .ok());
  }
  std::unique_ptr<TcpLaminarServer> follower = StartFollower();
  ASSERT_NE(follower, nullptr);
  {
    Result<TcpClient> follower_cli = Dial(follower->port());
    ASSERT_TRUE(follower_cli.ok());
    AwaitCatchUp(*leader_cli->client, *follower_cli->client);
  }

  // Kill the follower mid-stream, mutate the leader while it is down,
  // then bring a fresh follower up at the same role.
  follower.reset();
  for (int i = 0; i < 3; ++i) {
    ASSERT_TRUE(leader_cli->client
                    ->RegisterPe(PeCode("While" + std::to_string(i)),
                                 "While" + std::to_string(i))
                    .ok());
  }
  follower = StartFollower();
  ASSERT_NE(follower, nullptr);
  Result<TcpClient> follower_cli = Dial(follower->port());
  ASSERT_TRUE(follower_cli.ok());
  AwaitCatchUp(*leader_cli->client, *follower_cli->client);

  // A restarted follower re-bootstraps (it keeps no local WAL), and the
  // snapshot + suffix hand-off is exact: no row duplicated, none skipped.
  Result<Value> status = follower_cli->client->ReplicationStatus();
  ASSERT_TRUE(status.ok());
  EXPECT_GE(status->GetInt("bootstraps"), 1);
  EXPECT_EQ(status->GetInt("gaps"), 0);
  EXPECT_EQ(status->GetInt("appliedSeq"), status->GetInt("leaderSeq"));

  auto leader_registry = leader_cli->client->GetRegistry();
  auto follower_registry = follower_cli->client->GetRegistry();
  ASSERT_TRUE(leader_registry.ok() && follower_registry.ok());
  ASSERT_EQ(leader_registry->first.size(), follower_registry->first.size());
  for (size_t i = 0; i < leader_registry->first.size(); ++i) {
    EXPECT_EQ(leader_registry->first[i].id, follower_registry->first[i].id);
    EXPECT_EQ(leader_registry->first[i].name,
              follower_registry->first[i].name);
  }
}

TEST_F(ReplicationTest, ConnectRetryRidesOutStartupRace) {
  // Reserve a port, release it, then start the real server on it only
  // after a delay — the single-shot connect must fail, the retrying
  // connect must ride the race out.
  uint16_t port = 0;
  {
    net::TcpListenerConfig probe;
    probe.port = 0;
    net::TcpListener reserver(probe, [](const net::HttpRequest&,
                                        net::StreamResponder&) {});
    ASSERT_TRUE(reserver.Start().ok());
    port = reserver.port();
    reserver.Stop();
  }
  Result<std::unique_ptr<net::ByteStream>> single =
      net::TcpConnect("127.0.0.1", port, 500);
  EXPECT_FALSE(single.ok()) << "nothing should be listening yet";

  std::unique_ptr<TcpLaminarServer> late;
  std::thread starter([&] {
    std::this_thread::sleep_for(std::chrono::milliseconds(150));
    server::ServerConfig config;
    net::TcpListenerConfig listener;
    listener.port = port;
    Result<TcpLaminarServer> serving = ServeTcp(std::move(config), listener);
    if (serving.ok()) {
      late = std::make_unique<TcpLaminarServer>(std::move(serving.value()));
    }
  });
  net::TcpConnectOptions options;
  options.attempts = 30;
  options.initial_backoff_ms = 20;
  options.max_backoff_ms = 200;
  Result<TcpClient> retried =
      ConnectTcp("127.0.0.1:" + std::to_string(port), options);
  starter.join();
  ASSERT_NE(late, nullptr) << "late server failed to start";
  ASSERT_TRUE(retried.ok()) << retried.status().ToString();
  Result<Value> stats = retried->client->GetStats();
  EXPECT_TRUE(stats.ok()) << stats.status().ToString();
}

}  // namespace
}  // namespace laminar::client
