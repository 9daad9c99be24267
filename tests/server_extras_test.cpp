// Tests for the server's operational endpoints: /stats, /registry/save,
// /registry/load, plus error-path behaviour of the protocol layer.
#include <gtest/gtest.h>

#include <fstream>
#include <iterator>
#include <set>
#include <string>
#include <string_view>
#include <vector>

#include "client/connect.hpp"
#include "client/demo_workflows.hpp"
#include "common/json.hpp"
#include "scratch_dir.hpp"

namespace laminar::client {
namespace {

server::ServerConfig FastServer() {
  server::ServerConfig config;
  config.engine.cold_start_ms = 0;
  return config;
}

TEST(ServerExtras, StatsReflectActivity) {
  InProcessLaminar laminar = ConnectInProcess(FastServer());
  const DemoWorkflow* demo = FindDemoWorkflow("isprime_wf");
  Result<WorkflowInfo> wf = laminar.client->RegisterWorkflow(
      demo->name, demo->spec, demo->pes, demo->code);
  ASSERT_TRUE(wf.ok());
  (void)laminar.client->RunDynamic(wf->id, Value(10));

  Result<Value> stats = laminar.client->GetStats();
  ASSERT_TRUE(stats.ok());
  EXPECT_EQ(stats->GetInt("pes"), 3);
  EXPECT_EQ(stats->GetInt("workflows"), 1);
  // The dynamic run went through the engine's broker.
  EXPECT_GT(stats->at("broker").GetInt("pushes"), 0);
  EXPECT_GT(stats->at("engine").GetInt("warmInstances"), 0);
  // The embedding postings: one entry per index, with the PE rows counted.
  const Value& indexes = stats->at("search").at("indexes");
  for (const char* label : {"peText", "peCode", "workflowText",
                            "workflowCode"}) {
    const Value& index = indexes.at(label);
    EXPECT_EQ(index.GetInt("dims"), 4096) << label;
    EXPECT_GT(index.GetInt("postings"), 0) << label;
    EXPECT_GT(index.GetInt("bytes"), index.GetInt("postings")) << label;
  }
  EXPECT_EQ(indexes.at("peText").GetInt("rows"), 3);
  EXPECT_EQ(indexes.at("workflowCode").GetInt("rows"), 1);
  EXPECT_FALSE(stats->at("search").contains("vectorIndex"));
}

std::string PeCode(const std::string& cls) {
  return "class " + cls + ":\n    def process(self, x):\n        return x\n";
}

TEST(ServerExtras, StatsAndLoadCountEveryTenantsRows) {
  ScratchDir dir;
  const std::string path = dir.File("snapshot.json");
  InProcessLaminar laminar = ConnectInProcess(FastServer());
  ExtraClient acme = AttachClient(*laminar.server);
  acme.client->SetTenant("acme");
  ExtraClient zeta = AttachClient(*laminar.server);
  zeta.client->SetTenant("zeta");
  std::vector<int64_t> defaults;
  for (int i = 0; i < 4; ++i) {
    Result<PeInfo> pe = laminar.client->RegisterPe(
        PeCode("Shared" + std::to_string(i)), "", "reads tuples");
    ASSERT_TRUE(pe.ok()) << pe.status().ToString();
    defaults.push_back(pe->id);
  }
  std::vector<int64_t> acmes;
  for (int i = 0; i < 3; ++i) {
    Result<PeInfo> pe = acme.client->RegisterPe(
        PeCode("Acme" + std::to_string(i)), "", "");
    ASSERT_TRUE(pe.ok()) << pe.status().ToString();
    acmes.push_back(pe->id);
  }
  for (int i = 0; i < 2; ++i) {
    ASSERT_TRUE(
        zeta.client->RegisterPe(PeCode("Zeta" + std::to_string(i))).ok());
  }
  const DemoWorkflow* demo = FindDemoWorkflow("isprime_wf");
  ASSERT_TRUE(acme.client
                  ->RegisterWorkflow(demo->name, demo->spec, demo->pes,
                                     demo->code)
                  .ok());
  ASSERT_TRUE(laminar.client->RemovePe(defaults[0]).ok());
  ASSERT_TRUE(acme.client->RemovePe(acmes[0]).ok());
  ASSERT_TRUE(
      laminar.client->UpdatePeDescription(defaults[1], "filters tuples").ok());
  // 4 + 3 + 2 + the workflow's 3, less 2 removed.
  const int64_t pes = 10;

  // Counts are the tables' sizes, the same for every tenant: acme's own
  // view lists only its rows and the default tenant's.
  for (LaminarClient* client : {laminar.client.get(), acme.client.get(),
                                zeta.client.get()}) {
    Result<Value> stats = client->GetStats();
    ASSERT_TRUE(stats.ok());
    EXPECT_EQ(stats->GetInt("pes"), pes) << client->tenant();
    EXPECT_EQ(stats->GetInt("workflows"), 1) << client->tenant();
  }
  auto acme_view = acme.client->GetRegistry();
  ASSERT_TRUE(acme_view.ok());
  EXPECT_EQ(acme_view->first.size(), 8u);

  // The snapshot holds those rows, each description embedding in the
  // sparse form, and a load reports exactly its row counts.
  ASSERT_TRUE(laminar.client->SaveRegistry(path).ok());
  std::ifstream in(path);
  Result<Value> doc = json::Parse(std::string(
      std::istreambuf_iterator<char>(in), std::istreambuf_iterator<char>()));
  ASSERT_TRUE(doc.ok()) << doc.status().ToString();
  const Value::Array& pe_rows =
      doc->at("processing_element").at("rows").as_array();
  const Value::Array& wf_rows = doc->at("workflow").at("rows").as_array();
  EXPECT_EQ(static_cast<int64_t>(pe_rows.size()), pes);
  EXPECT_EQ(wf_rows.size(), 1u);
  for (const Value::Array* rows : {&pe_rows, &wf_rows}) {
    for (const Value& row : *rows) {
      EXPECT_EQ(row.GetString("descriptionEmbedding")
                    .rfind(R"({"dims":4096,"nz":[[)", 0),
                0u)
          << row.GetString("description");
    }
  }
  InProcessLaminar loaded = ConnectInProcess(FastServer());
  Value body = Value::MakeObject();
  body["path"] = path;
  Result<Value> reply = loaded.client->CallEndpoint("/registry/load", body);
  ASSERT_TRUE(reply.ok()) << reply.status().ToString();
  EXPECT_EQ(reply->GetInt("pes"), static_cast<int64_t>(pe_rows.size()));
  EXPECT_EQ(reply->GetInt("workflows"), static_cast<int64_t>(wf_rows.size()));
}

TEST(ServerExtras, SaveAndLoadRoundTrip) {
  ScratchDir dir;
  const std::string path = dir.File("snapshot.json");

  {
    InProcessLaminar laminar = ConnectInProcess(FastServer());
    const DemoWorkflow* demo = FindDemoWorkflow("anomaly_wf");
    ASSERT_TRUE(laminar.client
                    ->RegisterWorkflow(demo->name, demo->spec, demo->pes,
                                       demo->code)
                    .ok());
    ASSERT_TRUE(laminar.client->SaveRegistry(path).ok());
  }
  {
    InProcessLaminar laminar = ConnectInProcess(FastServer());
    ASSERT_TRUE(laminar.client->LoadRegistry(path).ok());
    // Registry content restored...
    Result<WorkflowInfo> wf = laminar.client->GetWorkflowByName("anomaly_wf");
    ASSERT_TRUE(wf.ok());
    // ...search reindexed...
    auto hits = laminar.client->SearchRegistrySemantic(
        "a pe that is able to detect anomalies", "pe", 3);
    ASSERT_TRUE(hits.ok());
    ASSERT_FALSE(hits->empty());
    EXPECT_NE(hits->front().name.find("Anomaly"), std::string::npos);
    // ...and the restored workflow still runs.
    RunOutcome outcome = laminar.client->Run(wf->id, Value(50));
    EXPECT_TRUE(outcome.status.ok()) << outcome.status.ToString();
  }
}

TEST(ServerExtras, SaveRequiresPath) {
  InProcessLaminar laminar = ConnectInProcess(FastServer());
  EXPECT_FALSE(laminar.client->SaveRegistry("").ok());
}

TEST(ServerExtras, LoadMissingFileFails) {
  InProcessLaminar laminar = ConnectInProcess(FastServer());
  Status st = laminar.client->LoadRegistry("/definitely/not/here.json");
  EXPECT_FALSE(st.ok());
  EXPECT_EQ(st.code(), StatusCode::kNotFound);
}

TEST(ServerExtras, UnknownEndpointIs404) {
  InProcessLaminar laminar = ConnectInProcess(FastServer());
  net::HttpRequest req;
  req.path = "/no/such/endpoint";
  auto resp = laminar.client_side->Call(req);
  ASSERT_TRUE(resp.ok());
  EXPECT_EQ(resp->first, 404);
}

// The route table is the server's one list of endpoints. This pins each
// row's policies, so changing one is a deliberate edit here too.
TEST(ServerRoutes, TablePinsEachEndpointsPolicy) {
  using Server = server::LaminarServer;
  const std::set<std::string_view> shared_reads = {
      "/pes/get",          "/pes/describe",        "/workflows/get",
      "/workflows/describe", "/workflows/pes",     "/workflows/executions",
      "/registry/list",    "/search/literal",      "/search/semantic",
      "/search/code",      "/search/complete",     "/stats"};
  const std::set<std::string_view> exclusive_writes = {
      "/users/register",    "/users/login",         "/pes/remove",
      "/workflows/remove",  "/registry/remove_all", "/registry/load"};
  const std::set<std::string_view> probes = {"/health", "/metrics",
                                             "/replication/status"};
  const std::set<std::string_view> exempt_redirects = {
      "/replication/snapshot", "/replication/fetch"};
  const std::set<std::string_view> raw_bodies = {"/metrics",
                                                 "/resources/upload"};
  std::set<std::string_view> seen;
  size_t self_locking = 0;
  for (const Server::Route& route : Server::Routes()) {
    const std::string_view path = route.path;
    EXPECT_TRUE(seen.insert(path).second) << "duplicate row " << path;
    EXPECT_NE(route.handler, nullptr) << path;
    EXPECT_EQ(route.body == Server::Body::kRaw, raw_bodies.count(path) == 1)
        << path;
    Server::Lock lock = Server::Lock::kNone;
    Server::Replica replica = Server::Replica::kRedirect;
    Server::Admission admission = Server::Admission::kTenant;
    if (shared_reads.count(path) != 0) {
      lock = Server::Lock::kShared;
      replica = Server::Replica::kRead;
    } else if (exclusive_writes.count(path) != 0) {
      lock = Server::Lock::kExclusive;
    } else if (probes.count(path) != 0) {
      replica = Server::Replica::kAlways;
      admission = Server::Admission::kExempt;
    } else {
      ++self_locking;
      if (exempt_redirects.count(path) != 0) {
        admission = Server::Admission::kExempt;
      }
    }
    EXPECT_EQ(route.lock, lock) << path;
    EXPECT_EQ(route.replica, replica) << path;
    EXPECT_EQ(route.admission, admission) << path;
  }
  EXPECT_EQ(seen.size(), 31u);
  EXPECT_EQ(self_locking, 10u);
  for (const auto* group : {&shared_reads, &exclusive_writes, &probes,
                            &exempt_redirects, &raw_bodies}) {
    for (std::string_view path : *group) {
      EXPECT_EQ(seen.count(path), 1u) << "no row for " << path;
    }
  }
}

TEST(ServerExtras, MalformedJsonBodyIs400) {
  InProcessLaminar laminar = ConnectInProcess(FastServer());
  net::HttpRequest req;
  req.path = "/pes/get";
  req.body = "{not json";
  auto resp = laminar.client_side->Call(req);
  ASSERT_TRUE(resp.ok());
  EXPECT_EQ(resp->first, 400);
}

TEST(ServerExtras, HealthEndpoint) {
  InProcessLaminar laminar = ConnectInProcess(FastServer());
  net::HttpRequest req;
  req.path = "/health";
  auto resp = laminar.client_side->Call(req);
  ASSERT_TRUE(resp.ok());
  EXPECT_EQ(resp->first, 200);
  EXPECT_NE(resp->second.find("ok"), std::string::npos);
}

// One request with 5,000 nested brackets used to overflow the Python
// parser's stack and take the whole server down with it.
TEST(ServerExtras, DeeplyNestedCodeIsAnsweredNotFatal) {
  InProcessLaminar laminar = ConnectInProcess(FastServer());
  const std::string code =
      "y = " + std::string(5000, '(') + "x" + std::string(5000, ')') + "\n";
  for (const char* path : {"/pes/register", "/search/code", "/search/complete"}) {
    Value body = Value::MakeObject();
    body["code"] = code;
    net::HttpRequest req;
    req.path = path;
    req.body = body.ToJson();
    auto resp = laminar.client_side->Call(req);
    ASSERT_TRUE(resp.ok()) << path;
    EXPECT_LT(resp->first, 500) << path << ": " << resp->second;
  }
  net::HttpRequest health;
  health.path = "/health";
  auto resp = laminar.client_side->Call(health);
  ASSERT_TRUE(resp.ok());
  EXPECT_EQ(resp->first, 200);
}

TEST(ServerExtras, ExecuteRejectsGarbageResourcesField) {
  InProcessLaminar laminar = ConnectInProcess(FastServer());
  const DemoWorkflow* demo = FindDemoWorkflow("isprime_wf");
  net::HttpRequest req;
  req.path = "/execute";
  Value body = Value::MakeObject();
  body["spec"] = demo->spec;
  body["mapping"] = "simple";
  body["input"] = 2;
  body["resources"] = "not an array";  // tolerated: treated as empty
  req.body = body.ToJson();
  auto resp = laminar.client_side->Call(req);
  ASSERT_TRUE(resp.ok());
  EXPECT_EQ(resp->first, 200);
}

}  // namespace
}  // namespace laminar::client
