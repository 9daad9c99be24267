// Registry rows in both formats. Registrations used to store each PE's and
// workflow's Aroma features in an sptEmbedding column; they now store none,
// since search rebuilds every index from the code. This suite requires:
//   * rows written in the old format load through every path a registry
//     reaches a server by: snapshot + WAL recovery, /registry/load,
//     follower bootstrap and the follower's /replication/fetch apply. Each
//     path keeps every row byte for byte and ranks exactly as a fresh
//     registration of the same PEs: the same semantic, llm and spt (id,
//     score) lists;
//   * a row written now carries no sptEmbedding key, whichever route wrote
//     it: not in memory, a WAL line, a snapshot or a fetched record;
//   * a workflow whose code does not parse still registers.
//
// The follower paths replicate from a stand-in leader that serves an
// old-format snapshot and WAL lines over TCP, as a leader that has not been
// upgraded would.
#include <gtest/gtest.h>

#include <algorithm>
#include <chrono>
#include <fstream>
#include <map>
#include <memory>
#include <sstream>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "client/connect.hpp"
#include "client/demo_workflows.hpp"
#include "common/json.hpp"
#include "dataset/generator.hpp"
#include "net/tcp.hpp"
#include "registry/database.hpp"
#include "registry/schema.hpp"
#include "scratch_dir.hpp"
#include "spt/recommend.hpp"

namespace laminar::client {
namespace {

constexpr std::string_view kSptColumn = "sptEmbedding";

std::string ReadFile(const std::string& path) {
  std::ifstream in(path);
  std::stringstream text;
  text << in.rdbuf();
  return text.str();
}

/// PE and workflow rows by (table, id), as Row::ToJson writes them.
using RowTexts = std::map<std::pair<std::string, int64_t>, std::string>;

/// What the old format stored in the sptEmbedding column: the features'
/// JSON, or "" for a PE without features or code that does not parse.
std::string OldSptColumn(const std::string& code, bool is_pe) {
  Result<spt::FlatFeatures> flat = spt::AromaEngine().FeaturizeFlat(code);
  if (!flat.ok() || (is_pe && flat->total == 0)) return "";
  return spt::FeatureBagToJson(flat.value());
}

/// `row` without its id, with the sptEmbedding column where the old format
/// put it in PE and workflow rows: after peCode, after entryPoint.
registry::Row OldFormatRow(const std::string& table,
                           const registry::Row& row) {
  registry::Row out = Value::MakeObject();
  for (const auto& [key, value] : row.as_object()) {
    if (key == "id") continue;
    out[key] = value;
    if (table == registry::kPeTable && key == "peCode") {
      out[std::string(kSptColumn)] = OldSptColumn(value.as_string(), true);
    } else if (table == registry::kWorkflowTable && key == "entryPoint") {
      out[std::string(kSptColumn)] =
          OldSptColumn(row.GetString("workflowCode"), false);
    }
  }
  return out;
}

/// The (id, score) lists of a fixed set of probes: semantic and llm search
/// over PEs and workflows, spt recommendation over PEs.
using Rankings = std::vector<std::vector<std::pair<int64_t, double>>>;

Rankings Rank(LaminarClient& client,
              const dataset::CodeSearchNetPeDataset& ds) {
  Rankings out;
  auto add = [&](const Result<std::vector<SearchHit>>& hits) {
    EXPECT_TRUE(hits.ok()) << hits.status().ToString();
    out.emplace_back();
    if (!hits.ok()) return;
    for (const SearchHit& hit : hits.value()) {
      out.back().emplace_back(hit.id, hit.score);
    }
  };
  for (size_t i = 0; i < ds.size(); i += 3) {
    const dataset::PeExample& ex = ds.example(i);
    const std::string partial = dataset::DropCode(ex.pe_code, 0.5);
    for (const char* target : {"pe", "workflow"}) {
      add(client.SearchRegistrySemantic(ex.query, target, 8));
      add(client.CodeRecommendation(partial, target, "llm", 8));
    }
    add(client.CodeRecommendation(ex.pe_code, "pe", "spt", 5));
    add(client.CodeRecommendation(partial, "pe", "spt", 5));
  }
  return out;
}

/// Stands in for a leader of the old format: answers /replication/snapshot
/// with `snapshot` and /replication/fetch with the `lines` past the
/// follower's position, and holds an empty fetch briefly, as a long-poll
/// does.
class OldLeader {
 public:
  OldLeader(std::string snapshot, std::vector<std::string> lines)
      : snapshot_(std::move(snapshot)),
        lines_(std::move(lines)),
        listener_(net::TcpListenerConfig{},
                  [this](const net::HttpRequest& req,
                         net::StreamResponder& out) { Serve(req, out); }) {
    EXPECT_TRUE(listener_.Start().ok());
  }

  std::string address() const {
    return "127.0.0.1:" + std::to_string(listener_.port());
  }

 private:
  void Serve(const net::HttpRequest& req, net::StreamResponder& out) const {
    if (req.path == "/replication/snapshot") {
      out.Reply(snapshot_, 200);
      return;
    }
    if (req.path != "/replication/fetch") {
      out.End(404);
      return;
    }
    Result<Value> body = json::Parse(req.body);
    const int64_t from = body.ok() ? body->GetInt("fromSeq", 0) : 0;
    Value lines = Value::MakeArray();
    int64_t head = from;
    for (const std::string& line : lines_) {
      head = json::Parse(line)->GetInt("seq", 0);
      if (head > from) lines.push_back(line);
    }
    if (lines.size() == 0) {
      std::this_thread::sleep_for(std::chrono::milliseconds(20));
    }
    Value reply = Value::MakeObject();
    reply["lines"] = std::move(lines);
    reply["headSeq"] = std::max(head, from);
    reply["needSnapshot"] = false;
    out.Reply(reply.ToJson(), 200);
  }

  const std::string snapshot_;
  const std::vector<std::string> lines_;
  net::TcpListener listener_;
};

class RowFormats : public ::testing::Test {
 protected:
  RowFormats() {
    dataset::DatasetConfig corpus;
    corpus.families = 8;
    corpus.variants_per_family = 2;
    corpus.seed = 0x5e7c0;
    ds_ = dataset::CodeSearchNetPeDataset::Generate(corpus);
  }

  /// Registers the corpus through /pes/register, /registry/bulk_register
  /// and /workflows/register, plus a PE whose code yields no SPT features.
  void RegisterCorpus(LaminarClient& client) {
    const auto& examples = ds_.examples();
    const size_t singles = examples.size() / 2;
    for (size_t i = 0; i < singles; ++i) {
      const dataset::PeExample& ex = examples[i];
      Result<PeInfo> pe = client.RegisterPe(ex.pe_code, i % 2 ? ex.name : "",
                                            i % 3 ? ex.description : "");
      ASSERT_TRUE(pe.ok()) << pe.status().ToString();
    }
    Result<PeInfo> keywords_only =
        client.RegisterPe("pass\n", "OnlyKeywords", "does nothing");
    ASSERT_TRUE(keywords_only.ok()) << keywords_only.status().ToString();
    std::vector<PeSource> bulk;
    for (size_t i = singles; i < examples.size(); ++i) {
      bulk.push_back({examples[i].pe_code, examples[i].name,
                      i % 2 ? examples[i].description : ""});
    }
    Result<std::vector<int64_t>> ids = client.BulkRegisterPes(bulk);
    ASSERT_TRUE(ids.ok()) << ids.status().ToString();
    ASSERT_EQ(ids->size(), bulk.size());
    for (const char* name : {"isprime_wf", "anomaly_wf"}) {
      const DemoWorkflow* demo = FindDemoWorkflow(name);
      ASSERT_NE(demo, nullptr);
      Result<WorkflowInfo> wf =
          client.RegisterWorkflow(demo->name, demo->spec, demo->pes,
                                  demo->code);
      ASSERT_TRUE(wf.ok()) << wf.status().ToString();
    }
  }

  /// Registers the corpus on a fresh server, records its rankings, and
  /// writes its rows in the old format: a recovery snapshot holding the
  /// user, the workflows and half the PEs with the WAL suffix after it, a
  /// snapshot of everything for /registry/load and follower bootstrap, and
  /// a snapshot of the user alone with every later WAL line for the fetch
  /// path.
  void WriteOldFormat() {
    InProcessLaminar fresh = ConnectInProcess();
    RegisterCorpus(*fresh.client);
    ASSERT_FALSE(HasFatalFailure());
    fresh_rankings_ = Rank(*fresh.client, ds_);
    size_t hits = 0;
    for (const auto& ranked : fresh_rankings_) hits += ranked.size();
    ASSERT_GT(hits, 2 * fresh_rankings_.size());
    const registry::Database& rows = fresh.server->repository().db();

    registry::Database old;
    ASSERT_TRUE(registry::CreateLaminarSchema(old).ok());
    ASSERT_TRUE(old.Recover(recovery_snapshot_, recovery_wal_).ok());
    std::vector<std::pair<uint64_t, std::string>> logged;
    old.SetWalObserver([&](uint64_t seq, const std::string& line) {
      logged.emplace_back(seq, line);
    });
    auto copy = [&](const std::string& table, size_t begin, size_t end) {
      const std::vector<registry::Row> all = rows.GetTable(table)->All();
      for (size_t i = begin; i < std::min(end, all.size()); ++i) {
        Result<int64_t> id =
            old.Insert(table, OldFormatRow(table, all[i]));
        ASSERT_TRUE(id.ok()) << id.status().ToString();
        ASSERT_EQ(id.value(), all[i].GetInt("id")) << table;
      }
    };
    auto serialize = [&] {
      registry::Database::Snapshot snapshot = old.CaptureSnapshot();
      return old.SerializeSnapshot(snapshot);
    };
    const size_t pes = rows.GetTable(registry::kPeTable)->size();
    copy(registry::kUserTable, 0, SIZE_MAX);
    user_snapshot_ = serialize();
    copy(registry::kWorkflowTable, 0, SIZE_MAX);
    copy(registry::kPeTable, 0, pes / 2);
    ASSERT_TRUE(old.SaveToFile(recovery_snapshot_).ok());
    copy(registry::kPeTable, pes / 2, SIZE_MAX);
    for (const std::string& table : old.TableNames()) {
      if (table == registry::kUserTable || table == registry::kPeTable ||
          table == registry::kWorkflowTable) {
        continue;
      }
      copy(table, 0, SIZE_MAX);
    }
    ASSERT_TRUE(old.SaveToFile(full_snapshot_path_).ok());
    full_snapshot_ = serialize();
    for (const auto& [seq, line] : logged) {
      if (seq > 1) fetch_lines_.push_back(line);  // seq 1 is the user
    }
    for (const char* table : {registry::kPeTable, registry::kWorkflowTable}) {
      for (const registry::Row& row : old.GetTable(table)->All()) {
        ASSERT_TRUE(row.contains(kSptColumn));
        old_rows_[{table, row.GetInt("id")}] = row.ToJson();
      }
    }
    ASSERT_EQ(old_rows_.size(), pes + 2);
    // Both old spellings occur: features, and "" for the keywords-only PE.
    const std::string column = "\"" + std::string(kSptColumn) + "\":";
    EXPECT_EQ(std::count_if(old_rows_.begin(), old_rows_.end(),
                            [&](const auto& entry) {
                              return entry.second.find(column + "\"\"") !=
                                     std::string::npos;
                            }),
              1);
  }

  /// `server` holds every old-format row byte for byte and ranks as the
  /// fresh registration did.
  void ExpectOldRowsServed(server::LaminarServer& server,
                           LaminarClient& client) {
    // The client's call orders this thread after every apply before it.
    EXPECT_EQ(Rank(client, ds_), fresh_rankings_);
    const registry::Database& db = server.repository().db();
    EXPECT_EQ(db.GetTable(registry::kPeTable)->size() +
                  db.GetTable(registry::kWorkflowTable)->size(),
              old_rows_.size());
    for (const auto& [key, text] : old_rows_) {
      Result<registry::Row> row = db.GetTable(key.first)->Get(key.second);
      ASSERT_TRUE(row.ok()) << key.first << " " << key.second;
      EXPECT_EQ(row->ToJson(), text) << key.first << " " << key.second;
    }
    // A snapshot taken now holds each row's text unchanged.
    registry::Database::Snapshot snapshot = db.CaptureSnapshot();
    const std::string doc = db.SerializeSnapshot(snapshot);
    for (const auto& [key, text] : old_rows_) {
      EXPECT_NE(doc.find(text), std::string::npos)
          << key.first << " " << key.second;
    }
  }

  /// Starts a follower of `leader` and, once it has applied `seq`, expects
  /// it to serve the old rows.
  void ExpectFollowerServes(const OldLeader& leader, int64_t seq) {
    server::ServerConfig config;
    config.replica_of = leader.address();
    server::LaminarServer follower(std::move(config));
    ExtraClient client = AttachClient(follower);
    const auto deadline =
        std::chrono::steady_clock::now() + std::chrono::seconds(30);
    while (true) {
      Result<Value> status = client.client->ReplicationStatus();
      ASSERT_TRUE(status.ok()) << status.status().ToString();
      if (status->GetInt("appliedSeq", 0) >= seq) break;
      ASSERT_LT(std::chrono::steady_clock::now(), deadline)
          << status->ToJson();
      std::this_thread::sleep_for(std::chrono::milliseconds(10));
    }
    ExpectOldRowsServed(follower, *client.client);
  }

  static int64_t SnapshotSeq(const std::string& snapshot) {
    return json::Parse(snapshot)->GetInt("__wal_seq", -1);
  }

  ScratchDir dir_;
  const std::string recovery_snapshot_ = dir_.File("snap.json");
  const std::string recovery_wal_ = dir_.File("wal.jsonl");
  const std::string full_snapshot_path_ = dir_.File("full.json");
  dataset::CodeSearchNetPeDataset ds_;
  Rankings fresh_rankings_;
  std::string user_snapshot_;
  std::string full_snapshot_;
  std::vector<std::string> fetch_lines_;
  RowTexts old_rows_;
};

TEST_F(RowFormats, OldRowsRecoverFromSnapshotAndWal) {
  WriteOldFormat();
  ASSERT_FALSE(HasFatalFailure());
  server::ServerConfig config;
  config.snapshot_path = recovery_snapshot_;
  config.wal_path = recovery_wal_;
  InProcessLaminar recovered = ConnectInProcess(std::move(config));
  ExpectOldRowsServed(*recovered.server, *recovered.client);
}

TEST_F(RowFormats, OldRowsLoadThroughRegistryLoad) {
  WriteOldFormat();
  ASSERT_FALSE(HasFatalFailure());
  InProcessLaminar loaded = ConnectInProcess();
  ASSERT_TRUE(loaded.client->LoadRegistry(full_snapshot_path_).ok());
  ExpectOldRowsServed(*loaded.server, *loaded.client);
}

TEST_F(RowFormats, OldRowsBootstrapAFollower) {
  WriteOldFormat();
  ASSERT_FALSE(HasFatalFailure());
  OldLeader leader(full_snapshot_, {});
  ExpectFollowerServes(leader, SnapshotSeq(full_snapshot_));
}

TEST_F(RowFormats, OldRowsApplyFromReplicationFetch) {
  WriteOldFormat();
  ASSERT_FALSE(HasFatalFailure());
  ASSERT_EQ(SnapshotSeq(user_snapshot_), 1);
  ASSERT_FALSE(fetch_lines_.empty());
  const int64_t last = json::Parse(fetch_lines_.back())->GetInt("seq", 0);
  OldLeader leader(user_snapshot_, fetch_lines_);
  ExpectFollowerServes(leader, last);
}

TEST_F(RowFormats, NewRowsCarryNoSptColumnAnywhere) {
  server::ServerConfig config;
  config.snapshot_path = dir_.File("snap.json");
  config.wal_path = dir_.File("wal.jsonl");
  InProcessLaminar leader = ConnectInProcess(config);
  RegisterCorpus(*leader.client);
  ASSERT_FALSE(HasFatalFailure());
  const registry::Database& db = leader.server->repository().db();
  const size_t pes = db.GetTable(registry::kPeTable)->size();
  const size_t wfs = db.GetTable(registry::kWorkflowTable)->size();
  ASSERT_EQ(pes, ds_.size() + 1 + FindDemoWorkflow("isprime_wf")->pes.size() +
                     FindDemoWorkflow("anomaly_wf")->pes.size());
  ASSERT_EQ(wfs, 2u);
  for (const char* table : {registry::kPeTable, registry::kWorkflowTable}) {
    for (const registry::Row& row : db.GetTable(table)->All()) {
      EXPECT_FALSE(row.contains(kSptColumn)) << row.ToJson();
    }
  }
  // Every registration's WAL line, and the same records fetched.
  const std::string wal = ReadFile(config.wal_path);
  EXPECT_EQ(wal.find(kSptColumn), std::string::npos);
  Value fetch = Value::MakeObject();
  fetch["fromSeq"] = 0;
  fetch["maxRecords"] = 4096;
  Result<Value> fetched =
      leader.client->CallEndpoint("/replication/fetch", fetch);
  ASSERT_TRUE(fetched.ok()) << fetched.status().ToString();
  size_t inserts = 0;
  for (const Value& line : fetched->at("lines").as_array()) {
    EXPECT_EQ(line.as_string().find(kSptColumn), std::string::npos);
    Result<Value> record = json::Parse(line.as_string());
    ASSERT_TRUE(record.ok());
    const std::string table = record->GetString("table");
    if (record->GetString("op") == "insert" &&
        (table == registry::kPeTable || table == registry::kWorkflowTable)) {
      ++inserts;
    }
  }
  EXPECT_EQ(inserts, pes + wfs);
  // A snapshot, on disk and as a follower receives it.
  ASSERT_TRUE(leader.client->SaveRegistry(config.snapshot_path).ok());
  EXPECT_EQ(ReadFile(config.snapshot_path).find(kSptColumn),
            std::string::npos);
  int status = 0;
  Result<Value> snapshot = leader.client->CallEndpoint(
      "/replication/snapshot", Value::MakeObject(), &status);
  EXPECT_EQ(status, 200);
  ASSERT_TRUE(snapshot.ok()) << snapshot.status().ToString();
  EXPECT_EQ(snapshot->ToJson().find(kSptColumn), std::string::npos);
  EXPECT_EQ(snapshot->at(registry::kPeTable).at("rows").size(), pes);
}

TEST_F(RowFormats, WorkflowWhoseCodeDoesNotParseRegisters) {
  InProcessLaminar laminar = ConnectInProcess();
  const DemoWorkflow* demo = FindDemoWorkflow("isprime_wf");
  ASSERT_NE(demo, nullptr);
  for (const std::string code : {"def broken($):\n", ""}) {
    ASSERT_FALSE(spt::AromaEngine().FeaturizeFlat(code).ok()) << code;
    const std::string name = "unparsed_" + std::to_string(code.size());
    Result<WorkflowInfo> wf =
        laminar.client->RegisterWorkflow(name, demo->spec, demo->pes, code);
    ASSERT_TRUE(wf.ok()) << wf.status().ToString();
    Result<WorkflowInfo> got = laminar.client->GetWorkflow(wf->id);
    ASSERT_TRUE(got.ok()) << got.status().ToString();
    EXPECT_EQ(got->code, code);
    Result<std::vector<SearchHit>> hits =
        laminar.client->SearchRegistryLiteral(name, "workflow");
    ASSERT_TRUE(hits.ok()) << hits.status().ToString();
    ASSERT_EQ(hits->size(), 1u);
    EXPECT_EQ(hits->front().id, wf->id);
  }
}

}  // namespace
}  // namespace laminar::client
