// Registration through the server against separate front-end calls. The
// server lexes and parses each PE's code once and hands the tokens and the
// tree to every step; this suite requires the result to equal what
// separate CodeT5Sim::Summarize(code), ReaccSim::Encode(code) and
// AromaEngine::Featurize(code) calls give, byte for byte:
//   * the stored description, descriptionEmbedding and sptEmbedding columns
//     of PEs registered through /pes/register (with and without name and
//     description; a PE sent without a name takes its class name),
//     /registry/bulk_register and /workflows/register (member PEs, and the
//     workflow's own columns);
//   * the semantic, llm and spt search results, compared with a search
//     service indexed by the separate calls — before and after a restart,
//     whose recovery rebuilds the indexes through ReindexAll.
#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "client/connect.hpp"
#include "client/demo_workflows.hpp"
#include "dataset/generator.hpp"
#include "embed/codet5_sim.hpp"
#include "embed/embedding.hpp"
#include "registry/database.hpp"
#include "registry/repository.hpp"
#include "registry/schema.hpp"
#include "scratch_dir.hpp"
#include "search/search_service.hpp"
#include "spt/recommend.hpp"

namespace laminar::client {
namespace {

/// The columns a registration stores.
struct Columns {
  std::string description;
  std::string description_embedding;
  std::string spt_embedding;
};

/// A search service indexed by separate calls per PE and workflow, and the
/// columns those calls give.
class SeparateCalls {
 public:
  SeparateCalls() : repo_(db_), service_(repo_) {
    EXPECT_TRUE(registry::CreateLaminarSchema(db_).ok());
  }

  /// `description` empty means the server summarizes the code.
  Columns AddPe(int64_t id, const std::string& name,
                const std::string& description, const std::string& code) {
    Columns columns;
    columns.description =
        description.empty()
            ? codet5_.Summarize(code, embed::DescriptionContext::kFullClass)
            : description;
    search::SearchService::PreparedPe prepared;
    prepared.name = name;
    prepared.description = columns.description;
    prepared.code = code;
    prepared.text_embedding =
        service_.text_encoder().Encode(columns.description);
    prepared.code_embedding = service_.code_encoder().Encode(code);
    Result<spt::FeatureBag> bag = service_.aroma().Featurize(code);
    if (bag.ok() && bag->total > 0) {
      prepared.features = spt::FlatFeatures::From(bag.value());
      prepared.has_features = true;
      columns.spt_embedding = spt::FeatureBagToJson(bag.value());
    }
    columns.description_embedding = embed::ToJson(prepared.text_embedding);
    service_.CommitPe(id, std::move(prepared));
    return columns;
  }

  Columns AddWorkflow(int64_t id, const std::string& name,
                      const std::vector<std::string>& pe_descriptions,
                      const std::string& code) {
    Columns columns;
    columns.description = codet5_.SummarizeWorkflow(name, pe_descriptions);
    search::SearchService::PreparedWorkflow prepared;
    prepared.name = name;
    prepared.description = columns.description;
    prepared.text_embedding =
        service_.text_encoder().Encode(columns.description);
    prepared.code_embedding = service_.code_encoder().Encode(code);
    columns.description_embedding = embed::ToJson(prepared.text_embedding);
    if (!code.empty()) {
      Result<spt::FeatureBag> bag = service_.aroma().Featurize(code);
      if (bag.ok()) columns.spt_embedding = spt::FeatureBagToJson(bag.value());
    }
    service_.CommitWorkflow(id, std::move(prepared));
    return columns;
  }

  const search::SearchService& service() const { return service_; }

 private:
  registry::Database db_;
  registry::Repository repo_;
  search::SearchService service_;
  embed::CodeT5Sim codet5_;
};

std::string Describe(const std::vector<search::SearchHit>& hits) {
  std::string out;
  for (const search::SearchHit& h : hits) {
    out += std::to_string(h.id) + "|" + h.name + "|" + h.description + "|" +
           std::to_string(std::bit_cast<uint64_t>(h.score)) + "\n";
  }
  return out;
}

std::string Describe(
    const Result<std::vector<search::RecommendationHit>>& hits) {
  if (!hits.ok()) return "error: " + hits.status().ToString();
  std::string out;
  for (const search::RecommendationHit& h : hits.value()) {
    out += std::to_string(h.id) + "|" + h.name + "|" + h.description + "|" +
           std::to_string(std::bit_cast<uint64_t>(h.score)) + "|" +
           h.similar_code + "\n";
  }
  return out;
}

/// Semantic, llm and spt results of `got` equal `want`'s, PE and workflow
/// targets, for each query.
void ExpectSameResults(const search::SearchService& got,
                       const search::SearchService& want,
                       const std::vector<std::string>& text_queries,
                       const std::vector<std::string>& code_queries) {
  using search::SearchTarget;
  for (const std::string& q : text_queries) {
    for (SearchTarget target : {SearchTarget::kPe, SearchTarget::kWorkflow}) {
      EXPECT_EQ(Describe(got.SemanticSearch(q, target, 8)),
                Describe(want.SemanticSearch(q, target, 8)))
          << q;
    }
  }
  for (const std::string& q : code_queries) {
    for (SearchTarget target : {SearchTarget::kPe, SearchTarget::kWorkflow}) {
      EXPECT_EQ(Describe(got.CodeSearchLlm(q, target, 8)),
                Describe(want.CodeSearchLlm(q, target, 8)))
          << q;
    }
    EXPECT_EQ(Describe(got.CodeRecommendation(q, SearchTarget::kPe, 5)),
              Describe(want.CodeRecommendation(q, SearchTarget::kPe, 5)))
        << q;
  }
}

void ExpectColumns(const registry::PeRecord& row, const Columns& want) {
  EXPECT_EQ(row.description, want.description) << row.name;
  EXPECT_EQ(row.description_embedding, want.description_embedding)
      << row.name;
  EXPECT_EQ(row.spt_embedding, want.spt_embedding) << row.name;
}

class RegistrationParity : public ::testing::Test {
 protected:
  RegistrationParity() {
    config_.snapshot_path = dir_.File("snap.json");
    config_.wal_path = dir_.File("wal.jsonl");
    dataset::DatasetConfig corpus;
    corpus.families = 10;
    corpus.variants_per_family = 2;
    corpus.seed = 0x9a217;
    ds_ = dataset::CodeSearchNetPeDataset::Generate(corpus);
  }

  /// Registers the corpus through every route, recording what the separate
  /// calls give for each registration.
  void RegisterEverything(LaminarClient& client) {
    const auto& examples = ds_.examples();
    // /pes/register: with and without name and description.
    for (size_t i = 0; i < 12; ++i) {
      const dataset::PeExample& ex = examples[i];
      const std::string name = i % 2 == 0 ? ex.name : "";
      const std::string description = i % 4 < 2 ? ex.description : "";
      Result<PeInfo> pe = client.RegisterPe(ex.pe_code, name, description);
      ASSERT_TRUE(pe.ok()) << pe.status().ToString();
      EXPECT_EQ(pe->name, ex.name);  // sent, or the class name
      expected_[pe->id] =
          reference_.AddPe(pe->id, pe->name, description, ex.pe_code);
    }
    // /registry/bulk_register.
    std::vector<PeSource> bulk;
    for (size_t i = 12; i < examples.size(); ++i) {
      const dataset::PeExample& ex = examples[i];
      bulk.push_back({ex.pe_code, i % 3 == 0 ? "" : ex.name,
                      i % 2 == 0 ? "" : ex.description});
    }
    Result<std::vector<int64_t>> ids = client.BulkRegisterPes(bulk);
    ASSERT_TRUE(ids.ok()) << ids.status().ToString();
    ASSERT_EQ(ids->size(), bulk.size());
    for (size_t i = 0; i < bulk.size(); ++i) {
      Result<PeInfo> pe = client.GetPe((*ids)[i]);
      ASSERT_TRUE(pe.ok());
      EXPECT_EQ(pe->name, examples[12 + i].name);
      expected_[pe->id] = reference_.AddPe(pe->id, pe->name,
                                           bulk[i].description, bulk[i].code);
    }
    // /workflows/register: member PEs, then the workflow's own columns.
    for (const char* demo_name : {"isprime_wf", "anomaly_wf"}) {
      const DemoWorkflow* demo = FindDemoWorkflow(demo_name);
      ASSERT_NE(demo, nullptr);
      Result<WorkflowInfo> wf =
          client.RegisterWorkflow(demo->name, demo->spec, demo->pes,
                                  demo->code);
      ASSERT_TRUE(wf.ok()) << wf.status().ToString();
      ASSERT_EQ(wf->pe_ids.size(), demo->pes.size());
      std::vector<std::string> pe_descriptions;
      for (size_t i = 0; i < demo->pes.size(); ++i) {
        Result<PeInfo> pe = client.GetPe(wf->pe_ids[i]);
        ASSERT_TRUE(pe.ok());
        expected_[pe->id] =
            reference_.AddPe(pe->id, pe->name, demo->pes[i].description,
                             demo->pes[i].code);
        pe_descriptions.push_back(expected_[pe->id].description);
      }
      expected_workflows_[wf->id] = reference_.AddWorkflow(
          wf->id, demo->name, pe_descriptions, demo->code);
    }
  }

  void ExpectStoredAndServed(server::LaminarServer& server) {
    registry::Repository& repo = server.repository();
    ASSERT_EQ(repo.PeCount(), expected_.size());
    for (const auto& [id, want] : expected_) {
      Result<registry::PeRecord> row = repo.GetPe(id);
      ASSERT_TRUE(row.ok());
      ExpectColumns(row.value(), want);
    }
    for (const auto& [id, want] : expected_workflows_) {
      Result<registry::WorkflowRecord> row = repo.GetWorkflow(id);
      ASSERT_TRUE(row.ok());
      EXPECT_EQ(row->description, want.description) << row->name;
      EXPECT_EQ(row->description_embedding, want.description_embedding)
          << row->name;
      EXPECT_EQ(row->spt_embedding, want.spt_embedding) << row->name;
      EXPECT_FALSE(row->spt_embedding.empty()) << row->name;
    }
    std::vector<std::string> text_queries;
    std::vector<std::string> code_queries;
    for (size_t i = 0; i < ds_.size(); i += 3) {
      text_queries.push_back(ds_.example(i).query);
      code_queries.push_back(ds_.example(i).pe_code);
      code_queries.push_back(dataset::DropCode(ds_.example(i).pe_code, 0.5));
    }
    text_queries.push_back("a pe that is able to detect anomalies");
    code_queries.push_back(FindDemoWorkflow("isprime_wf")->pes[0].code);
    ExpectSameResults(server.search(), reference_.service(), text_queries,
                      code_queries);
  }

  ScratchDir dir_;
  server::ServerConfig config_;
  dataset::CodeSearchNetPeDataset ds_;
  SeparateCalls reference_;
  std::map<int64_t, Columns> expected_;
  std::map<int64_t, Columns> expected_workflows_;
};

TEST_F(RegistrationParity, EveryRouteStoresAndServesWhatSeparateCallsGive) {
  InProcessLaminar laminar = ConnectInProcess(config_);
  RegisterEverything(*laminar.client);
  ASSERT_FALSE(HasFatalFailure());
  ExpectStoredAndServed(*laminar.server);
}

TEST_F(RegistrationParity, RestartReindexesToTheSameResults) {
  {
    InProcessLaminar laminar = ConnectInProcess(config_);
    RegisterEverything(*laminar.client);
    ASSERT_FALSE(HasFatalFailure());
    ASSERT_TRUE(laminar.client->SaveRegistry(config_.snapshot_path).ok());
  }
  // Recovery loads the snapshot and rebuilds every index with ReindexAll.
  InProcessLaminar revived = ConnectInProcess(config_);
  ExpectStoredAndServed(*revived.server);
}

}  // namespace
}  // namespace laminar::client
