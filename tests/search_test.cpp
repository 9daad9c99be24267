#include <gtest/gtest.h>

#include "common/thread_pool.hpp"
#include "dataset/generator.hpp"
#include "search/metrics.hpp"
#include "search/search_service.hpp"
#include "telemetry/telemetry.hpp"

namespace laminar::search {
namespace {

uint64_t CounterValue(const char* name, const char* labels = "") {
  const telemetry::Counter* c =
      telemetry::MetricsRegistry::Global().FindCounter(name, labels);
  return c == nullptr ? 0 : c->Value();
}

// ---- metrics ----

TEST(Metrics, PerfectRankingIsPerfect) {
  std::vector<std::vector<int64_t>> ranked = {{1, 2, 9, 8}};
  std::vector<std::unordered_set<int64_t>> relevant = {{1, 2}};
  auto curve = PrecisionRecallCurve(ranked, relevant, 2);
  ASSERT_EQ(curve.size(), 2u);
  EXPECT_DOUBLE_EQ(curve[0].precision, 1.0);
  EXPECT_DOUBLE_EQ(curve[0].recall, 0.5);
  EXPECT_DOUBLE_EQ(curve[1].precision, 1.0);
  EXPECT_DOUBLE_EQ(curve[1].recall, 1.0);
  EXPECT_DOUBLE_EQ(curve[1].f1, 1.0);
}

TEST(Metrics, PrecisionPenalizesDeepK) {
  std::vector<std::vector<int64_t>> ranked = {{1, 9, 8, 7}};
  std::vector<std::unordered_set<int64_t>> relevant = {{1}};
  auto curve = PrecisionRecallCurve(ranked, relevant, 4);
  EXPECT_DOUBLE_EQ(curve[0].precision, 1.0);
  EXPECT_DOUBLE_EQ(curve[3].precision, 0.25);
  EXPECT_DOUBLE_EQ(curve[3].recall, 1.0);
}

TEST(Metrics, MacroAveragesAcrossQueries) {
  std::vector<std::vector<int64_t>> ranked = {{1}, {9}};
  std::vector<std::unordered_set<int64_t>> relevant = {{1}, {2}};
  auto curve = PrecisionRecallCurve(ranked, relevant, 1);
  EXPECT_DOUBLE_EQ(curve[0].precision, 0.5);
  EXPECT_DOUBLE_EQ(curve[0].recall, 0.5);
}

TEST(Metrics, EmptyRelevantSetsSkipped) {
  std::vector<std::vector<int64_t>> ranked = {{1}, {2}};
  std::vector<std::unordered_set<int64_t>> relevant = {{}, {2}};
  auto curve = PrecisionRecallCurve(ranked, relevant, 1);
  EXPECT_DOUBLE_EQ(curve[0].precision, 1.0);  // only query 2 counted
}

TEST(Metrics, ShortRankedListCountsAgainstPrecision) {
  std::vector<std::vector<int64_t>> ranked = {{1}};  // only 1 result returned
  std::vector<std::unordered_set<int64_t>> relevant = {{1, 2}};
  auto curve = PrecisionRecallCurve(ranked, relevant, 3);
  EXPECT_DOUBLE_EQ(curve[2].precision, 1.0 / 3.0);
}

TEST(Metrics, BestF1PicksMaximum) {
  std::vector<PrPoint> curve(3);
  curve[0].f1 = 0.2;
  curve[1].f1 = 0.9;
  curve[1].k = 2;
  curve[2].f1 = 0.5;
  PrPoint best = BestF1(curve);
  EXPECT_DOUBLE_EQ(best.f1, 0.9);
  EXPECT_EQ(best.k, 2u);
}

TEST(Metrics, MeanReciprocalRank) {
  std::vector<std::vector<int64_t>> ranked = {{9, 1}, {2}};
  std::vector<std::unordered_set<int64_t>> relevant = {{1}, {2}};
  EXPECT_DOUBLE_EQ(MeanReciprocalRank(ranked, relevant), (0.5 + 1.0) / 2.0);
}

// ---- SearchService over a populated registry ----

class SearchServiceTest : public ::testing::Test {
 protected:
  SearchServiceTest() : repo_(db_), service_(repo_) {
    EXPECT_TRUE(registry::CreateLaminarSchema(db_).ok());
    user_id_ = repo_.CreateUser("u", "p").value();
    dataset::DatasetConfig config;
    config.families = 10;
    config.variants_per_family = 3;
    ds_ = dataset::CodeSearchNetPeDataset::Generate(config);
    for (const auto& ex : ds_.examples()) {
      registry::PeRecord pe;
      pe.name = ex.name;
      pe.code = ex.pe_code;
      pe.description = ex.description;
      pe.type = "IterativePE";
      int64_t id = repo_.CreatePe(pe).value();
      pe_ids_[ex.id] = id;
      EXPECT_TRUE(service_.AddPe(id).ok());
    }
  }

  int64_t RegistryId(int64_t dataset_id) const {
    return pe_ids_.at(dataset_id);
  }

  registry::Database db_;
  registry::Repository repo_;
  SearchService service_;
  dataset::CodeSearchNetPeDataset ds_;
  std::unordered_map<int64_t, int64_t> pe_ids_;
  int64_t user_id_ = 0;
};

TEST_F(SearchServiceTest, LiteralSearchMatchesNameAndDescription) {
  auto hits = service_.LiteralSearch("prime", SearchTarget::kPe, 10);
  ASSERT_FALSE(hits.empty());
  for (const auto& hit : hits) {
    bool in_name = hit.name.find("Prime") != std::string::npos ||
                   hit.name.find("prime") != std::string::npos;
    bool in_desc = hit.description.find("prime") != std::string::npos;
    EXPECT_TRUE(in_name || in_desc) << hit.name;
  }
}

TEST_F(SearchServiceTest, LiteralSearchNameMatchesRankFirst) {
  auto hits = service_.LiteralSearch("fibonacci", SearchTarget::kPe, 10);
  ASSERT_FALSE(hits.empty());
  EXPECT_NE(hits[0].name.find("Fibonacci"), std::string::npos);
}

TEST_F(SearchServiceTest, LiteralSearchEmptyForNoMatch) {
  EXPECT_TRUE(service_.LiteralSearch("zzzqqq", SearchTarget::kPe).empty());
}

TEST_F(SearchServiceTest, SemanticSearchFindsFamilyFromParaphrase) {
  // Query with the paraphrase, expect the right family in the top results.
  const auto& ex = ds_.example(0);  // is_prime family
  auto hits = service_.SemanticSearch(ex.query, SearchTarget::kPe, 5);
  ASSERT_FALSE(hits.empty());
  const auto& members = ds_.GroupMembers(ex.group);
  bool found = false;
  for (const auto& hit : hits) {
    for (int64_t m : members) {
      if (hit.id == RegistryId(m)) found = true;
    }
  }
  EXPECT_TRUE(found) << "query: " << ex.query;
}

TEST_F(SearchServiceTest, SemanticScoresSortedDescending) {
  auto hits = service_.SemanticSearch("sort numbers ascending",
                                      SearchTarget::kPe, 10);
  for (size_t i = 1; i < hits.size(); ++i) {
    EXPECT_GE(hits[i - 1].score, hits[i].score);
  }
}

TEST_F(SearchServiceTest, DefaultLimitIsFive) {
  auto hits = service_.SemanticSearch("numbers", SearchTarget::kPe);
  EXPECT_LE(hits.size(), 5u);
}

TEST_F(SearchServiceTest, CodeSearchLlmFindsExactClone) {
  const auto& ex = ds_.example(3);
  auto hits = service_.CodeSearchLlm(ex.pe_code, SearchTarget::kPe, 3);
  ASSERT_FALSE(hits.empty());
  EXPECT_EQ(hits[0].id, RegistryId(ex.id));
  EXPECT_GT(hits[0].score, 0.99);
}

TEST_F(SearchServiceTest, SptRecommendationBeatsLlmOnRenamedPartialCode) {
  // The paper's central claim, as a unit check: for a 50%-dropped snippet,
  // structural search should place family members higher than the
  // token-sequence baseline does.
  const auto& ex = ds_.example(7);
  std::string partial = dataset::DropCode(ex.pe_code, 0.5);
  const auto& members = ds_.GroupMembers(ex.group);
  auto in_family = [&](int64_t registry_id) {
    for (int64_t m : members) {
      if (registry_id == RegistryId(m)) return true;
    }
    return false;
  };
  // Raw structural retrieval (what Figs. 12/13 measure — no clustering).
  Result<std::vector<spt::SptIndex::Hit>> spt =
      service_.aroma().Search(partial, 3, spt::Metric::kOverlap);
  ASSERT_TRUE(spt.ok());
  int spt_family = 0;
  for (const auto& hit : spt.value()) spt_family += in_family(hit.doc_id);
  auto llm = service_.CodeSearchLlm(partial, SearchTarget::kPe, 3);
  int llm_family = 0;
  for (const auto& hit : llm) llm_family += in_family(hit.id);
  EXPECT_GE(spt_family, llm_family);
  EXPECT_GE(spt_family, 1);
  // The clustered recommendation still surfaces the family first, as one
  // deduplicated entry.
  Result<std::vector<RecommendationHit>> recs =
      service_.CodeRecommendation(partial, SearchTarget::kPe, 3);
  ASSERT_TRUE(recs.ok());
  ASSERT_FALSE(recs->empty());
  EXPECT_TRUE(in_family(recs->front().id));
}

TEST_F(SearchServiceTest, WorkflowRecommendationRanksByOccurrence) {
  // Build two workflows: one containing two prime-family PEs, one with one.
  registry::WorkflowRecord wf;
  wf.user_id = user_id_;
  wf.name = "prime_wf";
  wf.code = "graph = WorkflowGraph()";
  int64_t heavy = repo_.CreateWorkflow(wf).value();
  wf.name = "other_wf";
  int64_t light = repo_.CreateWorkflow(wf).value();
  ASSERT_TRUE(service_.AddWorkflow(heavy).ok());
  ASSERT_TRUE(service_.AddWorkflow(light).ok());
  const auto& members = ds_.GroupMembers(0);  // is_prime family
  ASSERT_GE(members.size(), 2u);
  ASSERT_TRUE(repo_.LinkPe(heavy, RegistryId(members[0])).ok());
  ASSERT_TRUE(repo_.LinkPe(heavy, RegistryId(members[1])).ok());
  ASSERT_TRUE(repo_.LinkPe(light, RegistryId(members[0])).ok());

  Result<std::vector<RecommendationHit>> recs = service_.CodeRecommendation(
      ds_.example(0).pe_code, SearchTarget::kWorkflow, 5);
  ASSERT_TRUE(recs.ok());
  ASSERT_GE(recs->size(), 2u);
  EXPECT_EQ(recs->front().id, heavy);
  EXPECT_GT(recs->front().occurrences, (*recs)[1].occurrences);
}

TEST_F(SearchServiceTest, RemovePeDropsFromAllIndexes) {
  const auto& ex = ds_.example(0);
  int64_t id = RegistryId(ex.id);
  service_.RemovePe(id);
  auto hits = service_.CodeSearchLlm(ex.pe_code, SearchTarget::kPe, 20);
  for (const auto& hit : hits) EXPECT_NE(hit.id, id);
  Result<std::vector<RecommendationHit>> recs =
      service_.CodeRecommendation(ex.pe_code, SearchTarget::kPe, 20);
  ASSERT_TRUE(recs.ok());
  for (const auto& hit : recs.value()) EXPECT_NE(hit.id, id);
}

TEST_F(SearchServiceTest, ReindexAllRebuilds) {
  service_.Clear();
  EXPECT_TRUE(service_.SemanticSearch("prime", SearchTarget::kPe).empty());
  ASSERT_TRUE(service_.ReindexAll().ok());
  EXPECT_FALSE(service_.SemanticSearch("prime", SearchTarget::kPe).empty());
}

TEST_F(SearchServiceTest, RebuildsEqualTheIncrementalIndex) {
  // ReindexAll, serial and on a pool, must rebuild exactly the index that
  // AddPe built one PE at a time: each query kind, asked for every PE,
  // returns the same ids with the same scores.
  using Ranking = std::vector<std::pair<int64_t, double>>;
  const char* const kKinds[] = {"semantic", "llm", "literal", "spt"};
  auto rankings = [&] {
    std::vector<Ranking> out;
    auto add = [&out](const auto& hits) {
      Ranking& ranking = out.emplace_back();
      for (const auto& hit : hits) ranking.emplace_back(hit.id, hit.score);
    };
    for (const auto& ex : ds_.examples()) {
      add(service_.SemanticSearch(ex.query, SearchTarget::kPe, 10));
      add(service_.CodeSearchLlm(ex.pe_code, SearchTarget::kPe, 10));
      add(service_.LiteralSearch(ex.name, SearchTarget::kPe, 10));
      Result<std::vector<RecommendationHit>> spt =
          service_.CodeRecommendation(ex.pe_code, SearchTarget::kPe, 10);
      EXPECT_TRUE(spt.ok()) << spt.status().ToString();
      add(spt.value_or({}));
    }
    return out;
  };
  const std::vector<Ranking> incremental = rankings();
  for (size_t i = 0; i < incremental.size(); ++i) {
    ASSERT_FALSE(incremental[i].empty())
        << kKinds[i % 4] << " query of " << ds_.examples()[i / 4].name;
  }
  auto expect_incremental = [&](const char* rebuild) {
    const std::vector<Ranking> rebuilt = rankings();
    ASSERT_EQ(rebuilt.size(), incremental.size());
    for (size_t i = 0; i < rebuilt.size(); ++i) {
      EXPECT_EQ(rebuilt[i], incremental[i])
          << rebuild << ", " << kKinds[i % 4] << " query of "
          << ds_.examples()[i / 4].name;
    }
  };
  ASSERT_TRUE(service_.ReindexAll(nullptr).ok());
  expect_incremental("serial rebuild");
  ThreadPool pool(3);
  ASSERT_TRUE(service_.ReindexAll(&pool).ok());
  expect_incremental("rebuild on a 3-thread pool");
}

TEST_F(SearchServiceTest, StoredEmbeddingsPreferred) {
  // A PE registered with a precomputed embedding must use it verbatim.
  embed::UnixcoderSim encoder;
  embed::SparseVector custom = encoder.Encode("custom semantics entirely");
  registry::PeRecord pe;
  pe.name = "WithStoredEmbedding";
  pe.code = "class X: pass";
  pe.description = "unrelated text";
  pe.description_embedding = embed::ToJson(custom);
  int64_t id = repo_.CreatePe(pe).value();
  ASSERT_TRUE(service_.AddPe(id).ok());
  auto hits = service_.SemanticSearch("custom semantics entirely",
                                      SearchTarget::kPe, 1);
  ASSERT_FALSE(hits.empty());
  EXPECT_EQ(hits[0].id, id);
  EXPECT_GT(hits[0].score, 0.99);
}

TEST_F(SearchServiceTest, RepeatedSemanticQueryHitsEmbeddingCache) {
  const char* hits_name = "laminar_search_query_cache_hits_total";
  const char* miss_name = "laminar_search_query_cache_misses_total";
  const char* enc_name = "laminar_embed_encodes_total";
  const char* enc_label = "model=\"unixcoder\"";
  uint64_t hits0 = CounterValue(hits_name);
  uint64_t misses0 = CounterValue(miss_name);

  auto first = service_.SemanticSearch("an entirely novel cache probe query",
                                       SearchTarget::kPe, 3);
  uint64_t encodes_after_first = CounterValue(enc_name, enc_label);
  EXPECT_EQ(CounterValue(miss_name), misses0 + 1);

  auto second = service_.SemanticSearch("an entirely novel cache probe query",
                                        SearchTarget::kPe, 3);
  EXPECT_EQ(CounterValue(hits_name), hits0 + 1);
  // The cached hit skipped the encoder entirely.
  EXPECT_EQ(CounterValue(enc_name, enc_label), encodes_after_first);
  // And returns identical results.
  ASSERT_EQ(first.size(), second.size());
  for (size_t i = 0; i < first.size(); ++i) {
    EXPECT_EQ(first[i].id, second[i].id);
    EXPECT_DOUBLE_EQ(first[i].score, second[i].score);
  }
}

TEST_F(SearchServiceTest, AddPeEncodesDescriptionAtMostOnce) {
  const char* enc_name = "laminar_embed_encodes_total";
  const char* enc_label = "model=\"unixcoder\"";
  // No stored embedding -> exactly one unixcoder encode.
  registry::PeRecord pe;
  pe.name = "EncodeOnce";
  pe.code = "class EncodeOnce: pass";
  pe.description = "counts unixcoder encodes at index time";
  int64_t id = repo_.CreatePe(pe).value();
  uint64_t before = CounterValue(enc_name, enc_label);
  ASSERT_TRUE(service_.AddPe(id).ok());
  EXPECT_EQ(CounterValue(enc_name, enc_label), before + 1);

  // Stored embedding -> zero encodes.
  embed::UnixcoderSim encoder;
  registry::PeRecord stored;
  stored.name = "EncodeNever";
  stored.code = "class EncodeNever: pass";
  stored.description = "precomputed";
  stored.description_embedding = embed::ToJson(encoder.Encode("precomputed"));
  int64_t stored_id = repo_.CreatePe(stored).value();
  before = CounterValue(enc_name, enc_label);
  ASSERT_TRUE(service_.AddPe(stored_id).ok());
  EXPECT_EQ(CounterValue(enc_name, enc_label), before);
}

}  // namespace
}  // namespace laminar::search
