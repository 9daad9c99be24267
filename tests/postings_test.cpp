// The embedding postings behind SearchService's semantic and code-to-code
// search: parity with a cosine brute force in double after churn that
// reuses slots, the ranking contract's edge cases, the postings-read
// counter, and concurrent readers racing a writer under the server's
// shared/exclusive locking.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <functional>
#include <map>
#include <mutex>
#include <set>
#include <shared_mutex>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "common/rng.hpp"
#include "dataset/generator.hpp"
#include "search/postings_index.hpp"
#include "search/search_service.hpp"
#include "telemetry/telemetry.hpp"
#include "dense_embedding.hpp"

namespace laminar::search {
namespace {

using Ranked = std::vector<std::pair<int64_t, double>>;
using Rows = std::map<int64_t, embed::Vector>;

constexpr double kTolerance = 1e-6;

/// Cosine of the raw vectors, accumulated in double; 0 when either side is
/// zero or the sizes differ.
double ReferenceCosine(const embed::Vector& a, const embed::Vector& b) {
  if (a.size() != b.size()) return 0.0;
  double dot = 0.0, na = 0.0, nb = 0.0;
  for (size_t i = 0; i < a.size(); ++i) {
    dot += static_cast<double>(a[i]) * b[i];
    na += static_cast<double>(a[i]) * a[i];
    nb += static_cast<double>(b[i]) * b[i];
  }
  if (na == 0.0 || nb == 0.0) return 0.0;
  return dot / (std::sqrt(na) * std::sqrt(nb));
}

/// Every stored vector scored against `query`, sorted by (score desc,
/// id asc): the full ranking a top-k must be a prefix of.
Ranked BruteForce(const Rows& rows, const embed::Vector& query) {
  Ranked out;
  for (const auto& [id, row] : rows) {
    out.emplace_back(id, ReferenceCosine(row, query));
  }
  std::sort(out.begin(), out.end(), [](const auto& a, const auto& b) {
    if (a.second != b.second) return a.second > b.second;
    return a.first < b.first;
  });
  return out;
}

Ranked Pairs(const std::vector<PostingsIndex::Hit>& hits) {
  Ranked out;
  for (const auto& hit : hits) out.emplace_back(hit.id, hit.score);
  return out;
}

Ranked Pairs(const std::vector<SearchHit>& hits) {
  Ranked out;
  for (const auto& hit : hits) out.emplace_back(hit.id, hit.score);
  return out;
}

/// `got` (a top-k) must rank like the full reference ranking `want`: it
/// holds min(k, rows) distinct stored ids in its own (score desc, id asc)
/// order, each score within 1e-6 of that id's reference score, and at
/// every rank the reference score of the returned id is within 1e-6 of the
/// reference's score at that rank — so ids may swap only among near-ties.
void ExpectRanksLike(const Ranked& got, const Ranked& want, size_t k,
                     const std::string& what) {
  SCOPED_TRACE(what + " k=" + std::to_string(k));
  ASSERT_EQ(got.size(), std::min(k, want.size()));
  std::map<int64_t, double> truth(want.begin(), want.end());
  std::set<int64_t> seen;
  for (size_t i = 0; i < got.size(); ++i) {
    auto it = truth.find(got[i].first);
    ASSERT_NE(it, truth.end()) << "unknown id " << got[i].first;
    EXPECT_TRUE(seen.insert(got[i].first).second) << "duplicate id";
    EXPECT_NEAR(got[i].second, it->second, kTolerance) << "rank " << i;
    EXPECT_NEAR(it->second, want[i].second, kTolerance) << "rank " << i;
    if (i > 0) {
      const auto& prev = got[i - 1];
      EXPECT_TRUE(prev.second > got[i].second ||
                  (prev.second == got[i].second && prev.first < got[i].first))
          << "rank " << i << " out of (score desc, id asc) order";
    }
  }
}

uint64_t PostingsRead(const std::string& index) {
  const telemetry::Counter* c =
      telemetry::MetricsRegistry::Global().FindCounter(
          "laminar_search_postings_read_total", "index=\"" + index + "\"");
  return c == nullptr ? 0 : c->Value();
}

/// Σ over the query's non-zero dimensions of the rows non-zero there: the
/// posting-list lengths one query reads (all values here are normal floats,
/// so normalizing keeps every non-zero entry non-zero).
uint64_t ExpectedPostingsRead(const Rows& rows, const embed::Vector& query) {
  uint64_t total = 0;
  for (size_t d = 0; d < query.size(); ++d) {
    if (query[d] == 0.0f) continue;
    for (const auto& [id, row] : rows) {
      total += row.size() == query.size() && row[d] != 0.0f;
    }
  }
  return total;
}

/// A sparse vector with `nnz` signed non-zeros in `dims` dimensions.
embed::Vector RandomSparse(Rng& rng, size_t dims, size_t nnz) {
  embed::Vector v(dims, 0.0f);
  for (size_t i = 0; i < nnz; ++i) {
    const float w = static_cast<float>(rng.NextDouble() * 2.0 - 1.0);
    v[rng.NextBelow(dims)] = w == 0.0f ? 0.5f : w;
  }
  return v;
}

// ---- PostingsIndex: the ranking contract --------------------------------

TEST(PostingsIndex, EmptyIndexReturnsNothing) {
  PostingsIndex index(4);
  const embed::Vector q = {1, 0, 0, 0};
  EXPECT_TRUE(index.TopK(Sparse(q), 5).empty());
  index.Upsert(7, Sparse(q));
  EXPECT_TRUE(index.TopK(Sparse(q), 0).empty());
  ASSERT_TRUE(index.Remove(7));
  EXPECT_FALSE(index.Remove(7));
  EXPECT_TRUE(index.TopK(Sparse(q), 5).empty());
  EXPECT_EQ(index.stats().rows, 0u);
  EXPECT_EQ(index.stats().postings, 0u);
}

TEST(PostingsIndex, RowsSharingNoDimensionScoreZeroByAscendingId) {
  PostingsIndex index(8);
  index.Upsert(5, Sparse(embed::Vector{1, 0, 0, 0, 0, 0, 0, 0}));
  index.Upsert(3, Sparse(embed::Vector{0, 2, 0, 0, 0, 0, 0, 0}));
  index.Upsert(9, Sparse(embed::Vector{0, 0, 3, 0, 0, 0, 0, 0}));
  const embed::Vector q = {0, 0, 0, 0, 1, 0, 0, 0};
  const Ranked got = Pairs(index.TopK(Sparse(q), 3));
  EXPECT_EQ(got, (Ranked{{3, 0.0}, {5, 0.0}, {9, 0.0}}));
}

TEST(PostingsIndex, NegativeScoresRankBelowZeroRowsAndCancellationsTie) {
  const float a = 1.0f / std::sqrt(2.0f);
  PostingsIndex index(3);
  index.Upsert(10, Sparse(embed::Vector{1, 1, 0}));   // cosine 1
  index.Upsert(4, Sparse(embed::Vector{1, 0, 0}));    // cosine a
  index.Upsert(2, Sparse(embed::Vector{1, -1, 0}));   // touched, cancels to 0
  index.Upsert(6, Sparse(embed::Vector{0, 0, 1}));    // untouched: 0
  index.Upsert(1, Sparse(embed::Vector{0, 0, 5}));    // untouched, lowest id
  index.Upsert(8, Sparse(embed::Vector{-1, 0, 0}));   // -a
  index.Upsert(7, Sparse(embed::Vector{-1, -1, 0}));  // -1
  const embed::Vector q = {a, a, 0};
  const Ranked got = Pairs(index.TopK(Sparse(q), 100));
  ASSERT_EQ(got.size(), 7u);
  const std::vector<int64_t> order = {10, 4, 1, 2, 6, 8, 7};
  for (size_t i = 0; i < order.size(); ++i) EXPECT_EQ(got[i].first, order[i]);
  EXPECT_EQ(got[2].second, 0.0);
  EXPECT_EQ(got[3].second, 0.0);  // the cancellation is exactly 0
  EXPECT_EQ(got[4].second, 0.0);
  EXPECT_LT(got[5].second, 0.0);
  EXPECT_NEAR(got[6].second, -1.0, kTolerance);
  // A k that stops inside the zero rows keeps the ascending-id prefix.
  const Ranked four = Pairs(index.TopK(Sparse(q), 4));
  EXPECT_EQ(four, Ranked(got.begin(), got.begin() + 4));
}

TEST(PostingsIndex, ZeroAndWrongSizeQueriesReturnLowestIdsAtZero) {
  PostingsIndex index(4);
  for (int64_t id : {40, 10, 30, 20}) {
    index.Upsert(id, Sparse(embed::Vector{1, static_cast<float>(id), 0, 0}));
  }
  const Ranked want = {{10, 0.0}, {20, 0.0}, {30, 0.0}};
  EXPECT_EQ(Pairs(index.TopK(Sparse(embed::Vector(4, 0.0f)), 3)), want);
  EXPECT_EQ(Pairs(index.TopK(Sparse(embed::Vector{1, 1, 1}), 3)), want);
  EXPECT_EQ(Pairs(index.TopK(Sparse(embed::Vector{}), 3)), want);
  const float nan = std::nanf("");
  EXPECT_EQ(Pairs(index.TopK(Sparse(embed::Vector{nan, 1, 0, 0}), 3)), want);
}

TEST(PostingsIndex, ZeroAndWrongSizeStoredVectorsScoreZero) {
  PostingsIndex index(4);
  index.Upsert(1, Sparse(embed::Vector(4, 0.0f)));
  index.Upsert(2, Sparse(embed::Vector{1, 2}));
  index.Upsert(3, Sparse(embed::Vector{-1, 0, 0, 0}));
  index.Upsert(4, Sparse(embed::Vector{1, 0, 0, 0}));
  EXPECT_EQ(index.stats().postings, 2u);
  const Ranked got = Pairs(index.TopK(Sparse(embed::Vector{1, 0, 0, 0}), 10));
  EXPECT_EQ(got, (Ranked{{4, 1.0}, {1, 0.0}, {2, 0.0}, {3, -1.0}}));
}

TEST(PostingsIndex, ReplaceAndStatsTrackLivePostings) {
  PostingsIndex index(6);
  index.Upsert(1, Sparse(embed::Vector{1, 1, 1, 0, 0, 0}));
  index.Upsert(2, Sparse(embed::Vector{0, 0, 1, 1, 0, 0}));
  EXPECT_EQ(index.stats().postings, 5u);
  index.Upsert(1, Sparse(embed::Vector{0, 0, 0, 0, 0, 3}));  // replace
  PostingsIndexStats stats = index.stats();
  EXPECT_EQ(stats.rows, 2u);
  EXPECT_EQ(stats.dims, 6u);
  EXPECT_EQ(stats.postings, 3u);
  EXPECT_GT(stats.bytes, 0u);
  EXPECT_EQ(Pairs(index.TopK(Sparse(embed::Vector{0, 0, 0, 0, 0, 1}), 1)),
            (Ranked{{1, 1.0}}));
  index.Clear();
  stats = index.stats();
  EXPECT_EQ(stats.rows, 0u);
  EXPECT_EQ(stats.postings, 0u);
  EXPECT_TRUE(index.TopK(Sparse(embed::Vector{0, 0, 0, 0, 0, 1}), 1).empty());
}

TEST(PostingsIndex, RandomizedChurnMatchesDoubleBruteForce) {
  constexpr size_t kDims = 64;
  Rng rng(0x9057);
  PostingsIndex index(kDims);
  Rows rows;
  int64_t next_id = 1;
  for (int step = 0; step < 1500; ++step) {
    const uint64_t op = rng.NextBelow(10);
    if (op < 6 || rows.empty()) {
      const int64_t id = next_id++;
      rows[id] = RandomSparse(rng, kDims, 1 + rng.NextBelow(6));
      index.Upsert(id, Sparse(rows[id]));
    } else if (op < 8) {
      auto it = std::next(rows.begin(), rng.NextBelow(rows.size()));
      EXPECT_TRUE(index.Remove(it->first));
      rows.erase(it);
    } else {
      auto it = std::next(rows.begin(), rng.NextBelow(rows.size()));
      it->second = RandomSparse(rng, kDims, 1 + rng.NextBelow(6));
      index.Upsert(it->first, Sparse(it->second));
    }
    if (step % 150 != 149) continue;
    ASSERT_EQ(index.size(), rows.size());
    for (int qi = 0; qi < 8; ++qi) {
      const embed::Vector q = RandomSparse(rng, kDims, 1 + rng.NextBelow(8));
      const Ranked want = BruteForce(rows, q);
      for (size_t k : {size_t{1}, size_t{5}, size_t{50}, rows.size() + 1}) {
        ExpectRanksLike(Pairs(index.TopK(Sparse(q), k)), want, k,
                        "step " + std::to_string(step));
      }
    }
  }
}

TEST(PostingsIndex, ScoresDoNotDependOnSlotsOrPostingOrder) {
  // The same final rows, reached by different insert orders and churn
  // histories, sit in different slots and posting positions; every
  // (id, score) list must still be identical, not merely close.
  constexpr size_t kDims = 32;
  Rng rng(0x51075);
  Rows rows;
  for (int64_t id = 1; id <= 200; ++id) {
    rows[id] = RandomSparse(rng, kDims, 3 + rng.NextBelow(10));
  }
  PostingsIndex forward(kDims);
  for (const auto& [id, row] : rows) forward.Upsert(id, Sparse(row));
  PostingsIndex churned(kDims);
  for (auto it = rows.rbegin(); it != rows.rend(); ++it) {
    churned.Upsert(it->first + 1000, Sparse(RandomSparse(rng, kDims, 5)));
    churned.Upsert(it->first, Sparse(it->second));
  }
  for (const auto& [id, row] : rows) ASSERT_TRUE(churned.Remove(id + 1000));
  for (int qi = 0; qi < 40; ++qi) {
    const embed::Vector q = RandomSparse(rng, kDims, 2 + rng.NextBelow(20));
    const auto a = forward.TopK(Sparse(q), rows.size());
    const auto b = churned.TopK(Sparse(q), rows.size());
    ASSERT_EQ(a.size(), b.size());
    for (size_t i = 0; i < a.size(); ++i) {
      EXPECT_EQ(a[i].id, b[i].id) << "query " << qi << " rank " << i;
      EXPECT_EQ(a[i].score, b[i].score) << "query " << qi << " rank " << i;
    }
  }
}

// ---- SearchService over a generated registry -----------------------------

class PostingsParityTest : public ::testing::Test {
 protected:
  PostingsParityTest() : repo_(db_), service_(repo_) {
    EXPECT_TRUE(registry::CreateLaminarSchema(db_).ok());
    user_id_ = repo_.CreateUser("u", "p").value();
    dataset::DatasetConfig config;
    config.variants_per_family = 36;  // 30 families -> 1,080 PEs
    ds_ = dataset::CodeSearchNetPeDataset::Generate(config);
    for (size_t i = 0; i < ds_.size(); ++i) {
      const dataset::PeExample& ex = ds_.example(i);
      AddPe(ex.name, ex.description, ex.pe_code);
    }
    for (size_t i = 0; i < 120; ++i) {
      const dataset::PeExample& ex = ds_.example((i * 37) % ds_.size());
      AddWorkflow("wf_" + std::to_string(i), ex.query,
                  ex.pe_code + "\n" + ds_.example(i).pe_code);
    }
  }

  int64_t AddPe(const std::string& name, const std::string& description,
                const std::string& code,
                const std::string& stored_embedding = "") {
    registry::PeRecord pe;
    pe.name = name;
    pe.code = code;
    pe.description = description;
    pe.description_embedding = stored_embedding;
    pe.type = "IterativePE";
    const int64_t id = repo_.CreatePe(pe).value();
    EXPECT_TRUE(service_.AddPe(id).ok());
    pe_text_[id] = stored_embedding.empty()
                       ? service_.text_encoder().EncodeText(description)
                       : embed::ToDense(embed::FromJson(stored_embedding));
    pe_code_[id] = service_.code_encoder().EncodeCode(code);
    return id;
  }

  int64_t AddWorkflow(const std::string& name, const std::string& description,
                      const std::string& code) {
    registry::WorkflowRecord wf;
    wf.user_id = user_id_;
    wf.name = name;
    wf.description = description;
    wf.code = code;
    const int64_t id = repo_.CreateWorkflow(wf).value();
    EXPECT_TRUE(service_.AddWorkflow(id).ok());
    wf_text_[id] = service_.text_encoder().EncodeText(description);
    wf_code_[id] = service_.code_encoder().EncodeCode(code);
    return id;
  }

  void RemovePe(int64_t id) {
    service_.RemovePe(id);
    pe_text_.erase(id);
    pe_code_.erase(id);
  }

  void UpdatePeDescription(int64_t id, const std::string& description) {
    embed::Vector v = service_.text_encoder().EncodeText(description);
    pe_text_[id] = v;
    service_.UpdatePeDescription(id, description, Sparse(v));
  }

  /// Removes every 7th PE and workflow, registers replacements (which take
  /// the freed slots), re-describes every 5th PE and workflow, and adds PEs
  /// with a zero and a wrong-size stored description embedding.
  void Churn() {
    std::vector<int64_t> pes;
    for (const auto& [id, v] : pe_text_) pes.push_back(id);
    for (size_t i = 0; i < pes.size(); i += 7) RemovePe(pes[i]);
    std::vector<int64_t> wfs;
    for (const auto& [id, v] : wf_text_) wfs.push_back(id);
    for (size_t i = 0; i < wfs.size(); i += 7) {
      service_.RemoveWorkflow(wfs[i]);
      wf_text_.erase(wfs[i]);
      wf_code_.erase(wfs[i]);
    }
    for (size_t i = 0; i < pes.size(); i += 14) {
      const dataset::PeExample& ex = ds_.example((i * 13) % ds_.size());
      AddPe("Again" + std::to_string(i), ex.query, ex.pe_code);
    }
    for (size_t i = 0; i < wfs.size(); i += 14) {
      const dataset::PeExample& ex = ds_.example(i);
      AddWorkflow("wf_again_" + std::to_string(i), ex.description,
                  ex.pe_code);
    }
    for (size_t i = 3; i < pes.size(); i += 5) {
      if (pe_text_.count(pes[i]) == 0) continue;
      UpdatePeDescription(pes[i], ds_.example((i * 11) % ds_.size()).query);
    }
    for (size_t i = 2; i < wfs.size(); i += 5) {
      if (wf_text_.count(wfs[i]) == 0) continue;
      const std::string text = ds_.example(i).description;
      embed::Vector v = service_.text_encoder().EncodeText(text);
      wf_text_[wfs[i]] = v;
      service_.UpdateWorkflowDescription(wfs[i], text, Sparse(v));
    }
    const dataset::PeExample& ex = ds_.example(0);
    AddPe("ZeroStored", ex.description, ex.pe_code,
          embed::ToJson(
              Sparse(embed::Vector(service_.text_encoder().dims(), 0.0f))));
    AddPe("ShortStored", ex.description, ex.pe_code,
          embed::ToJson(Sparse(embed::Vector{0.5f, -0.25f, 1.0f})));
  }

  std::vector<std::string> TextQueries() const {
    std::vector<std::string> out = {"", "zzqx vbnm"};
    for (size_t i = 0; i < ds_.size(); i += 41) {
      out.push_back(ds_.example(i).query);
    }
    return out;
  }

  std::vector<std::string> CodeQueries() const {
    std::vector<std::string> out = {""};
    for (size_t i = 5; i < ds_.size(); i += 53) {
      out.push_back(dataset::DropCode(ds_.example(i).pe_code, 0.5));
    }
    return out;
  }

  /// Every query of both kinds against both targets, at k in
  /// {1, 5, 50, size + 1}.
  void ExpectParity() {
    struct Case {
      const char* what;
      bool code;
      SearchTarget target;
      const Rows* rows;
    };
    const Case cases[] = {
        {"semantic pe", false, SearchTarget::kPe, &pe_text_},
        {"semantic workflow", false, SearchTarget::kWorkflow, &wf_text_},
        {"llm pe", true, SearchTarget::kPe, &pe_code_},
        {"llm workflow", true, SearchTarget::kWorkflow, &wf_code_},
    };
    for (const Case& c : cases) {
      for (const std::string& text : c.code ? CodeQueries() : TextQueries()) {
        const embed::Vector q =
            c.code ? service_.code_encoder().EncodeCode(text)
                   : service_.text_encoder().EncodeText(text);
        const Ranked want = BruteForce(*c.rows, q);
        const size_t all = c.rows->size() + 1;
        for (size_t k : {size_t{1}, size_t{5}, size_t{50}, all}) {
          const auto hits = c.code ? service_.CodeSearchLlm(text, c.target, k)
                                   : service_.SemanticSearch(text, c.target, k);
          ExpectRanksLike(Pairs(hits), want, k,
                          std::string(c.what) + " \"" + text.substr(0, 40) +
                              "\"");
        }
      }
    }
  }

  registry::Database db_;
  registry::Repository repo_;
  SearchService service_;
  dataset::CodeSearchNetPeDataset ds_;
  int64_t user_id_ = 0;
  // What the service stored, per index.
  Rows pe_text_, pe_code_, wf_text_, wf_code_;
};

TEST_F(PostingsParityTest, SearchesMatchDoubleBruteForceBeforeAndAfterChurn) {
  ASSERT_GE(pe_text_.size(), 1000u);
  ExpectParity();
  Churn();
  ExpectParity();
}

TEST_F(PostingsParityTest, QueryAddsItsPostingListLengthsToItsIndexCounter) {
  Churn();
  for (const std::string& text : TextQueries()) {
    const embed::Vector q = service_.text_encoder().EncodeText(text);
    uint64_t before = PostingsRead("peText");
    (void)service_.SemanticSearch(text, SearchTarget::kPe, 5);
    EXPECT_EQ(PostingsRead("peText") - before,
              ExpectedPostingsRead(pe_text_, q));
    before = PostingsRead("workflowText");
    (void)service_.SemanticSearch(text, SearchTarget::kWorkflow, 5);
    EXPECT_EQ(PostingsRead("workflowText") - before,
              ExpectedPostingsRead(wf_text_, q));
  }
  for (const std::string& code : CodeQueries()) {
    const embed::Vector q = service_.code_encoder().EncodeCode(code);
    const uint64_t before = PostingsRead("peCode");
    (void)service_.CodeSearchLlm(code, SearchTarget::kPe, 5);
    EXPECT_EQ(PostingsRead("peCode") - before,
              ExpectedPostingsRead(pe_code_, q));
  }
}

TEST_F(PostingsParityTest, IndexStatsReportRowsDimsAndPostings) {
  const auto stats = service_.IndexStats();
  ASSERT_EQ(stats.size(), 4u);
  const std::map<std::string, const Rows*> rows = {{"peText", &pe_text_},
                                                   {"peCode", &pe_code_},
                                                   {"workflowText", &wf_text_},
                                                   {"workflowCode", &wf_code_}};
  for (const auto& [label, st] : stats) {
    SCOPED_TRACE(label);
    ASSERT_EQ(rows.count(label), 1u);
    const Rows& stored = *rows.at(label);
    size_t nonzero = 0;
    for (const auto& [id, v] : stored) {
      for (float x : v) nonzero += x != 0.0f;
    }
    EXPECT_EQ(st.rows, stored.size());
    EXPECT_EQ(st.dims, 4096u);
    EXPECT_EQ(st.postings, nonzero);
    EXPECT_GE(st.bytes, nonzero * 8);
  }
}

TEST(PostingsService, EmptyServiceReturnsNothing) {
  registry::Database db;
  registry::Repository repo(db);
  ASSERT_TRUE(registry::CreateLaminarSchema(db).ok());
  SearchService service(repo);
  for (SearchTarget target : {SearchTarget::kPe, SearchTarget::kWorkflow}) {
    EXPECT_TRUE(service.SemanticSearch("prime numbers", target, 5).empty());
    EXPECT_TRUE(service.CodeSearchLlm("x = 1\n", target, 5).empty());
  }
}

TEST_F(PostingsParityTest, ConcurrentReadersSeeSerialResults) {
  // Readers query under a shared lock while a writer flips the registry
  // between two states under an exclusive lock, as the server does. Each
  // flip reuses slots differently, so a state's results must not depend on
  // how it was reached.
  std::vector<int64_t> flipped;
  for (const auto& [id, v] : pe_text_) {
    if (id % 9 == 0) flipped.push_back(id);
  }
  const std::vector<std::string> texts = TextQueries();
  const std::vector<std::string> codes = CodeQueries();
  // One probe per query; each returns that query's (id, score) list.
  std::vector<std::function<Ranked()>> probes;
  for (const std::string& text : texts) {
    probes.push_back([&, text] {
      return Pairs(service_.SemanticSearch(text, SearchTarget::kPe, 10));
    });
    probes.push_back([&, text] {
      return Pairs(service_.SemanticSearch(text, SearchTarget::kWorkflow, 3));
    });
  }
  for (const std::string& code : codes) {
    probes.push_back([&, code] {
      return Pairs(service_.CodeSearchLlm(code, SearchTarget::kPe, 10));
    });
  }
  auto run_queries = [&] {
    std::vector<Ranked> out;
    for (const auto& probe : probes) out.push_back(probe());
    return out;
  };
  // State 0 is the fixture; state 1 drops half of `flipped` and re-describes
  // the other half.
  auto flip = [&](int to) {
    std::vector<SearchService::PreparedPe> prepared;
    if (to == 0) {
      for (size_t i = 0; i < flipped.size(); i += 2) {
        const registry::PeRecord pe = repo_.GetPe(flipped[i]).value();
        prepared.push_back(service_.PreparePe(pe.name, pe.description, "",
                                              pe.code));
      }
    }
    std::vector<std::pair<int64_t, std::string>> descriptions;
    for (size_t i = 1; i < flipped.size(); i += 2) {
      const registry::PeRecord pe = repo_.GetPe(flipped[i]).value();
      descriptions.emplace_back(
          flipped[i], to == 0 ? pe.description : "renamed " + pe.description);
    }
    return [this, to, prepared = std::move(prepared),
            descriptions = std::move(descriptions), &flipped]() mutable {
      for (size_t i = 0, p = 0; i < flipped.size(); i += 2) {
        if (to == 1) {
          service_.RemovePe(flipped[i]);
        } else {
          service_.CommitPe(flipped[i], std::move(prepared[p++]));
        }
      }
      for (auto& [id, text] : descriptions) {
        service_.UpdatePeDescription(
            id, text, service_.text_encoder().Encode(text));
      }
    };
  };

  std::vector<Ranked> want[2];
  want[0] = run_queries();
  flip(1)();
  want[1] = run_queries();
  flip(0)();
  ASSERT_EQ(run_queries(), want[0]);
  ASSERT_NE(want[0], want[1]);

  std::shared_mutex mu;
  int state = 0;  // guarded by mu
  std::atomic<bool> done{false};
  std::atomic<size_t> mismatches{0}, checks{0}, flips{0};
  std::thread writer([&] {
    while (!done.load()) {
      std::function<void()> apply;
      {
        // Like the server's ingest: encode under the shared lock only.
        std::shared_lock<std::shared_mutex> lock(mu);
        apply = flip(1 - state);
      }
      std::unique_lock<std::shared_mutex> lock(mu);
      apply();
      state = 1 - state;
      ++flips;
    }
  });
  std::vector<std::thread> readers;
  for (int t = 0; t < 4; ++t) {
    readers.emplace_back([&] {
      // Each query takes the shared lock on its own, so the writer gets in
      // between them. At least 6 rounds each, and on until the writer has
      // flipped 4 times (bounded, in case a reader-preferring lock starves
      // the writer).
      for (int round = 0; round < 6 || (flips.load() < 4 && round < 400);
           ++round) {
        for (size_t q = 0; q < probes.size(); ++q) {
          {
            std::shared_lock<std::shared_mutex> lock(mu);
            if (probes[q]() != want[state][q]) ++mismatches;
            ++checks;
          }
          std::this_thread::sleep_for(std::chrono::microseconds(50));
        }
      }
    });
  }
  for (std::thread& reader : readers) reader.join();
  done = true;
  writer.join();
  EXPECT_EQ(mismatches.load(), 0u);
  EXPECT_GE(checks.load(), 24 * probes.size());
  EXPECT_GE(flips.load(), 4u);
}

}  // namespace
}  // namespace laminar::search
