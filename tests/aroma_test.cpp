#include <algorithm>
#include <gtest/gtest.h>

#include <atomic>
#include <limits>
#include <map>
#include <thread>

#include "aroma_reference.hpp"
#include "common/value.hpp"
#include "dataset/generator.hpp"
#include "spt/index.hpp"
#include "spt/recommend.hpp"
#include "spt/rerank.hpp"
#include "telemetry/telemetry.hpp"

namespace laminar::spt {
namespace {

FeatureBag Feat(const std::string& code, bool occurrences = false) {
  Result<SptNodePtr> spt = SptFromSource(code);
  EXPECT_TRUE(spt.ok());
  FeatureOptions opts;
  opts.with_occurrences = occurrences;
  return ExtractFeatures(*spt.value(), opts);
}

FlatFeatures Flat(const std::string& code, bool occurrences = false) {
  return FlatFeatures::From(Feat(code, occurrences));
}

FeatureBag BagOf(std::initializer_list<std::pair<uint64_t, uint32_t>> counts) {
  FeatureBag bag;
  for (const auto& [hash, count] : counts) {
    for (uint32_t i = 0; i < count; ++i) bag.Add(hash);
  }
  return bag;
}

/// Features as ordered (hash, count) pairs, to compare the two forms.
std::map<uint64_t, uint32_t> CountsOf(const FlatFeatures& flat) {
  std::map<uint64_t, uint32_t> counts;
  for (const FlatFeatures::Feature& f : flat.features) counts[f.hash] = f.count;
  return counts;
}
std::map<uint64_t, uint32_t> CountsOf(const FeatureBag& bag) {
  return {bag.counts.begin(), bag.counts.end()};
}

// ---- SptIndex ----

TEST(SptIndex, AddGetRemove) {
  SptIndex index;
  index.Add(1, Flat("x = 1\n"));
  index.Add(2, Flat("y = 2\n"));
  EXPECT_EQ(index.size(), 2u);
  EXPECT_NE(index.Get(1), nullptr);
  EXPECT_TRUE(index.Remove(1));
  EXPECT_FALSE(index.Remove(1));
  EXPECT_EQ(index.Get(1), nullptr);
  EXPECT_EQ(index.size(), 1u);
}

TEST(SptIndex, ReAddReplaces) {
  SptIndex index;
  index.Add(1, Flat("x = 1\n"));
  index.Add(1, Flat("while flag:\n    step(1)\n"));
  EXPECT_EQ(index.size(), 1u);
  // Retrieval requires at least one shared (generalized) token — here
  // `flag` and the literal 1.
  auto hits = index.TopK(Flat("while flag:\n    go(1)\n"), 5, Metric::kCosine);
  ASSERT_FALSE(hits.empty());
  EXPECT_EQ(hits[0].doc_id, 1);
}

TEST(SptIndex, TopKRanksStructuralMatchesFirst) {
  SptIndex index;
  index.Add(1, Flat("for i in range(2, n):\n    if n % i == 0:\n        return None\n"));
  index.Add(2, Flat("result = []\nfor x in xs:\n    result.append(x * 2)\n"));
  index.Add(3, Flat("with open(path) as fh:\n    data = fh.read()\n"));
  auto hits = index.TopK(
      Flat("for d in range(2, value):\n    if value % d == 0:\n        return None\n"),
      3, Metric::kOverlap);
  ASSERT_FALSE(hits.empty());
  EXPECT_EQ(hits[0].doc_id, 1);
}

TEST(SptIndex, TopKRespectsK) {
  SptIndex index;
  for (int64_t i = 0; i < 10; ++i) {
    index.Add(i, Flat("x = " + std::to_string(i) + "\n"));
  }
  auto hits = index.TopK(Flat("x = 99\n"), 3, Metric::kCosine);
  EXPECT_EQ(hits.size(), 3u);
}

TEST(SptIndex, DeterministicTieBreakById) {
  SptIndex index;
  index.Add(5, Flat("a = 1\n"));
  index.Add(2, Flat("b = 1\n"));  // structurally identical after #VAR
  auto hits = index.TopK(Flat("c = 1\n"), 2, Metric::kCosine);
  ASSERT_EQ(hits.size(), 2u);
  EXPECT_DOUBLE_EQ(hits[0].score, hits[1].score);
  EXPECT_EQ(hits[0].doc_id, 2);
}

TEST(SptIndex, NoSharedFeaturesNoHits) {
  SptIndex index;
  index.Add(1, Flat("import os\n"));
  auto hits = index.TopK(Flat("9999\n"), 5, Metric::kOverlap);
  // Any overlap must be via genuinely shared features; a bare unique number
  // shares nothing with an import statement.
  for (const auto& hit : hits) EXPECT_GT(hit.score, 0.0);
}

// ---- Prune & rerank ----

TEST(Prune, SelectsOnlyRelevantLines) {
  FlatFeatures query = Flat("total = total + price\n");
  FlatFeatures candidate = Flat(
      "def bill(items):\n"
      "    total = 0\n"
      "    for price in items:\n"
      "        total = total + price\n"
      "    log_invoice()\n"
      "    return total\n",
      /*occurrences=*/true);
  PruneResult pruned = PruneAgainstQuery(query, candidate);
  ASSERT_FALSE(pruned.lines.empty());
  // Line 4 (the accumulation) must be selected; line 5 (logging) must not.
  EXPECT_NE(std::find(pruned.lines.begin(), pruned.lines.end(), 4),
            pruned.lines.end());
  EXPECT_EQ(std::find(pruned.lines.begin(), pruned.lines.end(), 5),
            pruned.lines.end());
  EXPECT_GT(pruned.containment, 0.5);
}

TEST(Prune, EmptyQueryYieldsNothing) {
  FlatFeatures query;  // empty
  FlatFeatures candidate = Flat("x = 1\n", true);
  PruneResult pruned = PruneAgainstQuery(query, candidate);
  EXPECT_TRUE(pruned.lines.empty());
  EXPECT_DOUBLE_EQ(pruned.overlap, 0.0);
}

TEST(Prune, CandidateWithoutOccurrencesYieldsNothing) {
  FlatFeatures query = Flat("x = 1\n");
  FlatFeatures candidate = Flat("x = 1\n", /*occurrences=*/false);
  EXPECT_TRUE(PruneAgainstQuery(query, candidate).lines.empty());
}

TEST(Prune, LinesSortedAscending) {
  FlatFeatures query = Flat("a = 1\nb = 2\nc = 3\n");
  FlatFeatures candidate = Flat("c = 3\nb = 2\na = 1\n", true);
  PruneResult pruned = PruneAgainstQuery(query, candidate);
  EXPECT_TRUE(std::is_sorted(pruned.lines.begin(), pruned.lines.end()));
}

// ---- Clustering ----

TEST(Cluster, GroupsSimilarSeparatesDifferent) {
  FlatFeatures a1 = Flat("for i in range(n):\n    acc += i\n");
  FlatFeatures a2 = Flat("for j in range(m):\n    sum2 += j\n");
  FlatFeatures b = Flat("with open(f) as fh:\n    data = fh.read()\n");
  std::vector<ClusterInput> inputs = {{1, &a1}, {2, &a2}, {3, &b}};
  auto clusters = ClusterCandidates(inputs, 0.5, inputs.size());
  ASSERT_EQ(clusters.size(), 2u);
  EXPECT_EQ(clusters[0], (std::vector<size_t>{0, 1}));
  EXPECT_EQ(clusters[1], (std::vector<size_t>{2}));
}

TEST(Cluster, ThresholdOneIsolatesAll) {
  FlatFeatures a = Flat("x = 1\n");
  FlatFeatures b = Flat("y = 2\n");
  std::vector<ClusterInput> inputs = {{1, &a}, {2, &b}};
  auto clusters = ClusterCandidates(inputs, 1.01, inputs.size());
  EXPECT_EQ(clusters.size(), 2u);
}

TEST(Cluster, ThresholdZeroMergesAll) {
  FlatFeatures a = Flat("x = 1\n");
  FlatFeatures b = Flat("import os\n");
  std::vector<ClusterInput> inputs = {{1, &a}, {2, &b}};
  auto clusters = ClusterCandidates(inputs, 0.0, inputs.size());
  EXPECT_EQ(clusters.size(), 1u);
}

TEST(Cluster, CapKeepsTheFirstClustersAndTheirMembersExactly) {
  // Three idioms, interleaved so a member of each leader's cluster comes
  // after the third leader. Capped at two clusters, the third idiom is left
  // out and the first two keep every member.
  FlatFeatures loop1 = Flat("for i in range(n):\n    acc += i\n");
  FlatFeatures loop2 = Flat("for j in range(m):\n    sum2 += j\n");
  FlatFeatures file1 = Flat("with open(f) as fh:\n    data = fh.read()\n");
  FlatFeatures file2 = Flat("with open(f) as fd:\n    text = fd.read()\n");
  FlatFeatures wait1 = Flat("while running:\n    x = tick()\n");
  FlatFeatures wait2 = Flat("while running:\n    y = tick()\n");
  std::vector<ClusterInput> inputs = {{1, &loop1}, {2, &file1}, {3, &wait1},
                                      {4, &loop2}, {5, &wait2}, {6, &file2}};
  const auto uncapped = ClusterCandidates(inputs, 0.5, inputs.size());
  ASSERT_EQ(uncapped.size(), 3u);
  EXPECT_EQ(uncapped[0], (std::vector<size_t>{0, 3}));
  EXPECT_EQ(uncapped[1], (std::vector<size_t>{1, 5}));
  EXPECT_EQ(uncapped[2], (std::vector<size_t>{2, 4}));
  const auto capped = ClusterCandidates(inputs, 0.5, 2);
  ASSERT_EQ(capped.size(), 2u);
  EXPECT_EQ(capped[0], uncapped[0]);
  EXPECT_EQ(capped[1], uncapped[1]);
  EXPECT_TRUE(ClusterCandidates(inputs, 0.5, 0).empty());
}

TEST(FlatFeatures, SortedAndScoredLikeTheBag) {
  dataset::DatasetConfig config;
  config.families = 6;
  config.variants_per_family = 3;
  const auto ds = dataset::CodeSearchNetPeDataset::Generate(config);
  std::vector<FeatureBag> bags;
  std::vector<FlatFeatures> flats;
  for (const dataset::PeExample& ex : ds.examples()) {
    bags.push_back(Feat(dataset::DropCode(ex.pe_code, 0.4), true));
    flats.push_back(FlatFeatures::From(bags.back()));
  }
  bags.emplace_back();  // the empty bag
  flats.push_back(FlatFeatures::From(bags.back()));
  for (size_t i = 0; i < bags.size(); ++i) {
    const FeatureBag& bag = bags[i];
    const FlatFeatures& flat = flats[i];
    EXPECT_EQ(CountsOf(flat), CountsOf(bag));
    EXPECT_EQ(flat.features.size(), bag.counts.size());  // distinct hashes
    EXPECT_TRUE(std::is_sorted(
        flat.features.begin(), flat.features.end(),
        [](const auto& a, const auto& b) { return a.hash < b.hash; }));
    std::vector<std::pair<int, uint64_t>> want;
    for (const auto& [hash, line] : bag.occurrences) {
      want.emplace_back(line, hash);
    }
    std::vector<std::pair<int, uint64_t>> got;
    for (const FlatFeatures::Occurrence& occ : flat.occurrences) {
      got.emplace_back(occ.line, flat.features[occ.feature].hash);
    }
    EXPECT_TRUE(std::is_sorted(flat.occurrences.begin(), flat.occurrences.end(),
                               [](const auto& a, const auto& b) {
                                 return std::pair(a.line, a.feature) <
                                        std::pair(b.line, b.feature);
                               }));
    std::sort(want.begin(), want.end());
    std::sort(got.begin(), got.end());
    EXPECT_EQ(got, want);
    EXPECT_EQ(flat.total, bag.total);
    EXPECT_EQ(flat.norm, bag.Norm());
    for (size_t j = 0; j < bags.size(); ++j) {
      EXPECT_EQ(static_cast<double>(OverlapCount(flat, flats[j])),
                OverlapScore(bag, bags[j]));
      EXPECT_EQ(JaccardSimilarity(flat, flats[j]),
                JaccardSimilarity(bag, bags[j]));
    }
  }
}

// ---- AromaEngine end-to-end ----

class AromaEngineTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dataset::DatasetConfig config;
    config.families = 8;
    config.variants_per_family = 4;
    ds_ = dataset::CodeSearchNetPeDataset::Generate(config);
    for (const auto& ex : ds_.examples()) {
      ASSERT_TRUE(engine_.AddSnippet(ex.id, ex.pe_code).ok()) << ex.name;
    }
  }

  dataset::CodeSearchNetPeDataset ds_;
  AromaEngine engine_;
};

TEST_F(AromaEngineTest, FullCodeQueryFindsOwnFamily) {
  const auto& query = ds_.example(0);
  Result<std::vector<SptIndex::Hit>> hits =
      engine_.Search(query.pe_code, 4, Metric::kCosine);
  ASSERT_TRUE(hits.ok());
  ASSERT_FALSE(hits->empty());
  EXPECT_EQ(hits->front().doc_id, query.id);  // self first
  // Most of the rest of the top-4 should be family members.
  const auto& members = ds_.GroupMembers(query.group);
  int family_hits = 0;
  for (const auto& hit : hits.value()) {
    if (std::find(members.begin(), members.end(), hit.doc_id) != members.end()) {
      ++family_hits;
    }
  }
  EXPECT_GE(family_hits, 3);
}

TEST_F(AromaEngineTest, PartialQueryStillRecommendsFamily) {
  const auto& query = ds_.example(5);
  std::string partial = dataset::DropCode(query.pe_code, 0.5);
  Result<std::vector<Recommendation>> recs = engine_.Recommend(partial);
  ASSERT_TRUE(recs.ok());
  ASSERT_FALSE(recs->empty());
  const auto& members = ds_.GroupMembers(query.group);
  EXPECT_NE(std::find(members.begin(), members.end(), recs->front().snippet_id),
            members.end());
}

TEST_F(AromaEngineTest, RecommendationsIncludePrunedCode) {
  const auto& query = ds_.example(2);
  Result<std::vector<Recommendation>> recs = engine_.Recommend(query.pe_code);
  ASSERT_TRUE(recs.ok());
  ASSERT_FALSE(recs->empty());
  EXPECT_FALSE(recs->front().recommended_code.empty());
  EXPECT_FALSE(recs->front().pruned_lines.empty());
  EXPECT_GT(recs->front().score, 6.0);  // paper's default threshold
}

TEST_F(AromaEngineTest, ClustersCollapseNearDuplicates) {
  Result<std::vector<Recommendation>> recs =
      engine_.Recommend(ds_.example(1).pe_code);
  ASSERT_TRUE(recs.ok());
  // At least one recommendation should represent a multi-member cluster,
  // since each family has 4 structurally-equivalent variants.
  bool clustered = false;
  for (const auto& rec : recs.value()) {
    if (rec.cluster_size > 1) clustered = true;
  }
  EXPECT_TRUE(clustered);
}

TEST_F(AromaEngineTest, SimplifiedModeMatchesPaperDefaults) {
  AromaConfig config;
  config.use_full_pipeline = false;
  AromaEngine simple(config);
  for (const auto& ex : ds_.examples()) {
    ASSERT_TRUE(simple.AddSnippet(ex.id, ex.pe_code).ok());
  }
  Result<std::vector<Recommendation>> recs =
      simple.Recommend(ds_.example(0).pe_code);
  ASSERT_TRUE(recs.ok());
  ASSERT_FALSE(recs->empty());
  EXPECT_LE(recs->size(), 5u);  // top-five default
  EXPECT_EQ(recs->front().snippet_id, ds_.example(0).id);
}

TEST_F(AromaEngineTest, RemoveSnippetForgetsIt) {
  const auto& ex = ds_.example(0);
  EXPECT_TRUE(engine_.RemoveSnippet(ex.id));
  Result<std::vector<SptIndex::Hit>> hits = engine_.Search(ex.pe_code, 3);
  ASSERT_TRUE(hits.ok());
  for (const auto& hit : hits.value()) EXPECT_NE(hit.doc_id, ex.id);
}

TEST(AromaEngineEdge, RejectsEmptySnippet) {
  AromaEngine engine;
  EXPECT_FALSE(engine.AddSnippet(1, "").ok());
}

TEST(FeatureBagJson, RoundTrips) {
  Result<SptNodePtr> spt = SptFromSource("x = f(1)\n");
  ASSERT_TRUE(spt.ok());
  FeatureBag bag = ExtractFeatures(*spt.value());
  std::string json_text = FeatureBagToJson(bag);
  Result<FeatureBag> back = FeatureBagFromJson(json_text);
  ASSERT_TRUE(back.ok());
  EXPECT_EQ(back->counts, bag.counts);
  EXPECT_EQ(back->total, bag.total);
}

/// The sptEmbedding column as it was built through Value, key by key.
std::string ValueBuiltJson(const FeatureBag& bag) {
  std::vector<std::pair<uint64_t, uint32_t>> entries(bag.counts.begin(),
                                                     bag.counts.end());
  std::sort(entries.begin(), entries.end());
  Value obj = Value::MakeObject();
  for (const auto& [h, c] : entries) {
    obj[std::to_string(h)] = static_cast<int64_t>(c);
  }
  return obj.ToJson();
}

TEST(FeatureBagJson, WrittenDirectlyMatchesTheValueBuiltBytes) {
  dataset::DatasetConfig config;
  config.families = 0;
  config.variants_per_family = 2;
  const auto ds = dataset::CodeSearchNetPeDataset::Generate(config);
  std::vector<FeatureBag> bags;
  for (const dataset::PeExample& ex : ds.examples()) {
    bags.push_back(Feat(ex.pe_code, /*occurrences=*/true));
  }
  bags.emplace_back();  // empty
  bags.push_back(BagOf({{0, 1}, {std::numeric_limits<uint64_t>::max(), 3}}));
  bags.back().counts[7] = std::numeric_limits<uint32_t>::max();
  for (const FeatureBag& bag : bags) {
    const std::string want = ValueBuiltJson(bag);
    EXPECT_EQ(FeatureBagToJson(bag), want);
    EXPECT_EQ(FeatureBagToJson(FlatFeatures::From(bag)), want);
  }
  EXPECT_EQ(FeatureBagToJson(FeatureBag{}), "{}");
}

TEST(FeatureBagJson, RejectsMalformed) {
  EXPECT_FALSE(FeatureBagFromJson("not json").ok());
  EXPECT_FALSE(FeatureBagFromJson("[1,2]").ok());
  EXPECT_FALSE(FeatureBagFromJson(R"({"abc":1})").ok());
  EXPECT_FALSE(FeatureBagFromJson(R"({"12":0})").ok());
}

TEST(FeatureBagJson, CountsMustBeIntegersInUint32Range) {
  // A plain cast would turn the first four into valid-looking counts
  // (4294967295, 1, 1, 2).
  for (const char* bad : {R"({"12":-1})", R"({"12":4294967297})",
                          R"({"12":true})", R"({"12":2.7})", R"({"12":"3"})",
                          R"({"12":2.0})", R"({"12":null})"}) {
    Result<FeatureBag> bag = FeatureBagFromJson(bad);
    ASSERT_FALSE(bag.ok()) << bad;
    EXPECT_EQ(bag.status().code(), StatusCode::kParseError) << bad;
  }
  Result<FeatureBag> max = FeatureBagFromJson(R"({"12":4294967295,"13":1})");
  ASSERT_TRUE(max.ok());
  EXPECT_EQ(max->counts.at(12), std::numeric_limits<uint32_t>::max());
  EXPECT_EQ(max->total, size_t{4294967296});
}

// ---- Exact parity with the reference implementations ----

using Ranked = std::vector<std::pair<int64_t, double>>;

Ranked Pairs(const std::vector<SptIndex::Hit>& hits) {
  Ranked out;
  for (const SptIndex::Hit& hit : hits) out.emplace_back(hit.doc_id, hit.score);
  return out;
}

constexpr Metric kMetrics[] = {Metric::kOverlap, Metric::kCosine,
                               Metric::kContainment};

// 30 families x 8 variants, then churn: every 7th doc removed and every 14th
// re-added with another example's (partial) bag, so freed slots are reused
// with different postings.
class AromaParityTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dataset::DatasetConfig config;
    config.families = 0;
    config.variants_per_family = 8;
    ds_ = dataset::CodeSearchNetPeDataset::Generate(config);
    for (const dataset::PeExample& ex : ds_.examples()) {
      bags_[ex.id] = Feat(ex.pe_code, /*occurrences=*/true);
      index_.Add(ex.id, FlatFeatures::From(bags_[ex.id]));
    }
    for (size_t i = 0; i < ds_.size(); i += 7) {
      ASSERT_TRUE(index_.Remove(ds_.example(i).id));
      bags_.erase(ds_.example(i).id);
    }
    for (size_t i = 0; i < ds_.size(); i += 14) {
      const dataset::PeExample& other = ds_.example((i + 37) % ds_.size());
      const int64_t id = ds_.example(i).id;
      bags_[id] = Feat(dataset::DropCode(other.pe_code, 0.3), true);
      index_.Add(id, FlatFeatures::From(bags_[id]));
    }
    ASSERT_EQ(index_.size(), bags_.size());
  }

  std::vector<std::pair<int64_t, const FeatureBag*>> Live() const {
    std::vector<std::pair<int64_t, const FeatureBag*>> live;
    for (const auto& [id, bag] : bags_) live.emplace_back(id, &bag);
    return live;
  }

  dataset::CodeSearchNetPeDataset ds_;
  std::map<int64_t, FeatureBag> bags_;
  SptIndex index_;
};

TEST_F(AromaParityTest, TopKEqualsBruteForceUnderChurn) {
  const auto live = Live();
  size_t compared = 0;
  size_t longest = 0;
  for (size_t i = 0; i < ds_.size(); i += 5) {
    for (double drop : {0.0, 0.5}) {
      const FeatureBag query =
          Feat(dataset::DropCode(ds_.example(i).pe_code, drop));
      for (Metric metric : kMetrics) {
        for (size_t k : {size_t{0}, size_t{1}, size_t{5}, size_t{100},
                         index_.size() + 1}) {
          const Ranked want =
              Pairs(reference::BruteForceTopK(live, query, k, metric));
          ASSERT_EQ(Pairs(index_.TopK(FlatFeatures::From(query), k, metric)),
                    want)
              << "example " << i << " drop " << drop << " metric "
              << static_cast<int>(metric) << " k " << k;
          longest = std::max(longest, want.size());
          ++compared;
        }
      }
    }
  }
  EXPECT_EQ(compared, 48u * 2 * 3 * 5);
  EXPECT_GT(longest, 100u);  // k = 100 really truncates
}

TEST_F(AromaParityTest, PruneEqualsMapReferenceOnTopCandidates) {
  size_t prunes = 0;
  for (size_t i = 0; i < ds_.size(); i += 6) {
    for (double drop : {0.5, 0.8}) {
      const FeatureBag query =
          Feat(dataset::DropCode(ds_.example(i).pe_code, drop), true);
      const FlatFeatures flat_query = FlatFeatures::From(query);
      for (const SptIndex::Hit& hit : index_.TopK(flat_query, 100)) {
        const PruneResult want =
            reference::MapPruneAgainstQuery(query, bags_.at(hit.doc_id));
        const PruneResult got =
            PruneAgainstQuery(flat_query, *index_.Get(hit.doc_id));
        ASSERT_EQ(got.lines, want.lines) << "example " << i << " doc "
                                         << hit.doc_id << " drop " << drop;
        ASSERT_EQ(got.overlap, want.overlap);
        ASSERT_EQ(got.containment, want.containment);
        ++prunes;
      }
    }
  }
  EXPECT_GT(prunes, 5000u);
}

TEST_F(AromaParityTest, ConcurrentReadersSeeSerialResults) {
  // The server runs TopK and prune under a shared lock, so readers race.
  std::vector<FeatureBag> queries;
  std::vector<FlatFeatures> flat_queries;
  std::vector<Ranked> want;
  for (size_t i = 0; i < ds_.size(); i += 10) {
    queries.push_back(
        Feat(dataset::DropCode(ds_.example(i).pe_code, 0.5), true));
    flat_queries.push_back(FlatFeatures::From(queries.back()));
    want.push_back(Pairs(index_.TopK(flat_queries.back(), 100)));
  }
  std::atomic<size_t> mismatches{0};
  std::vector<std::thread> readers;
  for (int t = 0; t < 4; ++t) {
    readers.emplace_back([&] {
      for (size_t q = 0; q < queries.size(); ++q) {
        const auto hits = index_.TopK(flat_queries[q], 100);
        if (Pairs(hits) != want[q]) ++mismatches;
        for (const SptIndex::Hit& hit : hits) {
          if (!reference::SamePrune(
                  PruneAgainstQuery(flat_queries[q], *index_.Get(hit.doc_id)),
                  reference::MapPruneAgainstQuery(queries[q],
                                                  bags_.at(hit.doc_id)))) {
            ++mismatches;
          }
        }
      }
    });
  }
  for (std::thread& reader : readers) reader.join();
  EXPECT_EQ(mismatches.load(), 0u);
}

TEST(Prune, EqualsMapReferenceOnHandBuiltOccurrences) {
  // Lines out of order, zero and negative lines, repeated (feature, line)
  // pairs, features missing from the query and tied gains.
  FeatureBag query = BagOf({{1, 2}, {2, 1}, {3, 3}, {4, 1}});
  FeatureBag candidate;
  for (auto [hash, line] : std::vector<std::pair<uint64_t, int>>{
           {3, 9}, {1, 4}, {9, 4}, {3, 4}, {1, 0}, {3, 0}, {2, -3}, {4, -3},
           {1, 9}, {1, 9}, {8, 7}, {3, 12}, {3, 12}, {3, 12}, {2, 5}}) {
    candidate.Add(hash);
    candidate.occurrences.emplace_back(hash, line);
  }
  const PruneResult want = reference::MapPruneAgainstQuery(query, candidate);
  const PruneResult got = PruneAgainstQuery(FlatFeatures::From(query),
                                            FlatFeatures::From(candidate));
  EXPECT_EQ(got.lines, want.lines);
  EXPECT_EQ(got.overlap, want.overlap);
  EXPECT_EQ(got.containment, want.containment);
  EXPECT_EQ(got.overlap, 7.0);  // the whole query is covered
}

TEST(SptIndex, CountsThePostingsEachQueryReads) {
  const telemetry::Counter& read =
      telemetry::MetricsRegistry::Global().GetCounter(
          "laminar_search_postings_read_total", "index=\"spt\"");
  SptIndex index;
  std::map<int64_t, FeatureBag> bags;
  bags[1] = BagOf({{10, 1}, {11, 2}});
  bags[2] = BagOf({{10, 4}, {12, 1}});
  bags[3] = BagOf({{11, 1}, {12, 2}, {13, 1}});
  for (const auto& [id, bag] : bags) index.Add(id, FlatFeatures::From(bag));
  // Feature 10 is in 2 documents, 11 in 2 and 12 in 2; 99 is in none.
  const FlatFeatures query =
      FlatFeatures::From(BagOf({{10, 1}, {11, 3}, {12, 1}, {99, 2}}));
  for (Metric metric : kMetrics) {
    const uint64_t before = read.Value();
    EXPECT_EQ(index.TopK(query, 1, metric).size(), 1u);
    EXPECT_EQ(read.Value() - before, 6u);
  }
  const uint64_t before = read.Value();
  EXPECT_TRUE(index.TopK(query, 0).empty());  // k = 0 reads nothing
  EXPECT_EQ(read.Value(), before);
}

TEST(SptIndex, RemovingADocInEveryPostingKeepsTheRestExact) {
  // Every feature of doc 1 is in every other doc, so removing it edits
  // each posting list the others are scored from.
  SptIndex index;
  std::map<int64_t, FeatureBag> bags;
  bags[1] = BagOf({{10, 1}, {11, 2}});
  for (uint32_t id = 2; id <= 6; ++id) {
    bags[id] = BagOf({{10, id}, {11, 1}, {100 + id, 3}});
  }
  for (const auto& [id, bag] : bags) index.Add(id, FlatFeatures::From(bag));
  ASSERT_TRUE(index.Remove(1));
  bags.erase(1);

  EXPECT_EQ(index.size(), 5u);
  EXPECT_EQ(index.Get(1), nullptr);
  std::vector<std::pair<int64_t, const FeatureBag*>> live;
  for (const auto& [id, bag] : bags) {
    ASSERT_NE(index.Get(id), nullptr);
    EXPECT_EQ(CountsOf(*index.Get(id)), CountsOf(bag));
    live.emplace_back(id, &bag);
  }
  const FeatureBag query = BagOf({{10, 3}, {11, 2}, {104, 1}});
  const FlatFeatures flat_query = FlatFeatures::From(query);
  for (Metric metric : kMetrics) {
    const Ranked got = Pairs(index.TopK(flat_query, 10, metric));
    EXPECT_EQ(got.size(), 5u);
    EXPECT_EQ(got, Pairs(reference::BruteForceTopK(live, query, 10, metric)));
  }

  index.Clear();
  EXPECT_EQ(index.size(), 0u);
  EXPECT_EQ(index.Get(2), nullptr);
  EXPECT_TRUE(index.TopK(flat_query, 10).empty());
  index.Add(7, FlatFeatures::From(BagOf({{10, 1}})));
  EXPECT_EQ(Pairs(index.TopK(flat_query, 10)), (Ranked{{7, 1.0}}));
}

// The whole pipeline on 1,200 PEs under slot-reusing churn: Search (every
// metric), Recommend (full and simplified) and Complete must equal the
// FeatureBag reference pipeline exactly, for DropCode 0 to 0.9 queries in
// tail and random mode.
TEST(AromaPipelineParity, EqualsTheFeatureBagReferenceUnderChurn) {
  dataset::DatasetConfig config;
  config.families = 0;  // all 30
  config.variants_per_family = 40;
  const auto ds = dataset::CodeSearchNetPeDataset::Generate(config);
  ASSERT_GE(ds.size(), 1200u);
  AromaEngine full;
  AromaConfig simplified_config;
  simplified_config.use_full_pipeline = false;
  AromaEngine simplified(simplified_config);
  reference::Corpus corpus;
  reference::IndexChurned(ds, {&full, &simplified}, corpus);
  ASSERT_EQ(full.size(), corpus.bags.size());
  ASSERT_LT(full.size(), ds.size());  // churn removed some

  const std::vector<std::string> queries = reference::PartialQueries(ds, 60);
  EXPECT_EQ(queries.size(), 20u * 8);
  const std::vector<std::string> mismatches =
      reference::PipelineMismatches(full, simplified, corpus, queries);
  EXPECT_EQ(mismatches.size(), 0u);
  for (size_t i = 0; i < std::min<size_t>(mismatches.size(), 10); ++i) {
    ADD_FAILURE() << mismatches[i];
  }
}

}  // namespace
}  // namespace laminar::spt
