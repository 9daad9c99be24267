// Reference implementations for the Aroma parity checks, all over
// FeatureBags: a brute-force SptIndex::TopK that scores every live document
// pairwise, the map-based greedy PruneAgainstQuery the flat-array prune
// replaced, and the FeatureBag pipeline AromaEngine ran before documents
// were stored flat (Recommend with hash-map Jaccard and uncapped
// clustering, and Complete), each kept as it was but for the TopK, prune
// and document lookups it calls. tests/aroma_test.cpp and
// `bench_aroma --smoke` both require the production paths to equal these
// exactly, with no tolerance.
#pragma once

#include <algorithm>
#include <cstdint>
#include <map>
#include <string>
#include <string_view>
#include <unordered_map>
#include <utility>
#include <vector>

#include "common/strings.hpp"
#include "dataset/generator.hpp"
#include "spt/features.hpp"
#include "spt/index.hpp"
#include "spt/recommend.hpp"
#include "spt/rerank.hpp"

namespace laminar::spt::reference {

/// Scores every (id, bag) in `docs` with the metric's pairwise function,
/// keeps scores above zero, sorts by (score desc, id asc) and truncates.
inline std::vector<SptIndex::Hit> BruteForceTopK(
    const std::vector<std::pair<int64_t, const FeatureBag*>>& docs,
    const FeatureBag& query, size_t k, Metric metric) {
  std::vector<SptIndex::Hit> hits;
  for (const auto& [id, bag] : docs) {
    double score = 0.0;
    switch (metric) {
      case Metric::kOverlap: score = OverlapScore(query, *bag); break;
      case Metric::kCosine: score = CosineSimilarity(query, *bag); break;
      case Metric::kContainment: score = ContainmentScore(query, *bag); break;
    }
    if (score > 0.0) hits.push_back(SptIndex::Hit{id, score});
  }
  std::sort(hits.begin(), hits.end(),
            [](const SptIndex::Hit& a, const SptIndex::Hit& b) {
              if (a.score != b.score) return a.score > b.score;
              return a.doc_id < b.doc_id;
            });
  if (hits.size() > k) hits.resize(k);
  return hits;
}

/// The original prune: per-line feature maps of the whole candidate and a
/// hash-map query budget, rescanned every greedy round.
inline PruneResult MapPruneAgainstQuery(const FeatureBag& query,
                                        const FeatureBag& candidate) {
  PruneResult result;
  if (query.total == 0 || candidate.occurrences.empty()) return result;

  // Per-line feature multisets of the candidate.
  std::map<int, std::unordered_map<uint64_t, uint32_t>> by_line;
  for (const auto& [hash, line] : candidate.occurrences) {
    ++by_line[line][hash];
  }

  // Remaining query budget per feature.
  std::unordered_map<uint64_t, uint32_t> remaining = query.counts;
  std::vector<int> selected;
  std::vector<int> pool;
  pool.reserve(by_line.size());
  for (const auto& [line, feats] : by_line) pool.push_back(line);

  double total_overlap = 0.0;
  while (!pool.empty()) {
    int best_line = 0;
    double best_gain = 0.0;
    size_t best_pos = 0;
    for (size_t i = 0; i < pool.size(); ++i) {
      const auto& feats = by_line[pool[i]];
      double gain = 0.0;
      for (const auto& [h, c] : feats) {
        auto it = remaining.find(h);
        if (it != remaining.end()) {
          gain += std::min(c, it->second);
        }
      }
      if (gain > best_gain) {
        best_gain = gain;
        best_line = pool[i];
        best_pos = i;
      }
    }
    if (best_gain <= 0.0) break;
    // Commit the line: consume its matched features from the budget.
    for (const auto& [h, c] : by_line[best_line]) {
      auto it = remaining.find(h);
      if (it == remaining.end()) continue;
      uint32_t used = std::min(c, it->second);
      it->second -= used;
      if (it->second == 0) remaining.erase(it);
    }
    total_overlap += best_gain;
    selected.push_back(best_line);
    pool.erase(pool.begin() + static_cast<std::ptrdiff_t>(best_pos));
  }

  std::sort(selected.begin(), selected.end());
  result.lines = std::move(selected);
  result.overlap = total_overlap;
  result.containment = total_overlap / static_cast<double>(query.total);
  return result;
}

/// Bit-exact equality of two prune results (no tolerance).
inline bool SamePrune(const PruneResult& a, const PruneResult& b) {
  return a.lines == b.lines && a.overlap == b.overlap &&
         a.containment == b.containment;
}

/// Bit-exact equality of two hit lists (ids, order and scores).
inline bool SameHits(const std::vector<SptIndex::Hit>& a,
                     const std::vector<SptIndex::Hit>& b) {
  return std::equal(a.begin(), a.end(), b.begin(), b.end(),
                    [](const SptIndex::Hit& x, const SptIndex::Hit& y) {
                      return x.doc_id == y.doc_id && x.score == y.score;
                    });
}


/// Bit-exact equality of two recommendation lists.
inline bool SameRecommendations(const std::vector<Recommendation>& a,
                                const std::vector<Recommendation>& b) {
  return std::equal(a.begin(), a.end(), b.begin(), b.end(),
                    [](const Recommendation& x, const Recommendation& y) {
                      return x.snippet_id == y.snippet_id &&
                             x.score == y.score &&
                             x.containment == y.containment &&
                             x.cluster_size == y.cluster_size &&
                             x.pruned_lines == y.pruned_lines &&
                             x.recommended_code == y.recommended_code;
                    });
}

/// Bit-exact equality of two completion lists.
inline bool SameCompletions(const std::vector<Completion>& a,
                            const std::vector<Completion>& b) {
  return std::equal(a.begin(), a.end(), b.begin(), b.end(),
                    [](const Completion& x, const Completion& y) {
                      return x.snippet_id == y.snippet_id &&
                             x.score == y.score &&
                             x.matched_lines == y.matched_lines &&
                             x.continuation == y.continuation;
                    });
}

/// The live documents of an AromaEngine as the references see them: each
/// id's source and its features with line occurrences.
struct Corpus {
  std::map<int64_t, std::string> sources;
  std::map<int64_t, FeatureBag> bags;

  std::vector<std::pair<int64_t, const FeatureBag*>> Live() const {
    std::vector<std::pair<int64_t, const FeatureBag*>> live;
    for (const auto& [id, bag] : bags) live.emplace_back(id, &bag);
    return live;
  }
};

/// AromaEngine::Featurize: features with line occurrences.
inline Result<FeatureBag> Featurize(std::string_view code,
                                    FeatureOptions options) {
  options.with_occurrences = true;
  Result<SptNodePtr> spt = SptFromSource(code);
  if (!spt.ok()) return spt.status();
  return ExtractFeatures(*spt.value(), options);
}

inline std::string ExtractLines(const std::string& source,
                                const std::vector<int>& lines) {
  if (lines.empty()) return {};
  std::vector<std::string> all = strings::SplitLines(source);
  std::string out;
  for (int line : lines) {
    if (line < 1 || static_cast<size_t>(line) > all.size()) continue;
    out += all[static_cast<size_t>(line - 1)];
    out += '\n';
  }
  return out;
}

/// Greedy leader clustering with the FeatureBag (hash-map) Jaccard and no
/// cap on the number of clusters.
inline std::vector<std::vector<size_t>> ClusterCandidates(
    const std::vector<const FeatureBag*>& inputs, double jaccard_threshold) {
  std::vector<std::vector<size_t>> clusters;
  for (size_t i = 0; i < inputs.size(); ++i) {
    bool placed = false;
    for (auto& cluster : clusters) {
      const FeatureBag* leader = inputs[cluster.front()];
      if (leader != nullptr && inputs[i] != nullptr &&
          JaccardSimilarity(*leader, *inputs[i]) >= jaccard_threshold) {
        cluster.push_back(i);
        placed = true;
        break;
      }
    }
    if (!placed) clusters.push_back({i});
  }
  return clusters;
}

/// AromaEngine::Search over `corpus`.
inline Result<std::vector<SptIndex::Hit>> Search(const Corpus& corpus,
                                                 const AromaConfig& config,
                                                 std::string_view query_code,
                                                 size_t k, Metric metric) {
  Result<FeatureBag> query = Featurize(query_code, config.features);
  if (!query.ok()) return query.status();
  return BruteForceTopK(corpus.Live(), query.value(), k, metric);
}

/// AromaEngine::Recommend over `corpus`, both modes.
inline Result<std::vector<Recommendation>> Recommend(
    const Corpus& corpus, const AromaConfig& config,
    std::string_view query_code) {
  Result<FeatureBag> query_result = Featurize(query_code, config.features);
  if (!query_result.ok()) return query_result.status();
  const FeatureBag& query = query_result.value();
  const auto live = corpus.Live();

  if (!config.use_full_pipeline) {
    // Laminar 2.0 simplified path: similarity search only.
    std::vector<SptIndex::Hit> hits = BruteForceTopK(
        live, query, config.max_recommendations, config.simplified_metric);
    std::vector<Recommendation> out;
    for (const auto& hit : hits) {
      // The paper's threshold (default 6.0) is an *overlap* score even when
      // ranking is cosine; recompute it for the gate.
      double overlap = OverlapScore(query, corpus.bags.at(hit.doc_id));
      if (overlap < config.min_overlap_score) continue;
      Recommendation rec;
      rec.snippet_id = hit.doc_id;
      rec.score = hit.score;
      auto src = corpus.sources.find(hit.doc_id);
      if (src != corpus.sources.end()) rec.recommended_code = src->second;
      out.push_back(std::move(rec));
    }
    return out;
  }

  // Stage 2: over-retrieve by overlap.
  std::vector<SptIndex::Hit> hits =
      BruteForceTopK(live, query, config.retrieve_top, Metric::kOverlap);

  // Stage 3: prune each candidate against the query and rerank.
  struct Reranked {
    int64_t doc_id;
    PruneResult prune;
  };
  std::vector<Reranked> reranked;
  reranked.reserve(hits.size());
  for (const auto& hit : hits) {
    if (hit.score < config.min_overlap_score) continue;
    const FeatureBag& bag = corpus.bags.at(hit.doc_id);
    PruneResult prune = MapPruneAgainstQuery(query, bag);
    if (prune.overlap <= 0.0) continue;
    reranked.push_back(Reranked{hit.doc_id, std::move(prune)});
  }
  std::sort(reranked.begin(), reranked.end(),
            [](const Reranked& a, const Reranked& b) {
              if (a.prune.containment != b.prune.containment) {
                return a.prune.containment > b.prune.containment;
              }
              return a.doc_id < b.doc_id;
            });

  // Stage 4: cluster structurally similar candidates.
  std::vector<const FeatureBag*> inputs;
  inputs.reserve(reranked.size());
  for (const auto& r : reranked) inputs.push_back(&corpus.bags.at(r.doc_id));
  std::vector<std::vector<size_t>> clusters =
      ClusterCandidates(inputs, config.cluster_jaccard);

  // Stage 5: one recommendation per cluster, from its best-ranked member.
  std::vector<Recommendation> out;
  for (const auto& cluster : clusters) {
    if (out.size() >= config.max_recommendations) break;
    const Reranked& rep = reranked[cluster.front()];
    Recommendation rec;
    rec.snippet_id = rep.doc_id;
    rec.score = rep.prune.overlap;
    rec.containment = rep.prune.containment;
    rec.cluster_size = cluster.size();
    rec.pruned_lines = rep.prune.lines;
    auto src = corpus.sources.find(rep.doc_id);
    if (src != corpus.sources.end()) {
      rec.recommended_code = ExtractLines(src->second, rep.prune.lines);
    }
    out.push_back(std::move(rec));
  }
  return out;
}

/// AromaEngine::Complete over `corpus`.
inline Result<std::vector<Completion>> Complete(const Corpus& corpus,
                                                const AromaConfig& config,
                                                std::string_view partial_code,
                                                size_t k) {
  Result<FeatureBag> query_result = Featurize(partial_code, config.features);
  if (!query_result.ok()) return query_result.status();
  const FeatureBag& query = query_result.value();

  std::vector<SptIndex::Hit> hits = BruteForceTopK(
      corpus.Live(), query, std::max<size_t>(4 * k, 8), Metric::kOverlap);
  std::vector<Completion> out;
  for (const SptIndex::Hit& hit : hits) {
    if (out.size() >= k) break;
    if (hit.score < config.min_overlap_score) continue;
    auto bag = corpus.bags.find(hit.doc_id);
    auto src = corpus.sources.find(hit.doc_id);
    if (bag == corpus.bags.end() || src == corpus.sources.end()) continue;
    PruneResult prune = MapPruneAgainstQuery(query, bag->second);
    if (prune.lines.empty()) continue;
    // Continuation = everything in the snippet after the matched region.
    int last_matched = prune.lines.back();
    std::vector<std::string> lines = strings::SplitLines(src->second);
    std::string continuation;
    for (size_t i = static_cast<size_t>(last_matched);
         i < lines.size(); ++i) {
      continuation += lines[i];
      continuation += '\n';
    }
    if (strings::Trim(continuation).empty()) continue;  // match at the end
    Completion completion;
    completion.snippet_id = hit.doc_id;
    completion.score = hit.score;
    completion.matched_lines = std::move(prune.lines);
    completion.continuation = std::move(continuation);
    out.push_back(std::move(completion));
  }
  return out;
}

/// Indexes every PE of `ds` into each engine and into `corpus`, then
/// churns: every 7th PE is removed and every 14th re-added with the
/// DropCode(0.3) code of the PE 37 places on, so freed slots are reused
/// with different postings.
inline void IndexChurned(const dataset::CodeSearchNetPeDataset& ds,
                         const std::vector<AromaEngine*>& engines,
                         Corpus& corpus) {
  auto add = [&](int64_t id, const std::string& code) {
    for (AromaEngine* engine : engines) (void)engine->AddSnippet(id, code);
    Result<FeatureBag> bag =
        Featurize(code, engines.front()->config().features);
    if (!bag.ok() || bag->total == 0) return;
    corpus.sources[id] = code;
    corpus.bags[id] = std::move(bag.value());
  };
  for (const dataset::PeExample& ex : ds.examples()) add(ex.id, ex.pe_code);
  for (size_t i = 0; i < ds.size(); i += 7) {
    const int64_t id = ds.example(i).id;
    for (AromaEngine* engine : engines) (void)engine->RemoveSnippet(id);
    corpus.sources.erase(id);
    corpus.bags.erase(id);
  }
  for (size_t i = 0; i < ds.size(); i += 14) {
    add(ds.example(i).id,
        dataset::DropCode(ds.example((i + 37) % ds.size()).pe_code, 0.3));
  }
}

/// Partial queries from every `stride`-th PE of `ds`: DropCode at 0, 0.5,
/// 0.75 and 0.9, in tail and in random mode.
inline std::vector<std::string> PartialQueries(
    const dataset::CodeSearchNetPeDataset& ds, size_t stride) {
  std::vector<std::string> queries;
  for (size_t i = 0; i < ds.size(); i += stride) {
    for (dataset::DropMode mode :
         {dataset::DropMode::kTail, dataset::DropMode::kRandom}) {
      for (double drop : {0.0, 0.5, 0.75, 0.9}) {
        queries.push_back(dataset::DropCode(ds.example(i).pe_code, drop, mode,
                                            /*seed=*/99 + i));
      }
    }
  }
  return queries;
}

/// Runs each query through `full` (a full-pipeline engine), `simplified` (a
/// simplified-path engine) and the references over `corpus`, which must
/// hold the same documents. Compared exactly: Search for every metric at
/// k = 5 and k = retrieve_top, Recommend in both modes and Complete.
/// Returns one line per mismatch.
inline std::vector<std::string> PipelineMismatches(
    const AromaEngine& full, const AromaEngine& simplified,
    const Corpus& corpus, const std::vector<std::string>& queries) {
  std::vector<std::string> mismatches;
  auto expect = [&](bool same, const char* what, size_t q) {
    if (!same) mismatches.push_back(std::string(what) + ", query " +
                                    std::to_string(q));
  };
  for (size_t q = 0; q < queries.size(); ++q) {
    const std::string& code = queries[q];
    for (Metric metric :
         {Metric::kOverlap, Metric::kCosine, Metric::kContainment}) {
      for (size_t k : {size_t{5}, full.config().retrieve_top}) {
        auto got = full.Search(code, k, metric);
        auto want = Search(corpus, full.config(), code, k, metric);
        expect(got.ok() == want.ok() &&
                   (!got.ok() || SameHits(got.value(), want.value())),
               "Search", q);
      }
    }
    for (const AromaEngine* engine : {&full, &simplified}) {
      auto got = engine->Recommend(code);
      auto want = Recommend(corpus, engine->config(), code);
      expect(got.ok() == want.ok() &&
                 (!got.ok() || SameRecommendations(got.value(), want.value())),
             engine->config().use_full_pipeline ? "Recommend (full)"
                                                : "Recommend (simplified)",
             q);
    }
    auto got = full.Complete(code, 3);
    auto want = Complete(corpus, full.config(), code, 3);
    expect(got.ok() == want.ok() &&
               (!got.ok() || SameCompletions(got.value(), want.value())),
           "Complete", q);
  }
  return mismatches;
}

}  // namespace laminar::spt::reference
