// bench_aroma — per-stage cost of Aroma structural recommendation, the
// paper's default code-to-code path (§VI-A), over growing corpora.
//
// For 300, 1.2k, 3.6k, 12k and 100k generated PEs it indexes every PE's
// flat features (line occurrences on, as AromaEngine does) and runs
// DropCode(0.5) queries through the stages of AromaEngine::Recommend one at
// a time, as Recommend runs them:
//   featurize  parse + SPT + feature extraction of the query, and its flat
//              form (sorted once, shared by the stages below);
//   topk       SptIndex::TopK by overlap, k = AromaConfig::retrieve_top;
//   cluster    ClusterCandidates over the candidates at or above the
//              overlap threshold, in TopK order (which is the containment
//              rerank order), opening at most max_recommendations clusters;
//   prune      PruneAgainstQuery on each returned cluster's representative;
//   total      the sum of the four.
// Each row also reports the slots TopK touched (the documents sharing a
// feature with the query), the candidates pruned, and where the postings
// live: the posting lists, how many are count columns, and the bytes the
// (slot, count) pairs and the columns have allocated. Every timing is the
// median of 3 trials over the same queries, with the min and max beside it.
// Rows go to BENCH_aroma.json, stamped with the host.
//
// --smoke indexes a 300-PE corpus and asserts exactness instead:
//   (a) after churn (every 7th PE removed, every 14th re-added with another
//       PE's bag, so freed slots are reused), TopK equals a brute-force
//       pairwise ranking for every metric and k in {0, 1, 5, 100, size + 1};
//   (b) PruneAgainstQuery equals the map-based reference on the TopK(100)
//       candidates of DropCode 0.5 and 0.8 queries;
//   (c) AromaEngine::Recommend is deterministic: a repeated call and an
//       engine indexed in reverse order (other slots) return identical
//       recommendations;
//   (d) on a churned corpus, Search (every metric), Recommend (full and
//       simplified) and Complete equal the FeatureBag reference pipeline
//       for DropCode 0, 0.5, 0.75 and 0.9 queries in tail and random mode;
//   (e) a candidate's pruned overlap equals its TopK overlap score, for
//       every TopK(100) candidate of those queries — the identity that lets
//       Recommend prune only the representatives it returns.
// Exit status 1 on any mismatch.
//
// Usage: bench_aroma [--smoke]
#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <map>
#include <string>
#include <vector>

#include "aroma_reference.hpp"
#include "bench_util.hpp"
#include "spt/recommend.hpp"

using namespace laminar;

namespace {

using Clock = std::chrono::steady_clock;

double MsSince(Clock::time_point t0) {
  return std::chrono::duration<double, std::milli>(Clock::now() - t0).count();
}

dataset::CodeSearchNetPeDataset Corpus(size_t variants) {
  dataset::DatasetConfig config;
  config.families = 0;  // all 30 families
  config.variants_per_family = variants;
  config.seed = 0xabc123;
  return dataset::CodeSearchNetPeDataset::Generate(config);
}

/// Features with line occurrences, exactly as AromaEngine::Featurize.
spt::FeatureBag Featurize(const std::string& code,
                          const spt::FeatureOptions& options) {
  Result<spt::SptNodePtr> tree = spt::SptFromSource(code);
  if (!tree.ok()) return {};
  return spt::ExtractFeatures(*tree.value(), options);
}

/// The flat form straight from the extractor, as AromaEngine::FeaturizeFlat
/// builds a query's.
spt::FlatFeatures Flat(const std::string& code,
                       const spt::FeatureOptions& options) {
  Result<spt::SptNodePtr> tree = spt::SptFromSource(code);
  if (!tree.ok()) return {};
  return spt::ExtractFlatFeatures(*tree.value(), options);
}

struct QueryStages {
  double featurize = 0, topk = 0, prune = 0, cluster = 0, total = 0;
  size_t touched = 0;
  size_t pruned = 0;
};

/// One query through AromaEngine::Recommend's stages 1-4, timed apiece.
QueryStages RunStages(const spt::SptIndex& index,
                      const spt::AromaConfig& config,
                      const spt::FeatureOptions& options,
                      const std::string& code) {
  QueryStages out;
  Clock::time_point t0 = Clock::now();
  const spt::FlatFeatures query = Flat(code, options);
  out.featurize = MsSince(t0);

  t0 = Clock::now();
  const std::vector<spt::SptIndex::Hit> hits =
      index.TopK(query, config.retrieve_top, spt::Metric::kOverlap);
  out.topk = MsSince(t0);

  t0 = Clock::now();
  std::vector<spt::ClusterInput> inputs;
  for (const spt::SptIndex::Hit& hit : hits) {
    if (hit.score < config.min_overlap_score) break;
    inputs.push_back(spt::ClusterInput{hit.doc_id, index.Get(hit.doc_id)});
  }
  const std::vector<std::vector<size_t>> clusters = spt::ClusterCandidates(
      inputs, config.cluster_jaccard, config.max_recommendations);
  out.cluster = MsSince(t0);

  t0 = Clock::now();
  for (const std::vector<size_t>& cluster : clusters) {
    spt::PruneAgainstQuery(query, *inputs[cluster.front()].features);
    ++out.pruned;
  }
  out.prune = MsSince(t0);
  out.total = out.featurize + out.topk + out.cluster + out.prune;

  out.touched = index.TopK(query, index.size(), spt::Metric::kOverlap).size();
  return out;
}

double Percentile(std::vector<double> values, double q) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const size_t at =
      static_cast<size_t>(q * static_cast<double>(values.size() - 1));
  return values[at];
}

/// One trial over a corpus: index build time, then the per-query means of
/// each stage and the p50/p95 of the per-query totals.
struct Trial {
  double build_s = 0;
  QueryStages mean;
  double total_p50 = 0, total_p95 = 0;
  size_t queries = 0;
  double touched = 0, pruned = 0;  ///< per-query means
  spt::SptIndex::PostingStats postings;
};

Trial RunTrial(const dataset::CodeSearchNetPeDataset& ds,
               const spt::AromaConfig& config,
               const spt::FeatureOptions& options) {
  Trial trial;
  Stopwatch build;
  spt::SptIndex index;
  for (const dataset::PeExample& ex : ds.examples()) {
    index.Add(ex.id, Flat(ex.pe_code, options));
  }
  trial.build_s = build.ElapsedSeconds();
  trial.postings = index.Stats();

  QueryStages sum;
  std::vector<double> totals;
  const size_t stride = std::max<size_t>(ds.size() / 100, 1);
  for (size_t i = 0; i < ds.size(); i += stride) {
    const QueryStages q =
        RunStages(index, config, options,
                  dataset::DropCode(ds.example(i).pe_code, 0.5));
    sum.featurize += q.featurize;
    sum.topk += q.topk;
    sum.prune += q.prune;
    sum.cluster += q.cluster;
    sum.total += q.total;
    sum.touched += q.touched;
    sum.pruned += q.pruned;
    totals.push_back(q.total);
  }
  const double n = static_cast<double>(totals.size());
  trial.mean.featurize = sum.featurize / n;
  trial.mean.topk = sum.topk / n;
  trial.mean.prune = sum.prune / n;
  trial.mean.cluster = sum.cluster / n;
  trial.mean.total = sum.total / n;
  trial.queries = totals.size();
  trial.touched = static_cast<double>(sum.touched) / n;
  trial.pruned = static_cast<double>(sum.pruned) / n;
  trial.total_p50 = Percentile(totals, 0.5);
  trial.total_p95 = Percentile(totals, 0.95);
  return trial;
}

/// Writes the median of `field` over the trials as `key`, and its range as
/// `key`_min and `key`_max; returns the median.
template <typename Field>
double AddSpread(Value& row, const std::string& key,
                 const std::vector<Trial>& trials, Field field) {
  std::vector<double> v;
  for (const Trial& t : trials) v.push_back(field(t));
  std::sort(v.begin(), v.end());
  row[key] = v[v.size() / 2];
  row[key + "_min"] = v.front();
  row[key + "_max"] = v.back();
  return v[v.size() / 2];
}

int RunSweep() {
  const spt::AromaConfig config;
  spt::FeatureOptions options = config.features;
  options.with_occurrences = true;
  constexpr int kTrials = 3;

  std::printf("== Aroma recommendation, per stage (DropCode 0.5 queries, "
              "median of %d trials) ==\n\n",
              kTrials);
  std::printf("%-8s %-9s %-10s %-9s %-9s %-9s %-9s %-9s %-9s %-7s %-8s "
              "%-10s %-10s\n",
              "corpus", "build s", "featurize", "topk", "cluster", "prune",
              "total", "p50", "touched", "pruned", "columns", "sparse MB",
              "column MB");
  bench::BenchReport report("aroma");
  report.Set("trials", static_cast<int64_t>(kTrials));
  for (size_t variants : {10u, 40u, 120u, 400u, 3334u}) {
    const dataset::CodeSearchNetPeDataset ds = Corpus(variants);
    std::vector<Trial> trials;
    for (int t = 0; t < kTrials; ++t) {
      trials.push_back(RunTrial(ds, config, options));
    }
    Value& row = report.AddRow();
    row["corpus"] = static_cast<int64_t>(ds.size());
    row["queries"] = static_cast<int64_t>(trials[0].queries);
    const double build_s = AddSpread(row, "build_s", trials,
                                     [](const Trial& t) { return t.build_s; });
    const double featurize =
        AddSpread(row, "featurize_ms", trials,
                  [](const Trial& t) { return t.mean.featurize; });
    const double topk = AddSpread(row, "topk_ms", trials,
                                  [](const Trial& t) { return t.mean.topk; });
    const double prune = AddSpread(
        row, "prune_ms", trials, [](const Trial& t) { return t.mean.prune; });
    const double cluster =
        AddSpread(row, "cluster_ms", trials,
                  [](const Trial& t) { return t.mean.cluster; });
    const double total = AddSpread(
        row, "total_ms", trials, [](const Trial& t) { return t.mean.total; });
    const double p50 = AddSpread(row, "total_p50_ms", trials,
                                 [](const Trial& t) { return t.total_p50; });
    AddSpread(row, "total_p95_ms", trials,
              [](const Trial& t) { return t.total_p95; });
    // The same corpus and queries in every trial, so the counts do not
    // vary.
    const spt::SptIndex::PostingStats& postings = trials[0].postings;
    row["slots_touched"] = trials[0].touched;
    row["candidates_pruned"] = trials[0].pruned;
    row["posting_lists"] = static_cast<int64_t>(postings.lists);
    row["columns"] = static_cast<int64_t>(postings.columns);
    row["posting_bytes_sparse"] = static_cast<int64_t>(postings.sparse_bytes);
    row["posting_bytes_dense"] = static_cast<int64_t>(postings.column_bytes);
    row["posting_bytes_headers"] = static_cast<int64_t>(postings.header_bytes);
    std::printf("%-8zu %-9.2f %-10.3f %-9.3f %-9.3f %-9.3f %-9.3f %-9.3f "
                "%-9.1f %-7.1f %-8zu %-10.2f %-10.2f\n",
                ds.size(), build_s, featurize, topk, cluster, prune, total,
                p50, trials[0].touched, trials[0].pruned, postings.columns,
                static_cast<double>(postings.sparse_bytes) / 1e6,
                static_cast<double>(postings.column_bytes) / 1e6);
  }
  std::printf("\nms are means per query; p50 is the median total. topk "
              "scores every touched slot, so it grows with the corpus; "
              "cluster sees at most retrieve_top candidates and prune at "
              "most max_recommendations. Posting bytes are allocated "
              "capacity.\n");
  report.Write();
  return 0;
}

int RunSmoke() {
  const dataset::CodeSearchNetPeDataset ds = Corpus(10);
  spt::FeatureOptions options;
  options.with_occurrences = true;
  size_t checks = 0;
  size_t failures = 0;
  auto expect = [&](bool ok, const char* what, size_t i) {
    ++checks;
    if (ok) return;
    ++failures;
    std::fprintf(stderr, "smoke failure: %s (example %zu)\n", what, i);
  };

  // (a) TopK vs brute force after churn that reuses freed slots.
  std::map<int64_t, spt::FeatureBag> bags;
  spt::SptIndex index;
  for (const dataset::PeExample& ex : ds.examples()) {
    bags[ex.id] = Featurize(ex.pe_code, options);
    index.Add(ex.id, spt::FlatFeatures::From(bags[ex.id]));
  }
  for (size_t i = 0; i < ds.size(); i += 7) {
    index.Remove(ds.example(i).id);
    bags.erase(ds.example(i).id);
  }
  for (size_t i = 0; i < ds.size(); i += 14) {
    const int64_t id = ds.example(i).id;
    bags[id] = Featurize(
        dataset::DropCode(ds.example((i + 37) % ds.size()).pe_code, 0.3),
        options);
    index.Add(id, spt::FlatFeatures::From(bags[id]));
  }
  std::vector<std::pair<int64_t, const spt::FeatureBag*>> live;
  for (const auto& [id, bag] : bags) live.emplace_back(id, &bag);
  expect(index.size() == live.size(), "size after churn", 0);
  for (size_t i = 0; i < ds.size(); i += 5) {
    const spt::FeatureBag query =
        Featurize(dataset::DropCode(ds.example(i).pe_code, 0.5), options);
    const spt::FlatFeatures flat_query = spt::FlatFeatures::From(query);
    for (spt::Metric metric : {spt::Metric::kOverlap, spt::Metric::kCosine,
                               spt::Metric::kContainment}) {
      for (size_t k : {size_t{0}, size_t{1}, size_t{5}, size_t{100},
                       index.size() + 1}) {
        expect(spt::reference::SameHits(
                   index.TopK(flat_query, k, metric),
                   spt::reference::BruteForceTopK(live, query, k, metric)),
               "TopK != brute force", i);
      }
    }
  }

  // (b) Flat prune vs the map-based reference on each query's candidates.
  for (size_t i = 0; i < ds.size(); i += 5) {
    for (double drop : {0.5, 0.8}) {
      const spt::FeatureBag query =
          Featurize(dataset::DropCode(ds.example(i).pe_code, drop), options);
      const spt::FlatFeatures flat_query = spt::FlatFeatures::From(query);
      for (const spt::SptIndex::Hit& hit : index.TopK(flat_query, 100)) {
        expect(spt::reference::SamePrune(
                   spt::PruneAgainstQuery(flat_query, *index.Get(hit.doc_id)),
                   spt::reference::MapPruneAgainstQuery(query,
                                                        bags.at(hit.doc_id))),
               "prune != map reference", i);
      }
    }
  }

  // (c) Recommend is deterministic across calls and slot assignments.
  spt::AromaEngine forward;
  spt::AromaEngine reverse;
  for (const dataset::PeExample& ex : ds.examples()) {
    (void)forward.AddSnippet(ex.id, ex.pe_code);
  }
  for (auto it = ds.examples().rbegin(); it != ds.examples().rend(); ++it) {
    (void)reverse.AddSnippet(it->id, it->pe_code);
  }
  size_t recommended = 0;
  for (size_t i = 0; i < ds.size(); i += 5) {
    const std::string query = dataset::DropCode(ds.example(i).pe_code, 0.5);
    auto first = forward.Recommend(query);
    auto again = forward.Recommend(query);
    auto other = reverse.Recommend(query);
    expect(first.ok() && again.ok() && other.ok(), "Recommend failed", i);
    if (!first.ok() || !again.ok() || !other.ok()) continue;
    recommended += first->size();
    expect(spt::reference::SameRecommendations(*first, *again),
           "repeat Recommend differs", i);
    expect(spt::reference::SameRecommendations(*first, *other),
           "reverse-order Recommend differs", i);
  }
  expect(recommended > 0, "no recommendations at all", 0);

  // (d) The whole pipeline vs the FeatureBag reference, after churn.
  spt::AromaEngine full;
  spt::AromaConfig simplified_config;
  simplified_config.use_full_pipeline = false;
  spt::AromaEngine simplified(simplified_config);
  spt::reference::Corpus corpus;
  spt::reference::IndexChurned(ds, {&full, &simplified}, corpus);
  const std::vector<std::string> queries =
      spt::reference::PartialQueries(ds, 15);
  for (const std::string& mismatch : spt::reference::PipelineMismatches(
           full, simplified, corpus, queries)) {
    expect(false, mismatch.c_str(), 0);
  }
  checks += queries.size();

  // (e) Pruned overlap == TopK overlap score, on the churned corpus.
  spt::SptIndex churned;
  for (const auto& [id, bag] : corpus.bags) {
    churned.Add(id, spt::FlatFeatures::From(bag));
  }
  for (const std::string& code : queries) {
    const spt::FlatFeatures query = Flat(code, options);
    for (const spt::SptIndex::Hit& hit : churned.TopK(query, 100)) {
      expect(spt::PruneAgainstQuery(query, *churned.Get(hit.doc_id)).overlap ==
                 hit.score,
             "pruned overlap != TopK score", static_cast<size_t>(hit.doc_id));
    }
  }

  std::printf("bench_aroma --smoke: %zu checks, %zu failures (%zu PEs)\n",
              checks, failures, ds.size());
  return failures == 0 ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc == 1) return RunSweep();
  if (argc == 2 && std::strcmp(argv[1], "--smoke") == 0) return RunSmoke();
  std::fprintf(stderr, "usage: bench_aroma [--smoke]\n");
  return 2;
}
