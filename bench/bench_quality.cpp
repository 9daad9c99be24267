// Reproduces the paper's retrieval-quality evaluation (§VII, Figs. 10-13)
// and the §VI-A Aroma ablation on one generated 360-PE corpus, ranking
// every query through the code the server serves from:
//
//   Fig. 10  token F1 of CodeT5 descriptions from the _process() method
//            only (10a) and from the full PE class (10b), and the MRR over
//            the top 10 of a PostingsIndex of their UniXcoder embeddings,
//            queried with each PE's held-out paraphrase;
//   Fig. 11  the text-to-code PR curve of the full-class index's top 15;
//   Fig. 12  Aroma (AromaEngine::Search by overlap) and
//   Fig. 13  ReACC (a PostingsIndex of code embeddings) PR curves, each PE
//            queried with 0/50/75/90% of its code dropped;
//   §VI-A    on 50%-dropped queries: precision@5 by overlap and by cosine,
//            the full pipeline's and the simplified path's top-1
//            recommendation, and precision@5 with #VAR generalization off.
//
// Relevance is the query's semantic group, the query itself included.
//
//   bench_quality               writes BENCH_quality.json
//   bench_quality --check FILE  recomputes every value and writes nothing;
//                               fails when a number under "metrics" or
//                               "rows" differs from FILE by more than 1e-9
//                               or a key or row is on one side only. Keys
//                               ending in "_ms" are timings, not compared.
//
// Both exit 1 when one of the paper's shape claims fails. A change that
// moves a value re-records the file and says why.
#include <cmath>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <map>
#include <sstream>

#include "bench_util.hpp"
#include "common/json.hpp"
#include "common/strings.hpp"
#include "embed/codet5_sim.hpp"
#include "embed/reacc_sim.hpp"
#include "embed/unixcoder_sim.hpp"
#include "search/postings_index.hpp"
#include "spt/recommend.hpp"

using namespace laminar;

namespace {

using Ranked = std::vector<std::vector<int64_t>>;

constexpr size_t kMaxK = 15;  ///< the PR curves run k = 1..15
constexpr double kDrops[] = {0.0, 0.5, 0.75, 0.9};

/// Token-level F1 of generated vs reference description.
double TokenF1(const std::string& generated, const std::string& reference) {
  std::vector<std::string> g = strings::WordTokens(generated);
  std::vector<std::string> r = strings::WordTokens(reference);
  if (g.empty() || r.empty()) return 0.0;
  std::unordered_map<std::string, int> ref_counts;
  for (const std::string& t : r) ++ref_counts[t];
  int hits = 0;
  for (const std::string& t : g) {
    auto it = ref_counts.find(t);
    if (it != ref_counts.end() && it->second > 0) {
      ++hits;
      --it->second;
    }
  }
  double precision = static_cast<double>(hits) / static_cast<double>(g.size());
  double recall = static_cast<double>(hits) / static_cast<double>(r.size());
  return precision + recall > 0 ? 2 * precision * recall / (precision + recall)
                                : 0.0;
}

/// One ranked id list per corpus PE, from `rank(example)`, and the mean
/// milliseconds per query.
template <typename Rank>
std::pair<Ranked, double> RankAll(const dataset::CodeSearchNetPeDataset& ds,
                                  Rank rank) {
  Stopwatch watch;
  Ranked ranked;
  for (const dataset::PeExample& ex : ds.examples()) ranked.push_back(rank(ex));
  const double ms = watch.ElapsedMillis() / static_cast<double>(ds.size());
  return {std::move(ranked), ms};
}

std::vector<int64_t> Ids(const std::vector<search::PostingsIndex::Hit>& hits) {
  std::vector<int64_t> ids;
  for (const auto& hit : hits) ids.push_back(hit.id);
  return ids;
}

std::vector<int64_t> Ids(const Result<std::vector<spt::SptIndex::Hit>>& hits) {
  std::vector<int64_t> ids;
  if (hits.ok()) {
    for (const auto& hit : hits.value()) ids.push_back(hit.doc_id);
  }
  return ids;
}

spt::AromaEngine IndexedEngine(const dataset::CodeSearchNetPeDataset& ds,
                               const spt::AromaConfig& config) {
  spt::AromaEngine engine(config);
  for (const dataset::PeExample& ex : ds.examples()) {
    (void)engine.AddSnippet(ex.id, ex.pe_code);
  }
  return engine;
}

/// Calls `add(path, leaf)` for every leaf below `v`, leaving out timings.
template <typename Add>
void Flatten(const std::string& path, const Value& v, Add add) {
  if (v.is_object()) {
    for (const auto& [key, child] : v.as_object()) {
      if (!key.ends_with("_ms")) Flatten(path + "." + key, child, add);
    }
  } else if (v.is_array()) {
    for (size_t i = 0; i < v.size(); ++i) {
      Flatten(path + "[" + std::to_string(i) + "]", v.as_array()[i], add);
    }
  } else {
    add(path, v);
  }
}

}  // namespace

int main(int argc, char** argv) {
  const bool check = argc == 3 && std::strcmp(argv[1], "--check") == 0;
  if (argc != 1 && !check) {
    std::fprintf(stderr, "usage: bench_quality [--check BENCH_quality.json]\n");
    return 2;
  }
  bench::BenchReport report("quality");
  const dataset::CodeSearchNetPeDataset ds =
      dataset::CodeSearchNetPeDataset::Generate(bench::DefaultCorpusConfig());
  const std::vector<std::unordered_set<int64_t>> relevant =
      bench::GroupRelevance(ds);
  report.Set("corpus_size", static_cast<int64_t>(ds.size()));
  std::printf("corpus: %zu PEs across %zu semantic groups\n\n", ds.size(),
              ds.family_count());

  // Figs. 10 and 11: CodeT5 descriptions from each context, embedded by
  // UniXcoder and queried with the paraphrases.
  std::printf("== Fig. 10: description generation from two code contexts ==\n");
  const embed::CodeT5Sim codet5;
  const embed::UnixcoderSim unixcoder;
  const embed::DescriptionContext contexts[] = {
      embed::DescriptionContext::kProcessMethodOnly,
      embed::DescriptionContext::kFullClass};
  const char* slugs[] = {"process_only", "full_class"};
  const char* labels[] = {"_process() only (Laminar 1.0, 10a)",
                          "full PE class (Laminar 2.0, 10b)"};
  double f1[2] = {0.0, 0.0}, mrr[2];
  std::vector<search::PrPoint> text_to_code;
  for (int c = 0; c < 2; ++c) {
    search::PostingsIndex index(unixcoder.dims());
    for (const dataset::PeExample& ex : ds.examples()) {
      const std::string summary = codet5.Summarize(ex.pe_code, contexts[c]);
      f1[c] += TokenF1(summary, ex.description);
      index.Upsert(ex.id, unixcoder.EncodeText(summary));
    }
    f1[c] /= static_cast<double>(ds.size());
    Ranked ranked = RankAll(ds, [&](const dataset::PeExample& ex) {
                      return Ids(
                          index.TopK(unixcoder.EncodeText(ex.query), kMaxK));
                    }).first;
    // The full class's lists, ranked last, are Fig. 11's.
    text_to_code = search::PrecisionRecallCurve(ranked, relevant, kMaxK);
    for (std::vector<int64_t>& ids : ranked) {
      ids.resize(std::min<size_t>(ids.size(), 10));
    }
    mrr[c] = search::MeanReciprocalRank(ranked, relevant);
    std::printf("  %-36s token F1 %.4f, search MRR@10 %.4f\n", labels[c],
                f1[c], mrr[c]);
    report.Set(std::string("token_f1_") + slugs[c], f1[c]);
    report.Set(std::string("mrr_") + slugs[c], mrr[c]);
  }
  const char* isprime =
      "class IsPrime(IterativePE):\n"
      "    def __init__(self):\n"
      "        IterativePE.__init__(self)\n"
      "    def _process(self, num):\n"
      "        if all(num % i != 0 for i in range(2, num)):\n"
      "            return num\n";
  std::printf("  example (IsPrime):\n    10a: %s\n    10b: %s\n\n",
              codet5.Summarize(isprime, contexts[0]).c_str(),
              codet5.Summarize(isprime, contexts[1]).c_str());

  std::printf("== Fig. 11: precision-recall for text-to-code search ==\n");
  bench::PrintPrCurve(
      "text-to-code (UniXcoder embeddings of CodeT5 descriptions)",
      text_to_code);
  bench::ReportPrCurve(report, "text_to_code", text_to_code);
  std::printf("paper reference: best F1 = 0.61\n\n");

  // Figs. 12 and 13: code-to-code search with part of each query dropped.
  std::printf("== Figs. 12 and 13: Aroma vs ReACC on dropped snippets ==\n");
  const spt::AromaEngine aroma = IndexedEngine(ds, {});
  const embed::ReaccSim reacc;
  search::PostingsIndex reacc_index(reacc.dims());
  for (const dataset::PeExample& ex : ds.examples()) {
    reacc_index.Upsert(ex.id, reacc.EncodeCode(ex.pe_code));
  }
  auto curve = [&](const std::string& slug, const std::string& title,
                   auto rank) {
    auto [ranked, ms] = RankAll(ds, rank);
    std::vector<search::PrPoint> points =
        search::PrecisionRecallCurve(ranked, relevant, kMaxK);
    bench::PrintPrCurve(title.c_str(), points);
    bench::ReportPrCurve(report, slug, points);
    report.Set(slug + "_query_ms", ms);
    return search::BestF1(points).f1;
  };
  double aroma_f1[4], reacc_f1[4];
  for (int i = 0; i < 4; ++i) {
    const double drop = kDrops[i];
    const std::string percent = std::to_string(static_cast<int>(drop * 100));
    aroma_f1[i] = curve("aroma_drop_" + percent,
                        "Aroma, " + percent + "% of code dropped",
                        [&](const dataset::PeExample& ex) {
                          return Ids(aroma.Search(
                              dataset::DropCode(ex.pe_code, drop), kMaxK,
                              spt::Metric::kOverlap));
                        });
    reacc_f1[i] = curve("reacc_drop_" + percent,
                        "ReACC, " + percent + "% of code dropped",
                        [&](const dataset::PeExample& ex) {
                          const std::string query =
                              dataset::DropCode(ex.pe_code, drop);
                          return Ids(reacc_index.TopK(reacc.EncodeCode(query),
                                                      kMaxK));
                        });
  }
  std::printf("max F1 across drop levels: Aroma %.4f (paper reference: 0.63), "
              "ReACC %.4f (paper reference: 0.24)\n\n",
              *std::max_element(aroma_f1, aroma_f1 + 4),
              *std::max_element(reacc_f1, reacc_f1 + 4));

  // §VI-A ablation on half-dropped queries: Fig. 12's engine, one on the
  // simplified path and one without #VAR generalization.
  std::printf("== §VI-A ablation, 50%% of code dropped ==\n");
  spt::AromaConfig simplified_config, verbatim_config;
  simplified_config.use_full_pipeline = false;
  verbatim_config.features.generalize_variables = false;
  const spt::AromaEngine simplified = IndexedEngine(ds, simplified_config);
  const spt::AromaEngine verbatim = IndexedEngine(ds, verbatim_config);
  auto top5 = [](const spt::AromaEngine& engine, spt::Metric metric) {
    return [&engine, metric](const dataset::PeExample& ex) {
      return Ids(engine.Search(dataset::DropCode(ex.pe_code, 0.5), 5, metric));
    };
  };
  auto top1 = [](const spt::AromaEngine& engine) {
    return [&engine](const dataset::PeExample& ex) {
      std::vector<int64_t> ids;
      auto recs = engine.Recommend(dataset::DropCode(ex.pe_code, 0.5));
      if (recs.ok() && !recs->empty()) ids.push_back(recs->front().snippet_id);
      return ids;
    };
  };
  // Mean precision at k; at k = 1 that is the top-1 in-group rate.
  auto ablation = [&](const std::string& key, const char* label, size_t k,
                      auto rank) {
    auto [ranked, ms] = RankAll(ds, rank);
    const double quality =
        search::PrecisionRecallCurve(ranked, relevant, k).back().precision;
    std::printf("  %-36s %-8.4f %.3f ms/query\n", label, quality, ms);
    report.Set(key, quality);
    report.Set(key + "_query_ms", ms);
    return quality;
  };
  const double overlap = ablation("overlap_p_at_5", "precision@5, overlap",
                                  5, top5(aroma, spt::Metric::kOverlap));
  const double cosine = ablation("cosine_p_at_5", "precision@5, cosine", 5,
                                 top5(aroma, spt::Metric::kCosine));
  const double full = ablation("full_pipeline_top1",
                               "top-1, full Aroma pipeline", 1, top1(aroma));
  const double simple = ablation("simplified_top1",
                                 "top-1, simplified (cosine only)", 1,
                                 top1(simplified));
  const double no_var = ablation("verbatim_p_at_5",
                                 "precision@5, overlap, #VAR off", 5,
                                 top5(verbatim, spt::Metric::kOverlap));

  // The paper's shape claims. Aroma is not claimed above ReACC at 90%
  // dropped: here it is below (EXPERIMENTS.md, Fig. 12).
  const size_t family = ds.GroupMembers(0).size();
  std::vector<std::pair<std::string, bool>> claims = {
      {"full class beats _process() only on token F1", f1[1] > f1[0]},
      {"full class beats _process() only on MRR", mrr[1] > mrr[0]},
      {"text-to-code best F1 peaks at k = " + std::to_string(family) +
           ", the family size",
       search::BestF1(text_to_code).k == family},
      {"overlap beats cosine at precision@5", overlap > cosine},
      {"the full pipeline beats the simplified one at top-1", full > simple},
      {"#VAR on beats #VAR off at precision@5", overlap > no_var}};
  for (int i = 0; i < 4; ++i) {
    const std::string percent =
        std::to_string(static_cast<int>(kDrops[i] * 100));
    if (i < 3) {
      claims.push_back({"Aroma beats ReACC at " + percent + "% dropped",
                        aroma_f1[i] > reacc_f1[i]});
    }
    if (i > 0) {
      claims.push_back({"Aroma's best F1 falls at " + percent + "% dropped",
                        aroma_f1[i] < aroma_f1[i - 1]});
    }
  }
  std::printf("\nshape claims:\n");
  bool ok = true;
  for (const auto& [claim, holds] : claims) {
    std::printf("  %-56s %s\n", claim.c_str(), holds ? "yes" : "NO");
    ok = ok && holds;
  }
  if (!check) {
    report.Write();
    return ok ? 0 : 1;
  }

  std::ifstream in(argv[2]);
  std::stringstream text;
  text << in.rdbuf();
  Result<Value> committed = json::Parse(text.str());
  if (!in || !committed.ok()) {
    std::fprintf(stderr, "cannot read %s\n", argv[2]);
    return 1;
  }
  // path -> (committed, recomputed), null on a side that lacks the path.
  std::map<std::string, std::pair<Value, Value>> values;
  const Value doc = report.Document();
  for (const char* section : {"metrics", "rows"}) {
    Flatten(section, committed->at(section),
            [&](const std::string& path, const Value& v) {
              values[path].first = v;
            });
    Flatten(section, doc.at(section),
            [&](const std::string& path, const Value& v) {
              values[path].second = v;
            });
  }
  size_t drifted = 0;
  for (const auto& [path, pair] : values) {
    const auto& [want, got] = pair;
    if (want.is_number() && got.is_number()
            ? std::fabs(want.as_double() - got.as_double()) <= 1e-9
            : want == got) {
      continue;
    }
    std::printf("  drift: %s: committed %s, now %s\n", path.c_str(),
                want.ToJson().c_str(), got.ToJson().c_str());
    ++drifted;
  }
  std::printf("%s: %zu value(s) drifted; shape claims %s\n", argv[2], drifted,
              ok ? "hold" : "FAIL");
  return drifted == 0 && ok ? 0 : 1;
}
