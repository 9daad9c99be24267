#include "spt/recommend.hpp"

#include <algorithm>
#include <charconv>
#include <limits>

#include "common/json.hpp"
#include "common/strings.hpp"

namespace laminar::spt {
namespace {

std::string ExtractLines(const std::string& source,
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

/// The invariants Recommend's pruning relies on, which FlatFeatures::From
/// always meets: features strictly ascending by hash with counts >= 1 that
/// sum to `total`, and occurrences in ascending (line, feature) order, each
/// naming a feature in range, exactly `count` of them per feature.
Status CheckFlat(const FlatFeatures& flat) {
  uint64_t total = 0;
  for (size_t i = 0; i < flat.features.size(); ++i) {
    const FlatFeatures::Feature& f = flat.features[i];
    if (f.count == 0) {
      return Status::InvalidArgument("feature with a zero count");
    }
    if (i > 0 && flat.features[i - 1].hash >= f.hash) {
      return Status::InvalidArgument("features not strictly ascending");
    }
    total += f.count;
  }
  if (total != flat.total) {
    return Status::InvalidArgument("total is not the sum of the counts");
  }
  std::vector<uint32_t> tagged(flat.features.size(), 0);
  const FlatFeatures::Occurrence* last = nullptr;
  for (const FlatFeatures::Occurrence& occ : flat.occurrences) {
    if (occ.feature >= flat.features.size()) {
      return Status::InvalidArgument("occurrence names no feature");
    }
    if (last != nullptr && (occ.line < last->line ||
                            (occ.line == last->line &&
                             occ.feature < last->feature))) {
      return Status::InvalidArgument(
          "occurrences not in (line, feature) order");
    }
    if (tagged[occ.feature] == flat.features[occ.feature].count) {
      return Status::InvalidArgument("more occurrences than the count");
    }
    ++tagged[occ.feature];
    last = &occ;
  }
  for (size_t i = 0; i < tagged.size(); ++i) {
    if (tagged[i] != flat.features[i].count) {
      return Status::InvalidArgument("fewer occurrences than the count");
    }
  }
  return Status::Ok();
}

}  // namespace

AromaEngine::AromaEngine(AromaConfig config) : config_(std::move(config)) {
  config_.features.with_occurrences = true;
}

Status AromaEngine::AddSnippet(int64_t id, std::string_view code) {
  Result<FlatFeatures> features = FeaturizeFlat(code);
  if (!features.ok()) return features.status();
  return AddSnippetWithFeatures(id, code, std::move(features.value()));
}

Status AromaEngine::AddSnippetWithFeatures(int64_t id, std::string_view code,
                                           FlatFeatures features) {
  if (features.total == 0) {
    return Status::InvalidArgument("snippet produced no features");
  }
  if (Status valid = CheckFlat(features); !valid.ok()) return valid;
  index_.Add(id, std::move(features));
  sources_[id] = std::string(code);
  return Status::Ok();
}

bool AromaEngine::RemoveSnippet(int64_t id) {
  sources_.erase(id);
  return index_.Remove(id);
}

Result<FeatureBag> AromaEngine::Featurize(std::string_view code) const {
  Result<SptNodePtr> spt = SptFromSource(code);
  if (!spt.ok()) return spt.status();
  return ExtractFeatures(*spt.value(), config_.features);
}

Result<FlatFeatures> AromaEngine::FeaturizeFlat(std::string_view code) const {
  Result<SptNodePtr> spt = SptFromSource(code);
  if (!spt.ok()) return spt.status();
  return ExtractFlatFeatures(*spt.value(), config_.features);
}

FlatFeatures AromaEngine::FeaturizeFlat(const pycode::Node& parse_tree) const {
  return ExtractFlatFeatures(*BuildSpt(parse_tree), config_.features);
}

Result<std::vector<SptIndex::Hit>> AromaEngine::Search(
    std::string_view query_code, size_t k, Metric metric) const {
  Result<FlatFeatures> query = FeaturizeFlat(query_code);
  if (!query.ok()) return query.status();
  return index_.TopK(query.value(), k, metric);
}

Result<std::vector<Recommendation>> AromaEngine::Recommend(
    std::string_view query_code) const {
  Result<FlatFeatures> query_result = FeaturizeFlat(query_code);
  if (!query_result.ok()) return query_result.status();
  // Sorted once; every stage below reads this flat form.
  const FlatFeatures& query = query_result.value();

  if (!config_.use_full_pipeline) {
    // Laminar 2.0 simplified path: similarity search only.
    std::vector<SptIndex::Hit> hits =
        index_.TopK(query, config_.max_recommendations,
                    config_.simplified_metric);
    std::vector<Recommendation> out;
    for (const auto& hit : hits) {
      // The paper's threshold (default 6.0) is an *overlap* score even when
      // ranking is cosine; recompute it for the gate.
      const double overlap =
          static_cast<double>(OverlapCount(query, *index_.Get(hit.doc_id)));
      if (overlap < config_.min_overlap_score) continue;
      Recommendation rec;
      rec.snippet_id = hit.doc_id;
      rec.score = hit.score;
      auto src = sources_.find(hit.doc_id);
      if (src != sources_.end()) rec.recommended_code = src->second;
      out.push_back(std::move(rec));
    }
    return out;
  }

  // Stage 2: over-retrieve by overlap.
  std::vector<SptIndex::Hit> hits =
      index_.TopK(query, config_.retrieve_top, Metric::kOverlap);

  // Stage 3 reranks the candidates by the containment of their pruned
  // snippets, which is already the TopK order. Every counted occurrence of
  // a stored document carries a line (AddSnippetWithFeatures checks it),
  // and the greedy prune stops only when no line adds overlap, so it has
  // consumed min(q, d) of every shared feature: a candidate's pruned
  // overlap is its TopK score, and containment divides that by the fixed
  // |q|. (containment desc, id asc) is therefore (score desc, id asc), and
  // only the candidates that represent a returned cluster need pruning.
  //
  // Stage 4: cluster the candidates at or above the threshold, in that
  // order. Clustering reads whole documents, and only the first
  // max_recommendations clusters are returned, so no more are opened.
  std::vector<ClusterInput> inputs;
  inputs.reserve(hits.size());
  for (const auto& hit : hits) {
    if (hit.score < config_.min_overlap_score) break;  // scores descend
    inputs.push_back(ClusterInput{hit.doc_id, index_.Get(hit.doc_id)});
  }
  std::vector<std::vector<size_t>> clusters = ClusterCandidates(
      inputs, config_.cluster_jaccard, config_.max_recommendations);

  // Stage 5: one recommendation per cluster, from its best-ranked member,
  // pruned against the query.
  std::vector<Recommendation> out;
  out.reserve(clusters.size());
  for (const auto& cluster : clusters) {
    const ClusterInput& rep = inputs[cluster.front()];
    PruneResult prune = PruneAgainstQuery(query, *rep.features);
    Recommendation rec;
    rec.snippet_id = rep.doc_id;
    rec.score = prune.overlap;
    rec.containment = prune.containment;
    rec.cluster_size = cluster.size();
    auto src = sources_.find(rep.doc_id);
    if (src != sources_.end()) {
      rec.recommended_code = ExtractLines(src->second, prune.lines);
    }
    rec.pruned_lines = std::move(prune.lines);
    out.push_back(std::move(rec));
  }
  return out;
}

Result<std::vector<Completion>> AromaEngine::Complete(
    std::string_view partial_code, size_t k) const {
  Result<FlatFeatures> query_result = FeaturizeFlat(partial_code);
  if (!query_result.ok()) return query_result.status();
  const FlatFeatures& query = query_result.value();

  std::vector<SptIndex::Hit> hits =
      index_.TopK(query, std::max<size_t>(4 * k, 8), Metric::kOverlap);
  std::vector<Completion> out;
  for (const SptIndex::Hit& hit : hits) {
    if (out.size() >= k) break;
    if (hit.score < config_.min_overlap_score) continue;
    const FlatFeatures* doc = index_.Get(hit.doc_id);
    auto src = sources_.find(hit.doc_id);
    if (doc == nullptr || src == sources_.end()) continue;
    PruneResult prune = PruneAgainstQuery(query, *doc);
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

std::string FeatureBagToJson(const FeatureBag& bag) {
  return FeatureBagToJson(FlatFeatures::From(bag));
}

std::string FeatureBagToJson(const FlatFeatures& features) {
  // Written straight from the hash-sorted array: the bytes Value::ToJson
  // gives for the same object, without its per-key duplicate scan.
  std::string out;
  out.reserve(2 + features.features.size() * 28);
  out += '{';
  char digits[24];
  for (const FlatFeatures::Feature& f : features.features) {
    if (out.size() > 1) out += ',';
    out += '"';
    out.append(digits,
               std::to_chars(digits, digits + sizeof digits, f.hash).ptr);
    out += "\":";
    out.append(digits,
               std::to_chars(digits, digits + sizeof digits, f.count).ptr);
  }
  out += '}';
  return out;
}

Result<FeatureBag> FeatureBagFromJson(std::string_view json_text) {
  Result<Value> parsed = json::Parse(json_text);
  if (!parsed.ok()) return parsed.status();
  if (!parsed->is_object()) {
    return Status::ParseError("sptEmbedding must be a JSON object");
  }
  FeatureBag bag;
  for (const auto& [key, value] : parsed->as_object()) {
    uint64_t h = 0;
    auto [ptr, ec] = std::from_chars(key.data(), key.data() + key.size(), h);
    if (ec != std::errc() || ptr != key.data() + key.size()) {
      return Status::ParseError("bad feature hash key: " + key);
    }
    // Only integers in [1, UINT32_MAX]: a cast would wrap -1 or 2^32 + 1
    // and coerce true or 2.7 into valid-looking counts.
    const int64_t count = value.is_int() ? value.as_int() : 0;
    if (count < 1 || count > std::numeric_limits<uint32_t>::max()) {
      return Status::ParseError("bad feature count for " + key);
    }
    bag.counts[h] = static_cast<uint32_t>(count);
    bag.total += static_cast<size_t>(count);
  }
  return bag;
}

}  // namespace laminar::spt
