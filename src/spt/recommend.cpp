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

}  // namespace

AromaEngine::AromaEngine(AromaConfig config) : config_(std::move(config)) {
  config_.features.with_occurrences = true;
}

Status AromaEngine::AddSnippet(int64_t id, std::string_view code) {
  Result<SptNodePtr> spt = SptFromSource(code);
  if (!spt.ok()) return spt.status();
  return AddSnippetWithFeatures(
      id, code,
      FlatFeatures::From(ExtractFeatures(*spt.value(), config_.features)));
}

Status AromaEngine::AddSnippetWithFeatures(int64_t id, std::string_view code,
                                           FlatFeatures features) {
  if (features.total == 0) {
    return Status::InvalidArgument("snippet produced no features");
  }
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

Result<std::vector<SptIndex::Hit>> AromaEngine::Search(
    std::string_view query_code, size_t k, Metric metric) const {
  Result<FeatureBag> query = Featurize(query_code);
  if (!query.ok()) return query.status();
  return index_.TopK(FlatFeatures::From(query.value()), k, metric);
}

Result<std::vector<Recommendation>> AromaEngine::Recommend(
    std::string_view query_code) const {
  Result<FeatureBag> query_result = Featurize(query_code);
  if (!query_result.ok()) return query_result.status();
  // Sorted once; every stage below reads this flat form.
  const FlatFeatures query = FlatFeatures::From(query_result.value());

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

  // Stage 3: prune each candidate against the query and rerank.
  struct Reranked {
    int64_t doc_id;
    PruneResult prune;
  };
  std::vector<Reranked> reranked;
  reranked.reserve(hits.size());
  for (const auto& hit : hits) {
    if (hit.score < config_.min_overlap_score) continue;
    const FlatFeatures* doc = index_.Get(hit.doc_id);
    if (doc == nullptr) continue;
    PruneResult prune = PruneAgainstQuery(query, *doc);
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

  // Stage 4: cluster structurally similar candidates. Only the first
  // max_recommendations clusters are returned, so no more are opened.
  std::vector<ClusterInput> inputs;
  inputs.reserve(reranked.size());
  for (const auto& r : reranked) {
    inputs.push_back(ClusterInput{r.doc_id, index_.Get(r.doc_id)});
  }
  std::vector<std::vector<size_t>> clusters = ClusterCandidates(
      inputs, config_.cluster_jaccard, config_.max_recommendations);

  // Stage 5: one recommendation per cluster, from its best-ranked member.
  std::vector<Recommendation> out;
  for (const auto& cluster : clusters) {
    const Reranked& rep = reranked[cluster.front()];
    Recommendation rec;
    rec.snippet_id = rep.doc_id;
    rec.score = rep.prune.overlap;
    rec.containment = rep.prune.containment;
    rec.cluster_size = cluster.size();
    rec.pruned_lines = rep.prune.lines;
    auto src = sources_.find(rep.doc_id);
    if (src != sources_.end()) {
      rec.recommended_code = ExtractLines(src->second, rep.prune.lines);
    }
    out.push_back(std::move(rec));
  }
  return out;
}

Result<std::vector<Completion>> AromaEngine::Complete(
    std::string_view partial_code, size_t k) const {
  Result<FeatureBag> query_result = Featurize(partial_code);
  if (!query_result.ok()) return query_result.status();
  const FlatFeatures query = FlatFeatures::From(query_result.value());

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
