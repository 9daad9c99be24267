#include "search/search_service.hpp"

#include <algorithm>
#include <chrono>
#include <map>

#include "common/strings.hpp"
#include "pycode/lexer.hpp"
#include "telemetry/telemetry.hpp"

namespace laminar::search {
namespace {

constexpr size_t kDefaultLimit = 5;  ///< paper: top five results
constexpr size_t kQueryCacheCapacity = 256;

/// Query-kind instrumentation: laminar_search_queries_total{kind=...} and a
/// latency histogram laminar_search_query_ms{kind=...}, plus a trace span.
struct QueryMetrics {
  telemetry::Counter& queries;
  telemetry::Histogram& latency_ms;

  static QueryMetrics For(const char* kind) {
    auto& reg = telemetry::MetricsRegistry::Global();
    const std::string label = std::string("kind=\"") + kind + "\"";
    return QueryMetrics{
        reg.GetCounter("laminar_search_queries_total", label),
        reg.GetHistogram("laminar_search_query_ms", label)};
  }
};

/// laminar_embed_encodes_total{model=...} per encoder, resolved once so an
/// encode never looks its counter up under the registry's mutex.
telemetry::Counter& UnixcoderEncodes() {
  static telemetry::Counter& c = telemetry::MetricsRegistry::Global().GetCounter(
      "laminar_embed_encodes_total", "model=\"unixcoder\"");
  return c;
}

telemetry::Counter& ReaccEncodes() {
  static telemetry::Counter& c = telemetry::MetricsRegistry::Global().GetCounter(
      "laminar_embed_encodes_total", "model=\"reacc\"");
  return c;
}

}  // namespace

SearchService::SearchService(registry::Repository& repo)
    : repo_(&repo),
      pe_text_index_(unixcoder_.dims(), "peText"),
      pe_code_index_(reacc_.dims(), "peCode"),
      workflow_text_index_(unixcoder_.dims(), "workflowText"),
      workflow_code_index_(reacc_.dims(), "workflowCode"),
      query_cache_(kQueryCacheCapacity) {}

embed::SparseVector SearchService::TextEmbeddingFor(
    const std::string& stored_json, const std::string& description) const {
  if (!stored_json.empty()) {
    embed::SparseVector stored = embed::FromJson(stored_json);
    if (stored.dims != 0) return stored;
  }
  UnixcoderEncodes().Inc();
  return unixcoder_.Encode(description);
}

SearchService::PreparedPe SearchService::PreparePe(
    std::string name, std::string description,
    const std::string& stored_embedding_json, std::string code) const {
  const pycode::ParsedSnippet parsed = pycode::ParseSnippet(code);
  return PreparePe(std::move(name), std::move(description),
                   stored_embedding_json, std::move(code), parsed);
}

SearchService::PreparedPe SearchService::PreparePe(
    std::string name, std::string description,
    const std::string& stored_embedding_json, std::string code,
    const pycode::ParsedSnippet& parsed) const {
  PreparedPe prepared;
  prepared.name = std::move(name);
  prepared.description = std::move(description);
  prepared.code = std::move(code);
  prepared.text_embedding =
      TextEmbeddingFor(stored_embedding_json, prepared.description);
  ReaccEncodes().Inc();
  prepared.code_embedding = reacc_.Encode(prepared.code, parsed.tokens);
  // Snippets with no extractable features (e.g. an empty stub) are simply
  // not indexed for recommendation rather than failing the registration.
  if (parsed.tree.ok()) {
    spt::FlatFeatures features = aroma_.FeaturizeFlat(*parsed.tree.value());
    if (features.total > 0) {
      prepared.features = std::move(features);
      prepared.has_features = true;
    }
  }
  return prepared;
}

SearchService::PreparedWorkflow SearchService::PrepareWorkflow(
    std::string name, std::string description,
    const std::string& stored_embedding_json, const std::string& code) const {
  return PrepareWorkflow(std::move(name), std::move(description),
                         stored_embedding_json, code, pycode::Lex(code));
}

SearchService::PreparedWorkflow SearchService::PrepareWorkflow(
    std::string name, std::string description,
    const std::string& stored_embedding_json, const std::string& code,
    const Result<std::vector<pycode::Token>>& tokens) const {
  PreparedWorkflow prepared;
  prepared.name = std::move(name);
  prepared.description = std::move(description);
  prepared.text_embedding =
      TextEmbeddingFor(stored_embedding_json, prepared.description);
  ReaccEncodes().Inc();
  prepared.code_embedding = reacc_.Encode(code, tokens);
  return prepared;
}

void SearchService::CommitPe(int64_t pe_id, PreparedPe prepared) {
  pe_text_index_.Upsert(pe_id, prepared.text_embedding);
  pe_code_index_.Upsert(pe_id, prepared.code_embedding);
  if (prepared.has_features) {
    (void)aroma_.AddSnippetWithFeatures(pe_id, prepared.code,
                                        std::move(prepared.features));
  }
  pe_docs_[pe_id] =
      Doc{std::move(prepared.name), std::move(prepared.description)};
}

void SearchService::CommitWorkflow(int64_t workflow_id,
                                   PreparedWorkflow prepared) {
  workflow_text_index_.Upsert(workflow_id, prepared.text_embedding);
  workflow_code_index_.Upsert(workflow_id, prepared.code_embedding);
  workflow_docs_[workflow_id] =
      Doc{std::move(prepared.name), std::move(prepared.description)};
}

void SearchService::UpdatePeDescription(int64_t pe_id, std::string description,
                                        embed::SparseVector text_embedding) {
  pe_text_index_.Upsert(pe_id, text_embedding);
  auto it = pe_docs_.find(pe_id);
  if (it != pe_docs_.end()) it->second.description = std::move(description);
}

void SearchService::UpdateWorkflowDescription(
    int64_t workflow_id, std::string description,
    embed::SparseVector text_embedding) {
  workflow_text_index_.Upsert(workflow_id, text_embedding);
  auto it = workflow_docs_.find(workflow_id);
  if (it != workflow_docs_.end()) it->second.description = std::move(description);
}

Status SearchService::AddPe(int64_t pe_id) {
  Result<registry::PeRecord> pe = repo_->GetPe(pe_id);
  if (!pe.ok()) return pe.status();
  CommitPe(pe_id, PreparePe(pe->name, pe->description,
                            pe->description_embedding, pe->code));
  return Status::Ok();
}

Status SearchService::AddWorkflow(int64_t workflow_id) {
  Result<registry::WorkflowRecord> wf = repo_->GetWorkflow(workflow_id);
  if (!wf.ok()) return wf.status();
  CommitWorkflow(workflow_id, PrepareWorkflow(wf->name, wf->description,
                                              wf->description_embedding,
                                              wf->code));
  return Status::Ok();
}

void SearchService::RemovePe(int64_t pe_id) {
  pe_docs_.erase(pe_id);
  pe_text_index_.Remove(pe_id);
  pe_code_index_.Remove(pe_id);
  aroma_.RemoveSnippet(pe_id);
}

void SearchService::RemoveWorkflow(int64_t workflow_id) {
  workflow_docs_.erase(workflow_id);
  workflow_text_index_.Remove(workflow_id);
  workflow_code_index_.Remove(workflow_id);
}

void SearchService::Clear() {
  pe_docs_.clear();
  workflow_docs_.clear();
  pe_text_index_.Clear();
  pe_code_index_.Clear();
  workflow_text_index_.Clear();
  workflow_code_index_.Clear();
  query_cache_.Clear();
  // AromaEngine has no bulk clear; rebuild it.
  aroma_ = spt::AromaEngine();
}

std::vector<std::pair<std::string, PostingsIndexStats>>
SearchService::IndexStats() const {
  return {{"peText", pe_text_index_.stats()},
          {"peCode", pe_code_index_.stats()},
          {"workflowText", workflow_text_index_.stats()},
          {"workflowCode", workflow_code_index_.stats()}};
}

Status SearchService::ReindexAll(ThreadPool* pool) {
  const auto start = std::chrono::steady_clock::now();
  Clear();
  const std::vector<registry::PeRecord> pes = repo_->AllPes();
  const std::vector<registry::WorkflowRecord> wfs = repo_->AllWorkflows();
  // Prepare fans out (encodes + SPT featurization are const and
  // thread-safe); commits run serially on this thread because index
  // mutations rely on the caller's exclusive lock.
  std::vector<PreparedPe> pe_prepared(pes.size());
  ParallelFor(pool, pes.size(), [&](size_t i) {
    pe_prepared[i] = PreparePe(pes[i].name, pes[i].description,
                               pes[i].description_embedding, pes[i].code);
  });
  for (size_t i = 0; i < pes.size(); ++i) {
    CommitPe(pes[i].id, std::move(pe_prepared[i]));
  }
  std::vector<PreparedWorkflow> wf_prepared(wfs.size());
  ParallelFor(pool, wfs.size(), [&](size_t i) {
    wf_prepared[i] = PrepareWorkflow(wfs[i].name, wfs[i].description,
                                     wfs[i].description_embedding,
                                     wfs[i].code);
  });
  for (size_t i = 0; i < wfs.size(); ++i) {
    CommitWorkflow(wfs[i].id, std::move(wf_prepared[i]));
  }
  const auto elapsed = std::chrono::duration_cast<std::chrono::milliseconds>(
      std::chrono::steady_clock::now() - start);
  telemetry::MetricsRegistry::Global()
      .GetGauge("laminar_search_bulk_build_ms")
      .Set(elapsed.count());
  return Status::Ok();
}

std::vector<SearchHit> SearchService::LiteralSearch(const std::string& term,
                                                    SearchTarget target,
                                                    size_t limit) const {
  static QueryMetrics qm = QueryMetrics::For("literal");
  qm.queries.Inc();
  telemetry::ScopedSpan span("search.literal", &qm.latency_ms);
  if (limit == 0) limit = kDefaultLimit;
  const auto& docs = target == SearchTarget::kPe ? pe_docs_ : workflow_docs_;
  std::vector<SearchHit> hits;
  for (const auto& [id, doc] : docs) {
    bool name_match = strings::ContainsIgnoreCase(doc.name, term);
    bool desc_match = strings::ContainsIgnoreCase(doc.description, term);
    if (!name_match && !desc_match) continue;
    SearchHit hit;
    hit.id = id;
    hit.name = doc.name;
    hit.description = doc.description;
    hit.score = name_match ? 2.0 : 1.0;  // name matches rank first
    hits.push_back(std::move(hit));
  }
  auto better = [](const SearchHit& a, const SearchHit& b) {
    if (a.score != b.score) return a.score > b.score;
    return a.id < b.id;
  };
  // Bounded selection: O(n) partition to the winning `limit` instead of a
  // full O(n log n) sort of every match.
  if (hits.size() > limit) {
    std::nth_element(hits.begin(),
                     hits.begin() + static_cast<std::ptrdiff_t>(limit),
                     hits.end(), better);
    hits.resize(limit);
  }
  std::sort(hits.begin(), hits.end(), better);
  return hits;
}

std::vector<SearchHit> SearchService::RankTopK(
    const embed::SparseVector& query, const PostingsIndex& index,
    const std::unordered_map<int64_t, Doc>& docs, size_t limit) const {
  std::vector<SearchHit> hits;
  hits.reserve(std::min(limit, index.size()));
  for (const PostingsIndex::Hit& scored : index.TopK(query, limit)) {
    SearchHit hit;
    hit.id = scored.id;
    hit.score = scored.score;
    auto doc = docs.find(scored.id);
    if (doc != docs.end()) {
      hit.name = doc->second.name;
      hit.description = doc->second.description;
    }
    hits.push_back(std::move(hit));
  }
  return hits;
}

std::vector<SearchHit> SearchService::SemanticSearch(const std::string& query,
                                                     SearchTarget target,
                                                     size_t limit) const {
  static QueryMetrics qm = QueryMetrics::For("semantic");
  qm.queries.Inc();
  telemetry::ScopedSpan span("search.semantic", &qm.latency_ms);
  if (limit == 0) limit = kDefaultLimit;
  const embed::SparseVector q =
      query_cache_.GetOrCompute("unixcoder", query, [&] {
        UnixcoderEncodes().Inc();
        return unixcoder_.Encode(query);
      });
  return target == SearchTarget::kPe
             ? RankTopK(q, pe_text_index_, pe_docs_, limit)
             : RankTopK(q, workflow_text_index_, workflow_docs_, limit);
}

std::vector<SearchHit> SearchService::CodeSearchLlm(const std::string& code,
                                                    SearchTarget target,
                                                    size_t limit) const {
  static QueryMetrics qm = QueryMetrics::For("llm");
  qm.queries.Inc();
  telemetry::ScopedSpan span("search.llm", &qm.latency_ms);
  if (limit == 0) limit = kDefaultLimit;
  const embed::SparseVector q = query_cache_.GetOrCompute("reacc", code, [&] {
    ReaccEncodes().Inc();
    return reacc_.Encode(code);
  });
  return target == SearchTarget::kPe
             ? RankTopK(q, pe_code_index_, pe_docs_, limit)
             : RankTopK(q, workflow_code_index_, workflow_docs_, limit);
}

Result<std::vector<spt::Completion>> SearchService::CodeCompletion(
    const std::string& partial_code, size_t limit) const {
  static QueryMetrics qm = QueryMetrics::For("complete");
  qm.queries.Inc();
  telemetry::ScopedSpan span("search.complete", &qm.latency_ms);
  return aroma_.Complete(partial_code, limit);
}

Result<std::vector<RecommendationHit>> SearchService::CodeRecommendation(
    const std::string& code, SearchTarget target, size_t limit) const {
  static QueryMetrics qm = QueryMetrics::For("recommend");
  qm.queries.Inc();
  telemetry::ScopedSpan span("search.recommend", &qm.latency_ms);
  if (limit == 0) limit = kDefaultLimit;
  if (target == SearchTarget::kPe) {
    Result<std::vector<spt::Recommendation>> recs = aroma_.Recommend(code);
    if (!recs.ok()) return recs.status();
    std::vector<RecommendationHit> out;
    for (const spt::Recommendation& rec : recs.value()) {
      if (out.size() >= limit) break;
      RecommendationHit hit;
      hit.id = rec.snippet_id;
      auto doc = pe_docs_.find(rec.snippet_id);
      if (doc != pe_docs_.end()) {
        hit.name = doc->second.name;
        hit.description = doc->second.description;
      }
      hit.score = rec.score;
      hit.similar_code = rec.recommended_code;
      out.push_back(std::move(hit));
    }
    return out;
  }

  // Workflow recommendation (§VI-A): find similar PEs, then rank the
  // workflows containing them by occurrence count. Uses the raw structural
  // search (not the clustered recommendations — clustering would collapse
  // several similar PEs of one workflow into a single occurrence).
  Result<std::vector<spt::SptIndex::Hit>> pe_hits =
      aroma_.Search(code, /*k=*/4 * limit + 8, spt::Metric::kOverlap);
  if (!pe_hits.ok()) return pe_hits.status();
  std::map<int64_t, RecommendationHit> by_workflow;
  for (const spt::SptIndex::Hit& pe_hit : pe_hits.value()) {
    if (pe_hit.score < aroma_.config().min_overlap_score) continue;
    for (int64_t wf_id : repo_->WorkflowsUsingPe(pe_hit.doc_id)) {
      RecommendationHit& hit = by_workflow[wf_id];
      if (hit.id == 0) {
        hit.id = wf_id;
        auto doc = workflow_docs_.find(wf_id);
        if (doc != workflow_docs_.end()) {
          hit.name = doc->second.name;
          hit.description = doc->second.description;
        }
        hit.occurrences = 0;
      }
      ++hit.occurrences;
      hit.score = std::max(hit.score, pe_hit.score);
      if (hit.similar_code.empty()) {
        auto pe_doc = pe_docs_.find(pe_hit.doc_id);
        if (pe_doc != pe_docs_.end()) hit.similar_code = pe_doc->second.name;
      }
    }
  }
  std::vector<RecommendationHit> out;
  out.reserve(by_workflow.size());
  for (auto& [id, hit] : by_workflow) out.push_back(std::move(hit));
  auto better = [](const RecommendationHit& a, const RecommendationHit& b) {
    if (a.occurrences != b.occurrences) return a.occurrences > b.occurrences;
    if (a.score != b.score) return a.score > b.score;
    return a.id < b.id;
  };
  // Bounded top-k selection, like the other ranked paths.
  if (out.size() > limit) {
    std::nth_element(out.begin(),
                     out.begin() + static_cast<std::ptrdiff_t>(limit),
                     out.end(), better);
    out.resize(limit);
  }
  std::sort(out.begin(), out.end(), better);
  return out;
}

}  // namespace laminar::search
