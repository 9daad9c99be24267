// The registry search & recommendation service (paper §V and §VI): literal
// search, semantic (text-to-code) search over UniXcoder-style description
// embeddings, LLM code-to-code search (ReACC baseline), and SPT structural
// code recommendation (Aroma).
//
// The service keeps in-memory indexes (embedding postings + the Aroma
// feature index) synchronized with the registry via Add/Remove hooks, just
// as the paper's server precomputes and stores embeddings at registration
// time (§V-B). Embeddings are L2-normalized into PostingsIndex rows at
// registration, so a query reads only the postings of its own non-zero
// dimensions and keeps a bounded top-k heap (see postings_index.hpp).
//
// Concurrency contract: the query methods (LiteralSearch, SemanticSearch,
// CodeSearchLlm, CodeCompletion, CodeRecommendation) are safe to call
// concurrently with each other — the server runs them under a shared lock.
// Index mutations (Add*/Remove*/Clear/ReindexAll) require external
// exclusive locking, which the server's write path provides.
#pragma once

#include <cstdint>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "common/thread_pool.hpp"
#include "embed/codet5_sim.hpp"
#include "embed/reacc_sim.hpp"
#include "embed/unixcoder_sim.hpp"
#include "pycode/parser.hpp"
#include "registry/repository.hpp"
#include "search/postings_index.hpp"
#include "search/query_cache.hpp"
#include "spt/recommend.hpp"

namespace laminar::search {

/// What to search over, mirroring the CLI's [workflow|pe] argument.
enum class SearchTarget { kPe, kWorkflow };

struct SearchHit {
  int64_t id = 0;
  std::string name;
  std::string description;
  double score = 0.0;
};

struct RecommendationHit {
  int64_t id = 0;
  std::string name;
  std::string description;
  double score = 0.0;
  std::string similar_code;  ///< pruned snippet (spt) or full code (llm)
  size_t occurrences = 1;    ///< for workflow recommendations
};

/// The service runs the default encoders and Aroma engine. A limit of 0
/// means the paper's top five; workflow recommendation keeps PEs scoring at
/// least the engine's min_overlap_score (§VI-A). Query embeddings are cached
/// in a 256-entry LRU whose hits and misses surface as
/// laminar_search_query_cache_*_total.
class SearchService {
 public:
  explicit SearchService(registry::Repository& repo);

  /// Two-phase registration (ISSUE 5). Prepare* runs every expensive step —
  /// description/code encodes and the SPT parse+featurization — against
  /// const, thread-safe encoder state, so the server calls it on the
  /// request thread under only a *shared* lock: prepares overlap each other
  /// and every read, and the shared hold keeps Clear()/ReindexAll() (which
  /// replace the engines under the exclusive lock) from swapping state
  /// mid-encode.
  /// Commit* then only upserts the precomputed rows, a few map/vector writes
  /// short enough to sit in the exclusive section. The committed state is
  /// identical to what AddPe/AddWorkflow build (same encoders, same feature
  /// options), and the in-memory features keep the line occurrences that a
  /// JSON round-trip through the sptEmbedding column would lose. They are
  /// already in the flat form the Aroma index stores, built here off-lock,
  /// so CommitPe only moves them in.
  struct PreparedPe {
    std::string name;
    std::string description;
    std::string code;
    embed::SparseVector text_embedding;
    embed::SparseVector code_embedding;
    bool has_features = false;  ///< false: snippet yielded no SPT features
    spt::FlatFeatures features;
  };
  struct PreparedWorkflow {
    std::string name;
    std::string description;
    embed::SparseVector text_embedding;
    embed::SparseVector code_embedding;
  };
  /// Each prepare lexes its code once and parses it at most once: the ReACC
  /// encoder reads the tokens, the Aroma featurizer the tree. The forms
  /// taking `parsed` (or `tokens`) read the caller's
  /// pycode::ParseSnippet(code) (or pycode::Lex(code)) instead, so the
  /// server's registration shares one parse with its class-name fallback
  /// and its summary.
  PreparedPe PreparePe(std::string name, std::string description,
                       const std::string& stored_embedding_json,
                       std::string code) const;
  PreparedPe PreparePe(std::string name, std::string description,
                       const std::string& stored_embedding_json,
                       std::string code,
                       const pycode::ParsedSnippet& parsed) const;
  PreparedWorkflow PrepareWorkflow(std::string name, std::string description,
                                   const std::string& stored_embedding_json,
                                   const std::string& code) const;
  PreparedWorkflow PrepareWorkflow(
      std::string name, std::string description,
      const std::string& stored_embedding_json, const std::string& code,
      const Result<std::vector<pycode::Token>>& tokens) const;
  /// Require external exclusive locking, like every index mutation.
  void CommitPe(int64_t pe_id, PreparedPe prepared);
  void CommitWorkflow(int64_t workflow_id, PreparedWorkflow prepared);

  /// Description-only re-index: replaces the stored doc text and the text
  /// embedding (encoded off-lock by the caller) without touching the code
  /// or SPT indexes — they depend only on the unchanged code.
  void UpdatePeDescription(int64_t pe_id, std::string description,
                           embed::SparseVector text_embedding);
  void UpdateWorkflowDescription(int64_t workflow_id, std::string description,
                                 embed::SparseVector text_embedding);

  /// Index maintenance — the server calls these on registration/removal.
  /// AddPe/AddWorkflow read the record back from the repository.
  Status AddPe(int64_t pe_id);
  Status AddWorkflow(int64_t workflow_id);
  void RemovePe(int64_t pe_id);
  void RemoveWorkflow(int64_t workflow_id);
  void Clear();
  /// Rebuilds everything from the repository. With a pool, the prepare
  /// phase (encodes + SPT featurization) fans out across pool threads plus
  /// the caller via ParallelFor; commits stay on the calling thread, so the
  /// external-exclusive-locking contract is unchanged. Sets the
  /// laminar_search_bulk_build_ms gauge.
  Status ReindexAll(ThreadPool* pool = nullptr);

  /// §V-A literal search: case-insensitive term match on names and
  /// descriptions.
  std::vector<SearchHit> LiteralSearch(const std::string& term,
                                       SearchTarget target,
                                       size_t limit = 0) const;

  /// §V-B semantic text-to-code search: cosine between the encoded query
  /// and stored description embeddings.
  std::vector<SearchHit> SemanticSearch(const std::string& query,
                                        SearchTarget target,
                                        size_t limit = 0) const;

  /// Laminar 1.0 code-to-code search (--embedding_type llm): cosine between
  /// ReACC code embeddings.
  std::vector<SearchHit> CodeSearchLlm(const std::string& code,
                                       SearchTarget target,
                                       size_t limit = 0) const;

  /// Code completion: continuation lines of registered PEs whose prefix
  /// structurally matches the partial snippet.
  Result<std::vector<spt::Completion>> CodeCompletion(
      const std::string& partial_code, size_t limit = 3) const;

  /// §VI code recommendation (--embedding_type spt, the default): Aroma
  /// structural search over PE SPTs. For kWorkflow, similar PEs are mapped
  /// to the workflows containing them, ranked by occurrence count.
  Result<std::vector<RecommendationHit>> CodeRecommendation(
      const std::string& code, SearchTarget target, size_t limit = 0) const;

  const embed::UnixcoderSim& text_encoder() const { return unixcoder_; }
  const embed::ReaccSim& code_encoder() const { return reacc_; }
  const spt::AromaEngine& aroma() const { return aroma_; }

  /// Cache hit/miss totals for the query-embedding LRU.
  QueryEmbeddingCache::Stats query_cache_stats() const {
    return query_cache_.stats();
  }

  /// Per-index footprint snapshots for /stats, keyed by the index label
  /// ("peText", "peCode", "workflowText", "workflowCode").
  std::vector<std::pair<std::string, PostingsIndexStats>> IndexStats() const;

 private:
  struct Doc {
    std::string name;
    std::string description;
  };
  /// Scores `query` against `index` (postings top-k) and joins the winning
  /// ids with their metadata. Ranking order matches the legacy full-sort
  /// path: score descending, ties by ascending id.
  std::vector<SearchHit> RankTopK(
      const embed::SparseVector& query, const PostingsIndex& index,
      const std::unordered_map<int64_t, Doc>& docs, size_t limit) const;
  /// Shared AddPe/AddWorkflow embedding step: prefers the stored embedding,
  /// encodes the description at most once otherwise (counted per model).
  embed::SparseVector TextEmbeddingFor(const std::string& stored_json,
                                       const std::string& description) const;

  registry::Repository* repo_;
  embed::UnixcoderSim unixcoder_;
  embed::ReaccSim reacc_;
  spt::AromaEngine aroma_;  ///< indexes PE snippets by pe id
  std::unordered_map<int64_t, Doc> pe_docs_;
  std::unordered_map<int64_t, Doc> workflow_docs_;
  // Normalized-embedding postings, one index per (corpus, embedding kind).
  PostingsIndex pe_text_index_;
  PostingsIndex pe_code_index_;
  PostingsIndex workflow_text_index_;
  PostingsIndex workflow_code_index_;
  mutable QueryEmbeddingCache query_cache_;
};

}  // namespace laminar::search
