// The Laminar server (paper §III): coordinates clients, registry, search and
// the execution engine. Organized like the paper's layering — this class is
// the controller tier; registry::Repository is the data-access tier;
// search::SearchService / ExecutionEngine are the service tier.
//
// The server is transport-agnostic: Handle() implements the protocol and can
// be bound as the handler of any number of HttpConnections (batch or
// streaming). Locking discipline: one std::shared_mutex guards the registry
// tier — mutations take it exclusively, while read-only endpoints (search,
// completion, recommendation, get/list, stats) take shared locks so
// concurrent searches run in parallel and never queue behind each other or
// behind registry writes. Workflow execution runs outside the lock.
//
// The endpoints, and each one's body, replica, admission and lock policy,
// are the rows of the route table (LaminarServer::Routes(), defined in
// server.cpp); each row's handler documents its request and reply fields.
// Every request is counted into laminar_server_requests_total{path=...} and
// timed into laminar_server_request_ms{path=...} (unknown paths collapse to
// path="other" so the label set stays bounded).
#pragma once

#include <memory>
#include <shared_mutex>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "common/thread_pool.hpp"
#include "embed/codet5_sim.hpp"
#include "engine/engine.hpp"
#include "engine/run_queue.hpp"
#include "net/http.hpp"
#include "registry/repository.hpp"
#include "search/search_service.hpp"
#include "server/admission.hpp"
#include "server/replication.hpp"

namespace laminar::telemetry {
class Counter;
class Histogram;
class Gauge;
}  // namespace laminar::telemetry

namespace laminar::server {

struct ServerConfig {
  engine::EngineConfig engine;
  /// Name of the implicit user owning unauthenticated registrations.
  std::string default_user = "laminar";
  /// Helper threads for the ingest pool: /registry/bulk_register prepares
  /// and bulk index rebuilds fan out across them (plus the calling thread).
  /// 0 disables the pool — everything still works, just serially.
  size_t ingest_threads = 4;
  /// When non-empty, every committed registry mutation is appended to this
  /// write-ahead log, and construction recovers snapshot_path + WAL suffix
  /// (a missing snapshot/WAL is a normal first boot, not an error).
  std::string wal_path;
  /// Snapshot consulted by startup recovery when wal_path is set.
  std::string snapshot_path;
  /// WAL durability: "none" (default — the OS flushes on its own schedule;
  /// crash-consistent but the tail may be lost on power failure), "interval"
  /// (a background thread fsyncs every wal_fsync_interval_ms without
  /// blocking appends), or "per_record" (fsync inside every append — full
  /// durability, slowest). /stats "wal" reports appendedSeq vs durableSeq.
  std::string wal_fsync = "none";
  int wal_fsync_interval_ms = 50;
  /// "host:port" of a leader to replicate from. Non-empty turns this server
  /// into a read-only follower: it bootstraps from the leader's snapshot,
  /// tails its WAL, serves every read endpoint, and answers mutations and
  /// /execute with HTTP 421 pointing at the leader. wal_path/snapshot_path
  /// are ignored on a follower (its registry is a replica, not an origin).
  std::string replica_of;
  /// Follower bounded-staleness contract: when > 0, read endpoints answer
  /// 503 unless the follower confirmed it was caught up with the leader
  /// within this many milliseconds. Must exceed the replication fetch
  /// long-poll (1 s) or an idle follower flaps stale. 0 = always serve.
  int max_replica_lag_ms = 0;
  /// Multi-tenant admission (ROADMAP item 3). `tenant_quotas` applies to
  /// every tenant without an entry in `tenant_overrides`; the zero-valued
  /// defaults mean "unlimited", so an unconfigured server admits everything
  /// exactly as before tenancy existed.
  TenantQuotas tenant_quotas;
  std::map<std::string, TenantQuotas> tenant_overrides;
  /// Concurrent /execute enactments (FairRunQueue slots). 0 = inherit
  /// engine.max_concurrent so the queue never adds a second bottleneck.
  int run_workers = 0;
  /// Global queued-run cap across all tenants; 0 = unlimited.
  size_t run_queue_depth = 0;
};

class LaminarServer {
 public:
  explicit LaminarServer(ServerConfig config = {});

  /// The protocol handler; bind into HttpConnection as the StreamHandler.
  void Handle(const net::HttpRequest& request, net::StreamResponder& out);

  /// The handler to bind: Handle() plus the reader rule. A request whose
  /// route takes the lock shared (the short registry reads: get, list,
  /// search, stats) may run on its connection's reader thread, unless a
  /// writer holds the lock when it arrives; every other route, /execute's
  /// streams included, runs on the handler pool. The connection adds its
  /// own conditions (see net::StreamHandler).
  net::StreamHandler HandlerFn();

  registry::Repository& repository() { return repo_; }
  search::SearchService& search() { return search_; }
  engine::ExecutionEngine& engine() { return engine_; }

  /// Marker prefixing the final stats chunk of an /execute stream.
  static constexpr std::string_view kEndMarker = "##END## ";

  /// How the request body is read: parsed as JSON, or left raw for the
  /// handler (Prometheus scrapes, multipart uploads).
  enum class Body { kJson, kRaw };
  /// What a follower does with the request: redirect it to the leader (421
  /// plus `leader`), serve it as a read (503 plus `maxReplicaLagMs` while
  /// staler than that bound), or always serve it.
  enum class Replica { kRedirect, kRead, kAlways };
  /// Whether the request is charged to its tenant's token bucket (429 plus
  /// `retryAfterMs` when drained) or exempt, so probes and the replication
  /// stream are never throttled.
  enum class Admission { kTenant, kExempt };
  /// The registry lock held around the handler. kNone handlers take their
  /// own short locks (two-phase ingest, snapshot capture, /execute).
  enum class Lock { kNone, kShared, kExclusive };

  /// A route handler's reply: HTTP status and body, sent as one chunk (JSON
  /// text, except /metrics, /replication/snapshot and /execute's final
  /// kEndMarker chunk).
  struct Response {
    int status = 200;
    std::string body;
  };

 private:
  struct Call;
  using Handler = Result<Response> (LaminarServer::*)(Call&);

 public:
  /// One endpoint: its path and the policies Handle() applies, in this
  /// order, before calling its handler.
  struct Route {
    std::string_view path;
    Body body;
    Replica replica;
    Admission admission;
    Lock lock;
    Handler handler;
  };
  /// The route table: the one list of the endpoints the server answers.
  static std::span<const Route> Routes();

 private:
  static const Route kRoutes[];
  /// The row for `path`, or nullptr for an unknown path.
  static const Route* FindRoute(std::string_view path);

  /// Parses, gates, admits and locks per `route`, then calls its handler.
  Result<Response> Dispatch(const Route& route, Call& call);

  /// Two-phase ingest: `prepare` runs the model inference under a
  /// shared lock inside the ingest.encode span; `commit` then runs under
  /// the exclusive lock inside ingest.commit. Concurrent writers serialize
  /// only on the cheap commits. A failed prepare is the reply.
  template <typename Prepare, typename Commit>
  Result<Response> Ingest(Prepare&& prepare, Commit&& commit);

  /// Prepare runs the expensive work — CodeT5 summarization,
  /// UniXcoder/ReACC encodes, the SPT parse and featurization; Commit
  /// inserts the row and upserts the precomputed vectors.
  struct PreparedPeReg {
    registry::PeRecord record;
    search::SearchService::PreparedPe index;
  };
  Result<PreparedPeReg> PreparePeRegistration(const Value& pe_obj,
                                              const std::string& tenant) const;
  /// Requires mu_ held exclusively. Enforces the tenant PE quota and keeps
  /// the admission controller's row counts in step with the repository.
  Result<int64_t> CommitPeRegistration(PreparedPeReg prepared);
  /// Rebuilds the admission controller's per-tenant row counts from the
  /// repository (after recovery, /registry/load, /registry/remove_all).
  /// Requires mu_ held exclusively (or constructor single-threadedness).
  void ResetTenantRowCounts();

  Value PeToJson(const registry::PeRecord& pe, bool with_code) const;
  Value WorkflowToJson(const registry::WorkflowRecord& wf,
                       bool with_code) const;
  int64_t AuthUser(const net::HttpRequest& request);
  /// The hits `tenant` may see, serialized (requires mu_ held, so the
  /// repository lookups agree with the index results).
  template <typename Hit>
  Value VisibleHits(const std::vector<Hit>& hits, const std::string& tenant,
                    search::SearchTarget target) const;
  Result<Response> UpdateDescription(Call& call, search::SearchTarget target);

  // Route handlers; the table row of each gives its path and policies.
  Result<Response> Health(Call& call);
  Result<Response> Metrics(Call& call);
  Result<Response> ReplicationStatus(Call& call);
  Result<Response> ReplicationSnapshot(Call& call);
  Result<Response> ReplicationFetch(Call& call);
  Result<Response> UploadResources(Call& call);
  Result<Response> Execute(Call& call);
  Result<Response> RegisterUser(Call& call);
  Result<Response> Login(Call& call);
  Result<Response> RegisterPe(Call& call);
  Result<Response> GetPe(Call& call);
  Result<Response> UpdatePeDescription(Call& call);
  Result<Response> RemovePe(Call& call);
  Result<Response> RegisterWorkflow(Call& call);
  Result<Response> GetWorkflow(Call& call);
  Result<Response> WorkflowPes(Call& call);
  Result<Response> WorkflowExecutions(Call& call);
  Result<Response> UpdateWorkflowDescription(Call& call);
  Result<Response> RemoveWorkflow(Call& call);
  Result<Response> ListRegistry(Call& call);
  Result<Response> RemoveAll(Call& call);
  Result<Response> SaveRegistry(Call& call);
  Result<Response> LoadRegistry(Call& call);
  Result<Response> BulkRegister(Call& call);
  Result<Response> LiteralSearch(Call& call);
  Result<Response> SemanticSearch(Call& call);
  Result<Response> CodeSearch(Call& call);
  Result<Response> CodeCompletion(Call& call);
  Result<Response> Stats(Call& call);

  // Replication plumbing (see replication.hpp for the protocol).
  /// Follower bootstrap hook: loads the leader snapshot document, rebuilds
  /// the search indexes and tenant row counts. Takes mu_ exclusively.
  Result<uint64_t> BootstrapFromSnapshot(const std::string& snapshot_doc);
  /// Follower apply hook: one fetch batch through Database::ApplyWalRecord
  /// under a single exclusive lock, maintaining search incrementally.
  Status ApplyReplicatedRecords(const std::vector<Value>& records);
  /// The /replication/status (and /stats "replication") body.
  Value ReplicationStatusJson() const;

  ServerConfig config_;
  registry::Database db_;
  registry::Repository repo_;
  search::SearchService search_;
  engine::ExecutionEngine engine_;
  /// Boundary quota/rate checks + per-tenant counters (own internal lock).
  AdmissionController admission_;
  /// Tenant-fair bounded dispatch for /execute (own internal lock).
  engine::FairRunQueue run_queue_;
  embed::CodeT5Sim codet5_;
  /// Helpers for bulk-ingest prepare fan-out (null when ingest_threads=0).
  std::unique_ptr<ThreadPool> ingest_pool_;
  /// Guards db_/repo_/search_/tokens_, held as each route's Lock says.
  std::shared_mutex mu_;
  std::unordered_map<std::string, int64_t> tokens_;
  int64_t default_user_id_ = 0;
  uint64_t next_token_ = 1;
  /// Metric handles, resolved at construction so no request looks one up
  /// under the registry's mutex: a request counter and latency histogram
  /// per route row (then one for path="other"), and per ingest phase.
  struct Timed {
    telemetry::Counter* count;
    telemetry::Histogram* ms;
  };
  std::vector<Timed> route_metrics_;
  Timed ingest_encode_{};
  Timed ingest_commit_{};
  telemetry::Gauge* bulk_build_ms_ = nullptr;
  /// Leader-side shipping ring (null unless wal_path set and not a
  /// follower). Fed by the Database WAL observer.
  std::unique_ptr<ReplicationHub> repl_hub_;
  /// Follower-side tailer (null unless replica_of set). Declared LAST so
  /// its destructor joins the replication thread before any member it
  /// touches (db_, search_, admission_, mu_) is destroyed.
  std::unique_ptr<ReplicationFollower> repl_follower_;
};

}  // namespace laminar::server
