#include "server/server.hpp"

#include <cmath>
#include <iterator>
#include <mutex>
#include <type_traits>

#include "common/clock.hpp"
#include "common/json.hpp"
#include "common/log.hpp"
#include "dataflow/mapping.hpp"
#include "net/multipart.hpp"
#include "net/tcp.hpp"
#include "pycode/parser.hpp"
#include "simd/simd.hpp"
#include "telemetry/telemetry.hpp"

namespace laminar::server {
namespace {

int StatusToHttp(const Status& st) {
  switch (st.code()) {
    case StatusCode::kOk: return 200;
    case StatusCode::kInvalidArgument: return 400;
    case StatusCode::kParseError: return 400;
    case StatusCode::kPermissionDenied: return 401;
    case StatusCode::kNotFound: return 404;
    case StatusCode::kAlreadyExists: return 409;
    case StatusCode::kFailedPrecondition: return 428;
    case StatusCode::kResourceExhausted: return 429;
    case StatusCode::kUnavailable: return 503;
    case StatusCode::kDeadlineExceeded: return 408;
    case StatusCode::kInternal: return 500;
  }
  return 500;
}

Value ErrorBody(const Status& st) {
  Value body = Value::MakeObject();
  body["error"] = st.ToString();
  return body;
}

search::SearchTarget ParseTarget(const Value& body) {
  return body.GetString("target", "pe") == "workflow"
             ? search::SearchTarget::kWorkflow
             : search::SearchTarget::kPe;
}

/// Tenant resolution (ROADMAP item 3): an explicit `"tenant"` body field
/// wins, then the `x-laminar-tenant` header; requests naming neither run as
/// the default tenant, preserving all pre-tenancy behavior.
Result<std::string> ResolveTenant(const net::HttpRequest& request,
                                  const Value& body) {
  std::string tenant = body.GetString("tenant");
  if (tenant.empty()) tenant = request.headers.GetString("x-laminar-tenant");
  if (tenant.empty()) return std::string(kDefaultTenant);
  if (!ValidTenantName(tenant)) {
    return Status::InvalidArgument(
        "invalid tenant name '" + tenant + "' (want [A-Za-z0-9._-], 1-64 chars)");
  }
  return tenant;
}

/// Normalizes a stored row tenant: rows written before tenancy existed have
/// no tenant column and read back as "".
std::string_view RowTenant(std::string_view stored) {
  return stored.empty() ? kDefaultTenant : stored;
}

/// Visibility rule for registry rows: default-tenant rows are shared with
/// everyone (the pre-tenancy registry keeps working for all callers), the
/// default tenant sees everything (it doubles as the operator view), and
/// otherwise rows are private to their owning tenant.
bool TenantCanSee(const std::string& requester, std::string_view row_tenant) {
  if (requester == kDefaultTenant) return true;
  std::string_view owner = RowTenant(row_tenant);
  return owner == kDefaultTenant || owner == requester;
}

/// A PE's reply fields, from a record or from a summary read in place.
template <typename Pe>
Value PeJson(const Pe& pe) {
  Value v = Value::MakeObject();
  v["peId"] = pe.id;
  v["peName"] = pe.name;
  v["description"] = pe.description;
  v["peType"] = pe.type;
  return v;
}

template <typename Workflow>
Value WorkflowJson(const Workflow& wf) {
  Value v = Value::MakeObject();
  v["workflowId"] = wf.id;
  v["workflowName"] = wf.name;
  v["description"] = wf.description;
  v["entryPoint"] = wf.entry_point;
  return v;
}

/// Why `field` of `body` is neither absent nor an integer in [lo, hi]; empty
/// when it is one of those. A numeric field is checked here before any cast,
/// so a client value can never reach an undefined or wrapping conversion.
std::string IntegerFieldError(const Value& body, std::string_view field,
                              int64_t lo, int64_t hi) {
  const Value& v = body.at(field);
  if (v.is_null()) return "";  // absent -> default applies
  const double d = v.as_double();
  if (!v.is_number() || !std::isfinite(d) || d != std::floor(d)) {
    return "must be an integer";
  }
  if (d < static_cast<double>(lo) || d > static_cast<double>(hi)) {
    return "out of range [" + std::to_string(lo) + ", " + std::to_string(hi) +
           "]";
  }
  return "";
}

/// The `limit` of a search route: an integer in [0, 1000], or `fallback`
/// when absent. What 0 means is the route's (SearchService's top five, or no
/// completions).
Result<size_t> SearchLimit(const Value& body, size_t fallback) {
  if (std::string why = IntegerFieldError(body, "limit", 0, 1000);
      !why.empty()) {
    return Status::InvalidArgument("invalid 'limit': " + why);
  }
  return static_cast<size_t>(
      body.GetInt("limit", static_cast<int64_t>(fallback)));
}

/// Boundary validation of /execute run options (the bugfix sweep): every
/// numeric knob is type-, range- and finiteness-checked *before* any value
/// is cast into RunOptions, so NaN/negative deadlines or zero batch sizes
/// can never reach the mapping layer's int64 casts and divide-style loops.
/// Errors name the offending field so clients can self-correct.
Status ValidateRunOptions(const Value& body) {
  auto bad = [](std::string_view field, std::string_view why) {
    return Status::InvalidArgument("invalid run option '" + std::string(field) +
                                   "': " + std::string(why));
  };
  auto check_number = [&](std::string_view field, double lo,
                          double hi) -> Status {
    const Value& v = body.at(field);
    if (v.is_null()) return Status::Ok();  // absent -> default applies
    if (!v.is_number()) return bad(field, "must be a number");
    const double d = v.as_double();
    if (!std::isfinite(d)) return bad(field, "must be finite");
    if (d < lo || d > hi) {
      return bad(field, "out of range [" + std::to_string(lo) + ", " +
                            std::to_string(hi) + "]");
    }
    return Status::Ok();
  };
  auto check_integer = [&](std::string_view field, int64_t lo,
                           int64_t hi) -> Status {
    std::string why = IntegerFieldError(body, field, lo, hi);
    return why.empty() ? Status::Ok() : bad(field, why);
  };
  // Durations: finite and non-negative (0 = disabled). The upper bound is
  // ~285 years in ms — far past meaningful, but it keeps ms->us conversions
  // comfortably inside int64.
  constexpr double kMaxMs = 9.0e12;
  for (std::string_view f :
       {"deadline_ms", "send_batch_max_delay_ms", "retry_backoff_ms"}) {
    Status st = check_number(f, 0.0, kMaxMs);
    if (!st.ok()) return st;
  }
  // Counts: strictly positive and bounded.
  for (std::string_view f : {"processes", "initial_workers", "max_workers"}) {
    Status st = check_integer(f, 1, 4096);
    if (!st.ok()) return st;
  }
  for (std::string_view f : {"send_batch_size", "recv_batch_size"}) {
    Status st = check_integer(f, 1, 1 << 20);
    if (!st.ok()) return st;
  }
  Status st = check_integer("max_retries", 0, 1000);
  if (!st.ok()) return st;
  return check_integer("priority", -100, 100);
}

/// Class name of the first class definition in the parsed code (the
/// registered PE's canonical name when the client did not provide one).
std::string ExtractClassName(const Result<pycode::NodePtr>& parsed) {
  if (!parsed.ok()) return {};
  std::string name;
  parsed.value()->Visit([&](const pycode::Node& n) {
    if (!name.empty() || n.leaf || n.kind != "class_def") return;
    bool saw_kw = false;
    for (const auto& c : n.children) {
      if (c->leaf && c->token.IsKeyword("class")) {
        saw_kw = true;
        continue;
      }
      if (saw_kw && c->leaf && c->token.type == pycode::TokenType::kName) {
        name = c->token.text;
        return;
      }
    }
  });
  return name;
}

/// A JSON reply.
LaminarServer::Response Json(const Value& body, int status = 200) {
  return {status, body.ToJson()};
}

Status NoReplicationLog() {
  return Status::Unavailable(
      "replication requires a write-ahead log (start the leader with a "
      "wal_path)");
}

using Server = LaminarServer;
constexpr auto kJson = Server::Body::kJson;
constexpr auto kRaw = Server::Body::kRaw;
constexpr auto kRedirect = Server::Replica::kRedirect;
constexpr auto kRead = Server::Replica::kRead;
constexpr auto kAlways = Server::Replica::kAlways;
constexpr auto kTenant = Server::Admission::kTenant;
constexpr auto kExempt = Server::Admission::kExempt;
constexpr auto kNone = Server::Lock::kNone;
constexpr auto kShared = Server::Lock::kShared;
constexpr auto kExclusive = Server::Lock::kExclusive;

}  // namespace

/// One request as its handler sees it, after Dispatch() parsed, gated and
/// admitted it.
struct LaminarServer::Call {
  const net::HttpRequest& request;
  /// The parsed JSON body; an empty object for raw-body routes.
  Value body = Value::MakeObject();
  /// The resolved tenant; the default tenant on admission-exempt routes.
  std::string tenant = std::string(kDefaultTenant);
  /// /execute streams its stdout lines here ahead of its reply.
  net::StreamResponder& out;
};

// The route table. Every endpoint the server answers is one row here; its
// columns are applied by Dispatch() in order: body parse, replica gate,
// tenant admission, lock. Read rows must only read registry state (they run
// concurrently under the shared lock and are served by followers).
// clang-format off
const LaminarServer::Route LaminarServer::kRoutes[] = {
    // path                           body   replica    admission lock        handler
    {"/health",                       kJson, kAlways,   kExempt,  kNone,      &Server::Health},
    {"/metrics",                      kRaw,  kAlways,   kExempt,  kNone,      &Server::Metrics},
    {"/replication/status",           kJson, kAlways,   kExempt,  kNone,      &Server::ReplicationStatus},
    {"/replication/snapshot",         kJson, kRedirect, kExempt,  kNone,      &Server::ReplicationSnapshot},
    {"/replication/fetch",            kJson, kRedirect, kExempt,  kNone,      &Server::ReplicationFetch},
    {"/resources/upload",             kRaw,  kRedirect, kTenant,  kNone,      &Server::UploadResources},
    {"/execute",                      kJson, kRedirect, kTenant,  kNone,      &Server::Execute},
    {"/users/register",               kJson, kRedirect, kTenant,  kExclusive, &Server::RegisterUser},
    {"/users/login",                  kJson, kRedirect, kTenant,  kExclusive, &Server::Login},
    {"/pes/register",                 kJson, kRedirect, kTenant,  kNone,      &Server::RegisterPe},
    {"/pes/get",                      kJson, kRead,     kTenant,  kShared,    &Server::GetPe},
    {"/pes/describe",                 kJson, kRead,     kTenant,  kShared,    &Server::GetPe},
    {"/pes/update_description",       kJson, kRedirect, kTenant,  kNone,      &Server::UpdatePeDescription},
    {"/pes/remove",                   kJson, kRedirect, kTenant,  kExclusive, &Server::RemovePe},
    {"/workflows/register",           kJson, kRedirect, kTenant,  kNone,      &Server::RegisterWorkflow},
    {"/workflows/get",                kJson, kRead,     kTenant,  kShared,    &Server::GetWorkflow},
    {"/workflows/describe",           kJson, kRead,     kTenant,  kShared,    &Server::GetWorkflow},
    {"/workflows/pes",                kJson, kRead,     kTenant,  kShared,    &Server::WorkflowPes},
    {"/workflows/executions",         kJson, kRead,     kTenant,  kShared,    &Server::WorkflowExecutions},
    {"/workflows/update_description", kJson, kRedirect, kTenant,  kNone,      &Server::UpdateWorkflowDescription},
    {"/workflows/remove",             kJson, kRedirect, kTenant,  kExclusive, &Server::RemoveWorkflow},
    {"/registry/list",                kJson, kRead,     kTenant,  kShared,    &Server::ListRegistry},
    {"/registry/remove_all",          kJson, kRedirect, kTenant,  kExclusive, &Server::RemoveAll},
    {"/registry/save",                kJson, kRedirect, kTenant,  kNone,      &Server::SaveRegistry},
    {"/registry/load",                kJson, kRedirect, kTenant,  kExclusive, &Server::LoadRegistry},
    {"/registry/bulk_register",       kJson, kRedirect, kTenant,  kNone,      &Server::BulkRegister},
    {"/search/literal",               kJson, kRead,     kTenant,  kShared,    &Server::LiteralSearch},
    {"/search/semantic",              kJson, kRead,     kTenant,  kShared,    &Server::SemanticSearch},
    {"/search/code",                  kJson, kRead,     kTenant,  kShared,    &Server::CodeSearch},
    {"/search/complete",              kJson, kRead,     kTenant,  kShared,    &Server::CodeCompletion},
    {"/stats",                        kJson, kRead,     kTenant,  kShared,    &Server::Stats},
};
// clang-format on

std::span<const LaminarServer::Route> LaminarServer::Routes() {
  return kRoutes;
}

LaminarServer::LaminarServer(ServerConfig config)
    : config_(std::move(config)),
      repo_(db_),
      search_(repo_),
      engine_(config_.engine),
      admission_(config_.tenant_quotas, config_.tenant_overrides),
      run_queue_(config_.run_workers > 0 ? config_.run_workers
                                         : config_.engine.max_concurrent,
                 config_.run_queue_depth) {
  auto& reg = telemetry::MetricsRegistry::Global();
  auto timed = [&reg](std::string_view counter, std::string_view histogram,
                      const std::string& labels) {
    return Timed{&reg.GetCounter(counter, labels),
                 &reg.GetHistogram(histogram, labels)};
  };
  for (const Route& route : kRoutes) {
    route_metrics_.push_back(
        timed("laminar_server_requests_total", "laminar_server_request_ms",
              "path=\"" + std::string(route.path) + '"'));
  }
  route_metrics_.push_back(timed("laminar_server_requests_total",
                                 "laminar_server_request_ms",
                                 "path=\"other\""));
  // Per-phase ingest instrumentation: encode = the shared-lock
  // prepare work (summaries, embeddings, SPT featurization), commit = the
  // exclusive-lock row insert + index upsert.
  ingest_encode_ = timed("laminar_server_ingest_total",
                         "laminar_server_ingest_ms", "phase=\"encode\"");
  ingest_commit_ = timed("laminar_server_ingest_total",
                         "laminar_server_ingest_ms", "phase=\"commit\"");
  bulk_build_ms_ = &reg.GetGauge("laminar_search_bulk_build_ms");
  if (config_.ingest_threads > 0) {
    ingest_pool_ = std::make_unique<ThreadPool>(config_.ingest_threads);
  }
  Status st = registry::CreateLaminarSchema(db_);
  if (!st.ok()) {
    log::Error("server", "schema creation failed: " + st.ToString());
  }
  if (!config_.replica_of.empty() && !config_.wal_path.empty()) {
    log::Warn("server",
              "--replica-of set: ignoring wal_path/snapshot_path (a replica "
              "is not an origin; its registry is rebuilt from the leader)");
    config_.wal_path.clear();
    config_.snapshot_path.clear();
  }
  if (!config_.wal_path.empty()) {
    Status rec = db_.Recover(config_.snapshot_path, config_.wal_path,
                             config_.wal_options);
    if (!rec.ok()) {
      log::Error("server", "registry recovery failed: " + rec.ToString());
    }
    st = search_.ReindexAll(ingest_pool_.get());
    if (!st.ok()) {
      log::Error("server", "post-recovery reindex failed: " + st.ToString());
    }
    ResetTenantRowCounts();  // recovered rows count against tenant quotas
    // Leader side of replication: ship every committed WAL record into the
    // hub ring the moment it is appended (the observer runs under the WAL
    // mutex, so the ring sees records strictly in sequence order).
    repl_hub_ = std::make_unique<ReplicationHub>(
        config_.wal_path, db_.wal_status().appended_seq);
    db_.SetWalObserver([hub = repl_hub_.get()](uint64_t seq,
                                               const std::string& line) {
      hub->Publish(seq, line);
    });
  }
  Result<int64_t> uid = repo_.CreateUser(config_.default_user, "laminar");
  if (uid.ok()) {
    default_user_id_ = uid.value();
  } else {
    // Recovered registries already contain the default user.
    Result<registry::UserRecord> user =
        repo_.GetUserByName(config_.default_user);
    default_user_id_ = user.ok() ? user->id : 1;
  }
  if (!config_.replica_of.empty()) {
    Result<std::pair<std::string, uint16_t>> leader =
        net::ParseHostPort(config_.replica_of);
    if (!leader.ok()) {
      log::Error("server", "invalid --replica-of '" + config_.replica_of +
                               "': " + leader.status().ToString());
    } else {
      FollowerConfig fc;
      fc.leader_host = leader->first;
      fc.leader_port = leader->second;
      ReplicationFollower::Hooks hooks;
      hooks.bootstrap = [this](const std::string& doc) {
        return BootstrapFromSnapshot(doc);
      };
      hooks.apply = [this](const std::vector<Value>& records) {
        return ApplyReplicatedRecords(records);
      };
      repl_follower_ =
          std::make_unique<ReplicationFollower>(fc, std::move(hooks));
      repl_follower_->Start();
    }
  }
}

net::StreamHandler LaminarServer::HandlerFn() {
  return net::StreamHandler(
      [this](const net::HttpRequest& req, net::StreamResponder& out) {
        Handle(req, out);
      },
      [this](const net::HttpRequest& req) {
        const Route* route = FindRoute(req.path);
        if (route == nullptr || route->lock != Lock::kShared) return false;
        // A read that would queue behind a writer goes to the pool, so its
        // connection keeps decoding while the writer holds the lock.
        if (!mu_.try_lock_shared()) return false;
        mu_.unlock_shared();
        return true;
      });
}

int64_t LaminarServer::AuthUser(const net::HttpRequest& request) {
  std::string token = request.headers.GetString("authorization");
  if (!token.empty()) {
    auto it = tokens_.find(token);
    if (it != tokens_.end()) return it->second;
  }
  return default_user_id_;
}

Result<LaminarServer::PreparedPeReg> LaminarServer::PreparePeRegistration(
    const Value& pe_obj, const std::string& tenant) const {
  PreparedPeReg prepared;
  registry::PeRecord& pe = prepared.record;
  pe.tenant = tenant;
  pe.code = pe_obj.GetString("code");
  if (pe.code.empty()) {
    return Status::InvalidArgument("PE registration requires 'code'");
  }
  // One lex and one parse of the code feed every step below: the class-name
  // fallback, the summary and the Aroma features read the tree, the ReACC
  // encode reads the tokens.
  const pycode::ParsedSnippet parsed = pycode::ParseSnippet(pe.code);
  pe.name = pe_obj.GetString("name");
  if (pe.name.empty()) pe.name = ExtractClassName(parsed.tree);
  if (pe.name.empty()) {
    return Status::InvalidArgument("cannot determine PE name from code");
  }
  pe.description = pe_obj.GetString("description");
  if (pe.description.empty()) {
    // §IV-C: auto-generate from the full class context.
    pe.description =
        codet5_.Summarize(parsed.tree, embed::DescriptionContext::kFullClass);
  }
  pe.type = pe_obj.GetString("type", "IterativePE");
  // One encode + one SPT featurization. The description embedding is also
  // stored; the Aroma features live only in the index, which every rebuild
  // re-derives from the code, so the row leaves its sptEmbedding column out.
  prepared.index = search_.PreparePe(pe.name, pe.description,
                                     /*stored_embedding_json=*/"", pe.code,
                                     parsed);
  pe.description_embedding = embed::ToJson(prepared.index.text_embedding);
  return prepared;
}

Result<int64_t> LaminarServer::CommitPeRegistration(PreparedPeReg prepared) {
  // Authoritative quota check: this runs under the exclusive lock, so the
  // check-then-increment is atomic even when the shared-lock advisory check
  // raced another registration.
  const std::string tenant = prepared.record.tenant;
  Status quota = admission_.AdmitPes(tenant, 1);
  if (!quota.ok()) return quota;
  Result<int64_t> id = repo_.CreatePe(prepared.record);
  if (!id.ok()) return id;
  search_.CommitPe(id.value(), std::move(prepared.index));
  admission_.OnPesChanged(tenant, 1);
  return id;
}

void LaminarServer::ResetTenantRowCounts() {
  std::map<std::string, std::pair<int64_t, int64_t>> counts;
  repo_.ForEachPeSummary([&](const registry::PeSummary& pe) {
    ++counts[std::string(RowTenant(pe.tenant))].first;
  });
  repo_.ForEachWorkflowSummary([&](const registry::WorkflowSummary& wf) {
    ++counts[std::string(RowTenant(wf.tenant))].second;
  });
  admission_.ResetRowCounts(std::move(counts));
}

Result<uint64_t> LaminarServer::BootstrapFromSnapshot(
    const std::string& snapshot_doc) {
  std::unique_lock lock(mu_);
  Result<uint64_t> seq = db_.LoadFromText(snapshot_doc);
  if (!seq.ok()) return seq;
  Status st = search_.ReindexAll(ingest_pool_.get());
  if (!st.ok()) return st;
  ResetTenantRowCounts();
  // The snapshot replaced every row, including the default user's.
  Result<registry::UserRecord> user = repo_.GetUserByName(config_.default_user);
  if (user.ok()) default_user_id_ = user->id;
  return seq;
}

Status LaminarServer::ApplyReplicatedRecords(
    const std::vector<Value>& records) {
  std::unique_lock lock(mu_);
  bool full_reindex = false;
  for (const Value& record : records) {
    const std::string table = record.GetString("table");
    const std::string op = record.GetString("op");
    const int64_t id = record.GetInt("id", 0);
    // An erase drops the row before we can ask who owned it, so capture the
    // owning tenant first to keep admission row counts in step.
    std::string erased_tenant;
    if (op == "erase" && table == registry::kPeTable) {
      Result<registry::PeRecord> pe = repo_.GetPe(id);
      if (pe.ok()) erased_tenant = std::string(RowTenant(pe->tenant));
    } else if (op == "erase" && table == registry::kWorkflowTable) {
      Result<registry::WorkflowRecord> wf = repo_.GetWorkflow(id);
      if (wf.ok()) erased_tenant = std::string(RowTenant(wf->tenant));
    }
    Status st = db_.ApplyWalRecord(record);
    if (!st.ok()) return st;
    if (op == "clear") {
      // Rebuilding after the batch covers every table's clear at once.
      full_reindex = true;
      continue;
    }
    // Incremental index maintenance mirrors what the leader's registration
    // paths do, reading the freshly applied row back from the repository —
    // stored embeddings are preferred over re-encoding, so a follower's
    // vectors are bit-identical to the leader's (the parity gate's basis).
    if (table == registry::kPeTable) {
      if (op == "insert") {
        (void)search_.AddPe(id);
        const std::string tenant(
            RowTenant(record.at("data").GetString("tenant")));
        admission_.OnPesChanged(tenant, 1);
      } else if (op == "update") {
        search_.RemovePe(id);
        (void)search_.AddPe(id);
      } else if (op == "erase") {
        search_.RemovePe(id);
        if (!erased_tenant.empty()) admission_.OnPesChanged(erased_tenant, -1);
      }
    } else if (table == registry::kWorkflowTable) {
      if (op == "insert") {
        (void)search_.AddWorkflow(id);
        const std::string tenant(
            RowTenant(record.at("data").GetString("tenant")));
        admission_.OnWorkflowsChanged(tenant, 1);
      } else if (op == "update") {
        search_.RemoveWorkflow(id);
        (void)search_.AddWorkflow(id);
      } else if (op == "erase") {
        search_.RemoveWorkflow(id);
        if (!erased_tenant.empty()) {
          admission_.OnWorkflowsChanged(erased_tenant, -1);
        }
      }
    }
  }
  if (full_reindex) {
    search_.Clear();
    Status st = search_.ReindexAll(ingest_pool_.get());
    if (!st.ok()) return st;
    ResetTenantRowCounts();
  }
  return Status::Ok();
}

Value LaminarServer::ReplicationStatusJson() const {
  Value v = Value::MakeObject();
  if (repl_follower_ != nullptr) {
    v["role"] = "follower";
    v["leader"] = config_.replica_of;
    ReplicationFollower::StatusSnapshot s = repl_follower_->status();
    v["connected"] = s.connected;
    v["bootstrapped"] = s.bootstrapped;
    v["appliedSeq"] = static_cast<int64_t>(s.applied_seq);
    v["leaderSeq"] = static_cast<int64_t>(s.leader_seq);
    v["lagSeq"] = static_cast<int64_t>(
        s.leader_seq > s.applied_seq ? s.leader_seq - s.applied_seq : 0);
    v["lagMs"] = s.last_record_lag_ms;
    v["freshWithinMs"] =
        s.last_fresh_wall_ms > 0
            ? static_cast<int64_t>(NowWallMillis() - s.last_fresh_wall_ms)
            : static_cast<int64_t>(-1);
    v["recordsApplied"] = static_cast<int64_t>(s.records_applied);
    v["bytesReceived"] = static_cast<int64_t>(s.bytes_received);
    v["bootstraps"] = static_cast<int64_t>(s.bootstraps);
    v["gaps"] = static_cast<int64_t>(s.gaps);
    v["maxReplicaLagMs"] = config_.max_replica_lag_ms;
  } else if (repl_hub_ != nullptr) {
    v["role"] = "leader";
    v["headSeq"] = static_cast<int64_t>(repl_hub_->head_seq());
    v["fetches"] = static_cast<int64_t>(repl_hub_->fetches());
    v["recordsShipped"] = static_cast<int64_t>(repl_hub_->records_shipped());
  } else {
    v["role"] = "none";
  }
  return v;
}

const LaminarServer::Route* LaminarServer::FindRoute(std::string_view path) {
  for (const Route& route : kRoutes) {
    if (route.path == path) return &route;
  }
  return nullptr;
}

void LaminarServer::Handle(const net::HttpRequest& request,
                           net::StreamResponder& out) {
  const Route* route = FindRoute(request.path);
  // Unknown paths share the path="other" series (the label set stays
  // bounded) and get their 404 before any parse, admission or lock.
  const Timed& metrics =
      route_metrics_[route != nullptr ? static_cast<size_t>(route - kRoutes)
                                      : std::size(kRoutes)];
  metrics.count->Inc();
  telemetry::ScopedSpan span("server.request", metrics.ms);
  Call call{.request = request, .out = out};
  Result<Response> response =
      route != nullptr
          ? Dispatch(*route, call)
          : Status::NotFound("unknown endpoint '" + request.path + "'");
  if (!response.ok()) {
    response = Json(ErrorBody(response.status()),
                    StatusToHttp(response.status()));
  }
  out.Reply(response->body, response->status);
}

Result<LaminarServer::Response> LaminarServer::Dispatch(const Route& route,
                                                        Call& call) {
  if (route.body == Body::kJson && !call.request.body.empty()) {
    Result<Value> parsed = json::Parse(call.request.body);
    if (!parsed.ok()) return parsed.status();
    call.body = std::move(parsed.value());
  }

  // A follower serves reads only. Everything else gets 421 + the leader's
  // address (the client maps it to a retry against the leader; chained
  // replication is not supported either, as a follower has no WAL of its
  // own to ship). Under a bounded-staleness contract, reads get 503 until
  // the follower has confirmed it is caught up within the window.
  if (repl_follower_ != nullptr && route.replica == Replica::kRedirect) {
    Value err = ErrorBody(Status::FailedPrecondition(
        "replica is read-only; send this request to the leader"));
    err["leader"] = config_.replica_of;
    return Json(err, 421);
  }
  if (repl_follower_ != nullptr && route.replica == Replica::kRead &&
      config_.max_replica_lag_ms > 0 &&
      !repl_follower_->IsFresh(config_.max_replica_lag_ms)) {
    ReplicationFollower::StatusSnapshot s = repl_follower_->status();
    Value err = ErrorBody(
        Status::Unavailable("replica staleness exceeds maxReplicaLagMs"));
    err["maxReplicaLagMs"] = config_.max_replica_lag_ms;
    err["appliedSeq"] = static_cast<int64_t>(s.applied_seq);
    err["leaderSeq"] = static_cast<int64_t>(s.leader_seq);
    return Json(err, 503);
  }

  // The token bucket refuses with 429 + retryAfterMs before any lock is
  // taken, so a flooding tenant burns its own budget, not server threads.
  if (route.admission == Admission::kTenant) {
    Result<std::string> tenant = ResolveTenant(call.request, call.body);
    if (!tenant.ok()) return tenant.status();
    call.tenant = std::move(tenant.value());
    double retry_after_ms = 0.0;
    if (Status admit = admission_.AdmitRequest(call.tenant, &retry_after_ms);
        !admit.ok()) {
      Value err = ErrorBody(admit);
      err["retryAfterMs"] = retry_after_ms;
      return Json(err, 429);
    }
  }

  switch (route.lock) {
    case Lock::kShared: {
      std::shared_lock lock(mu_);
      return (this->*route.handler)(call);
    }
    case Lock::kExclusive: {
      std::scoped_lock lock(mu_);
      return (this->*route.handler)(call);
    }
    case Lock::kNone:
      break;
  }
  return (this->*route.handler)(call);
}

template <typename Prepare, typename Commit>
Result<LaminarServer::Response> LaminarServer::Ingest(Prepare&& prepare,
                                                      Commit&& commit) {
  {
    telemetry::ScopedSpan span("ingest.encode", ingest_encode_.ms);
    ingest_encode_.count->Inc();
    // The encoders are const, but /registry/load and /registry/remove_all
    // replace them via search_.Clear() under the exclusive lock; the shared
    // hold keeps that swap out of the prepare.
    std::shared_lock lock(mu_);
    if (Status st = prepare(); !st.ok()) return st;
  }
  telemetry::ScopedSpan span("ingest.commit", ingest_commit_.ms);
  ingest_commit_.count->Inc();
  std::scoped_lock lock(mu_);
  return commit();
}

template <typename Hit>
Value LaminarServer::VisibleHits(const std::vector<Hit>& hits,
                                 const std::string& tenant,
                                 search::SearchTarget target) const {
  auto visible = [&](int64_t id) {
    if (tenant == kDefaultTenant) return true;
    if (target == search::SearchTarget::kWorkflow) {
      Result<registry::WorkflowRecord> wf = repo_.GetWorkflow(id);
      return wf.ok() && TenantCanSee(tenant, wf->tenant);
    }
    Result<registry::PeRecord> pe = repo_.GetPe(id);
    return pe.ok() && TenantCanSee(tenant, pe->tenant);
  };
  Value arr = Value::MakeArray();
  for (const Hit& hit : hits) {
    if (!visible(hit.id)) continue;
    Value h = Value::MakeObject();
    h["id"] = hit.id;
    h["name"] = hit.name;
    h["description"] = hit.description;
    h["score"] = hit.score;
    if constexpr (std::is_same_v<Hit, search::RecommendationHit>) {
      h["similarCode"] = hit.similar_code;
      h["occurrences"] = static_cast<int64_t>(hit.occurrences);
    }
    arr.push_back(std::move(h));
  }
  Value resp = Value::MakeObject();
  resp["hits"] = std::move(arr);
  return resp;
}

// ── Route handlers ────────────────────────────────────────────────────────

/// Liveness probe: admission-exempt, so monitors keep working when a tenant
/// floods the server. {} -> {status:"ok"}
Result<LaminarServer::Response> LaminarServer::Health(Call&) {
  Value resp = Value::MakeObject();
  resp["status"] = "ok";
  return Json(resp);
}

/// Prometheus text exposition (GET; text/plain, not JSON).
Result<LaminarServer::Response> LaminarServer::Metrics(Call&) {
  return Response{200, telemetry::MetricsRegistry::Global().RenderPrometheus()};
}

/// {} -> role, and the follower's lag or the leader's shipping counters.
Result<LaminarServer::Response> LaminarServer::ReplicationStatus(Call&) {
  return Json(ReplicationStatusJson());
}

/// {} -> the raw snapshot document: the exact bytes WriteSnapshot would
/// persist, so followers reuse Database::LoadFromText unchanged. Captured
/// under a shared lock (cheap copy-on-read) and serialized off-lock.
Result<LaminarServer::Response> LaminarServer::ReplicationSnapshot(Call&) {
  if (repl_hub_ == nullptr) return NoReplicationLog();
  registry::Database::Snapshot snapshot;
  {
    std::shared_lock lock(mu_);
    snapshot = db_.CaptureSnapshot();
  }
  return Response{200, db_.SerializeSnapshot(snapshot)};
}

/// {fromSeq,maxRecords?,waitMs?} -> {lines,headSeq,needSnapshot}
Result<LaminarServer::Response> LaminarServer::ReplicationFetch(Call& c) {
  if (repl_hub_ == nullptr) return NoReplicationLog();
  const uint64_t from_seq =
      static_cast<uint64_t>(c.body.GetInt("fromSeq", 0));
  const size_t max_records =
      static_cast<size_t>(c.body.GetInt("maxRecords", 512));
  const int wait_ms = static_cast<int>(c.body.GetInt("waitMs", 0));
  ReplicationHub::FetchResult fetched =
      repl_hub_->Fetch(from_seq, max_records, wait_ms);
  Value resp = Value::MakeObject();
  Value lines = Value::MakeArray();
  for (std::string& line : fetched.lines) {
    lines.push_back(Value(std::move(line)));
  }
  resp["lines"] = std::move(lines);
  resp["headSeq"] = static_cast<int64_t>(fetched.head_seq);
  resp["needSnapshot"] = fetched.need_snapshot;
  return Json(resp);
}

/// Multipart body -> {stored}. The tenant comes from the header alone:
/// there is no JSON body to carry the field.
Result<LaminarServer::Response> LaminarServer::UploadResources(Call& c) {
  Result<std::vector<net::FilePart>> parts =
      net::DecodeMultipart(c.request.body);
  if (!parts.ok()) return parts.status();
  Value resp = Value::MakeObject();
  int64_t stored = 0;
  for (net::FilePart& part : parts.value()) {
    engine_.PutResource(part.name, std::move(part.content));
    ++stored;
  }
  resp["stored"] = stored;
  return Json(resp);
}

/// {workflowId|spec,mapping,input,processes,resources,verbose,...}
///   -> streamed stdout lines, then a "##END## {stats}" chunk whose "totals"
///      object is read from the telemetry registry (428 + {missing:[...]}
///      when resources must be uploaded first).
Result<LaminarServer::Response> LaminarServer::Execute(Call& c) {
  const Value& body = c.body;
  // Parse-boundary validation: reject malformed run options with
  // 400 + the field name before anything is cast into RunOptions.
  if (Status valid = ValidateRunOptions(body); !valid.ok()) return valid;
  engine::ExecuteRequest req;
  int64_t user_id = 0;
  int64_t workflow_id = body.GetInt("workflowId", 0);
  {
    std::shared_lock lock(mu_);  // only reads the caller and the workflow
    user_id = AuthUser(c.request);
    if (workflow_id != 0) {
      Result<registry::WorkflowRecord> wf = repo_.GetWorkflow(workflow_id);
      if (!wf.ok()) return Json(ErrorBody(wf.status()), 404);
      Result<Value> spec = json::Parse(wf->entry_point);
      if (!spec.ok()) {
        return Status::Internal("workflow has no executable spec");
      }
      req.workflow_spec = std::move(spec.value());
      req.workflow_code = wf->code;
    } else if (body.contains("spec")) {
      req.workflow_spec = body.at("spec");
    } else {
      return Status::InvalidArgument(
          "execute requires 'workflowId' or 'spec'");
    }
  }
  req.mapping = body.GetString("mapping", "simple");
  if (body.contains("input")) req.run_options.input = body.at("input");
  // The process count and the dynamic-mapping pool and data-plane knobs
  // default to the RunOptions defaults, so server and library cannot drift
  // apart.
  const dataflow::RunOptions defaults;
  req.run_options.num_processes =
      static_cast<int>(body.GetInt("processes", defaults.num_processes));
  req.run_options.verbose = body.GetBool("verbose", false);
  req.run_options.max_workers =
      static_cast<int>(body.GetInt("max_workers", defaults.max_workers));
  req.run_options.initial_workers = static_cast<int>(
      body.GetInt("initial_workers", defaults.initial_workers));
  req.run_options.send_batch_size = static_cast<int>(
      body.GetInt("send_batch_size", defaults.send_batch_size));
  req.run_options.recv_batch_size = static_cast<int>(
      body.GetInt("recv_batch_size", defaults.recv_batch_size));
  req.run_options.send_batch_max_delay_ms = body.GetDouble(
      "send_batch_max_delay_ms", defaults.send_batch_max_delay_ms);
  req.run_options.deadline_ms = body.GetDouble("deadline_ms", 0.0);
  req.run_options.max_retries =
      static_cast<int>(body.GetInt("max_retries", 0));
  req.run_options.retry_backoff_ms = body.GetDouble("retry_backoff_ms", 0.0);
  for (const Value& r : body.at("resources").as_array()) {
    engine::ResourceRef ref;
    ref.name = r.GetString("name");
    ref.content_hash = static_cast<uint64_t>(r.GetInt("hash"));
    req.resources.push_back(std::move(ref));
  }

  // §IV-F: answer with the missing-resource list before anything runs.
  std::vector<engine::ResourceRef> missing =
      engine_.MissingResources(req.resources);
  if (!missing.empty()) {
    Value resp = Value::MakeObject();
    Value arr = Value::MakeArray();
    for (const engine::ResourceRef& m : missing) {
      Value e = Value::MakeObject();
      e["name"] = m.name;
      e["hash"] = static_cast<int64_t>(m.content_hash);
      arr.push_back(std::move(e));
    }
    resp["missing"] = std::move(arr);
    return Json(resp, 428);
  }

  // Tenant-fair bounded dispatch: acquire a run slot before touching the
  // engine. Rejections (queue depth / concurrency caps) come back as 429
  // with a retryAfterMs hint; a deadline that expires while queued is 408.
  const TenantQuotas& quotas = admission_.QuotasFor(c.tenant);
  engine::FairRunQueue::AcquireOptions acquire;
  acquire.weight = quotas.weight;
  acquire.max_concurrent = quotas.max_concurrent_runs;
  acquire.max_queued = quotas.max_queued_runs;
  acquire.priority = static_cast<int>(body.GetInt("priority", 0));
  acquire.deadline_us =
      dataflow::DeadlineMicrosFromNow(req.run_options.deadline_ms);
  double retry_after_ms = 0.0;
  Result<engine::FairRunQueue::Ticket> ticket =
      run_queue_.Acquire(c.tenant, acquire, &retry_after_ms);
  if (!ticket.ok()) {
    Value err = ErrorBody(ticket.status());
    if (ticket.status().code() == StatusCode::kResourceExhausted) {
      err["retryAfterMs"] = retry_after_ms;
    }
    return Json(err, StatusToHttp(ticket.status()));
  }
  // Non-default tenants get their broker run keys under t:<tenant>:wf:N:*,
  // so DelPrefix cleanup and any future per-tenant introspection can never
  // cross namespaces. The default tenant keeps the legacy wf:N:* keys.
  if (c.tenant != kDefaultTenant) {
    req.run_options.run_scope = "t:" + c.tenant + ":";
  }

  int64_t execution_id = 0;
  if (workflow_id != 0) {
    std::scoped_lock lock(mu_);
    Result<int64_t> eid =
        repo_.CreateExecution(workflow_id, user_id, req.mapping);
    if (eid.ok()) execution_id = eid.value();
  }

  // §IV-E: stream stdout lines as response chunks the moment they appear.
  engine::ExecuteStats stats;
  Result<dataflow::RunResult> result = engine_.Execute(
      req,
      [&c](const std::string& line) { c.out.SendChunk(line + "\n"); },
      &stats);
  admission_.RecordRunOutcome(c.tenant, result.ok());
  ticket->Release();  // free the run slot before the (possibly slow) reply

  Value end = Value::MakeObject();
  // Process-wide totals straight from the telemetry registry — the same
  // numbers /stats serves, so the stream and the endpoint cannot diverge.
  end["totals"] = engine::ExecutionTotalsJson();
  // Fault-containment summary: present on success and failure alike, so a
  // partial failure reaches the client as structured data (counts + sample
  // errors) rather than a dropped connection.
  end["failedTuples"] = static_cast<int64_t>(stats.failed_tuples);
  end["retries"] = static_cast<int64_t>(stats.retries);
  end["dlqDepth"] = static_cast<int64_t>(stats.dlq_depth);
  Value samples = Value::MakeArray();
  for (const std::string& e : stats.error_samples) samples.push_back(e);
  end["errorSamples"] = std::move(samples);
  if (!result.ok()) {
    end["error"] = result.status().ToString();
    end["tuples"] = static_cast<int64_t>(stats.tuples);
    end["runMs"] = stats.run_ms;
    if (execution_id != 0) {
      std::scoped_lock lock(mu_);
      (void)repo_.FinishExecution(execution_id, "failed",
                                  result.status().ToString(), 0);
    }
    return Response{StatusToHttp(result.status()),
                    std::string(kEndMarker) + end.ToJson()};
  }
  end["tuples"] = static_cast<int64_t>(stats.tuples);
  end["lines"] = static_cast<int64_t>(stats.lines);
  end["coldStart"] = stats.cold_start;
  end["runMs"] = stats.run_ms;
  end["peakWorkers"] = stats.peak_workers;
  end["executionId"] = execution_id;
  if (execution_id != 0) {
    std::string output;
    for (const std::string& line : result->output_lines) {
      output += line;
      output += '\n';
    }
    std::scoped_lock lock(mu_);
    (void)repo_.FinishExecution(
        execution_id, "succeeded", output,
        static_cast<int64_t>(result->output_lines.size()));
  }
  return Response{200, std::string(kEndMarker) + end.ToJson()};
}

/// {userName,password} -> {userId}
Result<LaminarServer::Response> LaminarServer::RegisterUser(Call& c) {
  Result<int64_t> id = repo_.CreateUser(c.body.GetString("userName"),
                                        c.body.GetString("password"));
  if (!id.ok()) return id.status();
  Value resp = Value::MakeObject();
  resp["userId"] = id.value();
  return Json(resp);
}

/// {userName,password} -> {token,userId}. A mutation: it mints a token.
Result<LaminarServer::Response> LaminarServer::Login(Call& c) {
  Result<registry::UserRecord> user =
      repo_.GetUserByName(c.body.GetString("userName"));
  if (!user.ok() || user->password != c.body.GetString("password")) {
    return Status::PermissionDenied("bad username or password");
  }
  std::string token = "tok-" + std::to_string(next_token_++);
  tokens_[token] = user->id;
  Value resp = Value::MakeObject();
  resp["token"] = token;
  resp["userId"] = user->id;
  return Json(resp);
}

/// {name?,code,description?,type?} -> {peId,peName,description,peType}
Result<LaminarServer::Response> LaminarServer::RegisterPe(Call& c) {
  // Advisory quota check before the expensive encode; the commit re-checks
  // authoritatively under the exclusive lock.
  if (Status quota = admission_.AdmitPes(c.tenant, 1); !quota.ok()) {
    return quota;
  }
  PreparedPeReg prepared;
  return Ingest(
      [&]() -> Status {
        Result<PreparedPeReg> r = PreparePeRegistration(c.body, c.tenant);
        if (!r.ok()) return r.status();
        prepared = std::move(r.value());
        return Status::Ok();
      },
      [&]() -> Result<Response> {
        // Reply fields are taken before the commit consumes the record.
        Value resp = PeJson(prepared.record);
        Result<int64_t> id = CommitPeRegistration(std::move(prepared));
        if (!id.ok()) return id.status();
        resp["peId"] = id.value();
        return Json(resp);
      });
}

/// {id|name} -> PE record with code (/pes/get and /pes/describe).
Result<LaminarServer::Response> LaminarServer::GetPe(Call& c) {
  Result<registry::PeRecord> pe =
      c.body.contains("id") ? repo_.GetPe(c.body.GetInt("id"))
                            : repo_.GetPeByName(c.body.GetString("name"));
  if (!pe.ok() || !TenantCanSee(c.tenant, pe->tenant)) {
    return Json(ErrorBody(pe.ok() ? Status::NotFound("no visible PE")
                                  : pe.status()),
                404);
  }
  Value resp = PeJson(pe.value());
  resp["code"] = pe->code;
  return Json(resp);
}

/// {id,description} -> {}
Result<LaminarServer::Response> LaminarServer::UpdatePeDescription(Call& c) {
  return UpdateDescription(c, search::SearchTarget::kPe);
}

/// {id} -> {}
Result<LaminarServer::Response> LaminarServer::RemovePe(Call& c) {
  int64_t id = c.body.GetInt("id");
  // Look up the record first: cross-tenant removals 404 like any other
  // invisible row, and a successful removal must decrement the *owning*
  // tenant's row count, not the requester's.
  Result<registry::PeRecord> pe = repo_.GetPe(id);
  if (!pe.ok() || !TenantCanSee(c.tenant, pe->tenant)) {
    return Json(
        ErrorBody(pe.ok() ? Status::NotFound("no PE with id " +
                                             std::to_string(id))
                          : pe.status()),
        404);
  }
  if (Status st = repo_.RemovePe(id); !st.ok()) return st;
  search_.RemovePe(id);
  admission_.OnPesChanged(std::string(RowTenant(pe->tenant)), -1);
  return Json(Value::MakeObject());
}

/// {name,code?,spec,description?,pes:[...]} -> {workflowId,peIds}
Result<LaminarServer::Response> LaminarServer::RegisterWorkflow(Call& c) {
  const Value& body = c.body;
  // Advisory quota checks before any model inference runs; the commit
  // re-checks both authoritatively.
  if (Status quota = admission_.AdmitWorkflows(c.tenant, 1); !quota.ok()) {
    return quota;
  }
  if (Status quota = admission_.AdmitPes(
          c.tenant, static_cast<int64_t>(body.at("pes").size()));
      !quota.ok()) {
    return quota;
  }
  registry::WorkflowRecord wf;
  wf.tenant = c.tenant;
  wf.name = body.GetString("name");
  wf.code = body.GetString("code");
  wf.entry_point = body.at("spec").is_object() ? body.at("spec").ToJson()
                                               : body.GetString("spec");
  if (wf.name.empty()) {
    return Status::InvalidArgument("workflow requires 'name'");
  }
  std::vector<PreparedPeReg> member_pes;
  search::SearchService::PreparedWorkflow wf_index;
  return Ingest(
      [&]() -> Status {
        wf.user_id = AuthUser(c.request);
        // Prepare every member PE, synthesize the workflow description from
        // the *prepared* PE descriptions (identical to what the commit will
        // store), then encode/featurize the workflow itself.
        std::vector<std::string> pe_descriptions;
        for (const Value& pe_obj : body.at("pes").as_array()) {
          Result<PreparedPeReg> prepared =
              PreparePeRegistration(pe_obj, c.tenant);
          if (!prepared.ok()) return prepared.status();
          pe_descriptions.push_back(prepared->record.description);
          member_pes.push_back(std::move(prepared.value()));
        }
        wf.description = body.GetString("description");
        if (wf.description.empty()) {
          // §IV-C: workflow descriptions synthesized from their PEs.
          wf.description = codet5_.SummarizeWorkflow(wf.name, pe_descriptions);
        }
        // Workflows are not Aroma-indexed, so their code is only lexed, for
        // the ReACC encode.
        wf_index = search_.PrepareWorkflow(wf.name, wf.description,
                                           /*stored_embedding_json=*/"",
                                           wf.code);
        wf.description_embedding = embed::ToJson(wf_index.text_embedding);
        return Status::Ok();
      },
      [&]() -> Result<Response> {
        // One exclusive section commits the PEs, the workflow row, the
        // membership links and the precomputed workflow vectors.
        Value ids = Value::MakeArray();
        std::vector<int64_t> pe_ids;
        for (PreparedPeReg& prepared : member_pes) {
          Result<int64_t> pe_id = CommitPeRegistration(std::move(prepared));
          if (!pe_id.ok()) return pe_id.status();
          pe_ids.push_back(pe_id.value());
          ids.push_back(pe_id.value());
        }
        if (Status quota = admission_.AdmitWorkflows(c.tenant, 1);
            !quota.ok()) {
          return quota;
        }
        Result<int64_t> wf_id = repo_.CreateWorkflow(wf);
        if (!wf_id.ok()) return wf_id.status();
        admission_.OnWorkflowsChanged(c.tenant, 1);
        for (int64_t pe_id : pe_ids) {
          (void)repo_.LinkPe(wf_id.value(), pe_id);  // both rows just created
        }
        search_.CommitWorkflow(wf_id.value(), std::move(wf_index));
        Value resp = Value::MakeObject();
        resp["workflowId"] = wf_id.value();
        resp["peIds"] = std::move(ids);
        return Json(resp);
      });
}

/// {id|name} -> workflow record with code (/workflows/get and /describe).
Result<LaminarServer::Response> LaminarServer::GetWorkflow(Call& c) {
  Result<registry::WorkflowRecord> wf =
      c.body.contains("id")
          ? repo_.GetWorkflow(c.body.GetInt("id"))
          : repo_.GetWorkflowByName(c.body.GetString("name"));
  if (!wf.ok() || !TenantCanSee(c.tenant, wf->tenant)) {
    return Json(ErrorBody(wf.ok() ? Status::NotFound("no visible workflow")
                                  : wf.status()),
                404);
  }
  Value resp = WorkflowJson(wf.value());
  resp["code"] = wf->code;
  return Json(resp);
}

/// {id} -> {pes:[...]}
Result<LaminarServer::Response> LaminarServer::WorkflowPes(Call& c) {
  Value resp = Value::MakeObject();
  Value arr = Value::MakeArray();
  for (const registry::PeRecord& pe : repo_.PesOfWorkflow(c.body.GetInt("id"))) {
    arr.push_back(PeJson(pe));
  }
  resp["pes"] = std::move(arr);
  return Json(resp);
}

/// {id} -> {executions:[{executionId,mapping,status,startedAtMs,...}]}
Result<LaminarServer::Response> LaminarServer::WorkflowExecutions(Call& c) {
  Value resp = Value::MakeObject();
  Value arr = Value::MakeArray();
  for (const registry::ExecutionRecord& e :
       repo_.ExecutionsOfWorkflow(c.body.GetInt("id"))) {
    Value x = Value::MakeObject();
    x["executionId"] = e.id;
    x["mapping"] = e.mapping;
    x["status"] = e.status;
    x["startedAtMs"] = e.started_at_ms;
    x["finishedAtMs"] = e.finished_at_ms;
    arr.push_back(std::move(x));
  }
  resp["executions"] = std::move(arr);
  return Json(resp);
}

/// {id,description} -> {}
Result<LaminarServer::Response> LaminarServer::UpdateWorkflowDescription(
    Call& c) {
  return UpdateDescription(c, search::SearchTarget::kWorkflow);
}

Result<LaminarServer::Response> LaminarServer::UpdateDescription(
    Call& c, search::SearchTarget target) {
  const int64_t id = c.body.GetInt("id");
  std::string description = c.body.GetString("description");
  embed::SparseVector embedding;
  Value fields = Value::MakeObject();
  // The code and SPT indexes depend only on the unchanged code, so the
  // commit is a row update plus one text upsert — no removal/re-add.
  return Ingest(
      [&] {
        embedding = search_.text_encoder().Encode(description);
        fields["description"] = description;
        fields["descriptionEmbedding"] = embed::ToJson(embedding);
        return Status::Ok();
      },
      [&]() -> Result<Response> {
        if (target == search::SearchTarget::kPe) {
          if (Status st = repo_.UpdatePe(id, fields); !st.ok()) return st;
          search_.UpdatePeDescription(id, std::move(description),
                                      std::move(embedding));
        } else {
          if (Status st = repo_.UpdateWorkflow(id, fields); !st.ok()) {
            return st;
          }
          search_.UpdateWorkflowDescription(id, std::move(description),
                                            std::move(embedding));
        }
        return Json(Value::MakeObject());
      });
}

/// {id} -> {}
Result<LaminarServer::Response> LaminarServer::RemoveWorkflow(Call& c) {
  int64_t id = c.body.GetInt("id");
  Result<registry::WorkflowRecord> wf = repo_.GetWorkflow(id);
  if (!wf.ok() || !TenantCanSee(c.tenant, wf->tenant)) {
    return Json(
        ErrorBody(wf.ok() ? Status::NotFound("no workflow with id " +
                                             std::to_string(id))
                          : wf.status()),
        404);
  }
  if (Status st = repo_.RemoveWorkflow(id); !st.ok()) return st;
  search_.RemoveWorkflow(id);
  admission_.OnWorkflowsChanged(std::string(RowTenant(wf->tenant)), -1);
  return Json(Value::MakeObject());
}

/// {} -> {pes,workflows}, the rows the tenant may see.
Result<LaminarServer::Response> LaminarServer::ListRegistry(Call& c) {
  Value resp = Value::MakeObject();
  Value pes = Value::MakeArray();
  repo_.ForEachPeSummary([&](const registry::PeSummary& pe) {
    if (TenantCanSee(c.tenant, pe.tenant)) pes.push_back(PeJson(pe));
  });
  Value wfs = Value::MakeArray();
  repo_.ForEachWorkflowSummary([&](const registry::WorkflowSummary& wf) {
    if (TenantCanSee(c.tenant, wf.tenant)) wfs.push_back(WorkflowJson(wf));
  });
  resp["pes"] = std::move(pes);
  resp["workflows"] = std::move(wfs);
  return Json(resp);
}

/// {} -> {}
Result<LaminarServer::Response> LaminarServer::RemoveAll(Call&) {
  (void)repo_.RemoveAll();
  search_.Clear();
  ResetTenantRowCounts();  // everything gone -> all row quotas reset
  return Json(Value::MakeObject());
}

/// {path} -> {}
Result<LaminarServer::Response> LaminarServer::SaveRegistry(Call& c) {
  std::string file = c.body.GetString("path");
  if (file.empty()) return Status::InvalidArgument("save requires 'path'");
  // Capture under a shared lock (row copies, or cached text for tables
  // unchanged since the last save), then serialize and write with no lock
  // held: searches and registrations keep flowing while disk I/O runs.
  registry::Database::Snapshot snapshot;
  {
    std::shared_lock lock(mu_);
    snapshot = db_.CaptureSnapshot();
  }
  if (Status st = db_.WriteSnapshot(std::move(snapshot), file); !st.ok()) {
    return st;
  }
  return Json(Value::MakeObject());
}

/// {path} -> {pes,workflows}. Refused with 409 on a server that keeps a
/// WAL: a load is neither logged nor shipped to followers, and the live
/// log's records past the file's sequence would be replayed over it.
Result<LaminarServer::Response> LaminarServer::LoadRegistry(Call& c) {
  if (!config_.wal_path.empty()) {
    return Json(ErrorBody(Status::FailedPrecondition(
                    "/registry/load is refused on a server with a WAL; "
                    "restart it on the snapshot instead")),
                409);
  }
  if (Status st = db_.LoadFromFile(c.body.GetString("path")); !st.ok()) {
    return st;
  }
  if (Status st = search_.ReindexAll(ingest_pool_.get()); !st.ok()) return st;
  ResetTenantRowCounts();  // loaded rows replace all per-tenant counts
  Value resp = Value::MakeObject();
  resp["pes"] = static_cast<int64_t>(repo_.PeCount());
  resp["workflows"] = static_cast<int64_t>(repo_.WorkflowCount());
  return Json(resp);
}

/// {pes:[{name?,code,description?},...]} -> {peIds,registered,errors}
Result<LaminarServer::Response> LaminarServer::BulkRegister(Call& c) {
  const Value& pes = c.body.at("pes");
  if (!pes.is_array() || pes.size() == 0) {
    return Status::InvalidArgument(
        "bulk_register requires a non-empty 'pes' array");
  }
  const auto& pe_objs = pes.as_array();
  const size_t n = pe_objs.size();
  std::vector<std::unique_ptr<PreparedPeReg>> prepared(n);
  std::vector<std::string> prepare_errors(n);
  return Ingest(
      [&] {
        // Items are independent and prepare touches only const encoder
        // state, so the pool fan-out needs no per-item locking.
        ParallelFor(ingest_pool_.get(), n, [&](size_t i) {
          Result<PreparedPeReg> r = PreparePeRegistration(pe_objs[i], c.tenant);
          if (r.ok()) {
            prepared[i] = std::make_unique<PreparedPeReg>(std::move(r.value()));
          } else {
            prepare_errors[i] = r.status().ToString();
          }
        });
        return Status::Ok();
      },
      [&]() -> Result<Response> {
        Value ids = Value::MakeArray();
        Value errors = Value::MakeArray();
        int64_t registered = 0;
        int64_t quota_rejected = 0;
        auto record_error = [&errors](size_t index, const std::string& message) {
          Value e = Value::MakeObject();
          e["index"] = static_cast<int64_t>(index);
          e["error"] = message;
          errors.push_back(std::move(e));
        };
        for (size_t i = 0; i < n; ++i) {
          if (prepared[i] == nullptr) {
            record_error(i, prepare_errors[i]);
            continue;
          }
          Result<int64_t> id = CommitPeRegistration(std::move(*prepared[i]));
          if (!id.ok()) {
            if (id.status().code() == StatusCode::kResourceExhausted) {
              ++quota_rejected;
            }
            record_error(i, id.status().ToString());
            continue;
          }
          ids.push_back(id.value());
          ++registered;
        }
        Value resp = Value::MakeObject();
        resp["peIds"] = std::move(ids);
        resp["registered"] = registered;
        resp["errors"] = std::move(errors);
        // Per-item quota errors ride in `errors`; only a batch where
        // *nothing* registered because of quotas is itself a 429 (so
        // partial successes stay 200 and the client can inspect which items
        // were rejected).
        return Json(resp, (registered == 0 && quota_rejected > 0) ? 429 : 200);
      });
}

/// {target,term,limit?} -> {hits}; every search route reads limit through
/// SearchLimit.
Result<LaminarServer::Response> LaminarServer::LiteralSearch(Call& c) {
  Result<size_t> limit = SearchLimit(c.body, 0);
  if (!limit.ok()) return limit.status();
  const search::SearchTarget target = ParseTarget(c.body);
  return Json(VisibleHits(
      search_.LiteralSearch(c.body.GetString("term"), target, limit.value()),
      c.tenant, target));
}

/// {target,query,limit?} -> {hits}
Result<LaminarServer::Response> LaminarServer::SemanticSearch(Call& c) {
  Result<size_t> limit = SearchLimit(c.body, 0);
  if (!limit.ok()) return limit.status();
  const search::SearchTarget target = ParseTarget(c.body);
  return Json(VisibleHits(
      search_.SemanticSearch(c.body.GetString("query"), target, limit.value()),
      c.tenant, target));
}

/// {target,code,embedding_type?,limit?} -> {hits}: Aroma structural
/// recommendation over SPTs ("spt", the default) or code embeddings ("llm").
Result<LaminarServer::Response> LaminarServer::CodeSearch(Call& c) {
  Result<size_t> limit = SearchLimit(c.body, 0);
  if (!limit.ok()) return limit.status();
  const search::SearchTarget target = ParseTarget(c.body);
  const std::string code = c.body.GetString("code");
  if (c.body.GetString("embedding_type", "spt") == "llm") {
    return Json(VisibleHits(search_.CodeSearchLlm(code, target, limit.value()),
                            c.tenant, target));
  }
  Result<std::vector<search::RecommendationHit>> recs =
      search_.CodeRecommendation(code, target, limit.value());
  if (!recs.ok()) return recs.status();
  return Json(VisibleHits(recs.value(), c.tenant, target));
}

/// {code,limit?} -> {completions:[{id,name,score,continuation}]}
Result<LaminarServer::Response> LaminarServer::CodeCompletion(Call& c) {
  Result<size_t> limit = SearchLimit(c.body, 3);
  if (!limit.ok()) return limit.status();
  Result<std::vector<spt::Completion>> completions =
      search_.CodeCompletion(c.body.GetString("code"), limit.value());
  if (!completions.ok()) return completions.status();
  Value resp = Value::MakeObject();
  Value arr = Value::MakeArray();
  for (const spt::Completion& completion : completions.value()) {
    Value h = Value::MakeObject();
    h["id"] = completion.snippet_id;
    Result<registry::PeRecord> pe = repo_.GetPe(completion.snippet_id);
    if (pe.ok() && !TenantCanSee(c.tenant, pe->tenant)) continue;
    if (pe.ok()) h["name"] = pe->name;
    h["score"] = completion.score;
    h["continuation"] = completion.continuation;
    arr.push_back(std::move(h));
  }
  resp["completions"] = std::move(arr);
  return Json(resp);
}

/// {} -> registry counts + cache/broker/engine stats + telemetry ("totals",
/// "metrics", "trace") from the same registry the ##END## chunk reads, so
/// the two cannot disagree.
Result<LaminarServer::Response> LaminarServer::Stats(Call&) {
  Value resp = Value::MakeObject();
  // Table sizes, every tenant's rows: /stats holds the shared lock, so
  // copying the rows to count them would hold off every write meanwhile.
  resp["pes"] = static_cast<int64_t>(repo_.PeCount());
  resp["workflows"] = static_cast<int64_t>(repo_.WorkflowCount());
  auto cache = engine_.resource_cache().stats();
  resp["cache"]["hits"] = static_cast<int64_t>(cache.hits);
  resp["cache"]["misses"] = static_cast<int64_t>(cache.misses);
  resp["cache"]["bytesStored"] = static_cast<int64_t>(cache.bytes_stored);
  auto broker_stats = engine_.broker().stats();
  resp["broker"]["pushes"] = static_cast<int64_t>(broker_stats.pushes);
  resp["broker"]["pops"] = static_cast<int64_t>(broker_stats.pops);
  resp["engine"]["warmInstances"] = engine_.warm_instances();
  auto query_cache = search_.query_cache_stats();
  resp["queryCache"]["hits"] = static_cast<int64_t>(query_cache.hits);
  resp["queryCache"]["misses"] = static_cast<int64_t>(query_cache.misses);
  resp["queryCache"]["entries"] =
      static_cast<int64_t>(query_cache.entries);
  // The host's SIMD tier, which perfbench stamps on its runs; no request
  // runs a kernel (search scores from postings).
  resp["search"]["simd"]["tier"] =
      std::string(simd::TierName(simd::ActiveTier()));
  Value indexes = Value::MakeObject();
  // Per-index footprint of the embedding postings.
  for (const auto& [name, istats] : search_.IndexStats()) {
    Value one = Value::MakeObject();
    one["rows"] = static_cast<int64_t>(istats.rows);
    one["dims"] = static_cast<int64_t>(istats.dims);
    one["postings"] = static_cast<int64_t>(istats.postings);
    one["bytes"] = static_cast<int64_t>(istats.bytes);
    indexes[name] = std::move(one);
  }
  resp["search"]["indexes"] = std::move(indexes);
  // Telemetry view: the same registry the /execute ##END## chunk reads,
  // so streamed totals and /stats totals cannot disagree.
  auto& reg = telemetry::MetricsRegistry::Global();
  Value totals = engine::ExecutionTotalsJson();
  // Ingest totals: per-phase op counts and mean latency, plus
  // the duration of the last bulk index build.
  totals["ingest"]["encodeOps"] =
      static_cast<int64_t>(ingest_encode_.count->Value());
  totals["ingest"]["commitOps"] =
      static_cast<int64_t>(ingest_commit_.count->Value());
  totals["ingest"]["encodeMsMean"] = ingest_encode_.ms->snapshot().Mean();
  totals["ingest"]["commitMsMean"] = ingest_commit_.ms->snapshot().Mean();
  totals["ingest"]["bulkBuildMs"] = bulk_build_ms_->Value();
  resp["totals"] = std::move(totals);
  // Transport tier: connection and byte counters from the TCP
  // listener/stream instrumentation. All zero when every client is on the
  // in-memory pipe transport.
  Value netv = Value::MakeObject();
  netv["openConnections"] =
      reg.GetGauge("laminar_net_connections", "state=\"open\"").Value();
  netv["accepted"] = static_cast<int64_t>(
      reg.GetCounter("laminar_net_connections_total", "state=\"accepted\"")
          .Value());
  netv["rejected"] = static_cast<int64_t>(
      reg.GetCounter("laminar_net_connections_total", "state=\"rejected\"")
          .Value());
  netv["bytesRead"] = static_cast<int64_t>(
      reg.GetCounter("laminar_net_bytes_read_total").Value());
  netv["bytesWritten"] = static_cast<int64_t>(
      reg.GetCounter("laminar_net_bytes_written_total").Value());
  netv["protocolErrors"] = static_cast<int64_t>(
      reg.GetCounter("laminar_net_protocol_errors_total").Value());
  resp["net"] = std::move(netv);
  // Per-tenant slice: boundary-admission counters merged
  // with the run queue's scheduling snapshot, keyed by tenant name. The
  // runsSucceeded/runsFailed counters reconcile with the ##END## totals
  // each tenant's /execute streams observed.
  Value tenants = admission_.StatsJson();
  for (const auto& [name, qs] : run_queue_.Snapshot()) {
    Value& t = tenants[name];
    t["runsAdmitted"] = static_cast<int64_t>(qs.admitted);
    t["runsRejected"] = static_cast<int64_t>(qs.rejected);
    t["runsDeadlineExpired"] = static_cast<int64_t>(qs.deadline_expired);
    t["running"] = qs.running;
    t["queued"] = qs.queued;
    t["vtime"] = qs.vtime;
  }
  resp["tenants"] = std::move(tenants);
  resp["runQueue"]["slots"] = run_queue_.slots();
  resp["runQueue"]["queued"] = static_cast<int64_t>(run_queue_.queued());
  {
    // Durability visibility: how far the log has been
    // appended vs how far it is known durable on disk.
    registry::WalStatus ws = db_.wal_status();
    Value wal = Value::MakeObject();
    wal["enabled"] = ws.enabled;
    wal["fsyncMode"] = ws.fsync_mode;
    wal["appendedSeq"] = static_cast<int64_t>(ws.appended_seq);
    wal["durableSeq"] = static_cast<int64_t>(ws.durable_seq);
    wal["records"] = static_cast<int64_t>(ws.records);
    wal["bytes"] = static_cast<int64_t>(ws.bytes);
    resp["wal"] = std::move(wal);
  }
  resp["replication"] = ReplicationStatusJson();
  resp["metrics"] = reg.RenderJson();
  resp["trace"] = reg.trace().ToJson();
  return Json(resp);
}

}  // namespace laminar::server
