#include "server/replication.hpp"

#include <algorithm>
#include <chrono>
#include <fstream>

#include "common/clock.hpp"
#include "common/json.hpp"
#include "common/log.hpp"
#include "net/tcp.hpp"
#include "telemetry/telemetry.hpp"

namespace laminar::server {
namespace {

telemetry::Counter& ReplCounter(const char* name, const char* role) {
  return telemetry::MetricsRegistry::Global().GetCounter(
      name, std::string("role=\"") + role + "\"");
}

telemetry::Histogram& LagHistogram() {
  static telemetry::Histogram& h =
      telemetry::MetricsRegistry::Global().GetHistogram("laminar_repl_lag_ms");
  return h;
}

telemetry::Gauge& LagSeqGauge() {
  static telemetry::Gauge& g =
      telemetry::MetricsRegistry::Global().GetGauge("laminar_repl_lag_seq");
  return g;
}

/// Counts records shipped by a leader's /replication/fetch, with the metric
/// handles resolved once rather than on every fetch.
void CountShipped(const std::vector<std::string>& lines) {
  static telemetry::Counter& records =
      ReplCounter("laminar_repl_records_total", "leader");
  static telemetry::Counter& bytes =
      ReplCounter("laminar_repl_bytes_total", "leader");
  size_t total = 0;
  for (const std::string& line : lines) total += line.size();
  records.Inc(lines.size());
  bytes.Inc(total);
}

}  // namespace

// ---- ReplicationHub (leader) ---------------------------------------------

ReplicationHub::ReplicationHub(std::string wal_path, uint64_t head_seq,
                               size_t ring_capacity)
    : wal_path_(std::move(wal_path)),
      capacity_(std::max<size_t>(1, ring_capacity)),
      head_seq_(head_seq) {}

void ReplicationHub::Publish(uint64_t seq, std::string line) {
  std::scoped_lock lock(mu_);
  head_seq_ = std::max(head_seq_, seq);
  ring_.emplace_back(seq, std::move(line));
  if (ring_.size() > capacity_) ring_.pop_front();
  cv_.notify_all();
}

uint64_t ReplicationHub::head_seq() const {
  std::scoped_lock lock(mu_);
  return head_seq_;
}

uint64_t ReplicationHub::fetches() const {
  std::scoped_lock lock(mu_);
  return fetches_;
}

uint64_t ReplicationHub::records_shipped() const {
  std::scoped_lock lock(mu_);
  return records_shipped_;
}

ReplicationHub::FetchResult ReplicationHub::Fetch(uint64_t from_seq,
                                                  size_t max_records,
                                                  int wait_ms) {
  max_records = std::clamp<size_t>(max_records, 1, 4096);
  wait_ms = std::clamp(wait_ms, 0, 10'000);
  FetchResult out;
  std::unique_lock lock(mu_);
  ++fetches_;
  if (head_seq_ <= from_seq && wait_ms > 0) {
    cv_.wait_for(lock, std::chrono::milliseconds(wait_ms),
                 [&] { return head_seq_ > from_seq; });
  }
  out.head_seq = head_seq_;
  if (head_seq_ <= from_seq) return out;  // caught up: empty long-poll
  if (!ring_.empty() && ring_.front().first <= from_seq + 1) {
    for (const auto& [seq, line] : ring_) {
      if (seq <= from_seq) continue;
      out.lines.push_back(line);
      if (out.lines.size() >= max_records) break;
    }
    records_shipped_ += out.lines.size();
    CountShipped(out.lines);
    return out;
  }
  // Ring miss: the requested suffix starts behind the buffered window. The
  // WAL file still has it unless a snapshot compacted it away. Disk reads
  // run outside the lock so publishers (and therefore registry commits)
  // never wait on this path.
  lock.unlock();
  uint64_t expected = from_seq + 1;
  bool saw_parse_failure = false;
  {
    std::ifstream in(wal_path_);
    std::string line;
    while (in && std::getline(in, line) && out.lines.size() < max_records) {
      if (line.empty()) continue;
      Result<Value> record = json::Parse(line);
      if (!record.ok()) {
        // Concurrent append can expose a half-written tail; serve what we
        // have and let the next fetch pick up from the ring.
        saw_parse_failure = true;
        break;
      }
      const uint64_t seq =
          static_cast<uint64_t>(record->GetInt("seq", 0));
      if (seq <= from_seq) continue;
      if (seq != expected) {
        out.lines.clear();
        out.need_snapshot = true;  // compacted past the follower's position
        break;
      }
      out.lines.push_back(line);
      ++expected;
    }
  }
  if (out.lines.empty() && !out.need_snapshot && !saw_parse_failure) {
    // Nothing on disk past from_seq although head says there should be:
    // the suffix lived only in records compacted away before this follower
    // asked. Only a snapshot can resynchronize it.
    out.need_snapshot = true;
  }
  lock.lock();
  out.head_seq = head_seq_;
  records_shipped_ += out.lines.size();
  CountShipped(out.lines);
  return out;
}

// ---- ReplicationFollower -------------------------------------------------

ReplicationFollower::ReplicationFollower(FollowerConfig config, Hooks hooks)
    : config_(std::move(config)), hooks_(std::move(hooks)) {}

ReplicationFollower::~ReplicationFollower() { Stop(); }

void ReplicationFollower::Start() {
  std::scoped_lock lock(mu_);
  if (thread_.joinable()) return;
  stopping_ = false;
  thread_ = std::thread([this] { Loop(); });
}

void ReplicationFollower::Stop() {
  {
    std::scoped_lock lock(mu_);
    stopping_ = true;
    if (live_conn_ != nullptr) live_conn_->Close();  // unblock the long-poll
  }
  stop_cv_.notify_all();
  if (thread_.joinable()) thread_.join();
}

ReplicationFollower::StatusSnapshot ReplicationFollower::status() const {
  std::scoped_lock lock(mu_);
  return state_;
}

bool ReplicationFollower::IsFresh(int64_t max_lag_ms) const {
  std::scoped_lock lock(mu_);
  if (!state_.bootstrapped || state_.last_fresh_wall_ms == 0) return false;
  return NowWallMillis() - state_.last_fresh_wall_ms <= max_lag_ms;
}

void ReplicationFollower::Loop() {
  while (true) {
    {
      std::scoped_lock lock(mu_);
      if (stopping_) return;
    }
    RunSession();
    // A session ends on leader loss or a protocol error; pause briefly so a
    // dead leader is not hammered (RunSession's own connect retries already
    // back off during startup races).
    std::unique_lock lock(mu_);
    if (stopping_) return;
    stop_cv_.wait_for(lock, std::chrono::milliseconds(100),
                      [&] { return stopping_; });
    if (stopping_) return;
  }
}

void ReplicationFollower::RunSession() {
  net::TcpConnectOptions copts;
  copts.timeout_ms = config_.connect_timeout_ms;
  copts.attempts = std::max(1, config_.connect_attempts);
  Result<std::unique_ptr<net::ByteStream>> stream =
      net::TcpConnect(config_.leader_host, config_.leader_port, copts);
  if (!stream.ok()) return;
  auto conn = std::make_unique<net::HttpConnection>(
      std::move(stream.value()), net::HttpConnection::Mode::kStreaming);
  bool need_bootstrap;
  {
    std::scoped_lock lock(mu_);
    if (stopping_) return;
    live_conn_ = conn.get();
    state_.connected = true;
    need_bootstrap = !state_.bootstrapped;
  }
  auto leave = [&] {
    std::scoped_lock lock(mu_);
    live_conn_ = nullptr;
    state_.connected = false;
  };
  while (true) {
    {
      std::scoped_lock lock(mu_);
      if (stopping_) break;
    }
    if (need_bootstrap) {
      net::HttpRequest req;
      req.path = "/replication/snapshot";
      req.body = "{}";
      Result<std::pair<int, std::string>> resp = conn->Call(req);
      if (!resp.ok() || resp->first != 200) break;
      Result<uint64_t> seq = hooks_.bootstrap(resp->second);
      if (!seq.ok()) {
        log::Error("repl", "snapshot bootstrap failed: " +
                               seq.status().ToString());
        break;
      }
      {
        std::scoped_lock lock(mu_);
        state_.bootstrapped = true;
        state_.applied_seq = seq.value();
        // Loading the snapshot IS a confirmed catch-up: it covers the
        // leader's head as of capture, so freshness starts now rather than
        // after the first (long-polled) fetch returns.
        state_.leader_seq = std::max(state_.leader_seq, seq.value());
        state_.last_fresh_wall_ms = NowWallMillis();
        ++state_.bootstraps;
        state_.bytes_received += resp->second.size();
      }
      ReplCounter("laminar_repl_bytes_total", "follower")
          .Inc(resp->second.size());
      need_bootstrap = false;
      continue;
    }
    uint64_t from;
    {
      std::scoped_lock lock(mu_);
      from = state_.applied_seq;
    }
    Value fetch_body = Value::MakeObject();
    fetch_body["fromSeq"] = static_cast<int64_t>(from);
    fetch_body["maxRecords"] =
        static_cast<int64_t>(config_.fetch_max_records);
    fetch_body["waitMs"] = static_cast<int64_t>(config_.fetch_wait_ms);
    net::HttpRequest req;
    req.path = "/replication/fetch";
    req.body = fetch_body.ToJson();
    Result<std::pair<int, std::string>> resp = conn->Call(req);
    if (!resp.ok() || resp->first != 200) break;
    Result<Value> parsed = json::Parse(resp->second);
    if (!parsed.ok()) break;
    const uint64_t head_seq =
        static_cast<uint64_t>(parsed->GetInt("headSeq", 0));
    if (parsed->GetBool("needSnapshot", false)) {
      // The leader compacted past our position (or we fell behind its
      // ring+file window): only a fresh snapshot can resynchronize.
      std::scoped_lock lock(mu_);
      state_.bootstrapped = false;
      need_bootstrap = true;
      continue;
    }
    std::vector<Value> records;
    size_t batch_bytes = 0;
    bool gap = false;
    uint64_t expected = from + 1;
    for (const Value& line : parsed->at("lines").as_array()) {
      Result<Value> record = json::Parse(line.as_string());
      if (!record.ok()) {
        gap = true;
        break;
      }
      const uint64_t seq =
          static_cast<uint64_t>(record->GetInt("seq", 0));
      if (seq != expected) {
        gap = true;
        break;
      }
      ++expected;
      batch_bytes += line.as_string().size();
      records.push_back(std::move(record.value()));
    }
    if (gap) {
      // The WAL sequence is contiguous by construction, so a hole here
      // means this replica's view diverged; rebuild it from a snapshot
      // rather than applying records past the hole.
      std::scoped_lock lock(mu_);
      ++state_.gaps;
      state_.bootstrapped = false;
      need_bootstrap = true;
      continue;
    }
    double last_lag_ms = 0.0;
    if (!records.empty()) {
      Status st = hooks_.apply(records);
      if (!st.ok()) {
        log::Error("repl", "apply failed at seq " +
                               std::to_string(from + 1) + ": " +
                               st.ToString() + "; re-bootstrapping");
        std::scoped_lock lock(mu_);
        ++state_.gaps;
        state_.bootstrapped = false;
        need_bootstrap = true;
        continue;
      }
      const int64_t now_ms = NowWallMillis();
      for (const Value& record : records) {
        const int64_t ts = record.GetInt("ts", 0);
        if (ts > 0) {
          last_lag_ms = std::max(0.0, static_cast<double>(now_ms - ts));
          LagHistogram().Observe(last_lag_ms);
        }
      }
      ReplCounter("laminar_repl_records_total", "follower")
          .Inc(records.size());
      ReplCounter("laminar_repl_bytes_total", "follower").Inc(batch_bytes);
    }
    {
      std::scoped_lock lock(mu_);
      state_.applied_seq = expected - 1;
      state_.leader_seq = head_seq;
      state_.records_applied += records.size();
      state_.bytes_received += batch_bytes;
      if (!records.empty()) state_.last_record_lag_ms = last_lag_ms;
      if (state_.applied_seq >= head_seq) {
        state_.last_fresh_wall_ms = NowWallMillis();
        state_.last_record_lag_ms = records.empty() ? 0.0 : last_lag_ms;
      }
      LagSeqGauge().Set(head_seq > state_.applied_seq
                            ? static_cast<int64_t>(head_seq -
                                                   state_.applied_seq)
                            : 0);
    }
  }
  conn->Close();
  leave();
}

}  // namespace laminar::server
