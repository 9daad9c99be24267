// Read-replica scaling bench (ISSUE 9 headline): one WAL-shipping leader
// plus 0/1/2/4 followers, driven by closed-loop clients running the paper's
// read-heavy registry workload — 90% semantic search, 10% PE registration —
// through the client-side fan-out (ReplicaSetClient).
//
// Every node carries the same per-tenant admission cap (ServerConfig::
// tenant_quotas.requests_per_sec, i.e. `laminar_serve --rps`), which models
// a fixed per-node serving capacity: on a single physical machine the nodes
// cannot scale raw CPU, but the *admitted* read throughput scales with the
// number of read endpoints exactly as capacity-limited nodes would. Drivers
// are closed-loop and treat each 429 as a back-off-and-retry, so measured
// QPS is the admission ceiling, not the offered load.
//
// Headline table: aggregate admitted read QPS vs follower count plus the
// speedup over the leader-only baseline; replication lag p50/p99 (follower
// apply-time lag from laminar_repl_lag_ms) closes the report.
//
// --smoke replaces the load matrix with the correctness gate the ctest
// `repl` label runs: leader + 1 follower, a seeded corpus, a short mixed
// burst through the fan-out, and a bit-identical search parity check
// (ids, order, scores) between leader and follower at quiesce.
#include <unistd.h>

#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "bench_util.hpp"
#include "client/connect.hpp"
#include "client/fanout.hpp"
#include "telemetry/telemetry.hpp"

using namespace laminar;

namespace {

namespace fs = std::filesystem;

/// This process's own temp directory, `laminar_bench_repl.<pid>`: created
/// on first use and removed with its contents at exit, so two runs at once
/// (say, two build trees under ctest) never replay each other's WAL.
struct ProcessTempDir {
  fs::path path = fs::temp_directory_path() /
                  ("laminar_bench_repl." + std::to_string(::getpid()));
  ProcessTempDir() {
    fs::remove_all(path);
    fs::create_directories(path);
  }
  ~ProcessTempDir() {
    std::error_code ignored;
    fs::remove_all(path, ignored);
  }
  ProcessTempDir(const ProcessTempDir&) = delete;
  ProcessTempDir& operator=(const ProcessTempDir&) = delete;
};

std::string TempPath(const std::string& name) {
  static ProcessTempDir dir;
  return (dir.path / name).string();
}

std::string PeCode(const std::string& cls) {
  return "class " + cls + ":\n    def process(self, x):\n        return x\n";
}

/// Description variants keep the seeded corpus semantically spread, so the
/// search queries below have distinct best matches.
const char* kDescriptions[] = {
    "reads tuples from an input stream",
    "filters tuples by a user predicate",
    "aggregates a sliding window of numbers",
    "writes tuples to an external sink",
    "joins two keyed tuple streams",
    "deduplicates tuples by content hash",
};

const char* kQueries[] = {
    "read tuples from a stream",
    "filter tuples with a predicate",
    "aggregate a window",
    "write results to a sink",
};

Result<client::TcpLaminarServer> StartLeader(const std::string& wal,
                                             const std::string& snapshot,
                                             double rps) {
  server::ServerConfig config;
  config.wal_path = wal;
  config.snapshot_path = snapshot;
  config.tenant_quotas.requests_per_sec = rps;
  config.tenant_quotas.burst = rps;
  net::TcpListenerConfig listener;
  listener.port = 0;
  return client::ServeTcp(std::move(config), listener);
}

Result<client::TcpLaminarServer> StartFollower(uint16_t leader_port,
                                               double rps) {
  server::ServerConfig config;
  config.replica_of = "127.0.0.1:" + std::to_string(leader_port);
  config.tenant_quotas.requests_per_sec = rps;
  config.tenant_quotas.burst = rps;
  net::TcpListenerConfig listener;
  listener.port = 0;
  return client::ServeTcp(std::move(config), listener);
}

/// Seeds `count` PEs on the leader (retrying through its own rate cap).
Status SeedCorpus(client::LaminarClient& leader, int count, int name_base) {
  for (int i = 0; i < count; ++i) {
    const std::string name = "Seed" + std::to_string(name_base + i);
    while (true) {
      Result<client::PeInfo> pe = leader.RegisterPe(
          PeCode(name), name, kDescriptions[i % std::size(kDescriptions)]);
      if (pe.ok()) break;
      if (pe.status().code() != StatusCode::kResourceExhausted) {
        return pe.status();
      }
      std::this_thread::sleep_for(std::chrono::milliseconds(5));
    }
  }
  return Status::Ok();
}

/// Shared driver counters; main samples them at window edges, so the warmup
/// (token-bucket burst drain) never pollutes the measured rate.
struct DriveCounters {
  std::atomic<long> reads_ok{0};
  std::atomic<long> reads_throttled{0};
  std::atomic<long> writes_ok{0};
  std::atomic<long> writes_throttled{0};
  std::atomic<long> errors{0};
};

/// One closed-loop worker: 90% semantic search through the replica set,
/// 10% registration on the leader. A 429 from either side is a clean
/// back-off-and-retry; anything else counts as an error.
void DriveMixed(client::ReplicaSetClient& set, std::atomic<bool>& stop,
                DriveCounters& counters, int worker) {
  long i = 0;
  while (!stop.load(std::memory_order_acquire)) {
    if (i % 10 == 9) {
      const std::string name =
          "Live" + std::to_string(worker) + "_" + std::to_string(i);
      Result<client::PeInfo> pe = set.leader().RegisterPe(
          PeCode(name), name, kDescriptions[i % std::size(kDescriptions)]);
      if (pe.ok()) {
        counters.writes_ok.fetch_add(1, std::memory_order_relaxed);
      } else if (pe.status().code() == StatusCode::kResourceExhausted) {
        counters.writes_throttled.fetch_add(1, std::memory_order_relaxed);
        std::this_thread::sleep_for(std::chrono::milliseconds(2));
        continue;  // retry the write slot before advancing the mix
      } else {
        counters.errors.fetch_add(1, std::memory_order_relaxed);
        std::fprintf(stderr, "write error: %s\n",
                     pe.status().ToString().c_str());
      }
    } else {
      const char* query = kQueries[i % std::size(kQueries)];
      Result<std::vector<client::SearchHit>> hits =
          set.Read<std::vector<client::SearchHit>>(
              [query](client::LaminarClient& c) {
                return c.SearchRegistrySemantic(query);
              });
      if (hits.ok()) {
        counters.reads_ok.fetch_add(1, std::memory_order_relaxed);
      } else if (hits.status().code() == StatusCode::kResourceExhausted) {
        counters.reads_throttled.fetch_add(1, std::memory_order_relaxed);
        std::this_thread::sleep_for(std::chrono::milliseconds(2));
        continue;  // retry the read before advancing the mix
      } else {
        counters.errors.fetch_add(1, std::memory_order_relaxed);
        std::fprintf(stderr, "read error: %s\n",
                     hits.status().ToString().c_str());
      }
    }
    ++i;
  }
}

/// Runs one search, riding out 429s (the parity probe follows right after
/// the drive window, when every node's token bucket is freshly drained).
template <typename Op>
Result<std::vector<client::SearchHit>> SearchRetrying(Op op) {
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(10);
  while (true) {
    Result<std::vector<client::SearchHit>> hits = op();
    if (hits.ok() ||
        hits.status().code() != StatusCode::kResourceExhausted ||
        std::chrono::steady_clock::now() >= deadline) {
      return hits;
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
  }
}

/// Bit-identical search parity between two nodes at quiesce: same hit
/// count, same ids in the same order, same scores — for both the semantic
/// and the literal path. Prints every divergence it finds.
bool SearchParity(client::LaminarClient& leader,
                  client::LaminarClient& follower) {
  bool ok = true;
  auto compare = [&](const char* kind, const std::string& term,
                     Result<std::vector<client::SearchHit>> a,
                     Result<std::vector<client::SearchHit>> b) {
    if (!a.ok() || !b.ok()) {
      std::fprintf(stderr, "parity: %s '%s' failed: leader=%s follower=%s\n",
                   kind, term.c_str(), a.status().ToString().c_str(),
                   b.status().ToString().c_str());
      ok = false;
      return;
    }
    if (a->size() != b->size()) {
      std::fprintf(stderr, "parity: %s '%s' size %zu vs %zu\n", kind,
                   term.c_str(), a->size(), b->size());
      ok = false;
      return;
    }
    for (size_t i = 0; i < a->size(); ++i) {
      if ((*a)[i].id != (*b)[i].id || (*a)[i].score != (*b)[i].score) {
        std::fprintf(stderr,
                     "parity: %s '%s' hit %zu diverges: "
                     "id %lld/%lld score %.17g/%.17g\n",
                     kind, term.c_str(), i,
                     static_cast<long long>((*a)[i].id),
                     static_cast<long long>((*b)[i].id), (*a)[i].score,
                     (*b)[i].score);
        ok = false;
      }
    }
  };
  for (const char* query : kQueries) {
    compare(
        "semantic", query,
        SearchRetrying([&] { return leader.SearchRegistrySemantic(query); }),
        SearchRetrying(
            [&] { return follower.SearchRegistrySemantic(query); }));
  }
  for (const char* term : {"Seed", "tuples", "process"}) {
    compare(
        "literal", term,
        SearchRetrying([&] { return leader.SearchRegistryLiteral(term); }),
        SearchRetrying([&] { return follower.SearchRegistryLiteral(term); }));
  }
  return ok;
}

struct ScenarioResult {
  int followers = 0;
  double read_qps = 0.0;
  double write_qps = 0.0;
  long reads_ok = 0;
  long reads_throttled = 0;
  long writes_ok = 0;
  long writes_throttled = 0;
  long errors = 0;
  double quiesce_lag_ms = 0.0;  ///< max follower lagMs after catch-up
  bool parity = true;
};

/// One matrix row: fresh leader + `followers` replicas, seeded corpus,
/// warmup + measured drive window, then quiesce + parity check.
ScenarioResult RunScenario(int followers, double node_rps, int threads,
                           int warmup_ms, int measure_ms, int seed_base) {
  ScenarioResult result;
  result.followers = followers;

  const std::string wal = TempPath("wal.jsonl");
  const std::string snapshot = TempPath("snap.json");
  fs::remove(wal);
  fs::remove(snapshot);

  Result<client::TcpLaminarServer> leader =
      StartLeader(wal, snapshot, node_rps);
  if (!leader.ok()) {
    std::fprintf(stderr, "leader start: %s\n",
                 leader.status().ToString().c_str());
    result.errors = 1;
    return result;
  }
  std::vector<client::TcpLaminarServer> replicas;
  std::vector<std::string> follower_specs;
  for (int i = 0; i < followers; ++i) {
    Result<client::TcpLaminarServer> f =
        StartFollower(leader->port(), node_rps);
    if (!f.ok()) {
      std::fprintf(stderr, "follower start: %s\n",
                   f.status().ToString().c_str());
      result.errors = 1;
      return result;
    }
    follower_specs.push_back("127.0.0.1:" + std::to_string(f->port()));
    replicas.push_back(std::move(f.value()));
  }

  const std::string leader_spec =
      "127.0.0.1:" + std::to_string(leader->port());
  Result<std::unique_ptr<client::ReplicaSetClient>> set =
      client::ReplicaSetClient::Connect(leader_spec, follower_specs);
  if (!set.ok()) {
    std::fprintf(stderr, "replica set connect: %s\n",
                 set.status().ToString().c_str());
    result.errors = 1;
    return result;
  }

  if (Status seeded = SeedCorpus((*set)->leader(), 24, seed_base);
      !seeded.ok()) {
    std::fprintf(stderr, "seed: %s\n", seeded.ToString().c_str());
    result.errors = 1;
    return result;
  }
  if (Status caught = (*set)->WaitForCatchUp(15'000); !caught.ok()) {
    std::fprintf(stderr, "catch-up: %s\n", caught.ToString().c_str());
    result.errors = 1;
    return result;
  }

  // Drive: sample the counters at both window edges, so the measured rate
  // excludes the warmup (which drains each node's initial token burst).
  DriveCounters counters;
  std::atomic<bool> stop{false};
  std::vector<std::thread> workers;
  for (int t = 0; t < threads; ++t) {
    workers.emplace_back(
        [&, t] { DriveMixed(**set, stop, counters, t); });
  }
  std::this_thread::sleep_for(std::chrono::milliseconds(warmup_ms));
  const long reads0 = counters.reads_ok.load();
  const long writes0 = counters.writes_ok.load();
  Stopwatch window;
  std::this_thread::sleep_for(std::chrono::milliseconds(measure_ms));
  const long reads1 = counters.reads_ok.load();
  const long writes1 = counters.writes_ok.load();
  const double secs = window.ElapsedSeconds();
  stop.store(true, std::memory_order_release);
  for (std::thread& w : workers) w.join();

  result.read_qps = secs > 0 ? (reads1 - reads0) / secs : 0.0;
  result.write_qps = secs > 0 ? (writes1 - writes0) / secs : 0.0;
  result.reads_ok = counters.reads_ok.load();
  result.reads_throttled = counters.reads_throttled.load();
  result.writes_ok = counters.writes_ok.load();
  result.writes_throttled = counters.writes_throttled.load();
  result.errors = counters.errors.load();

  // Quiesce: wait for every follower to confirm the final head, then gate
  // parity against the first follower (all apply the same stream).
  if (!replicas.empty()) {
    if (Status caught = (*set)->WaitForCatchUp(15'000); !caught.ok()) {
      std::fprintf(stderr, "quiesce catch-up: %s\n",
                   caught.ToString().c_str());
      result.errors += 1;
      return result;
    }
    Result<client::TcpClient> follower_cli =
        client::ConnectTcp("127.0.0.1", replicas.front().port());
    if (follower_cli.ok()) {
      result.parity =
          SearchParity((*set)->leader(), *follower_cli->client);
      Result<Value> status = follower_cli->client->ReplicationStatus();
      if (status.ok()) {
        result.quiesce_lag_ms = status->GetDouble("lagMs", 0.0);
      }
    } else {
      result.parity = false;
    }
  }
  return result;
}

}  // namespace

int main(int argc, char** argv) {
  bool smoke = argc > 1 && std::strcmp(argv[1], "--smoke") == 0;
  // Per-node admission cap: well below one core's search throughput, so
  // every node is capacity-limited and aggregate QPS is governed by the
  // number of read endpoints (the quantity under test), not by how much
  // CPU this particular machine happens to have. Smoke mode is a pure
  // correctness gate (parity after a mixed burst), so it runs uncapped —
  // the 429 contract itself is bench_tenant's gate.
  const double kNodeRps = smoke ? 0.0 : 60.0;
  const int kThreads = 6;
  const int kWarmupMs = smoke ? 100 : 1200;
  const int kMeasureMs = smoke ? 400 : 2500;
  const std::vector<int> follower_counts =
      smoke ? std::vector<int>{1} : std::vector<int>{0, 1, 2, 4};

  std::printf("== read-replica scaling bench: leader + N followers ==\n");
  std::printf(
      "per-node cap: %.0f rps (0 = uncapped), drivers: %d closed-loop "
      "threads, mix: 90%% semantic search / 10%% register, window: %d ms\n\n",
      kNodeRps, kThreads, kMeasureMs);

  bench::BenchReport report("replication");
  report.Set("node_rps_cap", kNodeRps);
  report.Set("driver_threads", static_cast<int64_t>(kThreads));
  report.Set("measure_ms", static_cast<int64_t>(kMeasureMs));

  std::printf("  %-10s %-12s %-10s %-12s %-12s %-8s\n", "followers",
              "read_qps", "speedup", "throttled", "write_qps", "parity");
  double baseline_qps = 0.0;
  bool all_parity = true;
  long total_errors = 0;
  std::vector<ScenarioResult> rows;
  int seed_base = 0;
  for (int followers : follower_counts) {
    ScenarioResult r = RunScenario(followers, kNodeRps, kThreads, kWarmupMs,
                                   kMeasureMs, seed_base);
    seed_base += 1000;
    if (followers == 0) baseline_qps = r.read_qps;
    const double speedup =
        baseline_qps > 0 ? r.read_qps / baseline_qps : 0.0;
    std::printf("  %-10d %-12.1f %-10.2f %-12ld %-12.1f %-8s\n", followers,
                r.read_qps, speedup, r.reads_throttled, r.write_qps,
                r.parity ? "ok" : "DIVERGED");
    all_parity = all_parity && r.parity;
    total_errors += r.errors;

    Value& row = report.AddRow();
    row["followers"] = static_cast<int64_t>(followers);
    row["read_qps"] = r.read_qps;
    row["write_qps"] = r.write_qps;
    row["speedup_vs_leader_only"] = speedup;
    row["reads_admitted"] = static_cast<int64_t>(r.reads_ok);
    row["reads_throttled"] = static_cast<int64_t>(r.reads_throttled);
    row["writes_admitted"] = static_cast<int64_t>(r.writes_ok);
    row["writes_throttled"] = static_cast<int64_t>(r.writes_throttled);
    row["errors"] = static_cast<int64_t>(r.errors);
    row["quiesce_lag_ms"] = r.quiesce_lag_ms;
    row["parity"] = r.parity;
    rows.push_back(r);
  }
  std::printf("\n");

  // Replication lag across the whole run: follower-side apply lag
  // (leader append wall time -> follower apply wall time, long-poll
  // shipping cadence included).
  bench::PrintHistogramSummary("replication lag (append -> apply)",
                               {{"laminar_repl_lag_ms", ""}});
  report.AddHistogram("laminar_repl_lag_ms");
  const telemetry::Histogram* lag =
      telemetry::MetricsRegistry::Global().FindHistogram(
          "laminar_repl_lag_ms", "");
  if (lag != nullptr) {
    telemetry::Histogram::Snapshot s = lag->snapshot();
    if (s.count > 0) {
      report.Set("lag_p50_ms", s.Percentile(0.50));
      report.Set("lag_p99_ms", s.Percentile(0.99));
    }
  }
  if (!smoke) {
    report.Set("leader_only_read_qps", baseline_qps);
    for (const ScenarioResult& r : rows) {
      if (r.followers == 2 && baseline_qps > 0) {
        report.Set("speedup_2_followers", r.read_qps / baseline_qps);
      }
      if (r.followers == 4 && baseline_qps > 0) {
        report.Set("speedup_4_followers", r.read_qps / baseline_qps);
      }
    }
  }
  if (!smoke) report.Write();  // a smoke run gates; it records nothing

  bool ok = true;
  auto gate = [&](bool cond, const char* what) {
    if (!cond) {
      std::fprintf(stderr, "GATE FAILED: %s\n", what);
      ok = false;
    }
  };
  // Correctness gates run in both modes: followers must serve bit-identical
  // search results at quiesce, and nothing may fail with anything dirtier
  // than a clean 429.
  gate(all_parity, "follower search results bit-identical to leader");
  gate(total_errors == 0, "no driver op failed outside the 429 contract");
  if (smoke) {
    const ScenarioResult& r = rows.front();
    gate(r.reads_ok > 0, "mixed burst admitted reads through the fan-out");
    gate(r.writes_ok > 0, "mixed burst admitted writes on the leader");
  } else {
    // Scaling gates (the ISSUE 9 acceptance bar): admitted read throughput
    // must scale with the replica count under fixed per-node capacity.
    for (const ScenarioResult& r : rows) {
      const double speedup =
          baseline_qps > 0 ? r.read_qps / baseline_qps : 0.0;
      if (r.followers == 2) {
        gate(speedup >= 1.7, "2 followers reach >= 1.7x leader-only QPS");
      }
      if (r.followers == 4) {
        gate(speedup >= 3.0, "4 followers reach >= 3.0x leader-only QPS");
      }
    }
  }
  if (!ok) return 1;
  std::printf("%s gates passed\n", smoke ? "smoke" : "scaling");
  return 0;
}
