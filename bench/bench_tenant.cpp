// Multi-tenant overload bench (ISSUE 8): one server, three tenants — alice
// and bob behave, mallory floods /execute from several threads. Mallory is
// boxed in by tenant quotas (one concurrent run, two queued, low fair-share
// weight), so the admission controller and FairRunQueue must keep the good
// tenants' throughput close to what they get on an idle server.
//
// Phase 1 measures each good tenant's isolated run QPS; phase 2 repeats the
// same workload while mallory floods. Headline: retained QPS fraction per
// good tenant, mallory's admitted/throttled split, and the per-tenant
// /stats slice reconciled against client-observed outcomes.
//
// --smoke shrinks the load and turns the fairness properties into gates:
// goods retain >= 80% of isolated QPS, every mallory refusal is a clean
// 429/408 (never a 5xx), quotas actually fired, and /stats matches what the
// clients saw.
#include <atomic>
#include <cstdio>
#include <cstring>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "bench_util.hpp"
#include "client/connect.hpp"
#include "common/json.hpp"

using namespace laminar;

namespace {

/// Latency-bound run (IoWait models the external-I/O waits that dominate
/// real serverless PEs): throughput is governed by the run scheduler, not
/// by raw CPU contention, so fairness is measurable even on tiny hosts.
Value RunSpecJson(int64_t wait_ms_per_tuple) {
  const char* templ = R"({
    "name": "tenant_wf",
    "pes": [
      {"name": "Producer", "type": "NumberProducer",
       "params": {"seed": 3, "lo": 1, "hi": 50}},
      {"name": "Wait", "type": "IoWait", "params": {"millis": %lld}},
      {"name": "Echo", "type": "EchoSink", "params": {}}
    ],
    "edges": [
      {"from": "Producer", "to": "Wait"},
      {"from": "Wait", "to": "Echo"}
    ]
  })";
  char buf[1024];
  std::snprintf(buf, sizeof buf, templ,
                static_cast<long long>(wait_ms_per_tuple));
  return json::Parse(buf).value();
}

server::ServerConfig TenantServer() {
  server::ServerConfig config;
  config.engine.cold_start_ms = 0;
  config.run_workers = 4;  // slot pool the three tenants share
  // Mallory's box: one running, two queued, a quarter fair share. No
  // request-rate limit, so every refusal below is the run queue's doing and
  // /stats runsRejected reconciles exactly with client-observed 429s.
  server::TenantQuotas hostile;
  hostile.max_concurrent_runs = 1;
  hostile.max_queued_runs = 2;
  hostile.weight = 0.25;
  config.tenant_overrides["mallory"] = hostile;
  return config;
}

/// Client-observed outcomes of one tenant's drive loop.
struct DriveResult {
  int ok = 0;
  int rejected_429 = 0;
  int deadline_408 = 0;
  int other_errors = 0;  // anything that is not a clean refusal (gate: 0)
  double qps = 0.0;
};

/// Runs `runs` sequential executions as `tenant` and reports QPS.
DriveResult DriveRuns(server::LaminarServer& server, const std::string& tenant,
                      const Value& spec, int runs) {
  client::ExtraClient c = client::AttachClient(server);
  c.client->SetTenant(tenant);
  DriveResult r;
  Stopwatch wall;
  for (int i = 0; i < runs; ++i) {
    client::RunOutcome run = c.client->RunSpec(spec, "simple", Value(4));
    if (run.status.ok()) {
      ++r.ok;
    } else if (run.status.code() == StatusCode::kResourceExhausted) {
      ++r.rejected_429;
    } else if (run.status.code() == StatusCode::kDeadlineExceeded) {
      ++r.deadline_408;
    } else {
      ++r.other_errors;
      std::fprintf(stderr, "%s run error: %s\n", tenant.c_str(),
                   run.status.ToString().c_str());
    }
  }
  double secs = wall.ElapsedSeconds();
  r.qps = secs > 0 ? runs / secs : 0.0;
  return r;
}

/// Floods /execute as mallory until `stop`; respects the server's
/// retry-after hint loosely (a short pause per refusal) the way a
/// well-written but hostile client would.
DriveResult Flood(server::LaminarServer& server, const Value& spec,
                  const std::atomic<bool>& stop) {
  client::ExtraClient c = client::AttachClient(server);
  c.client->SetTenant("mallory");
  DriveResult r;
  while (!stop.load(std::memory_order_acquire)) {
    client::RunOutcome run = c.client->RunSpec(spec, "simple", Value(4));
    if (run.status.ok()) {
      ++r.ok;
    } else if (run.status.code() == StatusCode::kResourceExhausted) {
      ++r.rejected_429;
      std::this_thread::sleep_for(std::chrono::milliseconds(5));
    } else if (run.status.code() == StatusCode::kDeadlineExceeded) {
      ++r.deadline_408;
    } else {
      ++r.other_errors;
      std::fprintf(stderr, "mallory run error: %s\n",
                   run.status.ToString().c_str());
    }
  }
  return r;
}

}  // namespace

int main(int argc, char** argv) {
  bool smoke = argc > 1 && std::strcmp(argv[1], "--smoke") == 0;
  const int kRunsPerTenant = smoke ? 10 : 40;
  const int kFloodThreads = 4;
  const int64_t kWaitMs = smoke ? 2 : 5;

  client::InProcessLaminar laminar = client::ConnectInProcess(TenantServer());
  const Value spec = RunSpecJson(kWaitMs);

  std::printf("== tenant overload bench: 2 good tenants vs 1 hostile ==\n");
  std::printf("runs/tenant: %d, flood threads: %d, run slots: 4, "
              "mallory box: 1 running / 2 queued / weight 0.25\n\n",
              kRunsPerTenant, kFloodThreads);

  // Phase 1: each good tenant alone on the server.
  DriveResult alice_iso = DriveRuns(*laminar.server, "alice", spec,
                                    kRunsPerTenant);
  DriveResult bob_iso = DriveRuns(*laminar.server, "bob", spec,
                                  kRunsPerTenant);
  std::printf("isolated:  alice %.1f qps, bob %.1f qps\n", alice_iso.qps,
              bob_iso.qps);

  // Phase 2: same workload while mallory floods from kFloodThreads threads.
  std::atomic<bool> stop{false};
  std::vector<std::thread> flood_threads;
  std::vector<DriveResult> flood_results(kFloodThreads);
  for (int i = 0; i < kFloodThreads; ++i) {
    flood_threads.emplace_back([&, i] {
      flood_results[i] = Flood(*laminar.server, spec, stop);
    });
  }
  DriveResult alice_load;
  DriveResult bob_load;
  std::thread alice_thread([&] {
    alice_load = DriveRuns(*laminar.server, "alice", spec, kRunsPerTenant);
  });
  std::thread bob_thread([&] {
    bob_load = DriveRuns(*laminar.server, "bob", spec, kRunsPerTenant);
  });
  alice_thread.join();
  bob_thread.join();
  stop.store(true, std::memory_order_release);
  for (std::thread& t : flood_threads) t.join();

  DriveResult mallory;
  for (const DriveResult& r : flood_results) {
    mallory.ok += r.ok;
    mallory.rejected_429 += r.rejected_429;
    mallory.deadline_408 += r.deadline_408;
    mallory.other_errors += r.other_errors;
  }

  double alice_retained =
      alice_iso.qps > 0 ? alice_load.qps / alice_iso.qps : 0.0;
  double bob_retained = bob_iso.qps > 0 ? bob_load.qps / bob_iso.qps : 0.0;
  std::printf("contended: alice %.1f qps (%.0f%%), bob %.1f qps (%.0f%%)\n",
              alice_load.qps, 100.0 * alice_retained, bob_load.qps,
              100.0 * bob_retained);
  std::printf("mallory:   %d admitted, %d refused 429, %d expired 408, "
              "%d other\n\n",
              mallory.ok, mallory.rejected_429, mallory.deadline_408,
              mallory.other_errors);

  // Reconcile the per-tenant /stats slice with client-observed outcomes.
  Result<Value> stats = laminar.client->GetStats();
  if (!stats.ok()) {
    std::fprintf(stderr, "GetStats: %s\n", stats.status().ToString().c_str());
    return 1;
  }
  const Value& tenants = stats->at("tenants");
  const int alice_total_ok = alice_iso.ok + alice_load.ok;
  const int bob_total_ok = bob_iso.ok + bob_load.ok;
  std::printf("/stats tenants slice:\n");
  for (const char* t : {"alice", "bob", "mallory"}) {
    const Value& row = tenants.at(t);
    std::printf("  %-8s runsSucceeded %-4lld runsRejected %-4lld "
                "runsAdmitted %-4lld queued %lld\n",
                t, static_cast<long long>(row.GetInt("runsSucceeded")),
                static_cast<long long>(row.GetInt("runsRejected")),
                static_cast<long long>(row.GetInt("runsAdmitted")),
                static_cast<long long>(row.GetInt("queued")));
  }

  bench::BenchReport report("tenant");
  for (const char* t : {"alice", "bob", "mallory"}) {
    const Value& slice = tenants.at(t);
    Value& row = report.AddRow();
    row["tenant"] = t;
    row["runsSucceeded"] = slice.GetInt("runsSucceeded");
    row["runsRejected"] = slice.GetInt("runsRejected");
    row["runsAdmitted"] = slice.GetInt("runsAdmitted");
  }
  report.Set("alice_isolated_qps", alice_iso.qps);
  report.Set("alice_contended_qps", alice_load.qps);
  report.Set("alice_retained", alice_retained);
  report.Set("bob_isolated_qps", bob_iso.qps);
  report.Set("bob_contended_qps", bob_load.qps);
  report.Set("bob_retained", bob_retained);
  report.Set("mallory_admitted", static_cast<int64_t>(mallory.ok));
  report.Set("mallory_rejected_429", static_cast<int64_t>(mallory.rejected_429));
  report.Set("mallory_deadline_408", static_cast<int64_t>(mallory.deadline_408));
  report.AddHistogram("laminar_tenant_queue_wait_ms", "tenant=\"alice\"");
  report.AddHistogram("laminar_tenant_queue_wait_ms", "tenant=\"mallory\"");
  if (!smoke) report.Write();  // a smoke run gates; it records nothing

  if (smoke) {
    bool ok = true;
    auto gate = [&](bool cond, const char* what) {
      if (!cond) {
        std::fprintf(stderr, "SMOKE GATE FAILED: %s\n", what);
        ok = false;
      }
    };
    // Isolation: the flood must not take more than 20% off the good
    // tenants' throughput (the acceptance bar for the fair run queue).
    gate(alice_retained >= 0.8, "alice retains >= 80% of isolated QPS");
    gate(bob_retained >= 0.8, "bob retains >= 80% of isolated QPS");
    // Containment: quota refusals are clean 429/408 — never a 5xx — and
    // the box actually fired (an unboxed mallory would admit everything).
    gate(alice_iso.ok + alice_load.ok == 2 * kRunsPerTenant &&
             bob_iso.ok + bob_load.ok == 2 * kRunsPerTenant,
         "good tenants complete every run");
    gate(mallory.other_errors == 0, "no mallory refusal was a 5xx");
    gate(mallory.rejected_429 > 0, "mallory's quota box fired at least once");
    // Accounting: the per-tenant /stats slice matches what clients saw.
    gate(tenants.at("alice").GetInt("runsSucceeded") == alice_total_ok,
         "/stats alice runsSucceeded reconciles with ##END## outcomes");
    gate(tenants.at("bob").GetInt("runsSucceeded") == bob_total_ok,
         "/stats bob runsSucceeded reconciles with ##END## outcomes");
    gate(tenants.at("mallory").GetInt("runsSucceeded") == mallory.ok,
         "/stats mallory runsSucceeded reconciles");
    gate(tenants.at("mallory").GetInt("runsRejected") == mallory.rejected_429,
         "/stats mallory runsRejected reconciles with observed 429s");
    // The per-tenant telemetry series exist for scraping.
    Result<std::string> metrics = laminar.client->GetMetrics();
    gate(metrics.ok() &&
             metrics->find("laminar_tenant_runs_total{tenant=\"mallory\"") !=
                 std::string::npos,
         "per-tenant run counters exposed on /metrics");
    if (!ok) return 1;
    std::printf("smoke gates passed\n");
  }
  return 0;
}
