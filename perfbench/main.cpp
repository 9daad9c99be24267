// perfbench_load: the Laminar end-to-end benchmark's load generator.
//
//   perfbench_load --serve PATH/laminar_serve --workload NAME --seed N
//                  --seconds S --trace 0|1 [--commit ID]
//
// --trace 0 spawns the real laminar_serve binary (set up several times;
// setup_s is the median), drives it over TCP loopback from this one
// process, checks every reply and prints the end-to-end metrics. --trace 1
// runs the in-process traced breakdown instead (traced.cpp). Either way the
// last stdout line is the JSON result object.
#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <mutex>
#include <string>
#include <thread>

#include "bench_lib.hpp"
#include "harness.hpp"

namespace perfbench {
namespace {

namespace client = laminar::client;

struct OpRecord {
  OpClass cls;
  double start_s;  ///< since the measured phase began
  double ms;
};

/// Closed-loop numbers are taken per one-second window and reported as the
/// median over windows, so a burst of interference on a shared host moves
/// a few windows rather than the whole result.
constexpr double kWindowS = 1.0;

struct WindowedStats {
  double ops_per_s = 0.0;
  double search_p50_ms = 0.0;
  double other_p50_ms = 0.0;  ///< write or recommend
  size_t windows = 0;
};

WindowedStats Windowed(const std::vector<OpRecord>& ops, double elapsed_s) {
  const size_t n = static_cast<size_t>(elapsed_s / kWindowS);
  std::vector<std::vector<double>> search(n), other(n);
  std::vector<double> count(n, 0.0);
  for (const OpRecord& op : ops) {
    const size_t w = static_cast<size_t>(op.start_s / kWindowS);
    if (w >= n) continue;
    count[w] += 1.0;
    (op.cls == kSearch ? search : other)[w].push_back(op.ms);
  }
  std::vector<double> rate, search_p50, other_p50;
  for (size_t w = 0; w < n; ++w) {
    rate.push_back(count[w] / kWindowS);
    if (!search[w].empty()) search_p50.push_back(PercentileAt(search[w], 500).value);
    if (!other[w].empty()) other_p50.push_back(PercentileAt(other[w], 500).value);
  }
  return {PercentileAt(rate, 500).value, PercentileAt(search_p50, 500).value,
          PercentileAt(other_p50, 500).value, n};
}

/// Failure bookkeeping shared by the load threads.
class Failures {
 public:
  void Add(const std::string& what) {
    std::lock_guard<std::mutex> lock(mu_);
    if (++count_ <= 8) std::fprintf(stderr, "perfbench: FAILED %s\n", what.c_str());
  }
  int64_t count() const {
    std::lock_guard<std::mutex> lock(mu_);
    return count_;
  }

 private:
  mutable std::mutex mu_;
  int64_t count_ = 0;
};

double Median(std::vector<double> v) { return PercentileAt(std::move(v), 500).value; }

void PrintRow(const std::string& name, double value, const std::string& unit,
              const std::string& note = "") {
  std::printf("  %-24s %14.4f %-18s %s\n", name.c_str(), value, unit.c_str(),
              note.c_str());
}

/// Prints `<prefix>_p50_ms` and the tail row; returns {p50, tail}.
std::pair<PercentileValue, PercentileValue> PrintLatency(
    const std::string& prefix, const std::vector<double>& ms) {
  PercentileValue p50 = PercentileAt(ms, 500);
  PercentileValue tail = TailPercentile(ms);
  char note[96];
  std::snprintf(note, sizeof note, "n=%zu", p50.samples);
  PrintRow(prefix + "_p50_ms", p50.value, "ms", note);
  std::snprintf(note, sizeof note, "p%g over n=%zu, %zu beyond",
                tail.percentile, tail.samples, tail.beyond);
  PrintRow(prefix + "_tail_ms", tail.value, "ms", note);
  return {p50, tail};
}

/// Short fixed warm-up so lazy state (allocations, query cache, engine
/// instances) exists before timing; excluded from the measured phase.
bool Warmup(const Workload& w, const Inputs& in,
            std::vector<client::TcpClient>& clients, int64_t workflow_id) {
  for (size_t c = 0; c < clients.size(); ++c) {
    client::LaminarClient& cl = *clients[c].client;
    if (w.open_loop) {
      client::RunOutcome run = cl.RunRaw(RunRequest(workflow_id));
      if (!run.status.ok()) return false;
      continue;
    }
    for (size_t i = 0; i < 10; ++i) {
      if (!cl.SearchRegistrySemantic(in.queries[i], "pe", 5).ok()) return false;
    }
    if (w.recommend_share > 0 &&
        !cl.CodeRecommendation(in.code_queries[c], "pe", "spt", 5).ok()) {
      return false;
    }
    if (w.write_share > 0) {
      const client::PeSource& pe = in.fresh[c].back();
      laminar::Result<client::PeInfo> reg =
          cl.RegisterPe(pe.code, "Warmup" + std::to_string(c), "");
      if (!reg.ok() || !cl.RemovePe(reg->id).ok()) return false;
    }
  }
  return true;
}

struct ClosedLoopResult {
  std::vector<OpRecord> ops;
  double elapsed_s = 0.0;
};

/// Closed loop: each client sends its next request when the previous one
/// returns, until the deadline. Churn clients drain their outstanding PE
/// after the deadline (untimed) so the registry ends at the corpus size.
ClosedLoopResult RunClosedLoop(const Workload& w, const Inputs& in,
                               std::vector<client::TcpClient>& clients,
                               double seconds, Failures& failures,
                               int64_t* attempted) {
  const ZipfSampler zipf(in.queries.size(), 1.0);
  std::vector<std::vector<OpRecord>> per_client(clients.size());
  std::vector<Clock::time_point> ends(clients.size());
  std::atomic<int64_t> extra_attempts{0};
  const Clock::time_point start = Clock::now();
  const Clock::time_point deadline =
      start + std::chrono::duration_cast<Clock::duration>(
                  std::chrono::duration<double>(seconds));
  auto loop = [&](size_t c) {
    client::LaminarClient& cl = *clients[c].client;
    laminar::Rng rng(DeriveSeed(in.seed, 300 + c));
    ChurnPlan plan(DeriveSeed(in.seed, 400 + c), w.write_share);
    std::vector<OpRecord>& ops = per_client[c];
    int64_t outstanding = 0;
    size_t registered = 0;
    while (Clock::now() < deadline) {
      OpClass cls = kSearch;
      if (w.write_share > 0) {
        ChurnPlan::Op op = plan.Next();
        cls = op == ChurnPlan::Op::kSearch     ? kSearch
              : op == ChurnPlan::Op::kRegister ? kRegister
                                               : kRemove;
      } else if (rng.NextBool(w.recommend_share)) {
        cls = kRecommend;
      }
      const Clock::time_point t0 = Clock::now();
      std::string error;
      if (cls == kSearch) {
        const std::string& q = in.queries[zipf.Sample(rng)];
        auto hits = cl.SearchRegistrySemantic(q, "pe", 5);
        if (!hits.ok()) {
          error = hits.status().ToString();
        } else if (hits->size() != 5) {
          error = "semantic search returned " + std::to_string(hits->size()) +
                  " hits";
        }
      } else if (cls == kRecommend) {
        const std::string& code =
            in.code_queries[rng.NextBelow(in.code_queries.size())];
        auto hits = cl.CodeRecommendation(code, "pe", "spt", 5);
        if (!hits.ok()) error = hits.status().ToString();
      } else if (cls == kRegister) {
        const client::PeSource& pe = in.fresh[c][registered % in.fresh[c].size()];
        auto reg = cl.RegisterPe(pe.code,
                                 "Churn" + std::to_string(c) + "_" +
                                     std::to_string(registered++),
                                 "");
        if (reg.ok()) {
          outstanding = reg->id;
        } else {
          error = reg.status().ToString();
        }
      } else {
        laminar::Status st = cl.RemovePe(outstanding);
        if (!st.ok()) error = st.ToString();
        outstanding = 0;
      }
      ops.push_back({cls, std::chrono::duration<double>(t0 - start).count(),
                     MillisBetween(t0, Clock::now())});
      if (!error.empty()) failures.Add(error);
    }
    ends[c] = Clock::now();
    if (plan.outstanding() && outstanding != 0) {
      ++extra_attempts;
      laminar::Status st = cl.RemovePe(outstanding);
      if (!st.ok()) failures.Add("drain remove: " + st.ToString());
    }
  };
  std::vector<std::thread> threads;
  for (size_t c = 0; c < clients.size(); ++c) threads.emplace_back(loop, c);
  for (std::thread& t : threads) t.join();

  ClosedLoopResult out;
  for (auto& ops : per_client) {
    out.ops.insert(out.ops.end(), ops.begin(), ops.end());
  }
  out.elapsed_s = std::chrono::duration<double>(
                      *std::max_element(ends.begin(), ends.end()) - start)
                      .count();
  *attempted += static_cast<int64_t>(out.ops.size()) + extra_attempts.load();
  return out;
}

}  // namespace

int RunUntraced(const Options& opt, const Workload& w) {
  const Inputs in = MakeInputs(w, opt.seed);
  Failures failures;
  int64_t attempted = 0;

  // Reference answers, computed in-process from the same corpus and seed
  // before the server under test exists.
  ProbeHits expected;
  {
    client::InProcessLaminar ref = client::ConnectInProcess(ServeConfig());
    laminar::Result<int64_t> loaded = LoadCorpus(*ref.client, in);
    laminar::Result<ProbeHits> probes =
        loaded.ok() ? RunProbes(*ref.client, in) : loaded.status();
    if (!probes.ok()) {
      std::fprintf(stderr, "perfbench: reference failed: %s\n",
                   probes.status().ToString().c_str());
      return 1;
    }
    expected = std::move(probes.value());
  }
  RunReference run_ref;
  if (w.open_loop) {
    laminar::Result<RunReference> r = ComputeRunReference(in);
    if (!r.ok()) {
      std::fprintf(stderr, "perfbench: run reference failed: %s\n",
                   r.status().ToString().c_str());
      return 1;
    }
    run_ref = std::move(r.value());
  }

  // Set-up, repeated: spawn, connect, load the corpus, warm up.
  std::vector<double> setup_s;
  std::unique_ptr<ServerProcess> server;
  std::vector<client::TcpClient> clients;
  int64_t workflow_id = 0;
  for (int s = 0; s < w.setups; ++s) {
    clients.clear();
    server.reset();
    const Clock::time_point t0 = Clock::now();
    auto spawned = ServerProcess::Spawn(opt.serve_binary);
    if (!spawned.ok()) {
      std::fprintf(stderr, "perfbench: %s\n",
                   spawned.status().ToString().c_str());
      return 1;
    }
    server = std::move(spawned.value());
    auto connected = ConnectClients(server->port(), w.connections);
    laminar::Result<int64_t> loaded =
        connected.ok() ? LoadCorpus(*connected.value()[0].client, in)
                       : laminar::Result<int64_t>(connected.status());
    if (!loaded.ok()) {
      std::fprintf(stderr, "perfbench: set-up failed: %s\n",
                   loaded.status().ToString().c_str());
      return 1;
    }
    clients = std::move(connected.value());
    workflow_id = loaded.value();
    if (!Warmup(w, in, clients, workflow_id)) {
      std::fprintf(stderr, "perfbench: warm-up failed\n");
      return 1;
    }
    setup_s.push_back(
        std::chrono::duration<double>(Clock::now() - t0).count());
  }
  client::LaminarClient& main_client = *clients[0].client;

  std::string simd_tier = "unknown";
  if (auto stats = main_client.GetStats(); stats.ok()) {
    simd_tier = stats->at("search").at("simd").GetString("tier", "unknown");
  }

  auto check_probes = [&](const char* when) {
    attempted += static_cast<int64_t>(expected.size());
    laminar::Result<ProbeHits> got = RunProbes(main_client, in);
    if (!got.ok()) {
      failures.Add(std::string("probes ") + when + ": " +
                   got.status().ToString());
    } else if (got.value() != expected) {
      failures.Add(std::string("probe results ") + when +
                   " load differ from the in-process reference");
    }
  };
  check_probes("before");

  std::vector<double> primary, secondary, first_output, lag;
  double ops_per_s = 0.0;
  const HostCpu cpu0 = ReadHostCpu();
  WindowedStats windowed;
  if (w.open_loop) {
    auto op = [&](size_t, int worker, Clock::time_point* first) {
      bool got_first = false;
      client::RunOutcome run = clients[worker].client->RunRaw(
          RunRequest(workflow_id), [&](const std::string&) {
            if (!got_first) *first = Clock::now();
            got_first = true;
          });
      if (!run.status.ok()) {
        failures.Add("run: " + run.status.ToString());
        return false;
      }
      std::sort(run.lines.begin(), run.lines.end());
      if (run.lines != run_ref.sorted_lines ||
          run.stats.GetInt("tuples", -1) != run_ref.tuples) {
        failures.Add("run output differs from the sequential mapping");
        return false;
      }
      return true;
    };
    std::vector<OpenLoopSample> samples =
        RunOpenLoop(w.runs_per_s, opt.seconds, w.connections, op);
    double end_s = 0.0;
    for (const OpenLoopSample& s : samples) {
      primary.push_back(s.latency_ms);
      first_output.push_back(s.first_output_ms);
      lag.push_back(s.lag_ms);
      end_s = std::max(end_s, s.index / w.runs_per_s + s.latency_ms / 1000.0);
    }
    attempted += static_cast<int64_t>(samples.size());
    ops_per_s = samples.size() / end_s;
  } else {
    ClosedLoopResult r =
        RunClosedLoop(w, in, clients, opt.seconds, failures, &attempted);
    for (const OpRecord& op : r.ops) {
      (op.cls == kSearch ? primary : secondary).push_back(op.ms);
    }
    windowed = Windowed(r.ops, r.elapsed_s);
    ops_per_s = windowed.ops_per_s;
  }

  const double steal_pct = StealPercent(cpu0, ReadHostCpu());
  check_probes("after");
  if (w.write_share > 0) {
    ++attempted;
    auto stats = main_client.GetStats();
    const int64_t pes = stats.ok() ? stats->GetInt("pes", -1) : -1;
    if (pes != static_cast<int64_t>(in.corpus.size())) {
      failures.Add("registry holds " + std::to_string(pes) +
                   " PEs after churn, expected " +
                   std::to_string(in.corpus.size()));
    }
  }
  const double rss_mb = server->PeakRssMb();
  clients.clear();
  server->Stop();

  const int64_t failed = failures.count();
  PrintStamp(simd_tier, opt.commit);
  std::printf("# workload=%s seed=%llu seconds=%g loop=%s\n", w.name.c_str(),
              static_cast<unsigned long long>(opt.seed), opt.seconds,
              w.open_loop ? "open" : "closed");
  std::printf("# host steal during the measured phase: %.1f%% of CPU time\n",
              steal_pct);
  const double setup_median = Median(setup_s);
  PrintRow("setup_s", setup_median, "s",
           "median of " + std::to_string(setup_s.size()) + " set-ups");
  PrintRow("server_rss_mb", rss_mb, "MB", "VmHWM of laminar_serve");
  PrintRow("error_rate",
           attempted > 0 ? static_cast<double>(failed) / attempted : 0.0,
           "failed/attempted",
           std::to_string(failed) + "/" + std::to_string(attempted));
  std::vector<Metric> metrics = {{"setup_s", setup_median, "s"},
                                 {"server_rss_mb", rss_mb, "MB"},
                                 {"ops_per_s", ops_per_s, "1/s"}};
  if (w.open_loop) {
    PrintRow("ops_per_s", ops_per_s, "runs/s", "completed runs");
    const auto run = PrintLatency("run", primary);
    const auto first = PrintLatency("first_output", first_output);
    PrintLatency("client.lag", lag);
    metrics.push_back({"p50_ms", run.first.value, "ms"});
    metrics.push_back({"secondary_p50_ms", first.first.value, "ms"});
  } else {
    const std::string note =
        "median of " + std::to_string(windowed.windows) + " 1-s windows";
    PrintRow("ops_per_s", ops_per_s, "requests/s", note);
    const std::string other = w.write_share > 0 ? "write" : "recommend";
    PrintRow("search_p50_ms", windowed.search_p50_ms, "ms", note);
    PrintRow(other + "_p50_ms", windowed.other_p50_ms, "ms", note);
    PrintLatency("search.all", primary);
    PrintLatency(other + ".all", secondary);
    metrics.push_back({"p50_ms", windowed.search_p50_ms, "ms"});
    metrics.push_back({"secondary_p50_ms", windowed.other_p50_ms, "ms"});
  }
  PrintResult(failed == 0, attempted, failed, metrics);
  return 0;
}

}  // namespace perfbench

int main(int argc, char** argv) {
  perfbench::Options opt;
  for (int i = 1; i < argc; ++i) {
    auto next = [&]() -> std::string {
      if (i + 1 >= argc) {
        std::fprintf(stderr, "perfbench: %s needs a value\n", argv[i]);
        std::exit(2);
      }
      return argv[++i];
    };
    const std::string arg = argv[i];
    if (arg == "--serve") {
      opt.serve_binary = next();
    } else if (arg == "--workload") {
      opt.workload = next();
    } else if (arg == "--seed") {
      opt.seed = std::strtoull(next().c_str(), nullptr, 10);
    } else if (arg == "--seconds") {
      opt.seconds = std::atof(next().c_str());
    } else if (arg == "--trace") {
      opt.trace = next() != "0";
    } else if (arg == "--commit") {
      opt.commit = next();
    } else {
      std::fprintf(stderr, "perfbench: unknown argument %s\n", arg.c_str());
      return 2;
    }
  }
  const perfbench::Workload* w = perfbench::FindWorkload(opt.workload);
  if (w == nullptr || opt.seconds <= 0 ||
      (!opt.trace && opt.serve_binary.empty())) {
    std::fprintf(stderr,
                 "usage: perfbench_load --serve BIN --workload NAME --seed N "
                 "--seconds S --trace 0|1\n");
    return 2;
  }
  return opt.trace ? perfbench::RunTraced(opt, *w)
                   : perfbench::RunUntraced(opt, *w);
}
