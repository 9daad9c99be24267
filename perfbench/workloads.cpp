#include <fcntl.h>
#include <poll.h>
#include <signal.h>
#include <spawn.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <string>
#include <thread>

#include "bench_lib.hpp"
#include "client/demo_workflows.hpp"
#include "common/json.hpp"
#include "dataflow/sequential_mapping.hpp"
#include "dataset/generator.hpp"
#include "engine/workflow_spec.hpp"
#include "harness.hpp"

extern char** environ;

namespace perfbench {

using laminar::Result;
using laminar::Status;
using laminar::Value;
namespace client = laminar::client;

namespace {

const std::vector<Workload>& Workloads() {
  static const std::vector<Workload> kWorkloads = [] {
    std::vector<Workload> w(3);
    w[0].name = "small_registry_churn";
    w[0].variants = 4;
    w[0].connections = 3;
    w[0].write_share = 0.10;
    w[0].setups = 7;
    w[1].name = "large_registry_search";
    w[1].variants = 120;
    w[1].connections = 2;
    w[1].recommend_share = 0.5;
    w[2].name = "dynamic_stream";
    w[2].connections = 3;
    w[2].open_loop = true;
    w[2].runs_per_s = 20.0;
    w[2].setups = 7;
    return w;
  }();
  return kWorkloads;
}

constexpr size_t kQueryPool = 4096;
constexpr size_t kCodeQueries = 256;
constexpr size_t kFreshPerClient = 256;
constexpr size_t kBulkBatch = 256;

}  // namespace

const Workload* FindWorkload(const std::string& name) {
  for (const Workload& w : Workloads()) {
    if (w.name == name) return &w;
  }
  return nullptr;
}

Inputs MakeInputs(const Workload& workload, uint64_t seed) {
  namespace dataset = laminar::dataset;
  Inputs in;
  in.seed = seed;
  laminar::Rng rng(DeriveSeed(seed, 1));

  if (workload.variants > 0) {
    dataset::DatasetConfig cfg;
    cfg.families = kFamilies;
    cfg.variants_per_family = workload.variants;
    cfg.seed = DeriveSeed(seed, 2);
    const auto corpus = dataset::CodeSearchNetPeDataset::Generate(cfg);
    for (const dataset::PeExample& ex : corpus.examples()) {
      in.corpus.push_back({ex.pe_code, ex.name, ex.description});
    }
  }

  std::vector<std::string> bases;
  const auto& families = dataset::Families();
  for (size_t f = 0; f < std::min(kFamilies, families.size()); ++f) {
    bases.emplace_back(families[f].description);
    bases.emplace_back(families[f].paraphrase_a);
    bases.emplace_back(families[f].paraphrase_b);
  }
  in.queries = BuildQueryPool(bases, DeriveSeed(seed, 3), kQueryPool);

  const client::DemoWorkflow* isprime =
      client::FindDemoWorkflow("isprime_wf");
  in.run_spec = isprime->spec;
  Value& producer = in.run_spec["pes"].mutable_array()[0]["params"];
  producer["seed"] = static_cast<int64_t>(DeriveSeed(seed, 4) % 1000000007ULL);
  producer["hi"] = 100000;
  in.run_spec["name"] = "isprime_bench";
  in.run_pes = isprime->pes;
  in.run_code = isprime->code;

  std::vector<std::string> sources;
  for (const client::PeSource& pe :
       in.corpus.empty() ? in.run_pes : in.corpus) {
    sources.push_back(pe.code);
  }
  for (size_t i = 0; i < kCodeQueries; ++i) {
    in.code_queries.push_back(
        dataset::DropCode(rng.Choice(sources), 0.5, dataset::DropMode::kTail));
  }

  if (workload.write_share > 0) {
    for (int c = 0; c < workload.connections; ++c) {
      dataset::DatasetConfig cfg;
      cfg.families = kFamilies;
      cfg.variants_per_family = kFreshPerClient / kFamilies + 1;
      cfg.seed = DeriveSeed(seed, 100 + c);
      const auto rendered = dataset::CodeSearchNetPeDataset::Generate(cfg);
      std::vector<client::PeSource> fresh;
      for (const dataset::PeExample& ex : rendered.examples()) {
        fresh.push_back({ex.pe_code, "", ""});
      }
      laminar::Rng shuffle(DeriveSeed(seed, 200 + c));
      shuffle.Shuffle(fresh);
      fresh.resize(std::min(fresh.size(), kFreshPerClient));
      in.fresh.push_back(std::move(fresh));
    }
  }

  for (size_t rank : {0, 1, 2, 3, 4, 5, 64, 512, 1024, 2048}) {
    if (rank < in.queries.size()) in.probe_queries.push_back(in.queries[rank]);
  }
  for (size_t i = 0; i < 6; ++i) in.probe_codes.push_back(in.code_queries[i]);
  return in;
}

laminar::server::ServerConfig ServeConfig() {
  laminar::server::ServerConfig config;
  config.engine.cold_start_ms = 0;
  return config;
}

// ---------------------------------------------------------------------------
// laminar_serve child process

Result<std::unique_ptr<ServerProcess>> ServerProcess::Spawn(
    const std::string& binary) {
  int in_pipe[2];
  int out_pipe[2];
  if (pipe2(in_pipe, O_CLOEXEC) != 0) return Status::Internal("pipe2 failed");
  if (pipe2(out_pipe, O_CLOEXEC) != 0) {
    close(in_pipe[0]);
    close(in_pipe[1]);
    return Status::Internal("pipe2 failed");
  }
  posix_spawn_file_actions_t actions;
  posix_spawn_file_actions_init(&actions);
  posix_spawn_file_actions_adddup2(&actions, in_pipe[0], 0);
  posix_spawn_file_actions_adddup2(&actions, out_pipe[1], 1);
  std::vector<std::string> args = {binary, "--port", "0", "--stdin-eof"};
  std::vector<char*> argv;
  for (std::string& a : args) argv.push_back(a.data());
  argv.push_back(nullptr);
  std::unique_ptr<ServerProcess> proc(new ServerProcess());
  int rc = posix_spawn(&proc->pid_, binary.c_str(), &actions, nullptr,
                       argv.data(), environ);
  posix_spawn_file_actions_destroy(&actions);
  close(in_pipe[0]);
  close(out_pipe[1]);
  proc->stdin_fd_ = in_pipe[1];
  proc->stdout_fd_ = out_pipe[0];
  if (rc != 0) {
    proc->pid_ = -1;
    return Status::Internal("cannot spawn " + binary + ": " +
                            std::strerror(rc));
  }
  // The banner: "laminar_serve listening on <bind>:<port>\n".
  std::string banner;
  const auto deadline = Clock::now() + std::chrono::seconds(60);
  while (banner.find('\n') == std::string::npos) {
    const int wait_ms = static_cast<int>(
        std::chrono::duration_cast<std::chrono::milliseconds>(deadline -
                                                              Clock::now())
            .count());
    pollfd pfd{proc->stdout_fd_, POLLIN, 0};
    if (wait_ms <= 0 || poll(&pfd, 1, wait_ms) <= 0) {
      return Status::Internal("laminar_serve printed no banner");
    }
    char buf[256];
    ssize_t n = read(proc->stdout_fd_, buf, sizeof buf);
    if (n <= 0) return Status::Internal("laminar_serve exited at start-up");
    banner.append(buf, static_cast<size_t>(n));
  }
  const size_t colon = banner.rfind(':', banner.find('\n'));
  if (colon == std::string::npos) {
    return Status::Internal("unexpected banner: " + banner);
  }
  proc->port_ = static_cast<uint16_t>(std::atoi(banner.c_str() + colon + 1));
  return proc;
}

ServerProcess::~ServerProcess() { Stop(); }

double ServerProcess::PeakRssMb() const {
  if (pid_ <= 0) return 0.0;
  std::ifstream status("/proc/" + std::to_string(pid_) + "/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::atof(line.c_str() + 6) / 1024.0;  // kB -> MB
    }
  }
  return 0.0;
}

void ServerProcess::Stop() {
  if (stdin_fd_ >= 0) close(stdin_fd_);
  stdin_fd_ = -1;
  if (pid_ > 0) {
    int status = 0;
    const auto deadline = Clock::now() + std::chrono::seconds(20);
    while (waitpid(pid_, &status, WNOHANG) == 0) {
      if (Clock::now() > deadline) {
        kill(pid_, SIGKILL);
        waitpid(pid_, &status, 0);
        break;
      }
      std::this_thread::sleep_for(std::chrono::milliseconds(2));
    }
    pid_ = -1;
  }
  if (stdout_fd_ >= 0) close(stdout_fd_);
  stdout_fd_ = -1;
}

Result<std::vector<client::TcpClient>> ConnectClients(uint16_t port, int n) {
  std::vector<client::TcpClient> clients;
  laminar::net::TcpConnectOptions options;
  options.attempts = 20;
  for (int i = 0; i < n; ++i) {
    Result<client::TcpClient> c =
        client::ConnectTcp("127.0.0.1:" + std::to_string(port), options);
    if (!c.ok()) return c.status();
    clients.push_back(std::move(c.value()));
  }
  return clients;
}

Result<int64_t> LoadCorpus(client::LaminarClient& client,
                           const Inputs& inputs) {
  for (size_t i = 0; i < inputs.corpus.size(); i += kBulkBatch) {
    const size_t end = std::min(inputs.corpus.size(), i + kBulkBatch);
    std::vector<client::PeSource> batch(inputs.corpus.begin() + i,
                                        inputs.corpus.begin() + end);
    Result<std::vector<int64_t>> ids = client.BulkRegisterPes(batch);
    if (!ids.ok()) return ids.status();
    if (ids->size() != batch.size()) {
      return Status::Internal("bulk registration dropped PEs");
    }
  }
  if (!inputs.corpus.empty()) return int64_t{0};
  Result<client::WorkflowInfo> wf =
      client.RegisterWorkflow(inputs.run_spec.GetString("name"),
                              inputs.run_spec, inputs.run_pes,
                              inputs.run_code);
  if (!wf.ok()) return wf.status();
  return wf->id;
}

Result<ProbeHits> RunProbes(client::LaminarClient& client,
                            const Inputs& inputs) {
  ProbeHits out;
  for (const std::string& q : inputs.probe_queries) {
    Result<std::vector<client::SearchHit>> hits =
        client.SearchRegistrySemantic(q, "pe", 5);
    if (!hits.ok()) return hits.status();
    auto& row = out.emplace_back();
    for (const client::SearchHit& h : hits.value()) {
      row.emplace_back(h.id, h.score);
    }
  }
  for (const std::string& code : inputs.probe_codes) {
    Result<std::vector<client::SearchHit>> hits =
        client.CodeRecommendation(code, "pe", "spt", 5);
    if (!hits.ok()) return hits.status();
    auto& row = out.emplace_back();
    for (const client::SearchHit& h : hits.value()) {
      row.emplace_back(h.id, h.score);
    }
  }
  return out;
}

Result<RunReference> ComputeRunReference(const Inputs& inputs) {
  Result<laminar::dataflow::WorkflowGraph> graph =
      laminar::engine::BuildGraph(inputs.run_spec);
  if (!graph.ok()) return graph.status();
  laminar::dataflow::RunOptions options;
  options.input = Value(kRunInput);
  laminar::dataflow::SequentialMapping simple;
  laminar::dataflow::RunResult run = simple.Execute(graph.value(), options);
  if (!run.status.ok()) return run.status;
  RunReference ref;
  ref.sorted_lines = std::move(run.output_lines);
  std::sort(ref.sorted_lines.begin(), ref.sorted_lines.end());
  ref.tuples = static_cast<int64_t>(run.tuples_processed);
  return ref;
}

Value RunRequest(int64_t workflow_id) {
  Value body = Value::MakeObject();
  body["workflowId"] = workflow_id;
  body["mapping"] = "dynamic";
  body["input"] = kRunInput;
  return body;
}

// ---------------------------------------------------------------------------
// Output

HostCpu ReadHostCpu() {
  std::ifstream stat("/proc/stat");
  std::string cpu;
  stat >> cpu;  // "cpu": user nice system idle iowait irq softirq steal ...
  HostCpu out;
  uint64_t field = 0;
  for (int i = 0; i < 8 && stat >> field; ++i) {
    out.total += field;
    if (i == 7) out.steal = field;
  }
  return out;
}

double StealPercent(const HostCpu& from, const HostCpu& to) {
  const uint64_t total = to.total - from.total;
  return total == 0 ? 0.0 : 100.0 * (to.steal - from.steal) / total;
}

void PrintStamp(const std::string& simd_tier, const std::string& commit) {
  std::string cpu = "unknown";
  std::ifstream cpuinfo("/proc/cpuinfo");
  std::string line;
  while (std::getline(cpuinfo, line)) {
    if (line.rfind("model name", 0) == 0) {
      cpu = line.substr(line.find(':') + 2);
      break;
    }
  }
#if defined(__SANITIZE_ADDRESS__)
  const char* sanitizer = "address";
#elif defined(__SANITIZE_THREAD__)
  const char* sanitizer = "thread";
#else
  const char* sanitizer = "none";
#endif
  const std::string build = PERFBENCH_BUILD_TYPE;
  std::printf("# host: nproc=%u cpu=\"%s\" simd=%s\n",
              std::thread::hardware_concurrency(), cpu.c_str(),
              simd_tier.c_str());
  std::printf("# build: type=%s flags=\"%s\" sanitizer=%s commit=%s\n",
              build.c_str(), PERFBENCH_CXX_FLAGS, sanitizer, commit.c_str());
  if (build == "Debug" || build.empty() ||
      std::strcmp(sanitizer, "none") != 0) {
    std::printf("# WARNING: unoptimized or sanitizer build; these numbers "
                "are not comparable to an optimized build\n");
  }
}

void PrintResult(bool correct, int64_t attempted, int64_t failed,
                 const std::vector<Metric>& metrics) {
  Value out = Value::MakeObject();
  out["correct"] = correct;
  out["attempted"] = attempted;
  out["failed"] = failed;
  Value m = Value::MakeObject();
  for (const Metric& metric : metrics) {
    Value v = Value::MakeObject();
    v["value"] = metric.value;
    v["unit"] = metric.unit;
    m[metric.name] = std::move(v);
  }
  out["metrics"] = std::move(m);
  std::printf("%s\n", out.ToJson().c_str());
  std::fflush(stdout);
}

}  // namespace perfbench
