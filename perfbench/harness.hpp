// Shared pieces of the Laminar end-to-end benchmark: the workload table,
// the seeded inputs each workload is driven with, the laminar_serve child
// process, corpus loading, the correctness probes and the result printer.
// main.cpp drives the untraced run against a real laminar_serve process;
// traced.cpp gives the per-layer breakdown.
#pragma once

#include <sys/types.h>

#include <cstdint>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "client/client.hpp"
#include "client/connect.hpp"
#include "common/status.hpp"
#include "common/value.hpp"
#include "server/server.hpp"

namespace perfbench {

struct Workload {
  std::string name;
  /// Corpus size in variants of each of the kFamilies families,
  /// bulk-registered in set-up. With 0 only the isprime workflow is.
  size_t variants = 0;
  /// Closed loop: client connections. Open loop: most runs in flight.
  int connections = 1;
  bool open_loop = false;
  double runs_per_s = 0.0;       ///< open loop only
  double write_share = 0.0;      ///< churn: share of register/remove ops
  double recommend_share = 0.0;  ///< share of /search/code (spt) ops
  /// Set-ups per run; the reported setup_s is their median.
  int setups = 3;
};

/// The three named workloads; nullptr for an unknown name.
const Workload* FindWorkload(const std::string& name);

/// Request classes the benchmark times separately.
enum OpClass { kSearch, kRecommend, kRegister, kRemove, kRun, kOpClasses };
inline constexpr const char* kOpNames[kOpClasses] = {
    "search", "recommend", "register", "remove", "run"};

/// Semantic families of the generated corpus (paper §VII-A).
inline constexpr size_t kFamilies = 30;

/// Numbers per /execute run of the isprime workflow.
inline constexpr int64_t kRunInput = 5000;

/// Everything a workload sends, generated from the workload seed alone.
struct Inputs {
  uint64_t seed = 0;
  std::vector<laminar::client::PeSource> corpus;
  /// Semantic-search query pool; index = Zipf rank.
  std::vector<std::string> queries;
  /// Partial PEs (tail 50% of body lines dropped) for /search/code.
  std::vector<std::string> code_queries;
  /// Freshly rendered PEs per churn client (registered without a
  /// description, so the server summarizes them).
  std::vector<std::vector<laminar::client::PeSource>> fresh;
  /// The isprime workflow (paper Listing 1) with the seed-derived producer.
  laminar::Value run_spec;
  std::vector<laminar::client::PeSource> run_pes;
  std::string run_code;
  std::vector<std::string> probe_queries;
  std::vector<std::string> probe_codes;
};

Inputs MakeInputs(const Workload& workload, uint64_t seed);

/// The configuration laminar_serve runs with (ServerConfig defaults plus a
/// zero cold start), for the in-process reference and traced servers.
laminar::server::ServerConfig ServeConfig();

/// A laminar_serve child process on an ephemeral loopback port. Its
/// lifetime is coupled to a stdin pipe (--stdin-eof): Stop() closes it and
/// waits for the exit, killing the process if it does not end in time.
class ServerProcess {
 public:
  static laminar::Result<std::unique_ptr<ServerProcess>> Spawn(
      const std::string& binary);
  ~ServerProcess();
  ServerProcess(const ServerProcess&) = delete;
  ServerProcess& operator=(const ServerProcess&) = delete;

  uint16_t port() const { return port_; }
  /// Peak resident set (VmHWM) in MB; 0 once the process is gone.
  double PeakRssMb() const;
  void Stop();

 private:
  ServerProcess() = default;
  pid_t pid_ = -1;
  int stdin_fd_ = -1;
  int stdout_fd_ = -1;
  uint16_t port_ = 0;
};

/// Connects `n` clients to a local port.
laminar::Result<std::vector<laminar::client::TcpClient>> ConnectClients(
    uint16_t port, int n);

/// Registers the corpus (bulk, in batches) and, when the workload runs
/// workflows, the isprime workflow. Returns the workflow id (0 if none).
laminar::Result<int64_t> LoadCorpus(laminar::client::LaminarClient& client,
                                    const Inputs& inputs);

/// Ranked (id, score) lists of the probe queries, semantic then code.
using ProbeHits = std::vector<std::vector<std::pair<int64_t, double>>>;
laminar::Result<ProbeHits> RunProbes(laminar::client::LaminarClient& client,
                                     const Inputs& inputs);

/// Sorted stdout lines and tuple count of the isprime run under the
/// sequential (simple) mapping: what every dynamic run must reproduce.
struct RunReference {
  std::vector<std::string> sorted_lines;
  int64_t tuples = 0;
};
laminar::Result<RunReference> ComputeRunReference(const Inputs& inputs);

/// Builds the /execute body of one isprime run under the dynamic mapping.
laminar::Value RunRequest(int64_t workflow_id);

/// Host CPU time counters (jiffies, /proc/stat), for the share of time the
/// hypervisor stole from this VM during a measurement: on a shared host
/// that share explains most run-to-run drift.
struct HostCpu {
  uint64_t total = 0;
  uint64_t steal = 0;
};
HostCpu ReadHostCpu();
double StealPercent(const HostCpu& from, const HostCpu& to);

/// Host and build stamp printed ahead of every result.
void PrintStamp(const std::string& simd_tier, const std::string& commit);

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

/// Prints the result object as the last line of stdout.
void PrintResult(bool correct, int64_t attempted, int64_t failed,
                 const std::vector<Metric>& metrics);

struct Options {
  std::string serve_binary;
  std::string workload;
  std::string commit = "unknown";
  uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
};

int RunUntraced(const Options& options, const Workload& workload);
int RunTraced(const Options& options, const Workload& workload);

}  // namespace perfbench
