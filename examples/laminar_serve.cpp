// laminar_serve: the Laminar server as a standalone process behind the epoll
// TCP transport — the first time client and server run in separate OS
// processes (ROADMAP item 2).
//
//   laminar_serve --port 8477
//   laminar_serve --port 0                 # ephemeral; prints the bound port
//   laminar_serve --port 8477 --snapshot state/snap.json --wal state/wal.log
//
// On startup it prints exactly one line to stdout:
//   laminar_serve listening on <bind>:<port>
// (scripts and tests parse the port out of it), then serves until SIGINT /
// SIGTERM or stdin EOF when --stdin-eof is given.
//
// Connect with laminar_cli --connect <host>:<port>, or programmatically via
// client::ConnectTcp().
//
// A flag value the server cannot honour — a port outside 0-65535, a number
// with trailing characters, a negative count, an unknown --wal-fsync mode —
// prints the usage text and exits 2 before anything starts.
#include <charconv>
#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <limits>
#include <string>
#include <string_view>

#include "client/connect.hpp"

using namespace laminar;

namespace {

void Usage(const char* argv0) {
  std::fprintf(
      stderr,
      "usage: %s [--port N] [--bind ADDR] [--max-connections N]\n"
      "          [--backlog N] [--handler-threads N] [--ingest-threads N]\n"
      "          [--snapshot PATH --wal PATH] [--wal-fsync MODE]\n"
      "          [--wal-fsync-interval-ms N] [--replica-of HOST:PORT]\n"
      "          [--max-replica-lag-ms N] [--rps N] [--cold-start-ms N]\n"
      "          [--stdin-eof]\n"
      "  --port N            TCP port 0-65535 (0 = ephemeral, printed on\n"
      "                      stdout; default 8477)\n"
      "  --bind ADDR         bind address (default 127.0.0.1)\n"
      "  --max-connections N open-connection cap, >= 1 (default 256)\n"
      "  --backlog N         kernel accept backlog, >= 0 (default 64)\n"
      "  --handler-threads N per-connection handler pool cap, >= 1 "
      "(default 8)\n"
      "  --ingest-threads N  server ingest pool size (default 4; 0 = no "
      "pool)\n"
      "  --snapshot PATH     registry snapshot for recovery + saves\n"
      "  --wal PATH          write-ahead log (enables crash recovery and\n"
      "                      makes this node a replication leader)\n"
      "  --wal-fsync MODE    WAL durability: none|interval|per_record\n"
      "                      (default none)\n"
      "  --wal-fsync-interval-ms N  flush cadence for --wal-fsync interval,\n"
      "                      >= 1 (default 50)\n"
      "  --replica-of H:P    run as a read-only follower of that leader\n"
      "  --max-replica-lag-ms N  follower refuses reads with 503 unless it\n"
      "                      confirmed catch-up within N ms (default 0 =\n"
      "                      always serve)\n"
      "  --rps N             per-tenant request rate cap (token bucket;\n"
      "                      default 0 = unlimited)\n"
      "  --cold-start-ms N   simulated engine cold start (default 0)\n"
      "  --stdin-eof         also exit when stdin reaches EOF\n",
      argv0);
}

/// A flag value the server cannot honour: prints the usage text, exits 2.
[[noreturn]] void Refuse(const char* argv0, const char* flag,
                         const char* value) {
  std::fprintf(stderr, "%s: bad value '%s' for %s\n", argv0, value, flag);
  Usage(argv0);
  std::exit(2);
}

}  // namespace

int main(int argc, char** argv) {
  server::ServerConfig config;
  config.engine.cold_start_ms = 0;
  net::TcpListenerConfig listener;
  listener.port = 8477;
  bool stdin_eof = false;

  constexpr int kIntMax = std::numeric_limits<int>::max();
  constexpr size_t kSizeMax = std::numeric_limits<size_t>::max();
  constexpr double kDoubleMax = std::numeric_limits<double>::max();
  for (int i = 1; i < argc; ++i) {
    const char* flag = argv[i];
    auto next = [&]() -> const char* {
      if (i + 1 >= argc) {
        Usage(argv[0]);
        std::exit(2);
      }
      return argv[++i];
    };
    // The flag's value parsed whole as a T in [lo, hi]; anything else
    // ("70000" as a port, "8o", "-1" as a count) exits 2.
    auto number = [&]<typename T>(T lo, T hi) {
      const char* text = next();
      const char* end = text + std::strlen(text);
      T value{};
      const auto [ptr, ec] = std::from_chars(text, end, value);
      if (ec != std::errc() || ptr != end || !(value >= lo && value <= hi)) {
        Refuse(argv[0], flag, text);
      }
      return value;
    };
    if (std::strcmp(flag, "--port") == 0) {
      listener.port =
          number(uint16_t{0}, std::numeric_limits<uint16_t>::max());
    } else if (std::strcmp(flag, "--bind") == 0) {
      listener.bind_address = next();
    } else if (std::strcmp(flag, "--max-connections") == 0) {
      listener.max_connections = number(size_t{1}, kSizeMax);
    } else if (std::strcmp(flag, "--backlog") == 0) {
      listener.backlog = number(0, kIntMax);
    } else if (std::strcmp(flag, "--handler-threads") == 0) {
      listener.max_handler_threads = number(size_t{1}, kSizeMax);
    } else if (std::strcmp(flag, "--ingest-threads") == 0) {
      config.ingest_threads = number(size_t{0}, kSizeMax);
    } else if (std::strcmp(flag, "--snapshot") == 0) {
      config.snapshot_path = next();
    } else if (std::strcmp(flag, "--wal") == 0) {
      config.wal_path = next();
    } else if (std::strcmp(flag, "--wal-fsync") == 0) {
      const std::string_view mode = next();
      if (mode == "none") {
        config.wal_options.fsync = registry::WalFsyncMode::kNone;
      } else if (mode == "interval") {
        config.wal_options.fsync = registry::WalFsyncMode::kInterval;
      } else if (mode == "per_record") {
        config.wal_options.fsync = registry::WalFsyncMode::kPerRecord;
      } else {
        Refuse(argv[0], flag, mode.data());
      }
    } else if (std::strcmp(flag, "--wal-fsync-interval-ms") == 0) {
      config.wal_options.fsync_interval_ms = number(1, kIntMax);
    } else if (std::strcmp(flag, "--replica-of") == 0) {
      config.replica_of = next();
    } else if (std::strcmp(flag, "--max-replica-lag-ms") == 0) {
      config.max_replica_lag_ms = number(0, kIntMax);
    } else if (std::strcmp(flag, "--rps") == 0) {
      // Models fixed per-node serving capacity (bench_replication spawns
      // each node with the same cap, so aggregate admitted QPS scales with
      // node count even on one physical machine).
      config.tenant_quotas.requests_per_sec = number(0.0, kDoubleMax);
      config.tenant_quotas.burst = config.tenant_quotas.requests_per_sec;
    } else if (std::strcmp(flag, "--cold-start-ms") == 0) {
      config.engine.cold_start_ms = number(0.0, kDoubleMax);
    } else if (std::strcmp(flag, "--stdin-eof") == 0) {
      stdin_eof = true;
    } else {
      Usage(argv[0]);
      return 2;
    }
  }

  // Block the shutdown signals before any thread spawns, so every thread
  // inherits the mask and sigwait below is the only consumer.
  sigset_t sigs;
  sigemptyset(&sigs);
  sigaddset(&sigs, SIGINT);
  sigaddset(&sigs, SIGTERM);
  pthread_sigmask(SIG_BLOCK, &sigs, nullptr);

  Result<client::TcpLaminarServer> serving =
      client::ServeTcp(std::move(config), listener);
  if (!serving.ok()) {
    std::fprintf(stderr, "laminar_serve: %s\n",
                 serving.status().ToString().c_str());
    return 1;
  }
  std::printf("laminar_serve listening on %s:%u\n",
              listener.bind_address.c_str(),
              static_cast<unsigned>(serving->port()));
  std::fflush(stdout);

  if (stdin_eof) {
    // Parent-process lifetime coupling: drain stdin on this thread and shut
    // down when it closes (the transport tests run the server this way so a
    // killed test never leaks a listener).
    int c;
    while ((c = std::getchar()) != EOF) {
    }
  } else {
    int sig = 0;
    sigwait(&sigs, &sig);
  }
  serving->listener->Stop();
  // stderr, not stdout: the parent may have closed the stdout pipe already
  // (it only parses the banner), and stdout must stay machine-parseable.
  std::fprintf(stderr, "laminar_serve: shut down\n");
  return 0;
}
