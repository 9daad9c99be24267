// The interactive Laminar CLI (paper Fig. 5): by default spins up an
// in-process server and drops into the command loop; with --connect it
// dials a remote laminar_serve over TCP instead, making client and server
// separate OS processes. Try:
//
//   (laminar) help
//   (laminar) register_workflow isprime_wf.py
//   (laminar) run isprime_wf -i 10 --multi 9
//   (laminar) semantic_search pe "a pe that is able to detect anomalies"
//   (laminar) code_recommendation pe "random.randint(1, 1000)"
//   (laminar) quit
//
// Non-interactive use: pipe commands on stdin, e.g.
//   printf 'register_workflow isprime_wf.py\nrun isprime_wf -i 10\nquit\n' |
//     ./laminar_cli
//
// Over TCP (server started separately with laminar_serve --port 8477):
//   ./laminar_cli --connect 127.0.0.1:8477
//
// With --metrics, the Prometheus exposition of everything the session did
// is dumped to stdout after the command loop exits (scripting-friendly:
// pipe commands in, scrape the counters out). Over TCP the scrape comes
// from the remote server's registry.
#include <cstring>
#include <iostream>

#include "client/cli.hpp"
#include "client/connect.hpp"

using namespace laminar;

int main(int argc, char** argv) {
  bool dump_metrics = false;
  std::string connect_to;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--metrics") == 0) {
      dump_metrics = true;
    } else if (std::strcmp(argv[i], "--connect") == 0 && i + 1 < argc) {
      connect_to = argv[++i];
    } else {
      std::cerr << "usage: laminar_cli [--connect HOST:PORT] [--metrics]\n"
                << "  --connect HOST:PORT  use a remote laminar_serve over "
                   "TCP instead of an in-process server\n"
                << "  --metrics  print a Prometheus /metrics scrape on exit\n";
      return 2;
    }
  }

  if (!connect_to.empty()) {
    Result<client::TcpClient> remote = client::ConnectTcp(connect_to);
    if (!remote.ok()) {
      std::cerr << "laminar_cli: " << remote.status().ToString() << "\n";
      return 1;
    }
    client::LaminarCli cli(*remote->client);
    cli.RunLoop(std::cin, std::cout);
    if (dump_metrics) {
      auto metrics = remote->client->GetMetrics();
      if (metrics.ok()) std::cout << "\n" << metrics.value();
    }
    std::cout << "bye\n";
    return 0;
  }

  server::ServerConfig config;
  config.engine.cold_start_ms = 0;
  client::InProcessLaminar laminar = client::ConnectInProcess(config);
  client::LaminarCli cli(*laminar.client);
  cli.RunLoop(std::cin, std::cout);
  if (dump_metrics) {
    auto metrics = laminar.client->GetMetrics();
    if (metrics.ok()) std::cout << "\n" << metrics.value();
  }
  std::cout << "bye\n";
  return 0;
}
