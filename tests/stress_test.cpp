// Concurrency stress: many clients doing mixed registry mutations, searches
// and executions against one server simultaneously. Guards the server's
// locking discipline (registry mutations serialized; execution outside the
// lock; per-connection multiplexing).
#include <gtest/gtest.h>

#include <atomic>
#include <thread>

#include "client/connect.hpp"
#include "client/demo_workflows.hpp"
#include "telemetry/telemetry.hpp"

namespace laminar::client {
namespace {

TEST(ServerStress, ParallelClientsMixedWorkload) {
  server::ServerConfig config;
  config.engine.cold_start_ms = 0;
  config.engine.max_concurrent = 4;
  InProcessLaminar laminar = ConnectInProcess(config);

  // Seed one workflow everyone can run.
  const DemoWorkflow* demo = FindDemoWorkflow("isprime_wf");
  Result<WorkflowInfo> wf = laminar.client->RegisterWorkflow(
      demo->name, demo->spec, demo->pes, demo->code);
  ASSERT_TRUE(wf.ok());
  int64_t wf_id = wf->id;

  constexpr int kClients = 4;
  constexpr int kOpsPerClient = 12;
  std::vector<ExtraClient> clients;
  clients.reserve(kClients);
  for (int i = 0; i < kClients; ++i) {
    clients.push_back(AttachClient(*laminar.server));
  }

  std::atomic<int> failures{0};
  std::vector<std::thread> threads;
  for (int c = 0; c < kClients; ++c) {
    threads.emplace_back([&, c] {
      LaminarClient& cli = *clients[static_cast<size_t>(c)].client;
      for (int op = 0; op < kOpsPerClient; ++op) {
        switch ((c + op) % 4) {
          case 0: {
            // Register a unique PE.
            std::string name =
                "StressPe" + std::to_string(c) + "_" + std::to_string(op);
            std::string code = "class " + name +
                               "(IterativePE):\n"
                               "    def _process(self, x):\n"
                               "        return x + " +
                               std::to_string(c * 100 + op) + "\n";
            if (!cli.RegisterPe(code, name).ok()) failures.fetch_add(1);
            break;
          }
          case 1: {
            if (!cli.SearchRegistrySemantic("prime numbers", "pe", 3).ok()) {
              failures.fetch_add(1);
            }
            break;
          }
          case 2: {
            RunOutcome outcome = cli.Run(wf_id, Value(3));
            if (!outcome.status.ok()) failures.fetch_add(1);
            break;
          }
          default: {
            if (!cli.GetRegistry().ok()) failures.fetch_add(1);
            break;
          }
        }
      }
    });
  }
  for (auto& t : threads) t.join();
  EXPECT_EQ(failures.load(), 0);

  // Registry ended consistent: all unique PEs present exactly once.
  auto registry = laminar.client->GetRegistry();
  ASSERT_TRUE(registry.ok());
  size_t stress_pes = 0;
  for (const PeInfo& pe : registry->first) {
    if (pe.name.rfind("StressPe", 0) == 0) ++stress_pes;
  }
  // Exact count: ops where (c+op)%4==0.
  size_t expected = 0;
  for (int c = 0; c < kClients; ++c) {
    for (int op = 0; op < kOpsPerClient; ++op) {
      if ((c + op) % 4 == 0) ++expected;
    }
  }
  EXPECT_EQ(stress_pes, expected);
}

TEST(ServerStress, ConcurrentStreamingRuns) {
  server::ServerConfig config;
  config.engine.cold_start_ms = 10;
  config.engine.max_concurrent = 3;
  InProcessLaminar laminar = ConnectInProcess(config);
  const DemoWorkflow* demo = FindDemoWorkflow("isprime_wf");
  Result<WorkflowInfo> wf = laminar.client->RegisterWorkflow(
      demo->name, demo->spec, demo->pes, demo->code);
  ASSERT_TRUE(wf.ok());

  // Fire several runs over ONE multiplexed connection simultaneously.
  std::atomic<int> ok_runs{0};
  std::vector<std::thread> threads;
  for (int i = 0; i < 6; ++i) {
    threads.emplace_back([&] {
      RunOutcome outcome = laminar.client->Run(wf->id, Value(10));
      if (outcome.status.ok() && !outcome.lines.empty()) ok_runs.fetch_add(1);
    });
  }
  for (auto& t : threads) t.join();
  EXPECT_EQ(ok_runs.load(), 6);
}

TEST(ServerStress, InterleavedRemoveAndSearch) {
  server::ServerConfig config;
  config.engine.cold_start_ms = 0;
  InProcessLaminar laminar = ConnectInProcess(config);
  // Register 40 PEs.
  std::vector<int64_t> ids;
  for (int i = 0; i < 40; ++i) {
    std::string name = "Churn" + std::to_string(i);
    Result<PeInfo> pe = laminar.client->RegisterPe(
        "class " + name + "(IterativePE):\n    def _process(self, x):\n"
        "        return x\n",
        name);
    ASSERT_TRUE(pe.ok());
    ids.push_back(pe->id);
  }
  ExtraClient remover = AttachClient(*laminar.server);
  std::thread removal([&] {
    for (int64_t id : ids) {
      (void)remover.client->RemovePe(id);
    }
  });
  // Searches during removal must never fail (results may shrink).
  for (int i = 0; i < 30; ++i) {
    auto hits = laminar.client->SearchRegistryLiteral("Churn", "pe", 10);
    EXPECT_TRUE(hits.ok());
  }
  removal.join();
  auto registry = laminar.client->GetRegistry();
  ASSERT_TRUE(registry.ok());
  for (const PeInfo& pe : registry->first) {
    EXPECT_EQ(pe.name.rfind("Churn", 0), std::string::npos);
  }
}

// Shared-lock read path (ISSUE 2): many reader threads hammer the search
// endpoints (which now hold mu_ shared and mutate only the internally
// locked query-embedding cache) while one writer churns registrations.
// Run with -DLAMINAR_SANITIZE=thread to have TSan check the discipline:
// concurrent shared-lock readers must not race with each other, and the
// exclusive writer must not race with any reader.
TEST(ServerStress, ConcurrentSearchReadersWithWriterChurn) {
  server::ServerConfig config;
  config.engine.cold_start_ms = 0;
  InProcessLaminar laminar = ConnectInProcess(config);

  // Seed a searchable corpus.
  for (int i = 0; i < 12; ++i) {
    std::string name = "SeedPe" + std::to_string(i);
    Result<PeInfo> pe = laminar.client->RegisterPe(
        "class " + name + "(IterativePE):\n    def _process(self, x):\n"
        "        return x * " + std::to_string(i + 2) + "\n",
        name);
    ASSERT_TRUE(pe.ok());
  }

  constexpr int kReaders = 4;
  constexpr int kOpsPerReader = 25;
  std::vector<ExtraClient> readers;
  readers.reserve(kReaders);
  for (int i = 0; i < kReaders; ++i) {
    readers.push_back(AttachClient(*laminar.server));
  }
  ExtraClient writer = AttachClient(*laminar.server);

  std::atomic<int> failures{0};
  std::vector<std::thread> threads;
  for (int r = 0; r < kReaders; ++r) {
    threads.emplace_back([&, r] {
      LaminarClient& cli = *readers[static_cast<size_t>(r)].client;
      // A small rotating query set, so the embedding cache sees concurrent
      // hits and misses for the same keys.
      const char* queries[] = {"multiply numbers", "seed processing",
                               "multiply numbers"};
      for (int op = 0; op < kOpsPerReader; ++op) {
        switch (op % 3) {
          case 0:
            if (!cli.SearchRegistrySemantic(queries[op % 3], "pe", 3).ok()) {
              failures.fetch_add(1);
            }
            break;
          case 1:
            if (!cli.SearchRegistryLiteral("SeedPe", "pe", 5).ok()) {
              failures.fetch_add(1);
            }
            break;
          default:
            if (!cli.GetRegistry().ok()) failures.fetch_add(1);
            break;
        }
      }
    });
  }
  std::thread churn([&] {
    for (int i = 0; i < 15; ++i) {
      std::string name = "ChurnPe" + std::to_string(i);
      Result<PeInfo> pe = writer.client->RegisterPe(
          "class " + name + "(IterativePE):\n    def _process(self, x):\n"
          "        return x\n",
          name);
      if (!pe.ok()) {
        failures.fetch_add(1);
        continue;
      }
      if (!writer.client->RemovePe(pe->id).ok()) failures.fetch_add(1);
    }
  });
  for (auto& t : threads) t.join();
  churn.join();
  EXPECT_EQ(failures.load(), 0);

  // The churned PEs are gone; the seeds all survived.
  auto registry = laminar.client->GetRegistry();
  ASSERT_TRUE(registry.ok());
  size_t seeds = 0;
  for (const PeInfo& pe : registry->first) {
    EXPECT_EQ(pe.name.rfind("ChurnPe", 0), std::string::npos);
    if (pe.name.rfind("SeedPe", 0) == 0) ++seeds;
  }
  EXPECT_EQ(seeds, 12u);
}

// Reader-thread dispatch under load: 8 connections, each shared by a reader
// thread (shared-lock routes, answered on the connection's reader thread
// when nothing else of that connection is in flight, else on its pool) and
// a writer thread (registrations, removals and streamed /execute runs on
// the handler pool), all against one server. Raced under TSan and ASan by
// the sanitizer presets (ctest reader_dispatch_stress).
TEST(ServerStress, ReaderDispatchMixesWithPoolWork) {
  server::ServerConfig config;
  config.engine.cold_start_ms = 0;
  config.engine.max_concurrent = 4;
  InProcessLaminar laminar = ConnectInProcess(config);
  const DemoWorkflow* demo = FindDemoWorkflow("isprime_wf");
  Result<WorkflowInfo> wf = laminar.client->RegisterWorkflow(
      demo->name, demo->spec, demo->pes, demo->code);
  ASSERT_TRUE(wf.ok());
  std::vector<int64_t> seed_ids;
  for (int i = 0; i < 8; ++i) {
    std::string name = "ReadSeedPe" + std::to_string(i);
    Result<PeInfo> pe = laminar.client->RegisterPe(
        "class " + name + "(IterativePE):\n    def _process(self, x):\n"
        "        return x + " + std::to_string(i) + "\n",
        name);
    ASSERT_TRUE(pe.ok());
    seed_ids.push_back(pe->id);
  }

  auto& reg = telemetry::MetricsRegistry::Global();
  const telemetry::Counter& on_reader =
      reg.GetCounter("laminar_net_requests_total", "dispatch=\"reader\"");
  const telemetry::Counter& on_pool =
      reg.GetCounter("laminar_net_requests_total", "dispatch=\"pool\"");
  const uint64_t reader_before = on_reader.Value();
  const uint64_t pool_before = on_pool.Value();

  constexpr int kConnections = 8;
  constexpr int kReads = 24;
  constexpr int kWrites = 4;
  std::vector<ExtraClient> clients;
  clients.reserve(kConnections);
  for (int i = 0; i < kConnections; ++i) {
    clients.push_back(AttachClient(*laminar.server));
  }
  std::atomic<int> failures{0};
  std::vector<std::thread> threads;
  for (int c = 0; c < kConnections; ++c) {
    LaminarClient& cli = *clients[static_cast<size_t>(c)].client;
    threads.emplace_back([&, c] {
      for (int op = 0; op < kReads; ++op) {
        bool ok = true;
        switch ((c + op) % 4) {
          case 0:
            ok = cli.SearchRegistrySemantic("add a number", "pe", 3).ok();
            break;
          case 1:
            ok = cli.SearchRegistryLiteral("ReadSeedPe", "pe", 5).ok();
            break;
          case 2:
            ok = cli.GetPe(seed_ids[static_cast<size_t>(op) %
                                    seed_ids.size()])
                     .ok();
            break;
          default:
            ok = cli.GetRegistry().ok();
            break;
        }
        if (!ok) failures.fetch_add(1);
      }
    });
    threads.emplace_back([&, c] {
      for (int op = 0; op < kWrites; ++op) {
        std::string name =
            "PoolPe" + std::to_string(c) + "_" + std::to_string(op);
        Result<PeInfo> pe = cli.RegisterPe(
            "class " + name + "(IterativePE):\n    def _process(self, x):\n"
            "        return x\n",
            name);
        if (!pe.ok() || !cli.RemovePe(pe->id).ok()) failures.fetch_add(1);
        RunOutcome run = cli.Run(wf->id, Value(5));
        if (!run.status.ok() || run.lines.empty()) failures.fetch_add(1);
      }
    });
  }
  for (auto& t : threads) t.join();
  EXPECT_EQ(failures.load(), 0);
  // Which reads met a write in flight on their connection is up to the
  // scheduler; every request was dispatched one way or the other.
  EXPECT_GE(on_reader.Value() - reader_before + on_pool.Value() - pool_before,
            static_cast<uint64_t>(kConnections * (kReads + kWrites * 3)));
  for (const ExtraClient& client : clients) {
    EXPECT_LE(client.server_side->handler_threads(),
              net::HttpConnection::kDefaultMaxHandlerThreads);
  }

  // Every churned PE is gone and every seed survived.
  auto registry = laminar.client->GetRegistry();
  ASSERT_TRUE(registry.ok());
  size_t seeds = 0;
  for (const PeInfo& pe : registry->first) {
    EXPECT_EQ(pe.name.rfind("PoolPe", 0), std::string::npos);
    if (pe.name.rfind("ReadSeedPe", 0) == 0) ++seeds;
  }
  EXPECT_EQ(seeds, seed_ids.size());
}

}  // namespace
}  // namespace laminar::client
