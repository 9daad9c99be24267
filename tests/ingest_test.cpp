// Fast-ingest-path tests (ISSUE 5): two-phase registration correctness,
// the /registry/bulk_register endpoint, description updates without full
// re-indexing, WAL-backed server recovery, and an 8-writer/8-searcher
// registration-vs-search stress that asserts full consistency afterwards.
// The stress test is a primary TSan target (ctest label `faults`).
#include <gtest/gtest.h>

#include <atomic>
#include <string>
#include <thread>
#include <vector>

#include "client/connect.hpp"
#include "scratch_dir.hpp"

namespace laminar::client {
namespace {

std::string PeCode(const std::string& name, int salt) {
  return "class " + name +
         "(IterativePE):\n"
         "    def _process(self, data):\n"
         "        return data * " +
         std::to_string(salt) + " + " + std::to_string(salt + 1) + "\n";
}

TEST(Ingest, TwoPhaseRegistrationMatchesReadBack) {
  InProcessLaminar laminar = ConnectInProcess();
  Result<PeInfo> pe = laminar.client->RegisterPe(
      PeCode("Doubler", 2), "Doubler", "doubles every incoming tuple");
  ASSERT_TRUE(pe.ok());
  EXPECT_GT(pe->id, 0);
  EXPECT_EQ(pe->name, "Doubler");

  // The committed indexes must serve all three search modalities.
  Result<std::vector<SearchHit>> semantic =
      laminar.client->SearchRegistrySemantic("doubles every incoming tuple");
  ASSERT_TRUE(semantic.ok());
  ASSERT_FALSE(semantic->empty());
  EXPECT_EQ(semantic->front().id, pe->id);

  Result<std::vector<SearchHit>> literal =
      laminar.client->SearchRegistryLiteral("Doubler");
  ASSERT_TRUE(literal.ok());
  ASSERT_FALSE(literal->empty());
  EXPECT_EQ(literal->front().id, pe->id);

  Result<std::vector<SearchHit>> recs =
      laminar.client->CodeRecommendation(PeCode("Doubler", 2), "pe", "spt");
  ASSERT_TRUE(recs.ok());
  ASSERT_FALSE(recs->empty());
  EXPECT_EQ(recs->front().id, pe->id);
}

TEST(Ingest, MissingDescriptionIsSummarizedOffLock) {
  InProcessLaminar laminar = ConnectInProcess();
  Result<PeInfo> pe = laminar.client->RegisterPe(PeCode("Tripler", 3));
  ASSERT_TRUE(pe.ok());
  EXPECT_EQ(pe->name, "Tripler");  // extracted from the class definition
  Result<PeInfo> read = laminar.client->GetPe(pe->id);
  ASSERT_TRUE(read.ok());
  EXPECT_FALSE(read->description.empty());  // §IV-C auto-summary
}

TEST(Ingest, BulkRegisterCommitsValidItemsAndReportsErrors) {
  InProcessLaminar laminar = ConnectInProcess();
  std::vector<PeSource> pes;
  for (int i = 0; i < 12; ++i) {
    std::string name = "BulkPe" + std::to_string(i);
    pes.push_back({PeCode(name, i + 2), name,
                   "bulk pe number " + std::to_string(i)});
  }
  pes.push_back({"", "Broken", ""});  // no code: rejected, others unaffected
  Result<std::vector<int64_t>> ids = laminar.client->BulkRegisterPes(pes);
  ASSERT_TRUE(ids.ok());
  EXPECT_EQ(ids->size(), 12u);
  for (size_t i = 0; i < ids->size(); ++i) {
    Result<PeInfo> pe = laminar.client->GetPe((*ids)[i]);
    ASSERT_TRUE(pe.ok());
    EXPECT_EQ(pe->name, "BulkPe" + std::to_string(i));
  }
  // Bulk-registered PEs are fully indexed, like individual registrations.
  Result<std::vector<SearchHit>> hits =
      laminar.client->SearchRegistrySemantic("bulk pe number 7", "pe", 3);
  ASSERT_TRUE(hits.ok());
  ASSERT_FALSE(hits->empty());
  EXPECT_EQ(hits->front().name, "BulkPe7");
}

TEST(Ingest, BulkRegisterMatchesIndividualRegistration) {
  InProcessLaminar bulk = ConnectInProcess();
  InProcessLaminar serial = ConnectInProcess();
  std::vector<PeSource> pes;
  for (int i = 0; i < 8; ++i) {
    std::string name = "ParityPe" + std::to_string(i);
    pes.push_back({PeCode(name, i + 2), name,
                   "parity corpus entry " + std::to_string(i)});
  }
  ASSERT_TRUE(bulk.client->BulkRegisterPes(pes).ok());
  for (const PeSource& pe : pes) {
    ASSERT_TRUE(
        serial.client->RegisterPe(pe.code, pe.name, pe.description).ok());
  }
  for (const std::string& query :
       {std::string("parity corpus entry 3"), std::string("entry")}) {
    Result<std::vector<SearchHit>> a =
        bulk.client->SearchRegistrySemantic(query, "pe", 5);
    Result<std::vector<SearchHit>> b =
        serial.client->SearchRegistrySemantic(query, "pe", 5);
    ASSERT_TRUE(a.ok());
    ASSERT_TRUE(b.ok());
    ASSERT_EQ(a->size(), b->size());
    for (size_t i = 0; i < a->size(); ++i) {
      EXPECT_EQ((*a)[i].name, (*b)[i].name) << "query: " << query;
      EXPECT_DOUBLE_EQ((*a)[i].score, (*b)[i].score) << "query: " << query;
    }
  }
}

TEST(Ingest, UpdateDescriptionReindexesTextOnly) {
  InProcessLaminar laminar = ConnectInProcess();
  Result<PeInfo> pe = laminar.client->RegisterPe(
      PeCode("Renamer", 5), "Renamer", "original words nobody searches");
  ASSERT_TRUE(pe.ok());
  ASSERT_TRUE(laminar.client
                  ->UpdatePeDescription(pe->id,
                                        "completely fresh text about kumquats")
                  .ok());
  Result<std::vector<SearchHit>> hits = laminar.client->SearchRegistrySemantic(
      "completely fresh text about kumquats");
  ASSERT_TRUE(hits.ok());
  ASSERT_FALSE(hits->empty());
  EXPECT_EQ(hits->front().id, pe->id);
  // The code/SPT indexes survive untouched.
  Result<std::vector<SearchHit>> recs =
      laminar.client->CodeRecommendation(PeCode("Renamer", 5), "pe", "spt");
  ASSERT_TRUE(recs.ok());
  ASSERT_FALSE(recs->empty());
  EXPECT_EQ(recs->front().id, pe->id);
  Result<PeInfo> read = laminar.client->GetPe(pe->id);
  ASSERT_TRUE(read.ok());
  EXPECT_EQ(read->description, "completely fresh text about kumquats");
}

TEST(Ingest, ServerRecoversFromWalAcrossRestarts) {
  ScratchDir dir;
  server::ServerConfig config;
  config.snapshot_path = dir.File("snap.json");
  config.wal_path = dir.File("wal.jsonl");

  {
    InProcessLaminar laminar = ConnectInProcess(config);
    ASSERT_TRUE(laminar.client
                    ->RegisterPe(PeCode("Durable", 4), "Durable",
                                 "survives a server restart")
                    .ok());
    ASSERT_TRUE(laminar.client->SaveRegistry(config.snapshot_path).ok());
    // Registered after the snapshot: reachable only through the WAL suffix.
    ASSERT_TRUE(laminar.client
                    ->RegisterPe(PeCode("Suffix", 6), "Suffix",
                                 "only in the write-ahead log")
                    .ok());
  }

  InProcessLaminar revived = ConnectInProcess(config);
  Result<PeInfo> durable = revived.client->GetPeByName("Durable");
  ASSERT_TRUE(durable.ok());
  Result<PeInfo> suffix = revived.client->GetPeByName("Suffix");
  ASSERT_TRUE(suffix.ok());
  // Recovery rebuilds the search indexes via the parallel bulk path.
  Result<std::vector<SearchHit>> hits =
      revived.client->SearchRegistrySemantic("survives a server restart");
  ASSERT_TRUE(hits.ok());
  ASSERT_FALSE(hits->empty());
  EXPECT_EQ(hits->front().id, durable->id);
}

// 8 writers registering PEs while 8 searchers hammer the read endpoints.
// Afterwards every registration must be visible to point reads, the
// registry listing, and all search modalities — no lost or torn commits.
TEST(Ingest, ConcurrentWritersAndSearchersStayConsistent) {
  constexpr int kWriters = 8;
  constexpr int kSearchers = 8;
  constexpr int kPesPerWriter = 6;

  InProcessLaminar laminar = ConnectInProcess();
  // Seed so searchers have something to find from the first iteration.
  ASSERT_TRUE(laminar.client
                  ->RegisterPe(PeCode("Seed", 2), "Seed",
                               "seed processing element")
                  .ok());

  std::vector<ExtraClient> writers;
  std::vector<ExtraClient> searchers;
  for (int i = 0; i < kWriters; ++i) {
    writers.push_back(AttachClient(*laminar.server));
  }
  for (int i = 0; i < kSearchers; ++i) {
    searchers.push_back(AttachClient(*laminar.server));
  }

  std::atomic<int> failures{0};
  std::atomic<bool> writers_done{false};
  std::vector<std::thread> threads;
  for (int w = 0; w < kWriters; ++w) {
    threads.emplace_back([&, w] {
      LaminarClient& cli = *writers[static_cast<size_t>(w)].client;
      for (int i = 0; i < kPesPerWriter; ++i) {
        std::string name =
            "IngestPe" + std::to_string(w) + "_" + std::to_string(i);
        Result<PeInfo> pe =
            cli.RegisterPe(PeCode(name, w * 10 + i + 2), name,
                           "writer " + std::to_string(w) + " item " +
                               std::to_string(i));
        if (!pe.ok() || pe->id <= 0) failures.fetch_add(1);
      }
    });
  }
  for (int s = 0; s < kSearchers; ++s) {
    threads.emplace_back([&, s] {
      LaminarClient& cli = *searchers[static_cast<size_t>(s)].client;
      int spin = 0;
      while (!writers_done.load(std::memory_order_relaxed) || spin < 4) {
        ++spin;
        if (!cli.SearchRegistrySemantic("processing element", "pe", 3).ok()) {
          failures.fetch_add(1);
        }
        if (!cli.SearchRegistryLiteral("IngestPe", "pe", 5).ok()) {
          failures.fetch_add(1);
        }
        if (spin > 200) break;  // liveness backstop
      }
    });
  }
  for (size_t t = 0; t < static_cast<size_t>(kWriters); ++t) {
    threads[t].join();
  }
  writers_done.store(true);
  for (size_t t = static_cast<size_t>(kWriters); t < threads.size(); ++t) {
    threads[t].join();
  }
  EXPECT_EQ(failures.load(), 0);

  // Consistency: every registration is visible everywhere.
  auto registry = laminar.client->GetRegistry();
  ASSERT_TRUE(registry.ok());
  EXPECT_EQ(registry->first.size(),
            static_cast<size_t>(kWriters * kPesPerWriter + 1));
  for (int w = 0; w < kWriters; ++w) {
    for (int i = 0; i < kPesPerWriter; ++i) {
      std::string name =
          "IngestPe" + std::to_string(w) + "_" + std::to_string(i);
      Result<PeInfo> pe = laminar.client->GetPeByName(name);
      ASSERT_TRUE(pe.ok()) << name;
      Result<std::vector<SearchHit>> hits =
          laminar.client->SearchRegistryLiteral(name, "pe", 1);
      ASSERT_TRUE(hits.ok());
      ASSERT_FALSE(hits->empty()) << name;
      EXPECT_EQ(hits->front().name, name);
    }
  }
}

}  // namespace
}  // namespace laminar::client
