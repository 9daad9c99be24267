// Crash consistency of the real laminar_serve binary. A seeded stream of
// single registrations (PEs with and without descriptions, one workflow,
// one /pes/update_description, sometimes a /registry/save to the recovery
// snapshot partway through) runs against a spawned server, which gets
// SIGKILL after a seeded number of acknowledgements, sometimes with one
// request still in flight. A restart on the same snapshot and WAL must then
// hold every acknowledged write and nothing beyond the in-flight request,
// and answer semantic and spt probes exactly as an in-process server fed
// the recovered prefix. One case per --wal-fsync mode.
//
// Run through ctest (crash_recovery_kill9), which sets LAMINAR_SERVE_BIN.
#include <gtest/gtest.h>

#include <algorithm>
#include <chrono>
#include <cstdlib>
#include <filesystem>
#include <map>
#include <set>
#include <string>
#include <thread>
#include <tuple>
#include <vector>

#include "client/connect.hpp"
#include "client/demo_workflows.hpp"
#include "common/rng.hpp"
#include "dataset/generator.hpp"
#include "scratch_dir.hpp"
#include "serve_process.hpp"

namespace laminar::client {
namespace {

/// One request of the write stream.
struct Op {
  enum Kind { kPe, kWorkflow, kUpdate, kSave };
  Kind kind = kPe;
  std::string name;         ///< kPe: the new PE; kUpdate: the PE re-described
  std::string code;         ///< kPe
  std::string description;  ///< kPe (empty: the server summarizes); kUpdate
};

const dataset::CodeSearchNetPeDataset& Dataset() {
  static const dataset::CodeSearchNetPeDataset ds = [] {
    dataset::DatasetConfig config;
    config.variants_per_family = 2;
    return dataset::CodeSearchNetPeDataset::Generate(config);
  }();
  return ds;
}

/// 16 PE registrations with a workflow, an update and (when `save`) a
/// snapshot save placed at seeded positions. Returns the stream and the
/// number of acknowledgements after which the server is killed.
std::pair<std::vector<Op>, size_t> MakeStream(uint64_t seed, bool save) {
  Rng rng(seed);
  const dataset::CodeSearchNetPeDataset& ds = Dataset();
  std::vector<Op> ops;
  for (int i = 0; i < 16; ++i) {
    const dataset::PeExample& ex = ds.example(rng.NextBelow(ds.size()));
    Op op;
    op.name = "CrashPe" + std::to_string(i);
    op.code = ex.pe_code;
    if (rng.NextBool(0.6)) op.description = ex.description;
    ops.push_back(std::move(op));
  }
  const size_t wf_at = static_cast<size_t>(rng.NextInt(1, 3));
  ops.insert(ops.begin() + static_cast<std::ptrdiff_t>(wf_at),
             Op{Op::kWorkflow, "crash_wf", "", ""});
  const size_t update_at = static_cast<size_t>(rng.NextInt(wf_at + 2, 9));
  Op update{Op::kUpdate, "", "", ds.example(rng.NextBelow(ds.size())).query};
  do {
    update.name = ops[rng.NextBelow(update_at)].name;
  } while (update.name == "crash_wf");
  ops.insert(ops.begin() + static_cast<std::ptrdiff_t>(update_at), update);
  size_t lo = wf_at + 2;
  if (save) {
    const size_t save_at = static_cast<size_t>(
        rng.NextInt(static_cast<int64_t>(wf_at) + 1,
                    static_cast<int64_t>(ops.size()) - 4));
    ops.insert(ops.begin() + static_cast<std::ptrdiff_t>(save_at),
               Op{Op::kSave, "", "", ""});
    lo = save_at + 2;  // at least one acknowledged write after the save
  }
  const size_t kill_after = static_cast<size_t>(
      rng.NextInt(static_cast<int64_t>(lo),
                  static_cast<int64_t>(ops.size()) - 1));
  return {std::move(ops), kill_after};
}

/// Sends one op. `ids` maps PE names to the ids this server assigned.
Status Apply(LaminarClient& client, const Op& op,
             std::map<std::string, int64_t>& ids,
             const std::string& snapshot_path) {
  switch (op.kind) {
    case Op::kPe: {
      Result<PeInfo> pe = client.RegisterPe(op.code, op.name, op.description);
      if (!pe.ok()) return pe.status();
      ids[op.name] = pe->id;
      return Status::Ok();
    }
    case Op::kWorkflow: {
      const DemoWorkflow* demo = FindDemoWorkflow("isprime_wf");
      return client.RegisterWorkflow(op.name, demo->spec, demo->pes, demo->code)
          .status();
    }
    case Op::kUpdate:
      return client.UpdatePeDescription(ids.at(op.name), op.description);
    case Op::kSave:
      return client.SaveRegistry(snapshot_path);
  }
  return Status::Internal("unknown op");
}

using Hits = std::vector<std::pair<int64_t, double>>;

Hits IdsAndScores(const Result<std::vector<SearchHit>>& hits) {
  Hits out;
  EXPECT_TRUE(hits.ok()) << hits.status().ToString();
  if (!hits.ok()) return out;
  for (const SearchHit& hit : hits.value()) out.emplace_back(hit.id, hit.score);
  return out;
}

/// The registry as (id, name, description) rows, PEs then workflows.
using Rows = std::vector<std::tuple<int64_t, std::string, std::string>>;

std::pair<Rows, Rows> RegistryRows(LaminarClient& client) {
  auto listed = client.GetRegistry();
  EXPECT_TRUE(listed.ok()) << listed.status().ToString();
  std::pair<Rows, Rows> rows;
  if (!listed.ok()) return rows;
  for (const PeInfo& pe : listed->first) {
    rows.first.emplace_back(pe.id, pe.name, pe.description);
  }
  for (const WorkflowInfo& wf : listed->second) {
    rows.second.emplace_back(wf.id, wf.name, wf.description);
  }
  std::sort(rows.first.begin(), rows.first.end());
  std::sort(rows.second.begin(), rows.second.end());
  return rows;
}

/// PE names an op adds to the registry.
std::vector<std::string> NamesAdded(const Op& op) {
  if (op.kind == Op::kPe) return {op.name};
  if (op.kind != Op::kWorkflow) return {};
  std::vector<std::string> names;
  for (const PeSource& pe : FindDemoWorkflow("isprime_wf")->pes) {
    names.push_back(pe.name);
  }
  return names;
}

class CrashRecovery : public ::testing::TestWithParam<const char*> {
 protected:
  /// Recovery files in `dir` and this case's --wal-fsync mode.
  std::vector<std::string> ServeArgs(const std::string& dir) const {
    return {"--wal", dir + "/wal.log", "--snapshot", dir + "/snap.json",
            "--wal-fsync", GetParam()};
  }

  /// One kill-and-recover trial; `in_flight` sends one more request after
  /// the last acknowledged one and kills the server while it may still be
  /// running.
  void Trial(const char* bin, uint64_t seed, bool save, bool in_flight) {
    SCOPED_TRACE("seed " + std::to_string(seed) + (save ? " save" : "") +
                 (in_flight ? " in-flight" : ""));
    const std::string dir = dir_.File("trial" + std::to_string(seed));
    std::filesystem::create_directories(dir);
    const std::string snapshot = dir + "/snap.json";
    auto [ops, acked] = MakeStream(seed, save);
    Rng rng(seed ^ 0x6b696c6cULL);

    bool in_flight_acked = false;
    {
      ServeProcess server(bin, ServeArgs(dir));
      ASSERT_GT(server.port(), 0);
      Result<TcpClient> cli = ConnectTcp("127.0.0.1", server.port());
      ASSERT_TRUE(cli.ok()) << cli.status().ToString();
      std::map<std::string, int64_t> ids;
      for (size_t i = 0; i < acked; ++i) {
        Status st = Apply(*cli->client, ops[i], ids, snapshot);
        ASSERT_TRUE(st.ok()) << "op " << i << ": " << st.ToString();
      }
      if (in_flight) {
        std::thread sender([&] {
          in_flight_acked = Apply(*cli->client, ops[acked], ids, snapshot).ok();
        });
        std::this_thread::sleep_for(
            std::chrono::microseconds(rng.NextBelow(2500)));
        EXPECT_TRUE(server.Kill());
        sender.join();
      } else {
        EXPECT_TRUE(server.Kill());
      }
    }
    if (in_flight_acked) ++acked;

    ServeProcess restarted(bin, ServeArgs(dir));
    ASSERT_GT(restarted.port(), 0);
    Result<TcpClient> cli = ConnectTcp("127.0.0.1", restarted.port());
    ASSERT_TRUE(cli.ok()) << cli.status().ToString();
    const std::pair<Rows, Rows> rows = RegistryRows(*cli->client);
    const Rows& pes = rows.first;

    // Every acknowledged write is back, and nothing past the request that
    // was in flight. A process kill loses no acknowledged write in any
    // mode: the WAL line reaches the kernel with write(2) before the reply.
    std::set<std::string> recovered;
    for (const auto& [id, name, description] : pes) recovered.insert(name);
    std::set<std::string> expected;
    for (size_t i = 0; i < acked; ++i) {
      for (const std::string& name : NamesAdded(ops[i])) expected.insert(name);
    }
    std::set<std::string> allowed = expected;
    const bool pending = in_flight && !in_flight_acked;
    if (pending) {
      for (const std::string& name : NamesAdded(ops[acked])) {
        allowed.insert(name);
      }
    }
    for (const std::string& name : expected) {
      EXPECT_EQ(recovered.count(name), 1u) << "acknowledged PE lost: " << name;
    }
    for (const std::string& name : recovered) {
      EXPECT_EQ(allowed.count(name), 1u) << "PE beyond the stream: " << name;
    }

    // The recovered prefix: the acknowledged ops, plus the in-flight one
    // when its write landed.
    size_t prefix = acked;
    if (pending) {
      const Op& op = ops[acked];
      const bool landed =
          op.kind == Op::kPe
              ? recovered.count(op.name) == 1
              : op.kind == Op::kUpdate &&
                    std::any_of(pes.begin(), pes.end(), [&](const auto& row) {
                      return std::get<1>(row) == op.name &&
                             std::get<2>(row) == op.description;
                    });
      if (landed) ++prefix;
    }

    server::ServerConfig config;
    config.engine.cold_start_ms = 0;
    InProcessLaminar reference = ConnectInProcess(config);
    std::map<std::string, int64_t> ref_ids;
    for (size_t i = 0; i < prefix; ++i) {
      if (ops[i].kind == Op::kSave) continue;
      Status st = Apply(*reference.client, ops[i], ref_ids, "");
      ASSERT_TRUE(st.ok()) << "reference op " << i << ": " << st.ToString();
    }
    EXPECT_EQ(rows, RegistryRows(*reference.client));

    // Probes: stored description embeddings drive semantic search, the
    // re-featurized code drives spt recommendation.
    const dataset::CodeSearchNetPeDataset& ds = Dataset();
    for (int q = 0; q < 5; ++q) {
      const dataset::PeExample& ex = ds.example(rng.NextBelow(ds.size()));
      const std::string target = q < 3 ? "pe" : "workflow";
      EXPECT_EQ(
          IdsAndScores(cli->client->SearchRegistrySemantic(ex.query, target)),
          IdsAndScores(
              reference.client->SearchRegistrySemantic(ex.query, target)))
          << "semantic probe " << q;
      const std::string partial = dataset::DropCode(ex.pe_code, 0.5);
      EXPECT_EQ(
          IdsAndScores(cli->client->CodeRecommendation(partial, "pe", "spt")),
          IdsAndScores(
              reference.client->CodeRecommendation(partial, "pe", "spt")))
          << "spt probe " << q;
    }
    cli->client.reset();
    cli->connection.reset();
    EXPECT_TRUE(restarted.Stop());
  }

  ScratchDir dir_;
};

TEST_P(CrashRecovery, KilledServerRecoversAPrefixOfItsWrites) {
  const char* bin = std::getenv("LAMINAR_SERVE_BIN");
  if (bin == nullptr || bin[0] == '\0') {
    GTEST_SKIP() << "LAMINAR_SERVE_BIN not set (run via ctest)";
  }
  // Two trials per mode; across the modes each of a snapshot save and an
  // in-flight request appears with and without the other.
  const std::string mode = GetParam();
  const uint64_t base = mode == "none" ? 11 : mode == "interval" ? 23 : 37;
  const bool odd = mode == "interval";
  Trial(bin, base, /*save=*/true, /*in_flight=*/!odd);
  Trial(bin, base + 1, /*save=*/false, /*in_flight=*/odd);
}

INSTANTIATE_TEST_SUITE_P(WalFsyncModes, CrashRecovery,
                         ::testing::Values("none", "interval", "per_record"),
                         [](const auto& info) {
                           return std::string(info.param);
                         });

}  // namespace
}  // namespace laminar::client
