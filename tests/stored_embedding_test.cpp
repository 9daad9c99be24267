// Registries written before the sparse descriptionEmbedding form still
// recover. Snapshots and WALs whose PE and workflow rows carry the dense
// array (tests/dense_embedding.hpp), alone or mixed with sparse rows, go
// through Database::Recover and SearchService::ReindexAll. Every stored
// vector must decode bit-identical to the encoder's, without re-encoding,
// and semantic and code-to-code search must rank exactly as a registry
// written in the sparse form.
#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <fstream>
#include <string>
#include <tuple>
#include <utility>
#include <vector>

#include "dataset/generator.hpp"
#include "embed/embedding.hpp"
#include "registry/database.hpp"
#include "registry/repository.hpp"
#include "registry/schema.hpp"
#include "search/search_service.hpp"
#include "telemetry/telemetry.hpp"
#include "dense_embedding.hpp"
#include "scratch_dir.hpp"

namespace laminar::search {
namespace {

/// Which stored form each row's description embedding is written in.
enum class Form { kSparse, kDense, kMixed };

std::string Column(Form form, size_t row, const embed::Vector& v) {
  const bool dense =
      form == Form::kDense || (form == Form::kMixed && row % 2 == 1);
  return dense ? DenseEmbeddingJson(v) : embed::ToJson(Sparse(v));
}

const dataset::CodeSearchNetPeDataset& Dataset() {
  static const dataset::CodeSearchNetPeDataset ds = [] {
    dataset::DatasetConfig config;
    config.variants_per_family = 3;  // 30 families -> 90 PEs
    return dataset::CodeSearchNetPeDataset::Generate(config);
  }();
  return ds;
}

uint64_t TextEncodes() {
  return telemetry::MetricsRegistry::Global()
      .GetCounter("laminar_embed_encodes_total", "model=\"unixcoder\"")
      .Value();
}

/// (id, name, score) lists of every probe: semantic and code-to-code search
/// over PEs and workflows.
using Rankings =
    std::vector<std::vector<std::tuple<int64_t, std::string, double>>>;

Rankings Rank(const SearchService& service) {
  const dataset::CodeSearchNetPeDataset& ds = Dataset();
  Rankings out;
  auto add = [&](const std::vector<SearchHit>& hits) {
    out.emplace_back();
    for (const SearchHit& hit : hits) {
      out.back().emplace_back(hit.id, hit.name, hit.score);
    }
  };
  for (size_t i = 0; i < ds.size(); i += 7) {
    for (SearchTarget target : {SearchTarget::kPe, SearchTarget::kWorkflow}) {
      add(service.SemanticSearch(ds.example(i).query, target, 10));
      add(service.CodeSearchLlm(dataset::DropCode(ds.example(i).pe_code, 0.5),
                                target, 10));
    }
  }
  return out;
}

class StoredEmbeddingTest : public ::testing::Test {
 protected:
  /// Writes what the server writes: every PE and 12 workflows with their
  /// description embeddings, then re-describes every 5th PE and the first
  /// workflow (WAL update records carrying the column).
  static void Populate(registry::Database& db, Form form) {
    registry::Repository repo(db);
    const embed::UnixcoderSim encoder;
    const dataset::CodeSearchNetPeDataset& ds = Dataset();
    const int64_t user = repo.CreateUser("u", "p").value();
    std::vector<int64_t> pes;
    for (size_t i = 0; i < ds.size(); ++i) {
      const dataset::PeExample& ex = ds.example(i);
      registry::PeRecord pe;
      pe.name = ex.name;
      pe.description = ex.description;
      pe.description_embedding =
          Column(form, i, encoder.EncodeText(ex.description));
      pe.code = ex.pe_code;
      pe.type = "IterativePE";
      pes.push_back(repo.CreatePe(pe).value());
    }
    std::vector<int64_t> wfs;
    for (size_t i = 0; i < 12; ++i) {
      const dataset::PeExample& ex = ds.example((i * 37) % ds.size());
      registry::WorkflowRecord wf;
      wf.user_id = user;
      wf.name = "wf_" + std::to_string(i);
      wf.description = ex.query;
      wf.description_embedding = Column(form, i, encoder.EncodeText(ex.query));
      wf.code = ex.pe_code + "\n" + ds.example(i).pe_code;
      wfs.push_back(repo.CreateWorkflow(wf).value());
    }
    for (size_t i = 0; i < pes.size(); i += 5) {
      const std::string text = ds.example((i * 11) % ds.size()).query;
      registry::Row fields = Value::MakeObject();
      fields["description"] = text;
      fields["descriptionEmbedding"] =
          Column(form, i / 5, encoder.EncodeText(text));
      ASSERT_TRUE(repo.UpdatePe(pes[i], fields).ok());
    }
    registry::Row fields = Value::MakeObject();
    fields["description"] = std::string("renamed workflow");
    fields["descriptionEmbedding"] =
        Column(form, 1, encoder.EncodeText("renamed workflow"));
    ASSERT_TRUE(repo.UpdateWorkflow(wfs[0], fields).ok());
  }

  /// Recovers `snapshot` plus `wal` into a fresh registry, rebuilds the
  /// search indexes, checks every stored vector and returns the rankings.
  Rankings Recover(const std::string& snapshot, const std::string& wal) {
    registry::Database db;
    EXPECT_TRUE(registry::CreateLaminarSchema(db).ok());
    Status recovered = db.Recover(snapshot, wal);
    EXPECT_TRUE(recovered.ok()) << recovered.ToString();
    registry::Repository repo(db);
    SearchService service(repo);
    const uint64_t encodes = TextEncodes();
    EXPECT_TRUE(service.ReindexAll().ok());
    // Every row's stored vector was decoded, none re-encoded.
    EXPECT_EQ(TextEncodes(), encodes);
    const embed::UnixcoderSim& encoder = service.text_encoder();
    auto expect_bit_identical = [&](const std::string& column,
                                    const std::string& description) {
      const embed::Vector stored = embed::ToDense(embed::FromJson(column));
      const embed::Vector encoded = encoder.EncodeText(description);
      ASSERT_EQ(stored.size(), encoded.size()) << description;
      for (size_t d = 0; d < stored.size(); ++d) {
        ASSERT_EQ(std::bit_cast<uint32_t>(stored[d]),
                  std::bit_cast<uint32_t>(encoded[d]))
            << description << ", dimension " << d;
      }
    };
    const std::vector<registry::PeRecord> pes = repo.AllPes();
    const std::vector<registry::WorkflowRecord> wfs = repo.AllWorkflows();
    EXPECT_EQ(pes.size(), Dataset().size());
    EXPECT_EQ(wfs.size(), 12u);
    for (const registry::PeRecord& pe : pes) {
      expect_bit_identical(pe.description_embedding, pe.description);
    }
    for (const registry::WorkflowRecord& wf : wfs) {
      expect_bit_identical(wf.description_embedding, wf.description);
    }
    return Rank(service);
  }

  /// Rankings of the registry written in the sparse form, through its WAL.
  Rankings SparseReference() {
    const std::string wal = dir_.File("sparse.wal");
    {
      registry::Database db;
      EXPECT_TRUE(registry::CreateLaminarSchema(db).ok());
      EXPECT_TRUE(db.EnableWal(wal).ok());
      Populate(db, Form::kSparse);
    }
    return Recover(dir_.File("no_snapshot.json"), wal);
  }

  ScratchDir dir_;
};

TEST_F(StoredEmbeddingTest, DenseSnapshotRecoversBitIdentically) {
  const std::string snapshot = dir_.File("dense.json");
  {
    registry::Database db;
    ASSERT_TRUE(registry::CreateLaminarSchema(db).ok());
    Populate(db, Form::kDense);
    ASSERT_TRUE(db.SaveToFile(snapshot).ok());
  }
  const Rankings dense = Recover(snapshot, dir_.File("dense.wal"));
  EXPECT_EQ(dense, SparseReference());
}

TEST_F(StoredEmbeddingTest, DenseWalRecoversBitIdentically) {
  const std::string wal = dir_.File("dense.wal");
  {
    registry::Database db;
    ASSERT_TRUE(registry::CreateLaminarSchema(db).ok());
    ASSERT_TRUE(db.EnableWal(wal).ok());
    Populate(db, Form::kDense);
  }
  const Rankings dense = Recover(dir_.File("no_snapshot.json"), wal);
  EXPECT_EQ(dense, SparseReference());
}

TEST_F(StoredEmbeddingTest, WalMixingDenseAndSparseRecordsRecovers) {
  const std::string wal = dir_.File("mixed.wal");
  {
    registry::Database db;
    ASSERT_TRUE(registry::CreateLaminarSchema(db).ok());
    ASSERT_TRUE(db.EnableWal(wal).ok());
    Populate(db, Form::kMixed);
  }
  // Both forms are on the log, in inserts and in updates.
  std::ifstream in(wal);
  size_t dense = 0;
  size_t sparse = 0;
  for (std::string line; std::getline(in, line);) {
    dense += line.find(R"("descriptionEmbedding":"[)") != std::string::npos;
    sparse += line.find(R"("descriptionEmbedding":"{\"dims\")") !=
              std::string::npos;
  }
  EXPECT_GT(dense, 40u);
  EXPECT_GT(sparse, 40u);
  const Rankings mixed = Recover(dir_.File("no_snapshot.json"), wal);
  EXPECT_EQ(mixed, SparseReference());
}

/// descriptionEmbedding columns a snapshot, WAL line or leader fetch may
/// carry that no encoder wrote. The first is well formed but 2^20
/// dimensions wide: it decodes to its one entry, and no index of 4,096
/// dimensions takes it. The rest are malformed (dims past 2^20, unsorted,
/// duplicate or out-of-range indexes, a non-numeric weight) and mean
/// "re-encode".
const std::vector<std::string>& HostileColumns() {
  static const std::vector<std::string> columns = {
      R"({"dims":1048576,"nz":[[5,0.5]]})",
      R"({"dims":1048577,"nz":[[5,0.5]]})",
      R"({"dims":4096,"nz":[[9,0.5],[3,0.25]]})",
      R"({"dims":4096,"nz":[[3,0.5],[3,0.25]]})",
      R"({"dims":4096,"nz":[[4096,0.5]]})",
      R"({"dims":4096,"nz":[[3,"0.5"]]})",
  };
  return columns;
}

TEST_F(StoredEmbeddingTest, HostileColumnsCostTheirEntriesOrReencode) {
  // The sparse registry with PE i's column then replaced by `columns[i]`,
  // as WAL update records and in a snapshot taken after them.
  auto write = [&](const std::vector<std::string>& columns,
                   const std::string& wal, const std::string& snapshot) {
    registry::Database db;
    ASSERT_TRUE(registry::CreateLaminarSchema(db).ok());
    ASSERT_TRUE(db.EnableWal(wal).ok());
    Populate(db, Form::kSparse);
    registry::Repository repo(db);
    const std::vector<registry::PeRecord> pes = repo.AllPes();
    for (size_t i = 0; i < columns.size(); ++i) {
      registry::Row fields = Value::MakeObject();
      fields["descriptionEmbedding"] = columns[i];
      ASSERT_TRUE(repo.UpdatePe(pes[i].id, fields).ok());
    }
    ASSERT_TRUE(db.SaveToFile(snapshot).ok());
  };
  // Recovers, rebuilds the indexes and returns the rankings; `encodes`
  // gets the descriptions the rebuild encoded.
  auto recover = [&](const std::string& snapshot, const std::string& wal,
                     uint64_t& encodes) {
    registry::Database db;
    EXPECT_TRUE(registry::CreateLaminarSchema(db).ok());
    EXPECT_TRUE(db.Recover(snapshot, wal).ok());
    registry::Repository repo(db);
    SearchService service(repo);
    const uint64_t before = TextEncodes();
    EXPECT_TRUE(service.ReindexAll().ok());
    encodes = TextEncodes() - before;
    // The wide row posts nothing: peText holds exactly the other rows'
    // entries, and the row scores 0 against its own description.
    const std::vector<registry::PeRecord> pes = repo.AllPes();
    size_t postings = 0;
    for (size_t i = 1; i < pes.size(); ++i) {
      postings += service.text_encoder().Encode(pes[i].description)
                      .entries.size();
    }
    EXPECT_EQ(service.IndexStats()[0].first, "peText");
    EXPECT_EQ(service.IndexStats()[0].second.postings, postings);
    for (const SearchHit& hit : service.SemanticSearch(
             pes[0].description, SearchTarget::kPe, pes.size() + 1)) {
      if (hit.id == pes[0].id) {
        EXPECT_EQ(hit.score, 0.0);
      }
    }
    return Rank(service);
  };

  write(HostileColumns(), dir_.File("hostile.wal"), dir_.File("hostile.json"));
  // The reference stores the wide row too and no column for the malformed
  // ones, which the rebuild encodes from their descriptions.
  std::vector<std::string> reference(HostileColumns().size(), "");
  reference[0] = HostileColumns()[0];
  write(reference, dir_.File("reference.wal"), dir_.File("reference.json"));

  uint64_t encodes = 0;
  const Rankings want =
      recover(dir_.File("none.json"), dir_.File("reference.wal"), encodes);
  EXPECT_EQ(encodes, HostileColumns().size() - 1);
  for (const auto& [snapshot, wal] :
       {std::pair{dir_.File("none.json"), dir_.File("hostile.wal")},
        std::pair{dir_.File("hostile.json"), dir_.File("none.wal")}}) {
    SCOPED_TRACE(snapshot + " + " + wal);
    EXPECT_EQ(recover(snapshot, wal, encodes), want);
    EXPECT_EQ(encodes, HostileColumns().size() - 1);
  }
}

}  // namespace
}  // namespace laminar::search
