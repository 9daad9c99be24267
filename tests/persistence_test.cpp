// Persistence-layer tests for ISSUE 5: per-table dirty tracking, atomic
// tmp+rename snapshots, the write-ahead log (append, replay, compaction),
// and crash-shaped recovery (torn WAL tail, interrupted save).
#include <chrono>
#include <filesystem>
#include <fstream>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "common/json.hpp"
#include "registry/database.hpp"
#include "registry/repository.hpp"
#include "registry/schema.hpp"
#include "scratch_dir.hpp"

namespace laminar::registry {
namespace {

namespace fs = std::filesystem;

std::string ReadAll(const std::string& path) {
  std::ifstream in(path);
  return std::string(std::istreambuf_iterator<char>(in),
                     std::istreambuf_iterator<char>());
}

TableSchema ItemsSchema() {
  TableSchema schema;
  schema.name = "items";
  schema.columns = {{"name", ColumnType::kString, false},
                    {"score", ColumnType::kInt, true}};
  schema.indexed_columns = {"name"};
  return schema;
}

Row MakeItem(const std::string& name, int64_t score) {
  Row row = Value::MakeObject();
  row["name"] = name;
  row["score"] = score;
  return row;
}

class PersistenceTest : public ::testing::Test {
 protected:
  ScratchDir dir_;
  std::string snapshot_path_ = dir_.File("snap.json");
  std::string wal_path_ = dir_.File("wal.jsonl");
};

TEST_F(PersistenceTest, GetTablePreservesCreationOrderWithHashLookup) {
  Database db;
  for (const char* name : {"zeta", "alpha", "middle"}) {
    TableSchema schema = ItemsSchema();
    schema.name = name;
    ASSERT_TRUE(db.CreateTable(std::move(schema)).ok());
  }
  EXPECT_EQ(db.TableNames(),
            (std::vector<std::string>{"zeta", "alpha", "middle"}));
  EXPECT_NE(db.GetTable("alpha"), nullptr);
  EXPECT_EQ(db.GetTable("alpha")->schema().name, "alpha");
  EXPECT_EQ(db.GetTable("missing"), nullptr);
  // Duplicate creation is rejected (the slot map must stay consistent).
  TableSchema dup = ItemsSchema();
  dup.name = "alpha";
  EXPECT_FALSE(db.CreateTable(std::move(dup)).ok());
}

TEST_F(PersistenceTest, AtomicSaveLeavesNoTempFile) {
  Database db;
  ASSERT_TRUE(db.CreateTable(ItemsSchema()).ok());
  ASSERT_TRUE(db.Insert("items", MakeItem("a", 1)).ok());
  ASSERT_TRUE(db.SaveToFile(snapshot_path_).ok());
  EXPECT_TRUE(fs::exists(snapshot_path_));
  // No temp droppings under any suffix (temp names are unique per write).
  for (const auto& entry : fs::directory_iterator(dir_.path())) {
    EXPECT_NE(entry.path().string().rfind(snapshot_path_ + ".tmp", 0), 0u)
        << "leftover temp file: " << entry.path();
  }

  Database loaded;
  ASSERT_TRUE(loaded.CreateTable(ItemsSchema()).ok());
  ASSERT_TRUE(loaded.LoadFromFile(snapshot_path_).ok());
  std::vector<Row> rows = loaded.GetTable("items")->All();
  ASSERT_EQ(rows.size(), 1u);
  EXPECT_EQ(rows[0].GetString("name"), "a");
}

TEST_F(PersistenceTest, DirtyTrackingKeepsRepeatedSavesCorrect) {
  Database db;
  ASSERT_TRUE(db.CreateTable(ItemsSchema()).ok());
  ASSERT_TRUE(db.Insert("items", MakeItem("first", 1)).ok());
  ASSERT_TRUE(db.SaveToFile(snapshot_path_).ok());

  // Second save with no mutations: cached text must serialize identically.
  const std::string first_doc = ReadAll(snapshot_path_);
  ASSERT_TRUE(db.SaveToFile(snapshot_path_).ok());
  EXPECT_EQ(ReadAll(snapshot_path_), first_doc);

  // A mutation invalidates the cache: the new row must reach disk.
  ASSERT_TRUE(db.Insert("items", MakeItem("second", 2)).ok());
  ASSERT_TRUE(db.SaveToFile(snapshot_path_).ok());
  Database loaded;
  ASSERT_TRUE(loaded.CreateTable(ItemsSchema()).ok());
  ASSERT_TRUE(loaded.LoadFromFile(snapshot_path_).ok());
  EXPECT_EQ(loaded.GetTable("items")->size(), 2u);
  EXPECT_EQ(loaded.GetTable("items")->FindBy("name", Value("second")).size(),
            1u);
}

TEST_F(PersistenceTest, CaptureUnderSharedAccessThenWriteOffLock) {
  Database db;
  ASSERT_TRUE(db.CreateTable(ItemsSchema()).ok());
  ASSERT_TRUE(db.Insert("items", MakeItem("captured", 1)).ok());
  Database::Snapshot snapshot = db.CaptureSnapshot();
  // Mutations after the capture are not part of the snapshot.
  ASSERT_TRUE(db.Insert("items", MakeItem("later", 2)).ok());
  ASSERT_TRUE(db.WriteSnapshot(std::move(snapshot), snapshot_path_).ok());

  Database loaded;
  ASSERT_TRUE(loaded.CreateTable(ItemsSchema()).ok());
  ASSERT_TRUE(loaded.LoadFromFile(snapshot_path_).ok());
  EXPECT_EQ(loaded.GetTable("items")->size(), 1u);
}

TEST_F(PersistenceTest, WalReplayRecoversWithoutSnapshot) {
  {
    Database db;
    ASSERT_TRUE(db.CreateTable(ItemsSchema()).ok());
    ASSERT_TRUE(db.EnableWal(wal_path_).ok());
    ASSERT_TRUE(db.Insert("items", MakeItem("walled", 7)).ok());
    Result<int64_t> gone = db.Insert("items", MakeItem("erased", 8));
    ASSERT_TRUE(gone.ok());
    ASSERT_TRUE(db.Erase("items", gone.value()).ok());
    ASSERT_TRUE(db.Update("items", 1, MakeItem("walled", 9)).ok());
  }
  Database recovered;
  ASSERT_TRUE(recovered.CreateTable(ItemsSchema()).ok());
  ASSERT_TRUE(recovered.Recover(snapshot_path_, wal_path_).ok());
  std::vector<Row> rows = recovered.GetTable("items")->All();
  ASSERT_EQ(rows.size(), 1u);
  EXPECT_EQ(rows[0].GetString("name"), "walled");
  EXPECT_EQ(rows[0].GetInt("score"), 9);
  // Recovery re-enables the log; ids continue past the replayed ones.
  Result<int64_t> next = recovered.Insert("items", MakeItem("fresh", 1));
  ASSERT_TRUE(next.ok());
  EXPECT_EQ(next.value(), 3);
}

TEST_F(PersistenceTest, SnapshotPlusWalSuffixRecoversBoth) {
  {
    // First boot: Recover on empty disk declares the recovery snapshot
    // path, so saves back to it may compact the log.
    Database db;
    ASSERT_TRUE(db.CreateTable(ItemsSchema()).ok());
    ASSERT_TRUE(db.Recover(snapshot_path_, wal_path_).ok());
    ASSERT_TRUE(db.Insert("items", MakeItem("in_snapshot", 1)).ok());
    ASSERT_TRUE(db.SaveToFile(snapshot_path_).ok());
    // The save compacts the log down to the un-snapshotted suffix.
    EXPECT_EQ(ReadAll(wal_path_), "");
    ASSERT_TRUE(db.Insert("items", MakeItem("after_snapshot", 2)).ok());
  }
  Database recovered;
  ASSERT_TRUE(recovered.CreateTable(ItemsSchema()).ok());
  ASSERT_TRUE(recovered.Recover(snapshot_path_, wal_path_).ok());
  Table* items = recovered.GetTable("items");
  EXPECT_EQ(items->size(), 2u);
  EXPECT_EQ(items->FindBy("name", Value("in_snapshot")).size(), 1u);
  EXPECT_EQ(items->FindBy("name", Value("after_snapshot")).size(), 1u);
}

TEST_F(PersistenceTest, TornWalTailEndsReplayWithoutError) {
  {
    Database db;
    ASSERT_TRUE(db.CreateTable(ItemsSchema()).ok());
    ASSERT_TRUE(db.EnableWal(wal_path_).ok());
    ASSERT_TRUE(db.Insert("items", MakeItem("intact", 1)).ok());
  }
  {
    // A crash mid-append leaves a truncated trailing line.
    std::ofstream out(wal_path_, std::ios::app);
    out << "{\"seq\":2,\"table\":\"items\",\"op\":\"ins";
  }
  Database recovered;
  ASSERT_TRUE(recovered.CreateTable(ItemsSchema()).ok());
  ASSERT_TRUE(recovered.Recover(snapshot_path_, wal_path_).ok());
  EXPECT_EQ(recovered.GetTable("items")->size(), 1u);
}

TEST_F(PersistenceTest, InterruptedSaveLeavesOldSnapshotLoadable) {
  Database db;
  ASSERT_TRUE(db.CreateTable(ItemsSchema()).ok());
  ASSERT_TRUE(db.Insert("items", MakeItem("good", 1)).ok());
  ASSERT_TRUE(db.SaveToFile(snapshot_path_).ok());
  {
    // A crash between tmp-write and rename leaves a torn .tmp behind; the
    // published snapshot must be untouched by it.
    std::ofstream out(snapshot_path_ + ".tmp");
    out << "{\"items\": {\"next_id\": 99, \"rows\": [{\"id\"";
  }
  Database recovered;
  ASSERT_TRUE(recovered.CreateTable(ItemsSchema()).ok());
  ASSERT_TRUE(recovered.LoadFromFile(snapshot_path_).ok());
  std::vector<Row> rows = recovered.GetTable("items")->All();
  ASSERT_EQ(rows.size(), 1u);
  EXPECT_EQ(rows[0].GetString("name"), "good");
}

TEST_F(PersistenceTest, LoadsPreWalSnapshotsWithoutSeqKey) {
  // Snapshots written before the WAL existed have no "__wal_seq" root key.
  {
    std::ofstream out(snapshot_path_);
    out << "{\"items\": {\"next_id\": 3, \"rows\": "
           "[{\"id\": 1, \"name\": \"legacy\", \"score\": 4}]}}";
  }
  Database db;
  ASSERT_TRUE(db.CreateTable(ItemsSchema()).ok());
  ASSERT_TRUE(db.LoadFromFile(snapshot_path_).ok());
  std::vector<Row> rows = db.GetTable("items")->All();
  ASSERT_EQ(rows.size(), 1u);
  EXPECT_EQ(rows[0].GetString("name"), "legacy");
}

TEST_F(PersistenceTest, ClearReplaysThroughWal) {
  {
    Database db;
    ASSERT_TRUE(db.CreateTable(ItemsSchema()).ok());
    ASSERT_TRUE(db.EnableWal(wal_path_).ok());
    ASSERT_TRUE(db.Insert("items", MakeItem("doomed", 1)).ok());
    db.GetTable("items")->Clear();
    ASSERT_TRUE(db.Insert("items", MakeItem("survivor", 2)).ok());
  }
  Database recovered;
  ASSERT_TRUE(recovered.CreateTable(ItemsSchema()).ok());
  ASSERT_TRUE(recovered.Recover(snapshot_path_, wal_path_).ok());
  std::vector<Row> rows = recovered.GetTable("items")->All();
  ASSERT_EQ(rows.size(), 1u);
  EXPECT_EQ(rows[0].GetString("name"), "survivor");
}

TEST_F(PersistenceTest, MutationsAfterRecoverySurviveTheNextRecovery) {
  {
    // First boot: nothing on disk yet.
    Database db;
    ASSERT_TRUE(db.CreateTable(ItemsSchema()).ok());
    ASSERT_TRUE(db.Recover(snapshot_path_, wal_path_).ok());
    ASSERT_TRUE(db.Insert("items", MakeItem("snapshotted", 1)).ok());
    ASSERT_TRUE(db.SaveToFile(snapshot_path_).ok());  // covers seq 1
    ASSERT_TRUE(db.Insert("items", MakeItem("suffix", 2)).ok());
  }
  {
    // Second boot replays "suffix", then keeps mutating. The live WAL
    // sequence must continue past both the snapshot's sequence and every
    // replayed record; a writer restarting at seq 1 would log this insert
    // with an already-covered number and the next recovery would skip it.
    Database db;
    ASSERT_TRUE(db.CreateTable(ItemsSchema()).ok());
    ASSERT_TRUE(db.Recover(snapshot_path_, wal_path_).ok());
    ASSERT_TRUE(db.Insert("items", MakeItem("post_recovery", 3)).ok());
  }
  Database recovered;
  ASSERT_TRUE(recovered.CreateTable(ItemsSchema()).ok());
  ASSERT_TRUE(recovered.Recover(snapshot_path_, wal_path_).ok());
  Table* items = recovered.GetTable("items");
  EXPECT_EQ(items->size(), 3u);
  EXPECT_EQ(items->FindBy("name", Value("post_recovery")).size(), 1u);
}

TEST_F(PersistenceTest, SaveToAnotherPathLeavesWalIntact) {
  const std::string side_path = dir_.File("side.json");
  {
    Database db;
    ASSERT_TRUE(db.CreateTable(ItemsSchema()).ok());
    ASSERT_TRUE(db.Recover(snapshot_path_, wal_path_).ok());
    ASSERT_TRUE(db.Insert("items", MakeItem("only_in_wal", 1)).ok());
    // An ad-hoc save elsewhere must not compact: its copy of the row is
    // not the one the next Recover() reads.
    ASSERT_TRUE(db.SaveToFile(side_path).ok());
    EXPECT_NE(ReadAll(wal_path_), "");
  }
  // Crash right after the side save: the row must still recover from the
  // configured snapshot+WAL pair.
  Database recovered;
  ASSERT_TRUE(recovered.CreateTable(ItemsSchema()).ok());
  ASSERT_TRUE(recovered.Recover(snapshot_path_, wal_path_).ok());
  EXPECT_EQ(
      recovered.GetTable("items")->FindBy("name", Value("only_in_wal")).size(),
      1u);
}

TEST_F(PersistenceTest, FullLaminarSchemaRoundTripsThroughRecovery) {
  {
    Database db;
    ASSERT_TRUE(CreateLaminarSchema(db).ok());
    ASSERT_TRUE(db.EnableWal(wal_path_).ok());
    Repository repo(db);
    ASSERT_TRUE(repo.CreateUser("alice", "pw").ok());
    PeRecord pe;
    pe.name = "Walled";
    pe.code = "class Walled:\n    pass\n";
    pe.description = "a recovered PE";
    ASSERT_TRUE(repo.CreatePe(pe).ok());
    ASSERT_TRUE(db.SaveToFile(snapshot_path_).ok());
    PeRecord pe2 = pe;
    pe2.name = "Suffix";
    ASSERT_TRUE(repo.CreatePe(pe2).ok());
  }
  Database db;
  ASSERT_TRUE(CreateLaminarSchema(db).ok());
  ASSERT_TRUE(db.Recover(snapshot_path_, wal_path_).ok());
  Repository repo(db);
  EXPECT_TRUE(repo.GetUserByName("alice").ok());
  EXPECT_TRUE(repo.GetPeByName("Walled").ok());
  EXPECT_TRUE(repo.GetPeByName("Suffix").ok());
}

TEST_F(PersistenceTest, MidFileWalCorruptionFailsRecoveryLoudly) {
  // Regression (ISSUE 9 satellite): an unparseable record with INTACT
  // records after it is not a crash-torn tail — replaying past the hole
  // would silently drop committed mutations. Recovery must refuse.
  {
    Database db;
    ASSERT_TRUE(db.CreateTable(ItemsSchema()).ok());
    ASSERT_TRUE(db.EnableWal(wal_path_).ok());
    ASSERT_TRUE(db.Insert("items", MakeItem("first", 1)).ok());
    ASSERT_TRUE(db.Insert("items", MakeItem("second", 2)).ok());
    ASSERT_TRUE(db.Insert("items", MakeItem("third", 3)).ok());
  }
  // Corrupt the MIDDLE record in place (seq 2), leaving seq 3 intact.
  std::string log = ReadAll(wal_path_);
  std::vector<std::string> lines;
  size_t start = 0;
  while (start < log.size()) {
    size_t end = log.find('\n', start);
    if (end == std::string::npos) break;
    lines.push_back(log.substr(start, end - start));
    start = end + 1;
  }
  ASSERT_EQ(lines.size(), 3u);
  lines[1] = lines[1].substr(0, lines[1].size() / 2);  // mangle seq 2
  {
    std::ofstream out(wal_path_, std::ios::trunc);
    for (const std::string& line : lines) out << line << "\n";
  }
  Database recovered;
  ASSERT_TRUE(recovered.CreateTable(ItemsSchema()).ok());
  Status st = recovered.Recover(snapshot_path_, wal_path_);
  ASSERT_FALSE(st.ok()) << "mid-file corruption must not recover silently";
  // The error names the offending line and the last good sequence.
  EXPECT_NE(st.ToString().find("line 2"), std::string::npos) << st.ToString();
  EXPECT_NE(st.ToString().find("last good seq 1"), std::string::npos)
      << st.ToString();
}

TEST_F(PersistenceTest, PerRecordFsyncKeepsDurableSeqCurrent) {
  Database db;
  ASSERT_TRUE(db.CreateTable(ItemsSchema()).ok());
  WalOptions options;
  options.fsync = WalFsyncMode::kPerRecord;
  ASSERT_TRUE(db.EnableWal(wal_path_, options).ok());
  ASSERT_TRUE(db.Insert("items", MakeItem("durable", 1)).ok());
  ASSERT_TRUE(db.Insert("items", MakeItem("also", 2)).ok());
  WalStatus ws = db.wal_status();
  EXPECT_TRUE(ws.enabled);
  EXPECT_EQ(ws.fsync_mode, "per_record");
  EXPECT_EQ(ws.appended_seq, 2u);
  EXPECT_EQ(ws.durable_seq, 2u);  // every append fsynced before returning
  EXPECT_EQ(ws.records, 2u);
  EXPECT_GT(ws.bytes, 0u);
}

TEST_F(PersistenceTest, IntervalFsyncCatchesUpInBackground) {
  Database db;
  ASSERT_TRUE(db.CreateTable(ItemsSchema()).ok());
  WalOptions options;
  options.fsync = WalFsyncMode::kInterval;
  options.fsync_interval_ms = 5;
  ASSERT_TRUE(db.EnableWal(wal_path_, options).ok());
  ASSERT_TRUE(db.Insert("items", MakeItem("buffered", 1)).ok());
  // The append itself never waits on disk; the flusher advances
  // durable_seq within a few intervals.
  bool durable = false;
  for (int i = 0; i < 200 && !durable; ++i) {
    durable = db.wal_status().durable_seq >= 1;
    if (!durable) std::this_thread::sleep_for(std::chrono::milliseconds(2));
  }
  EXPECT_TRUE(durable) << "interval flusher never advanced durable_seq";
  EXPECT_EQ(db.wal_status().fsync_mode, "interval");
}

TEST_F(PersistenceTest, DefaultFsyncModeReportsNoneAndZeroDurable) {
  Database db;
  ASSERT_TRUE(db.CreateTable(ItemsSchema()).ok());
  ASSERT_TRUE(db.EnableWal(wal_path_).ok());
  ASSERT_TRUE(db.Insert("items", MakeItem("lazy", 1)).ok());
  WalStatus ws = db.wal_status();
  EXPECT_EQ(ws.fsync_mode, "none");
  EXPECT_EQ(ws.appended_seq, 1u);
  EXPECT_EQ(ws.durable_seq, 0u);  // nothing fsynced: durability unknown
}

}  // namespace
}  // namespace laminar::registry
