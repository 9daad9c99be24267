#include <gtest/gtest.h>

#include "registry/repository.hpp"
#include "registry/schema.hpp"
#include "scratch_dir.hpp"

namespace laminar::registry {
namespace {

TableSchema SimpleSchema() {
  TableSchema schema;
  schema.name = "t";
  schema.columns = {
      {"name", ColumnType::kString, /*nullable=*/false},
      {"payload", ColumnType::kClob, true},
      {"score", ColumnType::kDouble, true},
      {"active", ColumnType::kBool, true},
      {"count", ColumnType::kInt, true},
  };
  schema.unique_columns = {"name"};
  return schema;
}

Row MakeRow(const std::string& name) {
  Row row = Value::MakeObject();
  row["name"] = name;
  return row;
}

TEST(Table, InsertAssignsSequentialIds) {
  Table t(SimpleSchema());
  EXPECT_EQ(t.Insert(MakeRow("a")).value(), 1);
  EXPECT_EQ(t.Insert(MakeRow("b")).value(), 2);
  EXPECT_EQ(t.size(), 2u);
}

TEST(Table, GetReturnsStoredRow) {
  Table t(SimpleSchema());
  Row row = MakeRow("a");
  row["count"] = 7;
  int64_t id = t.Insert(std::move(row)).value();
  Result<Row> got = t.Get(id);
  ASSERT_TRUE(got.ok());
  EXPECT_EQ(got->GetString("name"), "a");
  EXPECT_EQ(got->GetInt("count"), 7);
  EXPECT_EQ(got->GetInt("id"), id);
  EXPECT_FALSE(t.Get(99).ok());
}

TEST(Table, TypeValidation) {
  Table t(SimpleSchema());
  Row bad = MakeRow("a");
  bad["count"] = "not an int";
  EXPECT_FALSE(t.Insert(std::move(bad)).ok());
  Row unknown = MakeRow("b");
  unknown["bogus_column"] = 1;
  EXPECT_FALSE(t.Insert(std::move(unknown)).ok());
  Row missing = Value::MakeObject();  // name is non-nullable
  EXPECT_FALSE(t.Insert(std::move(missing)).ok());
}

TEST(Table, PrimaryKeyCannotBeSupplied) {
  Table t(SimpleSchema());
  Row row = MakeRow("a");
  row["id"] = 42;
  EXPECT_FALSE(t.Insert(std::move(row)).ok());
}

TEST(Table, VarcharLimitEnforcedButClobUnbounded) {
  // The Laminar 1.0 failure mode (§IV-D): code stored in a String field.
  Table t(SimpleSchema());
  std::string big(10'000, 'x');
  Row clob_row = MakeRow("ok");
  clob_row["payload"] = big;  // Clob column: fine
  EXPECT_TRUE(t.Insert(std::move(clob_row)).ok());
  Row string_row = MakeRow(big);  // String column: VARCHAR(255) overflow
  Result<int64_t> r = t.Insert(std::move(string_row));
  ASSERT_FALSE(r.ok());
  EXPECT_NE(r.status().message().find("VARCHAR"), std::string::npos);
}

TEST(Table, UniqueConstraint) {
  Table t(SimpleSchema());
  EXPECT_TRUE(t.Insert(MakeRow("a")).ok());
  Result<int64_t> dup = t.Insert(MakeRow("a"));
  ASSERT_FALSE(dup.ok());
  EXPECT_EQ(dup.status().code(), StatusCode::kAlreadyExists);
}

TEST(Table, UpdateMergesAndRevalidates) {
  Table t(SimpleSchema());
  int64_t a = t.Insert(MakeRow("a")).value();
  t.Insert(MakeRow("b")).value();
  Row fields = Value::MakeObject();
  fields["count"] = 5;
  EXPECT_TRUE(t.Update(a, fields).ok());
  EXPECT_EQ(t.Get(a)->GetInt("count"), 5);
  EXPECT_EQ(t.Get(a)->GetString("name"), "a");  // untouched fields survive
  // Updating into a unique collision fails.
  Row rename = Value::MakeObject();
  rename["name"] = "b";
  EXPECT_FALSE(t.Update(a, rename).ok());
  // Update to own value is fine.
  Row same = Value::MakeObject();
  same["name"] = "a";
  EXPECT_TRUE(t.Update(a, same).ok());
}

TEST(Table, UpdateKeepsIndexConsistent) {
  Table t(SimpleSchema());
  int64_t a = t.Insert(MakeRow("old")).value();
  Row rename = Value::MakeObject();
  rename["name"] = "new";
  ASSERT_TRUE(t.Update(a, rename).ok());
  EXPECT_TRUE(t.FindBy("name", Value("old")).empty());
  ASSERT_EQ(t.FindBy("name", Value("new")).size(), 1u);
  // The freed unique value is reusable.
  EXPECT_TRUE(t.Insert(MakeRow("old")).ok());
}

TEST(Table, EraseRemovesRowAndIndex) {
  Table t(SimpleSchema());
  int64_t a = t.Insert(MakeRow("a")).value();
  EXPECT_TRUE(t.Erase(a));
  EXPECT_FALSE(t.Erase(a));
  EXPECT_TRUE(t.FindBy("name", Value("a")).empty());
  EXPECT_TRUE(t.Insert(MakeRow("a")).ok());  // unique value freed
}

TEST(Table, IndexedLookupAvoidsScan) {
  TableSchema schema = SimpleSchema();
  schema.indexed_columns = {"count"};
  Table t(schema);
  for (int i = 0; i < 100; ++i) {
    Row row = MakeRow("r" + std::to_string(i));
    row["count"] = i % 10;
    t.Insert(std::move(row)).value();
  }
  EXPECT_EQ(t.FindBy("count", Value(3)).size(), 10u);
  TableStats stats = t.stats();
  EXPECT_GE(stats.index_lookups, 1u);
  EXPECT_EQ(stats.full_scans, 0u);
  // Unindexed column falls back to a scan.
  t.FindBy("score", Value(1.0));
  EXPECT_EQ(t.stats().full_scans, 1u);
  EXPECT_GE(t.stats().rows_scanned, 100u);
}

TEST(Table, ScanAscendingIdOrder) {
  Table t(SimpleSchema());
  for (int i = 0; i < 5; ++i) t.Insert(MakeRow("r" + std::to_string(i))).value();
  std::vector<Row> all = t.All();
  for (size_t i = 1; i < all.size(); ++i) {
    EXPECT_LT(all[i - 1].GetInt("id"), all[i].GetInt("id"));
  }
  std::vector<Row> odd =
      t.Scan([](const Row& r) { return r.GetInt("id") % 2 == 1; });
  EXPECT_EQ(odd.size(), 3u);
}

TEST(Database, ForeignKeysEnforced) {
  Database db;
  ASSERT_TRUE(CreateLaminarSchema(db).ok());
  Row wf = Value::MakeObject();
  wf["userId"] = 999;  // no such user
  wf["workflowName"] = "w";
  wf["workflowCode"] = "x";
  EXPECT_FALSE(db.Insert(kWorkflowTable, wf).ok());

  Repository repo(db);
  int64_t uid = repo.CreateUser("u", "p").value();
  wf["userId"] = uid;
  EXPECT_TRUE(db.Insert(kWorkflowTable, wf).ok());
}

TEST(Database, EraseRefusesWhileReferenced) {
  Database db;
  ASSERT_TRUE(CreateLaminarSchema(db).ok());
  Repository repo(db);
  int64_t uid = repo.CreateUser("u", "p").value();
  WorkflowRecord wf;
  wf.user_id = uid;
  wf.name = "w";
  wf.code = "code";
  int64_t wid = repo.CreateWorkflow(wf).value();
  Status st = db.Erase(kUserTable, uid);
  EXPECT_EQ(st.code(), StatusCode::kFailedPrecondition);
  ASSERT_TRUE(repo.RemoveWorkflow(wid).ok());
  EXPECT_TRUE(db.Erase(kUserTable, uid).ok());
}

TEST(Database, DuplicateTableRejected) {
  Database db;
  ASSERT_TRUE(CreateLaminarSchema(db).ok());
  TableSchema dup;
  dup.name = kUserTable;
  EXPECT_FALSE(db.CreateTable(std::move(dup)).ok());
}

TEST(Repository, PeCrudLifecycle) {
  Database db;
  ASSERT_TRUE(CreateLaminarSchema(db).ok());
  Repository repo(db);
  PeRecord pe;
  pe.name = "IsPrime";
  pe.code = "class IsPrime: pass";
  pe.description = "checks primes";
  pe.type = "IterativePE";
  int64_t id = repo.CreatePe(pe).value();
  Result<PeRecord> got = repo.GetPe(id);
  ASSERT_TRUE(got.ok());
  EXPECT_EQ(got->name, "IsPrime");
  EXPECT_EQ(repo.GetPeByName("IsPrime")->id, id);
  Row update = Value::MakeObject();
  update["description"] = "new text";
  ASSERT_TRUE(repo.UpdatePe(id, update).ok());
  EXPECT_EQ(repo.GetPe(id)->description, "new text");
  ASSERT_TRUE(repo.RemovePe(id).ok());
  EXPECT_FALSE(repo.GetPe(id).ok());
}

TEST(Repository, DuplicatePeNamesResolveToNewest) {
  Database db;
  ASSERT_TRUE(CreateLaminarSchema(db).ok());
  Repository repo(db);
  PeRecord pe;
  pe.name = "Dup";
  pe.code = "v1";
  repo.CreatePe(pe).value();
  pe.code = "v2";
  int64_t second = repo.CreatePe(pe).value();
  EXPECT_EQ(repo.GetPeByName("Dup")->id, second);
  EXPECT_EQ(repo.GetPeByName("Dup")->code, "v2");
}

TEST(Repository, WorkflowPeLinksAndCascade) {
  Database db;
  ASSERT_TRUE(CreateLaminarSchema(db).ok());
  Repository repo(db);
  int64_t uid = repo.CreateUser("u", "p").value();
  WorkflowRecord wf;
  wf.user_id = uid;
  wf.name = "wf";
  wf.code = "c";
  int64_t wid = repo.CreateWorkflow(wf).value();
  PeRecord pe;
  pe.name = "P1";
  pe.code = "x";
  int64_t p1 = repo.CreatePe(pe).value();
  pe.name = "P2";
  int64_t p2 = repo.CreatePe(pe).value();
  ASSERT_TRUE(repo.LinkPe(wid, p1).ok());
  ASSERT_TRUE(repo.LinkPe(wid, p2).ok());
  EXPECT_EQ(repo.PesOfWorkflow(wid).size(), 2u);
  EXPECT_EQ(repo.WorkflowsUsingPe(p1), (std::vector<int64_t>{wid}));
  // Removing a linked PE drops its link rows (cascade).
  ASSERT_TRUE(repo.RemovePe(p1).ok());
  EXPECT_EQ(repo.PesOfWorkflow(wid).size(), 1u);
  // Removing the workflow drops remaining links.
  ASSERT_TRUE(repo.RemoveWorkflow(wid).ok());
  EXPECT_TRUE(repo.WorkflowsUsingPe(p2).empty());
}

TEST(Repository, ExecutionLifecycle) {
  Database db;
  ASSERT_TRUE(CreateLaminarSchema(db).ok());
  Repository repo(db);
  int64_t uid = repo.CreateUser("u", "p").value();
  WorkflowRecord wf;
  wf.user_id = uid;
  wf.name = "wf";
  wf.code = "c";
  int64_t wid = repo.CreateWorkflow(wf).value();
  int64_t eid = repo.CreateExecution(wid, uid, "multi").value();
  Result<ExecutionRecord> running = repo.GetExecution(eid);
  ASSERT_TRUE(running.ok());
  EXPECT_EQ(running->status, "running");
  EXPECT_EQ(running->mapping, "multi");
  ASSERT_TRUE(repo.FinishExecution(eid, "succeeded", "out\n", 1).ok());
  EXPECT_EQ(repo.GetExecution(eid)->status, "succeeded");
  EXPECT_EQ(repo.ExecutionsOfWorkflow(wid).size(), 1u);
  // The response row was written and linked.
  EXPECT_EQ(db.GetTable(kResponseTable)->FindBy("executionId", Value(eid)).size(),
            1u);
}

TEST(Repository, RemoveAllKeepsUsers) {
  Database db;
  ASSERT_TRUE(CreateLaminarSchema(db).ok());
  Repository repo(db);
  repo.CreateUser("keep", "p").value();
  PeRecord pe;
  pe.name = "P";
  pe.code = "x";
  repo.CreatePe(pe).value();
  ASSERT_TRUE(repo.RemoveAll().ok());
  EXPECT_TRUE(repo.AllPes().empty());
  EXPECT_TRUE(repo.AllWorkflows().empty());
  EXPECT_TRUE(repo.GetUserByName("keep").ok());
}

TEST(Database, PersistenceRoundTrip) {
  ScratchDir dir;
  const std::string path = dir.File("registry.json");
  {
    Database db;
    ASSERT_TRUE(CreateLaminarSchema(db).ok());
    Repository repo(db);
    int64_t uid = repo.CreateUser("saved", "pw").value();
    PeRecord pe;
    pe.name = "Persisted";
    pe.code = std::string(5000, 'y');  // CLOB content survives
    repo.CreatePe(pe).value();
    WorkflowRecord wf;
    wf.user_id = uid;
    wf.name = "wf";
    wf.code = "c";
    repo.CreateWorkflow(wf).value();
    ASSERT_TRUE(db.SaveToFile(path).ok());
  }
  {
    Database db;
    ASSERT_TRUE(CreateLaminarSchema(db).ok());
    ASSERT_TRUE(db.LoadFromFile(path).ok());
    Repository repo(db);
    EXPECT_TRUE(repo.GetUserByName("saved").ok());
    Result<PeRecord> pe = repo.GetPeByName("Persisted");
    ASSERT_TRUE(pe.ok());
    EXPECT_EQ(pe->code.size(), 5000u);
    // Ids continue past the loaded maximum.
    PeRecord fresh;
    fresh.name = "New";
    fresh.code = "z";
    EXPECT_GT(repo.CreatePe(fresh).value(), pe->id);
    // Indexes were rebuilt on load.
    EXPECT_EQ(db.GetTable(kPeTable)->stats().full_scans, 0u);
  }
}

TEST(Database, LoadMissingFileFails) {
  Database db;
  ASSERT_TRUE(CreateLaminarSchema(db).ok());
  EXPECT_FALSE(db.LoadFromFile("/nonexistent/path.json").ok());
}

TEST(LegacySchema, ModelsLaminar10Limits) {
  Database db;
  ASSERT_TRUE(CreateLegacySchema(db).ok());
  Table* pes = db.GetTable("v1_processing_element");
  ASSERT_NE(pes, nullptr);
  Row small = Value::MakeObject();
  small["peName"] = "Tiny";
  small["peCode"] = "def f(): pass";
  EXPECT_TRUE(pes->Insert(std::move(small)).ok());
  Row big = Value::MakeObject();
  big["peName"] = "Big";
  big["peCode"] = std::string(1000, 'c');  // does not fit in String field
  EXPECT_FALSE(pes->Insert(std::move(big)).ok());
  // Name lookups scan (no index in the 1.0 schema).
  pes->FindBy("peName", Value("Tiny"));
  EXPECT_GE(pes->stats().full_scans, 1u);
}

}  // namespace
}  // namespace laminar::registry
