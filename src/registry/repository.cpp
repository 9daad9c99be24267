#include "registry/repository.hpp"

#include <chrono>

namespace laminar::registry {
namespace {

int64_t NowMs() {
  using namespace std::chrono;
  return duration_cast<milliseconds>(system_clock::now().time_since_epoch())
      .count();
}

PeRecord RowToPe(const Row& row) {
  PeRecord pe;
  pe.id = row.GetInt("id");
  pe.name = row.GetString("peName");
  pe.description = row.GetString("description");
  pe.description_embedding = row.GetString("descriptionEmbedding");
  pe.code = row.GetString("peCode");
  pe.spt_embedding = row.GetString("sptEmbedding");
  pe.type = row.GetString("peType");
  pe.tenant = row.GetString("tenant");
  return pe;
}

WorkflowRecord RowToWorkflow(const Row& row) {
  WorkflowRecord wf;
  wf.id = row.GetInt("id");
  wf.user_id = row.GetInt("userId");
  wf.name = row.GetString("workflowName");
  wf.description = row.GetString("description");
  wf.description_embedding = row.GetString("descriptionEmbedding");
  wf.code = row.GetString("workflowCode");
  wf.entry_point = row.GetString("entryPoint");
  wf.spt_embedding = row.GetString("sptEmbedding");
  wf.tenant = row.GetString("tenant");
  return wf;
}

ExecutionRecord RowToExecution(const Row& row) {
  ExecutionRecord e;
  e.id = row.GetInt("id");
  e.workflow_id = row.GetInt("workflowId");
  e.user_id = row.GetInt("userId");
  e.mapping = row.GetString("mapping");
  e.status = row.GetString("status");
  e.started_at_ms = row.GetInt("startedAtMs");
  e.finished_at_ms = row.GetInt("finishedAtMs");
  return e;
}

}  // namespace

Result<int64_t> Repository::CreateUser(const std::string& name,
                                       const std::string& password) {
  Row row = Value::MakeObject();
  row["userName"] = name;
  row["password"] = password;
  row["createdAtMs"] = NowMs();
  return db_->Insert(kUserTable, std::move(row));
}

Result<UserRecord> Repository::GetUserByName(const std::string& name) const {
  std::vector<Row> rows =
      db_->GetTable(kUserTable)->FindBy("userName", Value(name));
  if (rows.empty()) return Status::NotFound("no user '" + name + "'");
  UserRecord u;
  u.id = rows[0].GetInt("id");
  u.user_name = rows[0].GetString("userName");
  u.password = rows[0].GetString("password");
  return u;
}

Result<UserRecord> Repository::GetUser(int64_t id) const {
  Result<Row> row = db_->GetTable(kUserTable)->Get(id);
  if (!row.ok()) return row.status();
  UserRecord u;
  u.id = row->GetInt("id");
  u.user_name = row->GetString("userName");
  u.password = row->GetString("password");
  return u;
}

Result<int64_t> Repository::CreatePe(const PeRecord& pe) {
  Row row = Value::MakeObject();
  row["peName"] = pe.name;
  row["description"] = pe.description;
  row["descriptionEmbedding"] = pe.description_embedding;
  row["peCode"] = pe.code;
  row["sptEmbedding"] = pe.spt_embedding;
  row["peType"] = pe.type;
  row["tenant"] = pe.tenant;
  return db_->Insert(kPeTable, std::move(row));
}

Result<PeRecord> Repository::GetPe(int64_t id) const {
  Result<Row> row = db_->GetTable(kPeTable)->Get(id);
  if (!row.ok()) return row.status();
  return RowToPe(row.value());
}

Result<PeRecord> Repository::GetPeByName(const std::string& name) const {
  std::vector<Row> rows = db_->GetTable(kPeTable)->FindBy("peName", Value(name));
  if (rows.empty()) return Status::NotFound("no PE named '" + name + "'");
  return RowToPe(rows.back());  // most recently registered wins
}

Status Repository::UpdatePe(int64_t id, const Row& fields) {
  return db_->Update(kPeTable, id, fields);
}

Status Repository::RemovePe(int64_t id) {
  // Drop link rows first (cascade).
  Table* links = db_->GetTable(kWorkflowPeTable);
  for (const Row& link : links->FindBy("peId", Value(id))) {
    links->Erase(link.GetInt("id"));
  }
  return db_->Erase(kPeTable, id);
}

std::vector<PeRecord> Repository::AllPes() const {
  std::vector<PeRecord> out;
  for (const Row& row : db_->GetTable(kPeTable)->All()) {
    out.push_back(RowToPe(row));
  }
  return out;
}

size_t Repository::PeCount() const {
  return db_->GetTable(kPeTable)->size();
}

Result<int64_t> Repository::CreateWorkflow(const WorkflowRecord& wf) {
  Row row = Value::MakeObject();
  row["userId"] = wf.user_id;
  row["workflowName"] = wf.name;
  row["description"] = wf.description;
  row["descriptionEmbedding"] = wf.description_embedding;
  row["workflowCode"] = wf.code;
  row["entryPoint"] = wf.entry_point;
  row["sptEmbedding"] = wf.spt_embedding;
  row["tenant"] = wf.tenant;
  return db_->Insert(kWorkflowTable, std::move(row));
}

Result<WorkflowRecord> Repository::GetWorkflow(int64_t id) const {
  Result<Row> row = db_->GetTable(kWorkflowTable)->Get(id);
  if (!row.ok()) return row.status();
  return RowToWorkflow(row.value());
}

Result<WorkflowRecord> Repository::GetWorkflowByName(
    const std::string& name) const {
  std::vector<Row> rows =
      db_->GetTable(kWorkflowTable)->FindBy("workflowName", Value(name));
  if (rows.empty()) return Status::NotFound("no workflow named '" + name + "'");
  return RowToWorkflow(rows.back());
}

Status Repository::UpdateWorkflow(int64_t id, const Row& fields) {
  return db_->Update(kWorkflowTable, id, fields);
}

Status Repository::RemoveWorkflow(int64_t id) {
  Table* links = db_->GetTable(kWorkflowPeTable);
  for (const Row& link : links->FindBy("workflowId", Value(id))) {
    links->Erase(link.GetInt("id"));
  }
  // Cascade executions + responses.
  Table* execs = db_->GetTable(kExecutionTable);
  Table* resps = db_->GetTable(kResponseTable);
  for (const Row& exec : execs->FindBy("workflowId", Value(id))) {
    int64_t exec_id = exec.GetInt("id");
    for (const Row& resp : resps->FindBy("executionId", Value(exec_id))) {
      resps->Erase(resp.GetInt("id"));
    }
    execs->Erase(exec_id);
  }
  return db_->Erase(kWorkflowTable, id);
}

std::vector<WorkflowRecord> Repository::AllWorkflows() const {
  std::vector<WorkflowRecord> out;
  for (const Row& row : db_->GetTable(kWorkflowTable)->All()) {
    out.push_back(RowToWorkflow(row));
  }
  return out;
}

size_t Repository::WorkflowCount() const {
  return db_->GetTable(kWorkflowTable)->size();
}

Status Repository::LinkPe(int64_t workflow_id, int64_t pe_id) {
  Row row = Value::MakeObject();
  row["workflowId"] = workflow_id;
  row["peId"] = pe_id;
  Result<int64_t> id = db_->Insert(kWorkflowPeTable, std::move(row));
  return id.ok() ? Status::Ok() : id.status();
}

std::vector<PeRecord> Repository::PesOfWorkflow(int64_t workflow_id) const {
  std::vector<PeRecord> out;
  const Table* links = db_->GetTable(kWorkflowPeTable);
  for (const Row& link : links->FindBy("workflowId", Value(workflow_id))) {
    Result<Row> pe = db_->GetTable(kPeTable)->Get(link.GetInt("peId"));
    if (pe.ok()) out.push_back(RowToPe(pe.value()));
  }
  return out;
}

std::vector<int64_t> Repository::WorkflowsUsingPe(int64_t pe_id) const {
  std::vector<int64_t> out;
  const Table* links = db_->GetTable(kWorkflowPeTable);
  for (const Row& link : links->FindBy("peId", Value(pe_id))) {
    out.push_back(link.GetInt("workflowId"));
  }
  return out;
}

Result<int64_t> Repository::CreateExecution(int64_t workflow_id,
                                            int64_t user_id,
                                            const std::string& mapping) {
  Row row = Value::MakeObject();
  row["workflowId"] = workflow_id;
  row["userId"] = user_id;
  row["mapping"] = mapping;
  row["status"] = "running";
  row["startedAtMs"] = NowMs();
  return db_->Insert(kExecutionTable, std::move(row));
}

Status Repository::FinishExecution(int64_t execution_id,
                                   const std::string& status,
                                   const std::string& output,
                                   int64_t line_count) {
  Row fields = Value::MakeObject();
  fields["status"] = status;
  fields["finishedAtMs"] = NowMs();
  Status st = db_->Update(kExecutionTable, execution_id, fields);
  if (!st.ok()) return st;
  Row resp = Value::MakeObject();
  resp["executionId"] = execution_id;
  resp["output"] = output;
  resp["lineCount"] = line_count;
  Result<int64_t> id = db_->Insert(kResponseTable, std::move(resp));
  return id.ok() ? Status::Ok() : id.status();
}

Result<ExecutionRecord> Repository::GetExecution(int64_t id) const {
  Result<Row> row = db_->GetTable(kExecutionTable)->Get(id);
  if (!row.ok()) return row.status();
  return RowToExecution(row.value());
}

std::vector<ExecutionRecord> Repository::ExecutionsOfWorkflow(
    int64_t workflow_id) const {
  std::vector<ExecutionRecord> out;
  for (const Row& row : db_->GetTable(kExecutionTable)
                            ->FindBy("workflowId", Value(workflow_id))) {
    out.push_back(RowToExecution(row));
  }
  return out;
}

Status Repository::RemoveAll() {
  db_->GetTable(kResponseTable)->Clear();
  db_->GetTable(kExecutionTable)->Clear();
  db_->GetTable(kWorkflowPeTable)->Clear();
  db_->GetTable(kWorkflowTable)->Clear();
  db_->GetTable(kPeTable)->Clear();
  return Status::Ok();
}

}  // namespace laminar::registry
