// Typed data-access layer over the Laminar schema — the "models / data
// access" tier of the paper's server architecture (§III). Services speak
// these record structs; only this file knows column names.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "registry/schema.hpp"

namespace laminar::registry {

struct UserRecord {
  int64_t id = 0;
  std::string user_name;
  std::string password;
};

struct PeRecord {
  int64_t id = 0;
  std::string name;
  std::string description;
  std::string description_embedding;  ///< JSON float array
  std::string code;
  std::string spt_embedding;  ///< JSON {hash: count}
  std::string type;           ///< e.g. "IterativePE"
  /// Owning tenant namespace; empty means the default tenant (rows written
  /// before tenancy existed read back as default — Rows are schemaless, so
  /// old snapshots/WALs simply lack the column).
  std::string tenant;
};

struct WorkflowRecord {
  int64_t id = 0;
  int64_t user_id = 0;
  std::string name;
  std::string description;
  std::string description_embedding;
  std::string code;
  std::string entry_point;
  std::string spt_embedding;
  /// Owning tenant namespace; empty = default (see PeRecord::tenant).
  std::string tenant;
};

struct ExecutionRecord {
  int64_t id = 0;
  int64_t workflow_id = 0;
  int64_t user_id = 0;
  std::string mapping;
  std::string status;
  int64_t started_at_ms = 0;
  int64_t finished_at_ms = 0;
};

/// CRUD facade; all methods are thin and synchronous. The repository does
/// not own the database.
class Repository {
 public:
  explicit Repository(Database& db) : db_(&db) {}

  // Users.
  Result<int64_t> CreateUser(const std::string& name,
                             const std::string& password);
  Result<UserRecord> GetUserByName(const std::string& name) const;
  Result<UserRecord> GetUser(int64_t id) const;

  // Processing elements.
  Result<int64_t> CreatePe(const PeRecord& pe);
  Result<PeRecord> GetPe(int64_t id) const;
  Result<PeRecord> GetPeByName(const std::string& name) const;
  Status UpdatePe(int64_t id, const Row& fields);
  Status RemovePe(int64_t id);
  std::vector<PeRecord> AllPes() const;
  /// Rows in the PE table, every tenant's, without copying any.
  size_t PeCount() const;

  // Workflows.
  Result<int64_t> CreateWorkflow(const WorkflowRecord& wf);
  Result<WorkflowRecord> GetWorkflow(int64_t id) const;
  Result<WorkflowRecord> GetWorkflowByName(const std::string& name) const;
  Status UpdateWorkflow(int64_t id, const Row& fields);
  Status RemoveWorkflow(int64_t id);
  std::vector<WorkflowRecord> AllWorkflows() const;
  /// Rows in the workflow table, every tenant's, without copying any.
  size_t WorkflowCount() const;

  // Workflow <-> PE links.
  Status LinkPe(int64_t workflow_id, int64_t pe_id);
  std::vector<PeRecord> PesOfWorkflow(int64_t workflow_id) const;
  std::vector<int64_t> WorkflowsUsingPe(int64_t pe_id) const;

  // Executions + responses.
  Result<int64_t> CreateExecution(int64_t workflow_id, int64_t user_id,
                                  const std::string& mapping);
  Status FinishExecution(int64_t execution_id, const std::string& status,
                         const std::string& output, int64_t line_count);
  Result<ExecutionRecord> GetExecution(int64_t id) const;
  std::vector<ExecutionRecord> ExecutionsOfWorkflow(int64_t workflow_id) const;

  /// Deletes all PEs, workflows, links, executions and responses (the CLI's
  /// remove_all). Users survive.
  Status RemoveAll();

  Database& db() { return *db_; }

 private:
  Database* db_;
};

}  // namespace laminar::registry
