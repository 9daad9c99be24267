#include "registry/schema.hpp"

namespace laminar::registry {

Status CreateLaminarSchema(Database& db) {
  {
    TableSchema user;
    user.name = kUserTable;
    user.columns = {
        {"userName", ColumnType::kString, /*nullable=*/false},
        {"password", ColumnType::kString, false},
        {"createdAtMs", ColumnType::kInt, true},
    };
    user.unique_columns = {"userName"};
    if (Status st = db.CreateTable(std::move(user)); !st.ok()) return st;
  }
  {
    TableSchema wf;
    wf.name = kWorkflowTable;
    wf.columns = {
        {"userId", ColumnType::kInt, false},
        {"workflowName", ColumnType::kString, false},
        {"description", ColumnType::kClob, true},
        {"descriptionEmbedding", ColumnType::kClob, true},
        {"workflowCode", ColumnType::kClob, false},
        {"entryPoint", ColumnType::kClob, true},
        // Fig. 6's SPT features. New rows leave it out, since search
        // rebuilds them from the code; rows stored with it still load.
        {"sptEmbedding", ColumnType::kClob, true},
        // Owning tenant namespace; nullable so pre-tenancy snapshots/WALs
        // load unchanged (missing reads back as the default tenant).
        {"tenant", ColumnType::kString, true},
    };
    wf.indexed_columns = {"workflowName", "userId"};
    wf.foreign_keys = {{"userId", kUserTable}};
    if (Status st = db.CreateTable(std::move(wf)); !st.ok()) return st;
  }
  {
    TableSchema pe;
    pe.name = kPeTable;
    pe.columns = {
        {"peName", ColumnType::kString, false},
        {"description", ColumnType::kClob, true},
        {"descriptionEmbedding", ColumnType::kClob, true},
        {"peCode", ColumnType::kClob, false},
        {"sptEmbedding", ColumnType::kClob, true},  // as for workflows
        {"peType", ColumnType::kString, true},
        {"tenant", ColumnType::kString, true},
    };
    pe.indexed_columns = {"peName"};
    if (Status st = db.CreateTable(std::move(pe)); !st.ok()) return st;
  }
  {
    TableSchema link;
    link.name = kWorkflowPeTable;
    link.columns = {
        {"workflowId", ColumnType::kInt, false},
        {"peId", ColumnType::kInt, false},
    };
    link.indexed_columns = {"workflowId", "peId"};
    link.foreign_keys = {{"workflowId", kWorkflowTable}, {"peId", kPeTable}};
    if (Status st = db.CreateTable(std::move(link)); !st.ok()) return st;
  }
  {
    TableSchema exec;
    exec.name = kExecutionTable;
    exec.columns = {
        {"workflowId", ColumnType::kInt, false},
        {"userId", ColumnType::kInt, false},
        {"mapping", ColumnType::kString, true},
        {"status", ColumnType::kString, true},
        {"startedAtMs", ColumnType::kInt, true},
        {"finishedAtMs", ColumnType::kInt, true},
    };
    exec.indexed_columns = {"workflowId", "userId"};
    exec.foreign_keys = {{"workflowId", kWorkflowTable},
                         {"userId", kUserTable}};
    if (Status st = db.CreateTable(std::move(exec)); !st.ok()) return st;
  }
  {
    TableSchema resp;
    resp.name = kResponseTable;
    resp.columns = {
        {"executionId", ColumnType::kInt, false},
        {"output", ColumnType::kClob, true},
        {"lineCount", ColumnType::kInt, true},
    };
    resp.indexed_columns = {"executionId"};
    resp.foreign_keys = {{"executionId", kExecutionTable}};
    if (Status st = db.CreateTable(std::move(resp)); !st.ok()) return st;
  }
  return Status::Ok();
}

Status CreateLegacySchema(Database& db) {
  {
    TableSchema user;
    user.name = "v1_user";
    user.columns = {
        {"userName", ColumnType::kString, false},
        {"password", ColumnType::kString, false},
    };
    user.unique_columns = {"userName"};
    if (Status st = db.CreateTable(std::move(user)); !st.ok()) return st;
  }
  {
    // Laminar 1.0: denormalized, code as a bounded String field, no
    // secondary indexes — every name lookup is a scan, and large PEs simply
    // do not fit.
    TableSchema pe;
    pe.name = "v1_processing_element";
    pe.columns = {
        {"peName", ColumnType::kString, false},
        {"description", ColumnType::kString, true},
        {"peCode", ColumnType::kString, false},
        {"descriptionEmbedding", ColumnType::kString, true},
        {"workflowName", ColumnType::kString, true},  // denormalized
    };
    pe.string_limit = 255;
    if (Status st = db.CreateTable(std::move(pe)); !st.ok()) return st;
  }
  return Status::Ok();
}

}  // namespace laminar::registry
