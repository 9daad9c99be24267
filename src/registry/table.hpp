// Embedded relational table — the storage unit of the Laminar registry.
//
// Models the MySQL features the paper's schema update (§IV-D, Fig. 6)
// relies on: typed columns, VARCHAR-style bounded strings vs CLOBs
// (character large objects) for code and embeddings, auto-increment primary
// keys, unique constraints and secondary hash indexes. The VARCHAR bound is
// real: Laminar 1.0 stored Python code in a String field "which limited
// storage size" — bench_registry reproduces exactly that failure mode.
#pragma once

#include <atomic>
#include <cstdint>
#include <functional>
#include <map>
#include <string>
#include <unordered_map>
#include <vector>

#include "common/status.hpp"
#include "common/value.hpp"

namespace laminar::registry {

enum class ColumnType {
  kInt,
  kDouble,
  kBool,
  kString,  ///< bounded text (VARCHAR); see TableSchema::string_limit
  kClob,    ///< unbounded character large object
};

struct ColumnSpec {
  std::string name;
  ColumnType type = ColumnType::kString;
  bool nullable = true;
};

struct ForeignKeySpec {
  std::string column;     ///< local column holding the referenced id
  std::string ref_table;  ///< referenced table (by its primary key)
};

struct TableSchema {
  std::string name;
  /// Auto-increment integer primary key column (always present, named here).
  std::string primary_key = "id";
  std::vector<ColumnSpec> columns;  ///< non-key columns
  std::vector<std::string> unique_columns;
  std::vector<std::string> indexed_columns;  ///< secondary hash indexes
  std::vector<ForeignKeySpec> foreign_keys;
  /// Maximum length of ColumnType::kString values (MySQL VARCHAR(255)
  /// default — the Laminar 1.0 limitation).
  size_t string_limit = 255;
};

/// Read/write row representation: a Value object keyed by column name.
using Row = Value;

/// Sink for the registry's append-only mutation log. Database installs one
/// on every table when the WAL is enabled; each *committed* mutation (after
/// validation) appends exactly one record. Ops: "insert" carries the full
/// row (primary key included), "update" the partial field set, "erase" only
/// the id, "clear" nothing. Restore paths (LoadRows/RestoreRow) never log.
class WalSink {
 public:
  virtual ~WalSink() = default;
  virtual void Append(const std::string& table, std::string_view op,
                      int64_t id, const Value* payload) = 0;
};

/// Lookup statistics used by bench_registry to show index effect.
struct TableStats {
  uint64_t index_lookups = 0;
  uint64_t full_scans = 0;
  uint64_t rows_scanned = 0;
};

/// Internal counterpart of TableStats: the read path (FindBy/Scan) bumps
/// these from const methods, and the server now runs read endpoints under a
/// shared lock, so concurrent readers must not race on plain integers.
struct AtomicTableStats {
  std::atomic<uint64_t> index_lookups{0};
  std::atomic<uint64_t> full_scans{0};
  std::atomic<uint64_t> rows_scanned{0};
};

class Table {
 public:
  explicit Table(TableSchema schema);

  const TableSchema& schema() const { return schema_; }
  size_t size() const { return rows_.size(); }

  /// Validates column types/limits/uniqueness, assigns the next primary key
  /// and stores the row. Returns the new id.
  Result<int64_t> Insert(Row row);

  Result<Row> Get(int64_t id) const;
  bool Exists(int64_t id) const { return rows_.contains(id); }

  /// Merges `fields` into the row (validating types/uniqueness).
  Status Update(int64_t id, const Row& fields);
  bool Erase(int64_t id);

  /// Equality lookup. Uses the hash index when the column is indexed or
  /// unique; falls back to a full scan otherwise (and counts it).
  std::vector<Row> FindBy(const std::string& column, const Value& value) const;

  /// Predicate scan over all rows, ascending id order.
  std::vector<Row> Scan(const std::function<bool(const Row&)>& pred) const;
  /// All rows, ascending id order.
  std::vector<Row> All() const;
  /// Calls `visit` on each stored row in place, ascending id order, copying
  /// none. `visit` must not mutate the table.
  void ForEach(const std::function<void(const Row&)>& visit) const;

  void Clear();
  TableStats stats() const {
    TableStats out;
    out.index_lookups = stats_.index_lookups.load(std::memory_order_relaxed);
    out.full_scans = stats_.full_scans.load(std::memory_order_relaxed);
    out.rows_scanned = stats_.rows_scanned.load(std::memory_order_relaxed);
    return out;
  }

  /// Persistence hooks used by Database.
  Value ToJson() const;
  Status LoadRows(const Value& rows_array);

  /// WAL-replay insert: the row already carries its primary key. Re-indexes,
  /// advances next_id_ past the id, replaces any existing row. Not logged.
  Status RestoreRow(Row row);

  /// Monotonic mutation counter: bumped by every Insert/Update/Erase/Clear/
  /// LoadRows/RestoreRow. Snapshots use it as a dirty marker — a table whose
  /// version matches the last serialized one can reuse the cached text.
  uint64_t version() const { return version_; }

  /// Installs (or removes, with nullptr) the mutation-log sink.
  void SetWalSink(WalSink* sink) { wal_ = sink; }

 private:
  /// Clear without WAL logging — the restore paths (LoadRows) rebuild state
  /// that is already durable elsewhere.
  void ClearNoLog();
  const ColumnSpec* FindColumn(const std::string& name) const;
  Status ValidateTypes(const Row& row, bool partial) const;
  Status CheckUnique(const Row& row, int64_t ignore_id) const;
  void IndexRow(int64_t id, const Row& row);
  void DeindexRow(int64_t id, const Row& row);
  static std::string IndexKey(const Value& v);

  TableSchema schema_;
  std::map<int64_t, Row> rows_;  // ordered for deterministic scans
  int64_t next_id_ = 1;
  uint64_t version_ = 0;
  WalSink* wal_ = nullptr;
  /// column -> value-key -> row ids.
  std::unordered_map<std::string,
                     std::unordered_map<std::string, std::vector<int64_t>>>
      indexes_;
  mutable AtomicTableStats stats_;
};

}  // namespace laminar::registry
