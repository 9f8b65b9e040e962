// The database: a set of tables with cross-table foreign-key enforcement and
// file persistence.
//
// Mirrors the role of the SQL database in the paper's lowest layer (Fig. 1):
// it stores TargetSystemData, CampaignData and LoggedSystemState and prevents
// inconsistencies through foreign keys (Fig. 4). The schema bindings for
// those specific tables live in core/campaign_store.
#pragma once

#include <map>
#include <memory>
#include <string>

#include "db/table.hpp"

namespace goofi::db {

/// Extends the table-level observer with DDL and batch bracketing events.
/// db::Archive implements this to mirror every mutation into its WAL.
class DatabaseObserver : public TableObserver {
 public:
  /// Brackets around InsertBatch: the per-row OnInsert callbacks in between
  /// belong to one all-or-nothing batch. `committed` is false when the batch
  /// failed and was rolled back (the rollback's delete events are part of
  /// the bracket too and carry no net effect).
  virtual void OnInsertBatchBegin(const Table& table) = 0;
  virtual void OnInsertBatchEnd(const Table& table, bool committed) = 0;

  virtual void OnCreateTable(const Schema& schema) = 0;
  virtual void OnDropTable(const std::string& name) = 0;
  virtual void OnCreateIndex(const Table& table, const std::string& name,
                             const std::vector<std::string>& columns,
                             IndexKind kind) = 0;
  virtual void OnDropIndex(const Table& table, const std::string& name) = 0;
};

class Database {
 public:
  Database() = default;

  // Movable, not copyable (tables can be large).
  Database(Database&&) = default;
  Database& operator=(Database&&) = default;
  Database(const Database&) = delete;
  Database& operator=(const Database&) = delete;

  /// Creates a table. Validates the schema and that every foreign key
  /// references an existing table/columns.
  util::Status CreateTable(Schema schema);

  util::Status DropTable(const std::string& name);

  /// Creates a secondary index on `table` (see Table::CreateIndex). Index
  /// names are scoped per table.
  util::Status CreateIndex(const std::string& table, const std::string& name,
                           const std::vector<std::string>& columns,
                           IndexKind kind);

  util::Status DropIndex(const std::string& table, const std::string& name);

  /// Monotonic counter bumped by every DDL change (CreateTable/DropTable/
  /// CreateIndex/DropIndex/Load). Cached query plans hold Table* and
  /// SecondaryIndex* pointers; a version mismatch tells the prepared-
  /// statement layer to replan before touching them.
  uint64_t schema_version() const { return schema_version_; }

  bool HasTable(const std::string& name) const;

  /// nullptr if missing. Names are case-insensitive.
  Table* GetTable(const std::string& name);
  const Table* GetTable(const std::string& name) const;

  std::vector<std::string> TableNames() const;

  /// Inserts with FK checking: every non-NULL foreign key of `row` must match
  /// an existing row in the referenced table.
  util::Status Insert(const std::string& table, Row row);

  /// Inserts `rows` in order with FK checking, resolving the table and its
  /// foreign-key column indices once for the whole batch and memoizing FK
  /// lookups (campaign batches repeat the same key values row after row).
  /// Rows may reference earlier rows of the same batch. All-or-nothing: if
  /// any row fails, the rows of this batch inserted so far are deleted again
  /// and the first error is returned.
  util::Status InsertBatch(const std::string& table, std::vector<Row> rows);

  /// Deletes rows matching `predicate` with FK checking: fails (RESTRICT)
  /// if any row to delete is still referenced by another table.
  util::Status Delete(const std::string& table,
                      const std::function<bool(const Row&)>& predicate,
                      size_t* deleted = nullptr);

  /// Saves every table to `<path>` in the binary columnar snapshot format
  /// (per-segment CRC32, temp file + atomic rename; see db/archive).
  util::Status Save(const std::string& path) const;

  /// Loads a database written by Save. Replaces current contents (see
  /// ReplaceWith); persisted index definitions are recreated. A file in any
  /// other format is an error and leaves the database unchanged. `epoch_out`
  /// (optional) receives the snapshot epoch.
  util::Status Load(const std::string& path, uint64_t* epoch_out = nullptr);

  /// Replaces every table with `other`'s and bumps schema_version past this
  /// database's own history, so prepared plans cached against it
  /// invalidate. Drops the observer attachment, like Load.
  void ReplaceWith(Database&& other);

  /// Attaches (or with nullptr detaches) a mutation observer, propagating it
  /// to every current and future table. At most one; caller keeps ownership.
  /// Load drops the attachment (the observed tables are destroyed wholesale,
  /// not mutated row by row) — reattach afterwards if still wanted.
  void SetObserver(DatabaseObserver* observer);
  DatabaseObserver* observer() const { return observer_; }

 private:
  /// Checks the FK constraints of `row` about to enter `table`.
  util::Status CheckForeignKeysOnInsert(const Table& table, const Row& row) const;

  /// Whether `row` of `table_name` is referenced by any row elsewhere.
  bool IsReferenced(const std::string& table_name, const Table& table,
                    const Row& row) const;

  // Keyed by lowercase name; Table keeps the declared-case name.
  std::map<std::string, std::unique_ptr<Table>> tables_;
  uint64_t schema_version_ = 0;
  DatabaseObserver* observer_ = nullptr;  ///< not owned
};

}  // namespace goofi::db
