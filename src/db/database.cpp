#include "db/database.hpp"

#include <unordered_set>

#include "db/archive.hpp"
#include "util/strings.hpp"

namespace goofi::db {

namespace {
std::string LowerName(const std::string& name) { return util::ToLower(name); }
}  // namespace

util::Status Database::CreateTable(Schema schema) {
  GOOFI_RETURN_IF_ERROR(schema.Validate());
  const std::string key = LowerName(schema.table_name());
  if (tables_.contains(key)) {
    return util::AlreadyExists("table " + schema.table_name() + " already exists");
  }
  // Validate foreign keys against existing tables (self-references allowed).
  for (const ForeignKey& fk : schema.foreign_keys()) {
    const Table* ref = GetTable(fk.ref_table);
    const Schema* ref_schema = nullptr;
    if (util::EqualsIgnoreCase(fk.ref_table, schema.table_name())) {
      ref_schema = &schema;
    } else if (ref != nullptr) {
      ref_schema = &ref->schema();
    } else {
      return util::InvalidArgument("foreign key references unknown table " +
                                   fk.ref_table);
    }
    for (const auto& col : fk.ref_columns) {
      if (!ref_schema->ColumnIndex(col)) {
        return util::InvalidArgument("foreign key references unknown column " +
                                     fk.ref_table + "." + col);
      }
    }
  }
  auto table = std::make_unique<Table>(std::move(schema));
  table->SetObserver(observer_);
  const Table* created = table.get();
  tables_.emplace(key, std::move(table));
  ++schema_version_;
  if (observer_ != nullptr) observer_->OnCreateTable(created->schema());
  return util::Status::Ok();
}

util::Status Database::DropTable(const std::string& name) {
  const auto it = tables_.find(LowerName(name));
  if (it == tables_.end()) return util::NotFound("no table " + name);
  // RESTRICT: refuse to drop while another table declares an FK to it.
  for (const auto& [key, table] : tables_) {
    if (key == it->first) continue;
    for (const ForeignKey& fk : table->schema().foreign_keys()) {
      if (util::EqualsIgnoreCase(fk.ref_table, name)) {
        return util::ConstraintViolation("table " + name + " is referenced by " +
                                         table->schema().table_name());
      }
    }
  }
  const std::string declared_name = it->second->schema().table_name();
  tables_.erase(it);
  ++schema_version_;
  if (observer_ != nullptr) observer_->OnDropTable(declared_name);
  return util::Status::Ok();
}

util::Status Database::CreateIndex(const std::string& table,
                                   const std::string& name,
                                   const std::vector<std::string>& columns,
                                   IndexKind kind) {
  Table* t = GetTable(table);
  if (t == nullptr) return util::NotFound("no table " + table);
  GOOFI_RETURN_IF_ERROR(t->CreateIndex(name, columns, kind));
  ++schema_version_;
  if (observer_ != nullptr) observer_->OnCreateIndex(*t, name, columns, kind);
  return util::Status::Ok();
}

util::Status Database::DropIndex(const std::string& table,
                                 const std::string& name) {
  Table* t = GetTable(table);
  if (t == nullptr) return util::NotFound("no table " + table);
  GOOFI_RETURN_IF_ERROR(t->DropIndex(name));
  ++schema_version_;
  if (observer_ != nullptr) observer_->OnDropIndex(*t, name);
  return util::Status::Ok();
}

void Database::SetObserver(DatabaseObserver* observer) {
  observer_ = observer;
  for (const auto& [key, table] : tables_) table->SetObserver(observer);
}

bool Database::HasTable(const std::string& name) const {
  return tables_.contains(LowerName(name));
}

Table* Database::GetTable(const std::string& name) {
  const auto it = tables_.find(LowerName(name));
  return it == tables_.end() ? nullptr : it->second.get();
}

const Table* Database::GetTable(const std::string& name) const {
  const auto it = tables_.find(LowerName(name));
  return it == tables_.end() ? nullptr : it->second.get();
}

std::vector<std::string> Database::TableNames() const {
  std::vector<std::string> names;
  names.reserve(tables_.size());
  for (const auto& [key, table] : tables_) names.push_back(table->schema().table_name());
  return names;
}

util::Status Database::CheckForeignKeysOnInsert(const Table& table,
                                                const Row& row) const {
  for (const ForeignKey& fk : table.schema().foreign_keys()) {
    Row values;
    values.reserve(fk.local_columns.size());
    bool any_null = false;
    for (const auto& col : fk.local_columns) {
      const Value& v = row[*table.schema().ColumnIndex(col)];
      if (v.is_null()) any_null = true;
      values.push_back(v);
    }
    if (any_null) continue;  // SQL: NULL FK values are not checked
    const Table* ref = GetTable(fk.ref_table);
    if (ref == nullptr) {
      return util::Internal("foreign key references dropped table " + fk.ref_table);
    }
    std::vector<size_t> ref_indices;
    ref_indices.reserve(fk.ref_columns.size());
    for (const auto& col : fk.ref_columns) {
      ref_indices.push_back(*ref->schema().ColumnIndex(col));
    }
    if (!ref->ExistsWhere(ref_indices, values)) {
      return util::ConstraintViolation(
          "foreign key violation: " + table.schema().table_name() + " -> " +
          fk.ref_table + " (no matching referenced row)");
    }
  }
  return util::Status::Ok();
}

util::Status Database::Insert(const std::string& table_name, Row row) {
  Table* table = GetTable(table_name);
  if (table == nullptr) return util::NotFound("no table " + table_name);
  GOOFI_RETURN_IF_ERROR(table->schema().CheckRow(row));
  GOOFI_RETURN_IF_ERROR(CheckForeignKeysOnInsert(*table, row));
  return table->Insert(std::move(row));
}

util::Status Database::InsertBatch(const std::string& table_name,
                                   std::vector<Row> rows) {
  Table* table = GetTable(table_name);
  if (table == nullptr) return util::NotFound("no table " + table_name);
  const Schema& schema = table->schema();

  // Resolve every foreign key's local/referenced column indices once.
  struct ResolvedFk {
    const Table* ref_table = nullptr;
    std::vector<size_t> local_indices;
    std::vector<size_t> ref_indices;
    std::unordered_set<Row, KeyHash, KeyEq> verified;  ///< per-batch memo
  };
  std::vector<ResolvedFk> fks;
  fks.reserve(schema.foreign_keys().size());
  for (const ForeignKey& fk : schema.foreign_keys()) {
    ResolvedFk resolved;
    resolved.ref_table = GetTable(fk.ref_table);
    if (resolved.ref_table == nullptr) {
      return util::Internal("foreign key references dropped table " +
                            fk.ref_table);
    }
    for (const auto& col : fk.local_columns) {
      resolved.local_indices.push_back(*schema.ColumnIndex(col));
    }
    for (const auto& col : fk.ref_columns) {
      resolved.ref_indices.push_back(*resolved.ref_table->schema().ColumnIndex(col));
    }
    fks.push_back(std::move(resolved));
  }

  // Insert in order; a row may reference an earlier row of the same batch
  // because FK checks run against the table as it grows. Insert appends, so
  // this batch's rows are the slots from `first_slot` on.
  const size_t first_slot = table->slots().size();
  table->Reserve(first_slot + rows.size());
  if (observer_ != nullptr) observer_->OnInsertBatchBegin(*table);
  util::Status error = util::Status::Ok();
  for (Row& row : rows) {
    error = schema.CheckRow(row);
    if (!error.ok()) break;
    for (ResolvedFk& fk : fks) {
      const KeyView values{row, fk.local_indices};
      bool any_null = false;
      for (size_t idx : fk.local_indices) any_null |= row[idx].is_null();
      if (any_null) continue;  // SQL: NULL FK values are not checked
      if (fk.verified.contains(values)) continue;
      Row key = values.ToRow();
      if (!fk.ref_table->ExistsWhere(fk.ref_indices, key)) {
        error = util::ConstraintViolation(
            "foreign key violation: " + schema.table_name() + " -> " +
            fk.ref_table->schema().table_name() + " (no matching referenced row)");
        break;
      }
      fk.verified.insert(std::move(key));
    }
    if (!error.ok()) break;
    error = table->Insert(std::move(row));
    if (!error.ok()) break;
  }
  if (error.ok()) {
    if (observer_ != nullptr) observer_->OnInsertBatchEnd(*table, true);
    return error;
  }

  // All-or-nothing: undo this batch's inserts, found by primary key (so
  // possible only with one; all GOOFI tables declare one).
  const auto& pk_indices = schema.primary_key_indices();
  if (!pk_indices.empty() && table->slots().size() > first_slot) {
    std::unordered_set<Row, KeyHash, KeyEq> doomed;
    for (size_t slot = first_slot; slot < table->slots().size(); ++slot) {
      doomed.insert(KeyView{table->slots()[slot], pk_indices}.ToRow());
    }
    table->DeleteWhere([&](const Row& row) {
      return doomed.contains(KeyView{row, pk_indices});
    });
  }
  if (observer_ != nullptr) observer_->OnInsertBatchEnd(*table, false);
  return error;
}

bool Database::IsReferenced(const std::string& table_name, const Table& table,
                            const Row& row) const {
  for (const auto& [key, other] : tables_) {
    for (const ForeignKey& fk : other->schema().foreign_keys()) {
      if (!util::EqualsIgnoreCase(fk.ref_table, table_name)) continue;
      Row referenced_values;
      referenced_values.reserve(fk.ref_columns.size());
      for (const auto& col : fk.ref_columns) {
        referenced_values.push_back(row[*table.schema().ColumnIndex(col)]);
      }
      std::vector<size_t> local_indices;
      local_indices.reserve(fk.local_columns.size());
      for (const auto& col : fk.local_columns) {
        local_indices.push_back(*other->schema().ColumnIndex(col));
      }
      if (other->ExistsWhere(local_indices, referenced_values)) return true;
    }
  }
  return false;
}

util::Status Database::Delete(const std::string& table_name,
                              const std::function<bool(const Row&)>& predicate,
                              size_t* deleted) {
  Table* table = GetTable(table_name);
  if (table == nullptr) return util::NotFound("no table " + table_name);
  // First pass: verify none of the doomed rows are referenced (RESTRICT).
  util::Status st = util::Status::Ok();
  table->ForEach([&](const Row& row) {
    if (!st.ok() || !predicate(row)) return;
    if (IsReferenced(table_name, *table, row)) {
      st = util::ConstraintViolation("delete from " + table_name +
                                     " blocked: row is referenced");
    }
  });
  GOOFI_RETURN_IF_ERROR(st);
  const size_t n = table->DeleteWhere(predicate);
  if (deleted != nullptr) *deleted = n;
  return util::Status::Ok();
}

// ---------------------------------------------------------------------------
// Persistence: Save and Load speak the binary columnar snapshot format
// (db/archive), the only database file format.
// ---------------------------------------------------------------------------

util::Status Database::Save(const std::string& path) const {
  return WriteSnapshotFile(*this, path, /*epoch=*/0);
}

util::Status Database::Load(const std::string& path, uint64_t* epoch_out) {
  auto loaded = ReadSnapshotFile(path);
  if (!loaded.ok()) return loaded.status();
  if (epoch_out != nullptr) *epoch_out = loaded.value().epoch;
  ReplaceWith(std::move(loaded.value().db));
  return util::Status::Ok();
}

void Database::ReplaceWith(Database&& other) {
  // Monotonic against this database's own history so every plan cached
  // before the swap invalidates (the other database's internal counter is
  // unrelated and could alias an already-seen version).
  const uint64_t version = schema_version_;
  *this = std::move(other);
  schema_version_ = version + 1;
}

}  // namespace goofi::db
