// A single table: rows plus a hash index on the primary key and optional
// secondary indexes.
//
// Tables are append-mostly in GOOFI (LoggedSystemState grows by one row per
// experiment, or per instruction in detail mode), so rows live in a stable
// vector with tombstones and the PK index maps key -> slot. Secondary
// indexes map key -> posting list of slots and are maintained incrementally
// by Insert/DeleteWhere/UpdateWhere.
#pragma once

#include <functional>
#include <map>
#include <memory>
#include <optional>
#include <unordered_map>
#include <utility>
#include <vector>

#include "db/schema.hpp"

namespace goofi::db {

using Row = std::vector<Value>;

class Table;

/// Receives row-level mutation events from a Table, after the mutation
/// succeeded. The WAL (db/archive) uses this to record logical operations.
/// Callbacks run on the mutating thread and must not mutate the table.
class TableObserver {
 public:
  virtual ~TableObserver() = default;

  /// `row` is the stored row (post-insert).
  virtual void OnInsert(const Table& table, const Row& row) = 0;
  /// Full images of the rows one DeleteWhere call removed, in slot order.
  virtual void OnDelete(const Table& table,
                        const std::vector<Row>& removed) = 0;
  /// (old, new) images of the rows one UpdateWhere call changed, in slot
  /// order. Emitted even when the call later failed mid-scan: rows updated
  /// before the failure stay updated (SQL-without-transactions semantics)
  /// and must be logged.
  virtual void OnUpdate(const Table& table,
                        const std::vector<std::pair<Row, Row>>& changes) = 0;
};

/// A key read in place: the values of `columns` of `row`, in that order. It
/// hashes and compares like a Row of those values, so hash containers keyed
/// by Row can be probed with it without building the key.
struct KeyView {
  const Row& row;
  const std::vector<size_t>& columns;

  /// The key as a Row of copied values.
  Row ToRow() const {
    Row key;
    key.reserve(columns.size());
    for (size_t c : columns) key.push_back(row[c]);
    return key;
  }
};

/// Hash/equality over a vector of key values, or over a KeyView of them.
struct KeyHash {
  using is_transparent = void;
  size_t operator()(const Row& key) const {
    size_t h = 0x811C9DC5u;
    for (const Value& v : key) h = h * 16777619u ^ v.Hash();
    return h;
  }
  size_t operator()(const KeyView& key) const {
    size_t h = 0x811C9DC5u;
    for (size_t c : key.columns) h = h * 16777619u ^ key.row[c].Hash();
    return h;
  }
};
struct KeyEq {
  using is_transparent = void;
  bool operator()(const Row& a, const Row& b) const {
    if (a.size() != b.size()) return false;
    for (size_t i = 0; i < a.size(); ++i) {
      if (a[i].Compare(b[i]) != 0) return false;
    }
    return true;
  }
  bool operator()(const KeyView& a, const Row& b) const {
    if (a.columns.size() != b.size()) return false;
    for (size_t i = 0; i < b.size(); ++i) {
      if (a.row[a.columns[i]].Compare(b[i]) != 0) return false;
    }
    return true;
  }
  bool operator()(const Row& a, const KeyView& b) const { return (*this)(b, a); }
};

/// Ordering for sorted indexes: Value::Compare's total order
/// (NULL < numbers < TEXT, INT/REAL compared numerically).
struct ValueLess {
  bool operator()(const Value& a, const Value& b) const {
    return a.Compare(b) < 0;
  }
};

enum class IndexKind {
  kHash,    ///< equality probes; any number of key columns
  kSorted,  ///< equality + range probes; exactly one key column
};

/// A secondary index: key -> posting list of row slots.
///
/// Invariants (checked by Table::ValidateIndexes):
///  - every live slot appears in exactly one posting list, under the key
///    built from its current column values (NULL keys are stored too);
///  - no dead slot appears anywhere;
///  - every posting list is sorted ascending, so an index probe replays
///    rows in physical (= insertion) order — this is what makes indexed
///    execution byte-identical to a full scan.
struct SecondaryIndex {
  std::string name;
  std::vector<size_t> columns;  ///< schema column indices forming the key
  IndexKind kind = IndexKind::kHash;
  std::unordered_map<Row, std::vector<size_t>, KeyHash, KeyEq> hash;
  std::map<Value, std::vector<size_t>, ValueLess> sorted;  ///< kSorted only
};

class Table {
 public:
  explicit Table(Schema schema) : schema_(std::move(schema)) {}

  const Schema& schema() const { return schema_; }

  /// Number of live rows.
  size_t size() const { return live_count_; }

  /// Monotonic counter bumped by every row insert, update and delete. With
  /// Database::schema_version() it tells a reader whether something it
  /// derived from the rows earlier may be stale.
  uint64_t version() const { return version_; }

  /// Inserts a row. Fails on type/NOT NULL mismatch or duplicate primary key.
  /// (Foreign keys are enforced one level up, by Database.)
  util::Status Insert(Row row);

  /// Pre-sizes the row storage (and PK index) for at least `total_slots`
  /// slots; used by batch inserts, WAL replay and snapshot loading. Growth is
  /// at least twice the current capacity, so repeated small reserves
  /// reallocate only O(log n) times.
  void Reserve(size_t total_slots);

  /// Attaches (or with nullptr detaches) the mutation observer. At most one
  /// observer; the caller keeps ownership and must outlive the attachment.
  void SetObserver(TableObserver* observer) { observer_ = observer; }
  TableObserver* observer() const { return observer_; }

  /// Finds a live row by primary key; returns its slot or nullopt.
  /// Precondition: the schema declares a primary key.
  std::optional<size_t> FindByPrimaryKey(const Row& key) const;

  /// Whether any live row has the given values in the given columns.
  /// Matching is Compare-based (NULL == NULL), not SQL three-valued logic.
  bool ExistsWhere(const std::vector<size_t>& column_indices,
                   const Row& values) const;

  /// Deletes all live rows matching `predicate`; returns the count deleted.
  size_t DeleteWhere(const std::function<bool(const Row&)>& predicate);

  /// Applies `mutate` to all live rows matching `predicate`. The mutated row
  /// is re-validated; on constraint failure the row is left unchanged and the
  /// first error is returned (already-updated rows stay updated, as in SQL
  /// without transactions). Returns number updated via `updated`.
  util::Status UpdateWhere(const std::function<bool(const Row&)>& predicate,
                           const std::function<void(Row&)>& mutate,
                           size_t* updated);

  /// Calls `fn` for every live row. `fn` must not mutate the table.
  void ForEach(const std::function<void(const Row&)>& fn) const;

  /// Raw access for persistence: live rows only.
  const std::vector<Row>& slots() const { return rows_; }
  const std::vector<bool>& live() const { return live_; }

  // --- secondary indexes ----------------------------------------------------

  /// Creates an index over `columns` (names, case-insensitive) and builds it
  /// from the existing rows. kSorted requires exactly one column. Fails on
  /// duplicate name or unknown column.
  util::Status CreateIndex(const std::string& name,
                           const std::vector<std::string>& columns,
                           IndexKind kind);

  util::Status DropIndex(const std::string& name);

  /// The index named `name` (case-insensitive), or nullptr.
  const SecondaryIndex* FindIndex(const std::string& name) const;

  const std::vector<std::unique_ptr<SecondaryIndex>>& indexes() const {
    return indexes_;
  }

  /// Slots whose key equals `key`, ascending; empty when none. Works for
  /// both index kinds (kSorted takes a single-value key). The posting list
  /// is read in place: it stays valid until the table is next mutated.
  const std::vector<size_t>& IndexEqualSlots(const SecondaryIndex& index,
                                             const Row& key) const;

  /// Slots of a kSorted index whose key falls in the given bounds, in
  /// ascending *key* order (caller must re-sort by slot for scan-order
  /// results). NULL keys are always excluded: in SQL, `col < x` is NULL
  /// (never true) for a NULL column even though NULL sorts first here.
  std::vector<size_t> IndexRangeSlots(const SecondaryIndex& index,
                                      const Value* lower, bool lower_inclusive,
                                      const Value* upper,
                                      bool upper_inclusive) const;

  /// Test hook: rebuilds every index from scratch and compares with the
  /// incrementally-maintained state. Returns false and sets `error` on the
  /// first mismatch.
  bool ValidateIndexes(std::string* error) const;

 private:
  Row ExtractKey(const Row& row) const;

  /// Adds/removes `slot` (with its current row values) to/from every index.
  /// RemoveFromIndexes must run before the row is cleared or overwritten.
  void AddToIndexes(size_t slot);
  void RemoveFromIndexes(size_t slot);

  Schema schema_;
  std::vector<Row> rows_;
  std::vector<bool> live_;
  size_t live_count_ = 0;
  uint64_t version_ = 0;
  std::unordered_map<Row, size_t, KeyHash, KeyEq> pk_index_;
  // unique_ptr for pointer stability: query plans cache SecondaryIndex*.
  std::vector<std::unique_ptr<SecondaryIndex>> indexes_;
  TableObserver* observer_ = nullptr;  ///< not owned
};

}  // namespace goofi::db
