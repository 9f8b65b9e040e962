#include "db/table.hpp"

#include <algorithm>
#include <cassert>

#include "util/strings.hpp"

namespace goofi::db {

namespace {

/// Inserts `slot` into `postings` keeping ascending order. Insert() always
/// adds the largest slot, which goes at the back; UpdateWhere re-indexes
/// interior slots.
void InsertSorted(std::vector<size_t>* postings, size_t slot) {
  if (postings->empty() || postings->back() < slot) {
    postings->push_back(slot);
    return;
  }
  const auto it = std::lower_bound(postings->begin(), postings->end(), slot);
  postings->insert(it, slot);
}

/// Removes `slot` from `postings`; the caller guarantees it is present.
void EraseSorted(std::vector<size_t>* postings, size_t slot) {
  const auto it = std::lower_bound(postings->begin(), postings->end(), slot);
  assert(it != postings->end() && *it == slot);
  postings->erase(it);
}

/// The posting list of `row`'s key in `index`, created empty for a new key.
/// Hash keys are probed in place, so a key Row is built only for a new key.
std::vector<size_t>& PostingsOf(SecondaryIndex* index, const Row& row) {
  if (index->kind == IndexKind::kSorted) {
    return index->sorted[row[index->columns[0]]];
  }
  const KeyView key{row, index->columns};
  auto it = index->hash.find(key);
  if (it == index->hash.end()) {
    it = index->hash.try_emplace(key.ToRow()).first;
  }
  return it->second;
}

}  // namespace

Row Table::ExtractKey(const Row& row) const {
  return KeyView{row, schema_.primary_key_indices()}.ToRow();
}

void Table::AddToIndexes(size_t slot) {
  const Row& row = rows_[slot];
  for (const auto& index : indexes_) {
    InsertSorted(&PostingsOf(index.get(), row), slot);
  }
}

void Table::RemoveFromIndexes(size_t slot) {
  const Row& row = rows_[slot];
  for (const auto& index : indexes_) {
    if (index->kind == IndexKind::kSorted) {
      const auto it = index->sorted.find(row[index->columns[0]]);
      assert(it != index->sorted.end());
      EraseSorted(&it->second, slot);
      if (it->second.empty()) index->sorted.erase(it);
    } else {
      const auto it = index->hash.find(KeyView{row, index->columns});
      assert(it != index->hash.end());
      EraseSorted(&it->second, slot);
      if (it->second.empty()) index->hash.erase(it);
    }
  }
}

util::Status Table::Insert(Row row) {
  GOOFI_RETURN_IF_ERROR(schema_.CheckRow(row));
  if (!schema_.primary_key_indices().empty()) {
    for (size_t idx : schema_.primary_key_indices()) {
      if (row[idx].is_null()) {
        return util::ConstraintViolation("table " + schema_.table_name() +
                                         ": NULL in primary key");
      }
    }
    // One probe: try_emplace stores the key only when it is new.
    if (!pk_index_.try_emplace(ExtractKey(row), rows_.size()).second) {
      return util::ConstraintViolation("table " + schema_.table_name() +
                                       ": duplicate primary key");
    }
  }
  rows_.push_back(std::move(row));
  live_.push_back(true);
  ++live_count_;
  ++version_;
  if (!indexes_.empty()) AddToIndexes(rows_.size() - 1);
  if (observer_ != nullptr) observer_->OnInsert(*this, rows_.back());
  return util::Status::Ok();
}

void Table::Reserve(size_t total_slots) {
  // Grow geometrically: batch inserts and WAL batch replay call this once per
  // batch, and with one-row batches an exact reserve would reallocate the
  // rows and rehash the primary-key index on every insert.
  if (total_slots <= rows_.capacity()) return;
  const size_t target = std::max(total_slots, 2 * rows_.capacity());
  rows_.reserve(target);
  live_.reserve(target);
  if (!schema_.primary_key_indices().empty()) pk_index_.reserve(target);
}

std::optional<size_t> Table::FindByPrimaryKey(const Row& key) const {
  assert(!schema_.primary_key_indices().empty());
  const auto it = pk_index_.find(key);
  if (it == pk_index_.end()) return std::nullopt;
  return it->second;
}

bool Table::ExistsWhere(const std::vector<size_t>& column_indices,
                        const Row& values) const {
  assert(column_indices.size() == values.size());
  // Fast path: the queried columns are exactly the primary key.
  if (column_indices == schema_.primary_key_indices() &&
      !column_indices.empty()) {
    return pk_index_.contains(values);
  }
  // Fast path: a secondary index covers exactly the queried columns. Index
  // keys and this scan both match with Compare (NULL == NULL), so the probe
  // is an exact substitute.
  for (const auto& index : indexes_) {
    if (index->columns != column_indices) continue;
    if (index->kind == IndexKind::kSorted) {
      return index->sorted.contains(values[0]);
    }
    return index->hash.contains(values);
  }
  for (size_t slot = 0; slot < rows_.size(); ++slot) {
    if (!live_[slot]) continue;
    bool match = true;
    for (size_t i = 0; i < column_indices.size(); ++i) {
      if (rows_[slot][column_indices[i]].Compare(values[i]) != 0) {
        match = false;
        break;
      }
    }
    if (match) return true;
  }
  return false;
}

size_t Table::DeleteWhere(const std::function<bool(const Row&)>& predicate) {
  size_t deleted = 0;
  std::vector<Row> removed;  // row images for the observer, copied pre-clear
  for (size_t slot = 0; slot < rows_.size(); ++slot) {
    if (!live_[slot] || !predicate(rows_[slot])) continue;
    if (observer_ != nullptr) removed.push_back(rows_[slot]);
    if (!schema_.primary_key_indices().empty()) {
      const auto it =
          pk_index_.find(KeyView{rows_[slot], schema_.primary_key_indices()});
      if (it != pk_index_.end()) pk_index_.erase(it);
    }
    if (!indexes_.empty()) RemoveFromIndexes(slot);
    live_[slot] = false;
    rows_[slot].clear();
    ++deleted;
  }
  live_count_ -= deleted;
  version_ += deleted;
  if (observer_ != nullptr && !removed.empty()) {
    observer_->OnDelete(*this, removed);
  }
  return deleted;
}

util::Status Table::UpdateWhere(
    const std::function<bool(const Row&)>& predicate,
    const std::function<void(Row&)>& mutate, size_t* updated) {
  size_t count = 0;
  std::vector<std::pair<Row, Row>> changes;  // (old, new) for the observer
  const auto notify = [&] {
    if (observer_ != nullptr && !changes.empty()) {
      observer_->OnUpdate(*this, changes);
    }
  };
  for (size_t slot = 0; slot < rows_.size(); ++slot) {
    if (!live_[slot] || !predicate(rows_[slot])) continue;
    Row candidate = rows_[slot];
    mutate(candidate);
    const util::Status st = schema_.CheckRow(candidate);
    if (!st.ok()) {
      if (updated != nullptr) *updated = count;
      notify();
      return st;
    }
    if (!schema_.primary_key_indices().empty()) {
      Row old_key = ExtractKey(rows_[slot]);
      Row new_key = ExtractKey(candidate);
      if (!KeyEq{}(old_key, new_key)) {
        const auto it = pk_index_.find(new_key);
        if (it != pk_index_.end() && it->second != slot) {
          if (updated != nullptr) *updated = count;
          notify();
          return util::ConstraintViolation(
              "table " + schema_.table_name() +
              ": update would duplicate primary key");
        }
        pk_index_.erase(old_key);
        pk_index_.emplace(std::move(new_key), slot);
      }
    }
    if (observer_ != nullptr) changes.emplace_back(rows_[slot], candidate);
    if (!indexes_.empty()) RemoveFromIndexes(slot);
    rows_[slot] = std::move(candidate);
    if (!indexes_.empty()) AddToIndexes(slot);
    ++version_;
    ++count;
  }
  if (updated != nullptr) *updated = count;
  notify();
  return util::Status::Ok();
}

void Table::ForEach(const std::function<void(const Row&)>& fn) const {
  for (size_t slot = 0; slot < rows_.size(); ++slot) {
    if (live_[slot]) fn(rows_[slot]);
  }
}

// --- secondary indexes -------------------------------------------------------

util::Status Table::CreateIndex(const std::string& name,
                                const std::vector<std::string>& columns,
                                IndexKind kind) {
  if (FindIndex(name) != nullptr) {
    return util::AlreadyExists("index " + name + " already exists on " +
                               schema_.table_name());
  }
  if (columns.empty()) {
    return util::InvalidArgument("index " + name + " needs at least one column");
  }
  if (kind == IndexKind::kSorted && columns.size() != 1) {
    return util::InvalidArgument("sorted index " + name +
                                 " must have exactly one column");
  }
  auto index = std::make_unique<SecondaryIndex>();
  index->name = name;
  index->kind = kind;
  for (const std::string& col : columns) {
    const auto idx = schema_.ColumnIndex(col);
    if (!idx) {
      return util::NotFound("no column " + col + " in " + schema_.table_name());
    }
    index->columns.push_back(*idx);
  }
  indexes_.push_back(std::move(index));
  // Build from existing rows; ascending slot order keeps postings sorted.
  SecondaryIndex* built = indexes_.back().get();
  for (size_t slot = 0; slot < rows_.size(); ++slot) {
    if (live_[slot]) PostingsOf(built, rows_[slot]).push_back(slot);
  }
  return util::Status::Ok();
}

util::Status Table::DropIndex(const std::string& name) {
  for (auto it = indexes_.begin(); it != indexes_.end(); ++it) {
    if (util::EqualsIgnoreCase((*it)->name, name)) {
      indexes_.erase(it);
      return util::Status::Ok();
    }
  }
  return util::NotFound("no index " + name + " on " + schema_.table_name());
}

const SecondaryIndex* Table::FindIndex(const std::string& name) const {
  for (const auto& index : indexes_) {
    if (util::EqualsIgnoreCase(index->name, name)) return index.get();
  }
  return nullptr;
}

const std::vector<size_t>& Table::IndexEqualSlots(const SecondaryIndex& index,
                                                  const Row& key) const {
  static const std::vector<size_t> kNoSlots;
  if (index.kind == IndexKind::kSorted) {
    const auto it = index.sorted.find(key[0]);
    return it == index.sorted.end() ? kNoSlots : it->second;
  }
  const auto it = index.hash.find(key);
  return it == index.hash.end() ? kNoSlots : it->second;
}

std::vector<size_t> Table::IndexRangeSlots(const SecondaryIndex& index,
                                           const Value* lower,
                                           bool lower_inclusive,
                                           const Value* upper,
                                           bool upper_inclusive) const {
  assert(index.kind == IndexKind::kSorted);
  // NULL sorts before everything, so starting past NULL excludes it; a NULL
  // column never satisfies a range predicate in SQL.
  const Value null = Value::Null();
  auto begin = index.sorted.upper_bound(null);
  if (lower != nullptr) {
    begin = lower_inclusive ? index.sorted.lower_bound(*lower)
                            : index.sorted.upper_bound(*lower);
    // A NULL bound matches nothing (`col >= NULL` is never true), but
    // lower_bound(NULL) would start at the NULL key; skip it.
    if (begin != index.sorted.end() && begin->first.is_null()) ++begin;
  }
  // Stop on the upper bound by key comparison rather than by a precomputed
  // end iterator: with an inverted range (lower above upper) the end iterator
  // would sit before `begin` and the walk would run off the map.
  std::vector<size_t> slots;
  for (auto it = begin; it != index.sorted.end(); ++it) {
    if (upper != nullptr) {
      const int c = it->first.Compare(*upper);
      if (c > 0 || (c == 0 && !upper_inclusive)) break;
    }
    slots.insert(slots.end(), it->second.begin(), it->second.end());
  }
  return slots;
}

bool Table::ValidateIndexes(std::string* error) const {
  for (const auto& index : indexes_) {
    SecondaryIndex rebuilt;
    rebuilt.kind = index->kind;
    rebuilt.columns = index->columns;
    // Rebuilt with whole key Rows, independent of the in-place probes the
    // maintained index takes.
    for (size_t slot = 0; slot < rows_.size(); ++slot) {
      if (!live_[slot]) continue;
      if (rebuilt.kind == IndexKind::kSorted) {
        rebuilt.sorted[rows_[slot][rebuilt.columns[0]]].push_back(slot);
      } else {
        const KeyView key{rows_[slot], rebuilt.columns};
        rebuilt.hash[key.ToRow()].push_back(slot);
      }
    }
    auto fail = [&](const std::string& message) {
      if (error != nullptr) {
        *error = "index " + index->name + " on " + schema_.table_name() + ": " +
                 message;
      }
      return false;
    };
    if (index->kind == IndexKind::kSorted) {
      if (index->sorted.size() != rebuilt.sorted.size()) {
        return fail("key count mismatch");
      }
      for (const auto& [key, postings] : rebuilt.sorted) {
        const auto it = index->sorted.find(key);
        if (it == index->sorted.end() || it->second != postings) {
          return fail("postings mismatch for key " + key.Serialize());
        }
      }
    } else {
      if (index->hash.size() != rebuilt.hash.size()) {
        return fail("key count mismatch");
      }
      for (const auto& [key, postings] : rebuilt.hash) {
        const auto it = index->hash.find(key);
        if (it == index->hash.end() || it->second != postings) {
          return fail("postings mismatch");
        }
      }
    }
  }
  return true;
}

}  // namespace goofi::db
