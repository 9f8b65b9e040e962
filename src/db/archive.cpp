#include "db/archive.hpp"

#include <algorithm>
#include <cstring>
#include <filesystem>
#include <fstream>

#include "util/crc32.hpp"
#include "util/log.hpp"

namespace goofi::db {

namespace {

constexpr uint8_t kSnapshotMagic[4] = {0xB1, 'G', 'D', 'B'};
constexpr uint8_t kSnapshotVersion = 1;

struct PendingTable {
  Schema schema;
  std::vector<Row> rows;
  struct IndexDef {
    std::string name;
    IndexKind kind = IndexKind::kHash;
    std::vector<std::string> columns;
  };
  std::vector<IndexDef> indexes;
};

/// Builds a Database from parsed tables: fixed-point table creation (the
/// file writes tables alphabetically, so an FK may point forward), plain
/// table inserts (the rows passed FK checks when first written), then the
/// persisted index definitions.
util::Result<Database> AssemblePending(std::vector<PendingTable> pending) {
  Database fresh;
  std::vector<bool> created(pending.size(), false);
  size_t remaining = pending.size();
  while (remaining > 0) {
    bool progress = false;
    for (size_t i = 0; i < pending.size(); ++i) {
      if (created[i]) continue;
      if (fresh.CreateTable(pending[i].schema).ok()) {
        created[i] = true;
        --remaining;
        progress = true;
      }
    }
    if (!progress) {
      return util::ParseError(
          "could not resolve foreign-key table order on load");
    }
  }
  for (auto& pt : pending) {
    Table* table = fresh.GetTable(pt.schema.table_name());
    table->Reserve(pt.rows.size());
    for (auto& row : pt.rows) {
      GOOFI_RETURN_IF_ERROR(table->Insert(std::move(row)));
    }
    for (const auto& def : pt.indexes) {
      GOOFI_RETURN_IF_ERROR(fresh.CreateIndex(pt.schema.table_name(), def.name,
                                              def.columns, def.kind));
    }
  }
  return fresh;
}

}  // namespace

// --- snapshot writer ---------------------------------------------------------

util::Status WriteSnapshotFile(const Database& db, const std::string& path,
                               uint64_t epoch) {
  const std::string tmp_path = path + ".tmp";
  std::ofstream out(tmp_path, std::ios::binary | std::ios::trunc);
  if (!out) return util::IoError("cannot open " + tmp_path + " for writing");

  // Everything streams through one reusable buffer; the running CRC covers
  // every byte written before the trailer.
  util::Crc32 file_crc;
  std::string buf;
  const auto emit = [&] {
    file_crc.Update(buf);
    out.write(buf.data(), static_cast<std::streamsize>(buf.size()));
    buf.clear();
  };

  const std::vector<std::string> table_names = db.TableNames();
  PackedWriter w(&buf);
  for (uint8_t b : kSnapshotMagic) w.U8(b);
  w.U8(kSnapshotVersion);
  w.U64(epoch);
  w.Varint(table_names.size());
  emit();

  std::string segment;  // reused across columns
  for (const std::string& name : table_names) {
    const Table* table = db.GetTable(name);
    const Schema& schema = table->schema();
    EncodeSchema(&w, schema);
    w.Varint(table->indexes().size());
    for (const auto& index : table->indexes()) {
      w.Str(index->name);
      w.U8(static_cast<uint8_t>(index->kind));
      w.Varint(index->columns.size());
      for (size_t col : index->columns) w.Str(schema.columns()[col].name);
    }
    const std::vector<Row>& slots = table->slots();
    const std::vector<bool>& live = table->live();
    const size_t nrows = table->size();
    w.Varint(nrows);
    emit();

    for (size_t c = 0; c < schema.num_columns(); ++c) {
      // Size the segment exactly first, so filling it never reallocates.
      const size_t bitmap_bytes = (nrows + 7) / 8;
      size_t value_bytes = 0;
      for (size_t slot = 0; slot < slots.size(); ++slot) {
        if (live[slot] && !slots[slot][c].is_null()) {
          value_bytes += PackedWriter::ValSize(slots[slot][c]);
        }
      }
      segment.clear();
      segment.reserve(bitmap_bytes + value_bytes);
      segment.resize(bitmap_bytes);
      // One walk over the live rows in slot order fills the null bitmap
      // (LSB-first) and appends each non-NULL value after it.
      PackedWriter sw(&segment);
      size_t row = 0;
      for (size_t slot = 0; slot < slots.size(); ++slot) {
        if (!live[slot]) continue;
        const Value& value = slots[slot][c];
        if (!value.is_null()) {
          segment[row / 8] = static_cast<char>(
              static_cast<uint8_t>(segment[row / 8]) | (1u << (row % 8)));
          sw.Val(value);
        }
        ++row;
      }
      w.U32(static_cast<uint32_t>(segment.size()));
      w.U32(util::Crc32Of(segment));
      emit();
      file_crc.Update(segment);
      out.write(segment.data(), static_cast<std::streamsize>(segment.size()));
    }
  }

  w.U32(file_crc.Value());
  out.write(buf.data(), static_cast<std::streamsize>(buf.size()));
  out.flush();
  if (!out) return util::IoError("write failed for " + tmp_path);
  out.close();

  std::error_code ec;
  std::filesystem::rename(tmp_path, path, ec);
  if (ec) {
    return util::IoError("cannot rename " + tmp_path + " to " + path + ": " +
                         ec.message());
  }
  return util::Status::Ok();
}

// --- snapshot reader ---------------------------------------------------------

util::Result<LoadedSnapshot> ReadSnapshotFile(const std::string& path) {
  std::string content;
  if (!ReadWholeFile(path, &content)) return util::IoError("cannot open " + path);

  // The magic first, so a file in another format is named as such rather
  // than reported as corrupt; then the whole-file CRC trailer, so any
  // truncation or flipped byte anywhere (metadata included) is rejected
  // before parsing.
  if (content.size() < sizeof(kSnapshotMagic) ||
      std::memcmp(content.data(), kSnapshotMagic, sizeof(kSnapshotMagic)) != 0) {
    return util::ParseError(path + " is not a binary snapshot");
  }
  const size_t header_size = sizeof(kSnapshotMagic) + 1 + 8;
  if (content.size() < header_size + 4) {
    return util::ParseError("binary snapshot too short");
  }
  const std::string_view data(content);
  const std::string_view body = data.substr(0, data.size() - 4);
  uint32_t stored_file_crc = 0;
  {
    PackedReader trailer(data.substr(data.size() - 4));
    trailer.U32(&stored_file_crc);
  }
  if (util::Crc32Of(body) != stored_file_crc) {
    return util::IoError("CRC mismatch: database file " + path + " is corrupt");
  }

  PackedReader r(body);
  uint8_t version = 0;
  uint64_t epoch = 0;
  uint64_t ntables = 0;
  if (!r.Skip(sizeof(kSnapshotMagic)) || !r.U8(&version) ||
      version != kSnapshotVersion || !r.U64(&epoch) || !r.Count(&ntables)) {
    return util::ParseError("bad binary snapshot header");
  }

  std::vector<PendingTable> pending;
  pending.reserve(static_cast<size_t>(ntables));
  for (uint64_t t = 0; t < ntables; ++t) {
    PendingTable pt;
    if (!DecodeSchema(&r, &pt.schema) || pt.schema.num_columns() == 0) {
      return util::ParseError("bad table schema in binary snapshot");
    }
    const size_t ncols = pt.schema.num_columns();
    uint64_t nindexes = 0;
    if (!r.Count(&nindexes)) return util::ParseError("bad index count");
    for (uint64_t i = 0; i < nindexes; ++i) {
      PendingTable::IndexDef def;
      uint8_t kind = 0;
      uint64_t def_cols = 0;
      if (!r.Str(&def.name) || !r.U8(&kind) ||
          kind > static_cast<uint8_t>(IndexKind::kSorted) ||
          !r.Count(&def_cols)) {
        return util::ParseError("bad index definition");
      }
      def.kind = static_cast<IndexKind>(kind);
      def.columns.resize(static_cast<size_t>(def_cols));
      for (auto& col : def.columns) {
        if (!r.Str(&col)) return util::ParseError("bad index column");
      }
      pt.indexes.push_back(std::move(def));
    }
    // Rows are stored column by column, so a row takes at least one null
    // bitmap bit in each column's segment.
    uint64_t nrows = 0;
    if (!r.Count(&nrows, /*bits_each=*/ncols)) {
      return util::ParseError("bad row count");
    }

    pt.rows.assign(static_cast<size_t>(nrows), Row());
    for (auto& row : pt.rows) row.resize(ncols);  // default = NULL

    for (size_t c = 0; c < ncols; ++c) {
      uint32_t seg_len = 0, seg_crc = 0;
      if (!r.U32(&seg_len) || !r.U32(&seg_crc) ||
          seg_len > body.size() - r.pos()) {
        return util::ParseError("bad column segment frame");
      }
      const std::string_view segment = body.substr(r.pos(), seg_len);
      if (util::Crc32Of(segment) != seg_crc) {
        return util::IoError("segment CRC mismatch in table " +
                             pt.schema.table_name() + " column " +
                             pt.schema.columns()[c].name);
      }
      PackedReader seg(segment);
      const size_t bitmap_bytes = (static_cast<size_t>(nrows) + 7) / 8;
      if (!seg.Skip(bitmap_bytes)) {
        return util::ParseError("short null bitmap");
      }
      // Decode the non-NULL values in row order; NULL cells keep the
      // default-constructed Value from the resize above.
      for (uint64_t row = 0; row < nrows; ++row) {
        const uint8_t bits = static_cast<uint8_t>(segment[row / 8]);
        if (((bits >> (row % 8)) & 1) == 0) continue;  // NULL
        Value v;
        if (!seg.Val(&v)) {
          return util::ParseError("bad value in table " +
                                  pt.schema.table_name());
        }
        pt.rows[static_cast<size_t>(row)][c] = std::move(v);
      }
      if (!seg.AtEnd()) {
        return util::ParseError("trailing bytes in column segment");
      }
      // Advance the outer reader past the segment we parsed out-of-line.
      r.Skip(seg_len);
    }
    pending.push_back(std::move(pt));
  }
  if (!r.ok() || !r.AtEnd()) {
    return util::ParseError("trailing bytes in binary snapshot");
  }
  auto db = AssemblePending(std::move(pending));
  if (!db.ok()) return db.status();
  LoadedSnapshot loaded;
  loaded.db = std::move(db).value();
  loaded.epoch = epoch;
  return loaded;
}

// --- Archive -----------------------------------------------------------------

Archive::Archive(Database* db, std::string path, ArchiveOptions options)
    : db_(db), path_(std::move(path)), options_(options) {}

util::Result<std::unique_ptr<Archive>> Archive::Open(Database* db,
                                                     const std::string& path,
                                                     ArchiveOptions options,
                                                     const Vet& vet) {
  std::unique_ptr<Archive> archive(new Archive(db, path, options));
  std::error_code ec;
  const bool exists = std::filesystem::exists(path, ec);

  uint64_t epoch = 0;
  util::Result<Wal::ReplayResult> recovered = Wal::ReplayResult{};
  if (exists) {
    // Recover snapshot + WAL into a database of their own and vet it before
    // anything is written: a file that is not a binary snapshot, an
    // inconsistent WAL or a refused image leaves `db` and both files as
    // they were.
    auto loaded = ReadSnapshotFile(path);
    if (!loaded.ok()) return loaded.status();
    epoch = loaded.value().epoch;
    Database image = std::move(loaded.value().db);
    recovered = archive->wal_.Replay(path + ".wal", epoch, &image);
    if (!recovered.ok()) return recovered.status();
    if (vet) GOOFI_RETURN_IF_ERROR(vet(image));
    GOOFI_RETURN_IF_ERROR(archive->wal_.StartAppending());
    db->ReplaceWith(std::move(image));
  } else {
    // Fresh archive: the initial snapshot is the database as it stands, and
    // any leftover WAL (from a deleted snapshot) belongs to nothing now, so
    // creating the WAL truncates it. Nothing is replayed.
    if (vet) GOOFI_RETURN_IF_ERROR(vet(*db));
    GOOFI_RETURN_IF_ERROR(WriteSnapshotFile(*db, path, epoch));
    GOOFI_RETURN_IF_ERROR(archive->wal_.Create(path + ".wal", epoch));
  }
  const auto size = std::filesystem::file_size(path, ec);
  archive->stats_.snapshot_bytes = ec ? 0 : size;
  archive->epoch_ = epoch;
  archive->stats_.epoch = epoch;
  archive->stats_.wal_records_replayed = recovered.value().records_replayed;
  archive->stats_.wal_bytes_truncated = recovered.value().bytes_truncated;
  archive->stats_.recovered_torn_tail = recovered.value().torn_tail;
  archive->stats_.stale_wal_discarded = recovered.value().stale_discarded;
  archive->stats_.wal_bytes = archive->wal_.bytes();

  // Attached only now: neither the snapshot load nor the WAL replay may
  // re-log itself.
  db->SetObserver(archive.get());
  archive->attached_ = true;
  return archive;
}

Archive::~Archive() { (void)Close(); }

util::Status Archive::Close() {
  std::lock_guard<std::mutex> lock(mutex_);
  util::Status st = util::Status::Ok();
  if (attached_) {
    st = CommitLocked();
    db_->SetObserver(nullptr);
    attached_ = false;
  }
  return st;
}

util::Status Archive::Commit() {
  std::lock_guard<std::mutex> lock(mutex_);
  return CommitLocked();
}

util::Status Archive::CommitLocked() {
  if (!error_.ok()) return error_;
  const bool had_pending = wal_.pending_bytes() > 0;
  GOOFI_RETURN_IF_ERROR(wal_.Flush());
  if (had_pending) ++stats_.wal_commits;
  stats_.wal_bytes = wal_.bytes();
  if (options_.auto_checkpoint &&
      wal_.bytes() > std::max(options_.min_fold_bytes, stats_.snapshot_bytes)) {
    return CheckpointLocked();
  }
  return util::Status::Ok();
}

util::Status Archive::Checkpoint() {
  std::lock_guard<std::mutex> lock(mutex_);
  GOOFI_RETURN_IF_ERROR(CommitLocked());
  return CheckpointLocked();
}

util::Status Archive::CheckpointLocked() {
  // Fold: snapshot the whole database under the next epoch (atomic rename),
  // then reset the WAL. The unreachable middle state — new-epoch snapshot,
  // old-epoch WAL — is exactly what Open discards as stale, so a crash
  // between the two steps recovers to the checkpointed image.
  const uint64_t next_epoch = epoch_ + 1;
  GOOFI_RETURN_IF_ERROR(WriteSnapshotFile(*db_, path_, next_epoch));
  GOOFI_RETURN_IF_ERROR(wal_.Reset(next_epoch));
  epoch_ = next_epoch;
  stats_.epoch = next_epoch;
  ++stats_.checkpoints_folded;
  stats_.wal_bytes = wal_.bytes();
  std::error_code ec;
  const auto size = std::filesystem::file_size(path_, ec);
  stats_.snapshot_bytes = ec ? 0 : size;
  return util::Status::Ok();
}

ArchiveStats Archive::stats() const {
  std::lock_guard<std::mutex> lock(mutex_);
  ArchiveStats copy = stats_;
  copy.wal_records_appended = wal_.records_appended();
  return copy;
}

void Archive::AppendLocked(WalOp op, const std::string& body) {
  wal_.Append(op, body);
  if (auto_commit_) {
    const util::Status st = CommitLocked();
    if (!st.ok() && error_.ok()) {
      error_ = st;
      util::Log::Error("archive " + path_ + ": " + st.ToString());
    }
  }
}

void Archive::OnInsert(const Table& table, const Row& row) {
  std::lock_guard<std::mutex> lock(mutex_);
  if (in_batch_) {
    PackedWriter w(&batch_rows_);
    w.RowData(row);
    ++batch_count_;
    return;
  }
  std::string body;
  PackedWriter w(&body);
  w.Str(table.schema().table_name());
  w.RowData(row);
  AppendLocked(WalOp::kInsert, body);
}

void Archive::OnDelete(const Table& table, const std::vector<Row>& removed) {
  std::lock_guard<std::mutex> lock(mutex_);
  // Deletes inside a batch bracket are the rollback of rows whose inserts
  // are also in the bracket; the batch record is dropped, so net zero.
  if (in_batch_) return;
  std::string body;
  PackedWriter w(&body);
  w.Str(table.schema().table_name());
  w.Varint(removed.size());
  for (const Row& row : removed) w.RowData(row);
  AppendLocked(WalOp::kDelete, body);
}

void Archive::OnUpdate(const Table& table,
                       const std::vector<std::pair<Row, Row>>& changes) {
  std::lock_guard<std::mutex> lock(mutex_);
  std::string body;
  PackedWriter w(&body);
  w.Str(table.schema().table_name());
  w.Varint(changes.size());
  for (const auto& [old_row, new_row] : changes) {
    w.RowData(old_row);
    w.RowData(new_row);
  }
  AppendLocked(WalOp::kUpdate, body);
}

void Archive::OnInsertBatchBegin(const Table& table) {
  (void)table;
  std::lock_guard<std::mutex> lock(mutex_);
  in_batch_ = true;
  batch_rows_.clear();
  batch_count_ = 0;
}

void Archive::OnInsertBatchEnd(const Table& table, bool committed) {
  std::lock_guard<std::mutex> lock(mutex_);
  in_batch_ = false;
  if (!committed || batch_count_ == 0) {
    batch_rows_.clear();
    return;
  }
  std::string body;
  body.reserve(batch_rows_.size() + table.schema().table_name().size() + 16);
  PackedWriter w(&body);
  w.Str(table.schema().table_name());
  w.Varint(batch_count_);
  body.append(batch_rows_);
  batch_rows_.clear();
  AppendLocked(WalOp::kInsertBatch, body);
}

void Archive::OnCreateTable(const Schema& schema) {
  std::lock_guard<std::mutex> lock(mutex_);
  std::string body;
  PackedWriter w(&body);
  EncodeSchema(&w, schema);
  AppendLocked(WalOp::kCreateTable, body);
}

void Archive::OnDropTable(const std::string& name) {
  std::lock_guard<std::mutex> lock(mutex_);
  std::string body;
  PackedWriter w(&body);
  w.Str(name);
  AppendLocked(WalOp::kDropTable, body);
}

void Archive::OnCreateIndex(const Table& table, const std::string& name,
                            const std::vector<std::string>& columns,
                            IndexKind kind) {
  std::lock_guard<std::mutex> lock(mutex_);
  std::string body;
  PackedWriter w(&body);
  w.Str(table.schema().table_name());
  w.Str(name);
  w.Varint(columns.size());
  for (const std::string& col : columns) w.Str(col);
  w.U8(static_cast<uint8_t>(kind));
  AppendLocked(WalOp::kCreateIndex, body);
}

void Archive::OnDropIndex(const Table& table, const std::string& name) {
  std::lock_guard<std::mutex> lock(mutex_);
  std::string body;
  PackedWriter w(&body);
  w.Str(table.schema().table_name());
  w.Str(name);
  AppendLocked(WalOp::kDropIndex, body);
}

Archive::GroupCommitScope::GroupCommitScope(Archive* archive)
    : archive_(archive) {
  std::lock_guard<std::mutex> lock(archive_->mutex_);
  previous_ = archive_->auto_commit_;
  archive_->auto_commit_ = false;
}

Archive::GroupCommitScope::~GroupCommitScope() {
  // Errors stay latched in the archive and surface on the next Commit().
  (void)archive_->Commit();
  std::lock_guard<std::mutex> lock(archive_->mutex_);
  archive_->auto_commit_ = previous_;
}

}  // namespace goofi::db
