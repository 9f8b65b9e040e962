#include "db/wal.hpp"

#include <bit>
#include <cassert>
#include <cstring>
#include <filesystem>

#include "db/database.hpp"
#include "util/crc32.hpp"

namespace goofi::db {

// --- packed encoding primitives ---------------------------------------------

void PackedWriter::U32(uint32_t v) {
  char bytes[4];
  for (int i = 0; i < 4; ++i) bytes[i] = static_cast<char>((v >> (8 * i)) & 0xFF);
  out_->append(bytes, 4);
}

void PackedWriter::U64(uint64_t v) {
  char bytes[8];
  for (int i = 0; i < 8; ++i) bytes[i] = static_cast<char>((v >> (8 * i)) & 0xFF);
  out_->append(bytes, 8);
}

void PackedWriter::Varint(uint64_t v) {
  while (v >= 0x80) {
    out_->push_back(static_cast<char>((v & 0x7F) | 0x80));
    v >>= 7;
  }
  out_->push_back(static_cast<char>(v));
}

namespace {

/// Zigzag: small magnitudes of either sign stay short.
uint64_t ZigZag(int64_t v) {
  return (static_cast<uint64_t>(v) << 1) ^ static_cast<uint64_t>(v >> 63);
}

size_t VarintSize(uint64_t v) {
  size_t n = 1;
  for (; v >= 0x80; v >>= 7) ++n;
  return n;
}

}  // namespace

void PackedWriter::SVarint(int64_t v) { Varint(ZigZag(v)); }

void PackedWriter::Str(std::string_view s) {
  Varint(s.size());
  out_->append(s.data(), s.size());
}

void PackedWriter::Val(const Value& v) {
  switch (v.type()) {
    case ValueType::kNull:
      U8(0);
      break;
    case ValueType::kInt:
      U8(1);
      SVarint(v.as_int());
      break;
    case ValueType::kReal:
      U8(2);
      U64(std::bit_cast<uint64_t>(v.as_real()));
      break;
    case ValueType::kText:
      U8(3);
      Str(v.as_text());
      break;
  }
}

size_t PackedWriter::ValSize(const Value& v) {
  switch (v.type()) {
    case ValueType::kNull:
      return 1;
    case ValueType::kInt:
      return 1 + VarintSize(ZigZag(v.as_int()));
    case ValueType::kReal:
      return 1 + 8;
    case ValueType::kText:
      return 1 + VarintSize(v.as_text().size()) + v.as_text().size();
  }
  return 0;
}

void PackedWriter::RowData(const Row& row) {
  Varint(row.size());
  for (const Value& v : row) Val(v);
}

bool PackedReader::Skip(size_t n) {
  if (n > data_.size() - pos_) return Fail();
  pos_ += n;
  return true;
}

bool PackedReader::U8(uint8_t* v) {
  if (pos_ + 1 > data_.size()) return Fail();
  *v = static_cast<uint8_t>(data_[pos_++]);
  return true;
}

bool PackedReader::U32(uint32_t* v) {
  if (pos_ + 4 > data_.size()) return Fail();
  uint32_t out = 0;
  for (int i = 0; i < 4; ++i) {
    out |= static_cast<uint32_t>(static_cast<uint8_t>(data_[pos_ + i])) << (8 * i);
  }
  pos_ += 4;
  *v = out;
  return true;
}

bool PackedReader::U64(uint64_t* v) {
  if (pos_ + 8 > data_.size()) return Fail();
  uint64_t out = 0;
  for (int i = 0; i < 8; ++i) {
    out |= static_cast<uint64_t>(static_cast<uint8_t>(data_[pos_ + i])) << (8 * i);
  }
  pos_ += 8;
  *v = out;
  return true;
}

bool PackedReader::Varint(uint64_t* v) {
  uint64_t out = 0;
  for (int shift = 0; shift < 64; shift += 7) {
    if (pos_ >= data_.size()) return Fail();
    const uint8_t byte = static_cast<uint8_t>(data_[pos_++]);
    out |= static_cast<uint64_t>(byte & 0x7F) << shift;
    if ((byte & 0x80) == 0) {
      // The 10th byte (shift 63) may only carry one payload bit.
      if (shift == 63 && byte > 1) return Fail();
      *v = out;
      return true;
    }
  }
  return Fail();  // unterminated varint
}

bool PackedReader::Count(uint64_t* n, uint64_t bits_each) {
  if (!Varint(n)) return false;
  const uint64_t bits_left = 8 * static_cast<uint64_t>(data_.size() - pos_);
  if (bits_each == 0 || *n > bits_left / bits_each) return Fail();
  return true;
}

bool PackedReader::SVarint(int64_t* v) {
  uint64_t raw = 0;
  if (!Varint(&raw)) return false;
  *v = static_cast<int64_t>((raw >> 1) ^ (~(raw & 1) + 1));
  return true;
}

bool PackedReader::Str(std::string* s) {
  uint64_t len = 0;
  if (!Varint(&len)) return false;
  if (len > data_.size() - pos_) return Fail();
  s->assign(data_.data() + pos_, static_cast<size_t>(len));
  pos_ += static_cast<size_t>(len);
  return true;
}

bool PackedReader::Val(Value* v) {
  uint8_t tag = 0;
  if (!U8(&tag)) return false;
  switch (tag) {
    case 0:
      *v = Value::Null();
      return true;
    case 1: {
      int64_t i = 0;
      if (!SVarint(&i)) return false;
      *v = Value::Int(i);
      return true;
    }
    case 2: {
      uint64_t bits = 0;
      if (!U64(&bits)) return false;
      *v = Value::Real(std::bit_cast<double>(bits));
      return true;
    }
    case 3: {
      std::string s;
      if (!Str(&s)) return false;
      *v = Value::Text(std::move(s));
      return true;
    }
    default:
      return Fail();
  }
}

bool PackedReader::RowData(Row* row) {
  uint64_t arity = 0;
  if (!Count(&arity)) return false;  // each value is at least its tag byte
  row->clear();
  row->reserve(static_cast<size_t>(arity));
  for (uint64_t i = 0; i < arity; ++i) {
    Value v;
    if (!Val(&v)) return false;
    row->push_back(std::move(v));
  }
  return true;
}

void EncodeSchema(PackedWriter* w, const Schema& schema) {
  w->Str(schema.table_name());
  w->Varint(schema.columns().size());
  for (const Column& col : schema.columns()) {
    w->Str(col.name);
    w->U8(static_cast<uint8_t>(col.type));
    w->U8(col.not_null ? 1 : 0);
  }
  w->Varint(schema.primary_key().size());
  for (const std::string& col : schema.primary_key()) w->Str(col);
  w->Varint(schema.foreign_keys().size());
  for (const ForeignKey& fk : schema.foreign_keys()) {
    w->Str(fk.ref_table);
    w->Varint(fk.local_columns.size());
    for (const std::string& col : fk.local_columns) w->Str(col);
    for (const std::string& col : fk.ref_columns) w->Str(col);
  }
}

bool DecodeSchema(PackedReader* r, Schema* out) {
  std::string name;
  uint64_t ncols = 0;
  if (!r->Str(&name) || !r->Count(&ncols)) return false;
  std::vector<Column> columns;
  columns.reserve(static_cast<size_t>(ncols));
  for (uint64_t i = 0; i < ncols; ++i) {
    Column col;
    uint8_t type = 0, not_null = 0;
    if (!r->Str(&col.name) || !r->U8(&type) || !r->U8(&not_null)) return false;
    if (type > static_cast<uint8_t>(ValueType::kText)) return false;
    col.type = static_cast<ValueType>(type);
    col.not_null = not_null != 0;
    columns.push_back(std::move(col));
  }
  uint64_t npk = 0;
  if (!r->Count(&npk)) return false;
  std::vector<std::string> primary_key(static_cast<size_t>(npk));
  for (auto& col : primary_key) {
    if (!r->Str(&col)) return false;
  }
  uint64_t nfk = 0;
  if (!r->Count(&nfk)) return false;
  std::vector<ForeignKey> fks;
  fks.reserve(static_cast<size_t>(nfk));
  for (uint64_t i = 0; i < nfk; ++i) {
    ForeignKey fk;
    uint64_t n = 0;
    if (!r->Str(&fk.ref_table) || !r->Count(&n)) return false;
    fk.local_columns.resize(static_cast<size_t>(n));
    fk.ref_columns.resize(static_cast<size_t>(n));
    for (auto& col : fk.local_columns) {
      if (!r->Str(&col)) return false;
    }
    for (auto& col : fk.ref_columns) {
      if (!r->Str(&col)) return false;
    }
    fks.push_back(std::move(fk));
  }
  *out = Schema(std::move(name), std::move(columns), std::move(primary_key),
                std::move(fks));
  return true;
}

// --- WAL replay --------------------------------------------------------------

namespace {

constexpr char kWalMagic[4] = {'G', 'W', 'A', 'L'};
constexpr uint8_t kWalVersion = 1;
constexpr size_t kWalHeaderSize = 13;   // magic + version + epoch
constexpr size_t kRecordFrameSize = 8;  // payload_len + crc

util::Status BadRecord(const std::string& what) {
  return util::ParseError("WAL record: " + what);
}

/// Deletes the first live row equal to `image` (full-row Compare equality —
/// the same first-match rule the writer's row images were produced under, so
/// replay removes the physically-same slot).
util::Status ReplayDeleteOne(Table* table, const Row& image) {
  bool done = false;
  const size_t n = table->DeleteWhere([&](const Row& row) {
    if (done || !KeyEq{}(row, image)) return false;
    done = true;
    return true;
  });
  if (n != 1) {
    return util::Internal("WAL delete replay found no matching row in " +
                          table->schema().table_name());
  }
  return util::Status::Ok();
}

util::Status ReplayUpdateOne(Table* table, const Row& old_row, Row new_row) {
  bool done = false;
  size_t updated = 0;
  GOOFI_RETURN_IF_ERROR(table->UpdateWhere(
      [&](const Row& row) {
        if (done || !KeyEq{}(row, old_row)) return false;
        done = true;
        return true;
      },
      [&](Row& row) { row = new_row; }, &updated));
  if (updated != 1) {
    return util::Internal("WAL update replay found no matching row in " +
                          table->schema().table_name());
  }
  return util::Status::Ok();
}

}  // namespace

util::Status ApplyWalRecord(Database* db, WalOp op, PackedReader* r) {
  auto table_of = [db](const std::string& name) -> util::Result<Table*> {
    Table* table = db->GetTable(name);
    if (table == nullptr) {
      return util::Internal("WAL references missing table " + name);
    }
    return table;
  };
  switch (op) {
    case WalOp::kInsert: {
      std::string name;
      Row row;
      if (!r->Str(&name) || !r->RowData(&row)) return BadRecord("bad insert");
      auto table = table_of(name);
      if (!table.ok()) return table.status();
      return table.value()->Insert(std::move(row));
    }
    case WalOp::kInsertBatch: {
      std::string name;
      uint64_t n = 0;
      if (!r->Str(&name) || !r->Count(&n)) return BadRecord("bad batch");
      auto table = table_of(name);
      if (!table.ok()) return table.status();
      table.value()->Reserve(table.value()->slots().size() +
                             static_cast<size_t>(n));
      for (uint64_t i = 0; i < n; ++i) {
        Row row;
        if (!r->RowData(&row)) return BadRecord("bad batch row");
        GOOFI_RETURN_IF_ERROR(table.value()->Insert(std::move(row)));
      }
      return util::Status::Ok();
    }
    case WalOp::kDelete: {
      std::string name;
      uint64_t n = 0;
      if (!r->Str(&name) || !r->Count(&n)) return BadRecord("bad delete");
      auto table = table_of(name);
      if (!table.ok()) return table.status();
      for (uint64_t i = 0; i < n; ++i) {
        Row image;
        if (!r->RowData(&image)) return BadRecord("bad delete image");
        GOOFI_RETURN_IF_ERROR(ReplayDeleteOne(table.value(), image));
      }
      return util::Status::Ok();
    }
    case WalOp::kUpdate: {
      std::string name;
      uint64_t n = 0;
      if (!r->Str(&name) || !r->Count(&n)) return BadRecord("bad update");
      auto table = table_of(name);
      if (!table.ok()) return table.status();
      for (uint64_t i = 0; i < n; ++i) {
        Row old_row, new_row;
        if (!r->RowData(&old_row) || !r->RowData(&new_row)) {
          return BadRecord("bad update pair");
        }
        GOOFI_RETURN_IF_ERROR(
            ReplayUpdateOne(table.value(), old_row, std::move(new_row)));
      }
      return util::Status::Ok();
    }
    case WalOp::kCreateTable: {
      Schema schema;
      if (!DecodeSchema(r, &schema)) return BadRecord("bad schema");
      return db->CreateTable(std::move(schema));
    }
    case WalOp::kDropTable: {
      std::string name;
      if (!r->Str(&name)) return BadRecord("bad drop table");
      return db->DropTable(name);
    }
    case WalOp::kCreateIndex: {
      std::string table, name;
      uint64_t n = 0;
      if (!r->Str(&table) || !r->Str(&name) || !r->Count(&n)) {
        return BadRecord("bad create index");
      }
      std::vector<std::string> columns(static_cast<size_t>(n));
      for (auto& col : columns) {
        if (!r->Str(&col)) return BadRecord("bad index column");
      }
      uint8_t kind = 0;
      if (!r->U8(&kind) || kind > static_cast<uint8_t>(IndexKind::kSorted)) {
        return BadRecord("bad index kind");
      }
      return db->CreateIndex(table, name, columns,
                             static_cast<IndexKind>(kind));
    }
    case WalOp::kDropIndex: {
      std::string table, name;
      if (!r->Str(&table) || !r->Str(&name)) return BadRecord("bad drop index");
      return db->DropIndex(table, name);
    }
  }
  return BadRecord("unknown op " + std::to_string(static_cast<int>(op)));
}

// --- WAL file ----------------------------------------------------------------

util::Status Wal::WriteFreshHeader(uint64_t epoch) {
  // One truncating open: the header is written and the stream stays open to
  // append the records that follow it.
  if (out_.is_open()) out_.close();
  out_.open(path_, std::ios::binary | std::ios::trunc);
  if (!out_) return util::IoError("cannot open " + path_ + " for writing");
  std::string header;
  PackedWriter w(&header);
  header.append(kWalMagic, sizeof(kWalMagic));
  w.U8(kWalVersion);
  w.U64(epoch);
  out_.write(header.data(), static_cast<std::streamsize>(header.size()));
  out_.flush();
  if (!out_) return util::IoError("write failed for " + path_);
  bytes_ = header.size();
  next_sequence_ = 1;
  pending_.clear();
  return util::Status::Ok();
}

util::Status Wal::Create(const std::string& path, uint64_t epoch) {
  path_ = path;
  return WriteFreshHeader(epoch);
}

bool ReadWholeFile(const std::string& path, std::string* out) {
  out->clear();
  std::ifstream in(path, std::ios::binary | std::ios::ate);
  if (!in) return false;
  const std::streamoff size = in.tellg();
  if (size < 0) return false;
  in.seekg(0);
  out->resize(static_cast<size_t>(size));
  in.read(out->data(), size);
  out->resize(static_cast<size_t>(in.gcount()));
  return true;
}

util::Result<Wal::ReplayResult> Wal::Replay(const std::string& path,
                                          uint64_t epoch, Database* db) {
  path_ = path;
  epoch_ = epoch;
  fresh_ = false;
  torn_ = false;
  ReplayResult result;

  std::string content;
  (void)ReadWholeFile(path_, &content);  // a missing WAL reads as empty

  bool fresh = content.empty();
  if (!fresh) {
    // Header sanity: wrong magic/version means this was never a WAL of ours
    // (or a crash died inside the 13 header bytes); epoch mismatch means the
    // records are already folded into a newer snapshot. Either way the file
    // is reset — no record in it is both valid and unapplied.
    bool stale = false;
    if (content.size() < kWalHeaderSize ||
        std::memcmp(content.data(), kWalMagic, sizeof(kWalMagic)) != 0 ||
        static_cast<uint8_t>(content[4]) != kWalVersion) {
      stale = true;
    } else {
      PackedReader header(std::string_view(content).substr(5, 8));
      uint64_t file_epoch = 0;
      header.U64(&file_epoch);
      stale = file_epoch != epoch;
    }
    if (stale) {
      result.stale_discarded = true;
      fresh = true;
    }
  }
  if (fresh) {
    fresh_ = true;
    return result;
  }

  // Replay records until the first torn one.
  const std::string_view data = content;
  size_t pos = kWalHeaderSize;
  uint64_t expect_sequence = 1;
  while (pos < data.size()) {
    size_t record_end = 0;
    bool valid = false;
    if (data.size() - pos >= kRecordFrameSize) {
      PackedReader frame(data.substr(pos, kRecordFrameSize));
      uint32_t payload_len = 0, stored_crc = 0;
      frame.U32(&payload_len);
      frame.U32(&stored_crc);
      if (payload_len >= 2 &&
          payload_len <= data.size() - pos - kRecordFrameSize) {
        const std::string_view payload =
            data.substr(pos + kRecordFrameSize, payload_len);
        if (util::Crc32Of(payload) == stored_crc) {
          PackedReader body(payload);
          uint64_t sequence = 0;
          uint8_t op = 0;
          if (body.Varint(&sequence) && body.U8(&op) &&
              sequence == expect_sequence) {
            const util::Status applied =
                ApplyWalRecord(db, static_cast<WalOp>(op), &body);
            // A CRC-valid record that fails to apply is not a torn tail —
            // the snapshot/WAL pair is inconsistent; refuse the archive.
            if (!applied.ok()) return applied;
            if (!body.ok() || !body.AtEnd()) {
              return util::ParseError("WAL record with trailing garbage");
            }
            valid = true;
            record_end = pos + kRecordFrameSize + payload_len;
          }
        }
      }
    }
    if (!valid) break;
    pos = record_end;
    ++expect_sequence;
    ++result.records_replayed;
  }

  if (pos < data.size()) {
    result.torn_tail = true;
    result.bytes_truncated = data.size() - pos;
    torn_ = true;
  }
  bytes_ = pos;
  next_sequence_ = expect_sequence;
  return result;
}

util::Status Wal::StartAppending() {
  if (fresh_) return WriteFreshHeader(epoch_);
  if (torn_) {
    std::error_code ec;
    std::filesystem::resize_file(path_, bytes_, ec);
    if (ec) {
      return util::IoError("cannot truncate torn WAL tail of " + path_ + ": " +
                           ec.message());
    }
  }
  pending_.clear();
  out_.open(path_, std::ios::binary | std::ios::app);
  if (!out_) return util::IoError("cannot reopen " + path_);
  return util::Status::Ok();
}

void Wal::Append(WalOp op, std::string_view body) {
  assert(out_.is_open());
  std::string payload;
  payload.reserve(body.size() + 11);
  PackedWriter w(&payload);
  w.Varint(next_sequence_++);
  w.U8(static_cast<uint8_t>(op));
  payload.append(body.data(), body.size());

  PackedWriter frame(&pending_);
  frame.U32(static_cast<uint32_t>(payload.size()));
  frame.U32(util::Crc32Of(payload));
  pending_.append(payload);
  ++records_appended_;
}

util::Status Wal::Flush() {
  if (pending_.empty()) return util::Status::Ok();
  if (!out_.is_open()) return util::IoError("WAL " + path_ + " is not open");
  out_.write(pending_.data(), static_cast<std::streamsize>(pending_.size()));
  out_.flush();
  if (!out_) return util::IoError("WAL append failed for " + path_);
  bytes_ += pending_.size();
  pending_.clear();
  return util::Status::Ok();
}

util::Status Wal::Reset(uint64_t epoch) { return WriteFreshHeader(epoch); }

}  // namespace goofi::db
