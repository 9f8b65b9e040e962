// Append-only write-ahead log for the campaign archive, plus the packed
// binary encoding primitives it shares with the columnar snapshot
// (db/archive).
//
// On-disk layout:
//
//   header: "GWAL" <u8 version=1> <u64 epoch LE>            (13 bytes)
//   record: <u32 payload_len LE> <u32 crc32(payload) LE> <payload>
//   payload: <varint sequence> <u8 op> <op-specific body>
//
// Records carry whole logical operations (insert/update/delete batches and
// DDL), so replaying a WAL on top of the snapshot it extends reproduces the
// in-memory database byte-for-byte, row order included. Recovery rules:
//
//  - the WAL's epoch must equal the snapshot's epoch. A mismatch means the
//    WAL predates the current snapshot (a crash hit between Checkpoint's
//    snapshot rename and WAL reset); its records are already folded in, so
//    the whole file is discarded.
//  - sequences start at 1 per epoch and must be contiguous; the file is
//    physically truncated at the first record whose length, CRC or sequence
//    fails — a torn tail from a crash mid-append loses only that record.
//
// Appends are buffered in memory and made durable by Flush() — the group
// commit primitive: one write + flush covers every record appended since the
// previous flush (a campaign runner's whole result batch).
#pragma once

#include <cstdint>
#include <fstream>
#include <string>
#include <string_view>
#include <vector>

#include "db/table.hpp"
#include "util/status.hpp"

namespace goofi::db {

class Database;

// --- packed encoding primitives ---------------------------------------------

/// Appends packed fields to an external buffer (reusable across segments).
class PackedWriter {
 public:
  explicit PackedWriter(std::string* out) : out_(out) {}

  void U8(uint8_t v) { out_->push_back(static_cast<char>(v)); }
  void U32(uint32_t v);  ///< fixed 4 bytes, little-endian
  void U64(uint64_t v);  ///< fixed 8 bytes, little-endian
  void Varint(uint64_t v);
  void SVarint(int64_t v);  ///< zigzag + varint
  void Str(std::string_view s);  ///< varint length + raw bytes
  /// One cell: type tag byte (0 NULL, 1 INT, 2 REAL, 3 TEXT) + payload
  /// (SVarint / IEEE-754 bits / Str). INTs stored in REAL columns keep their
  /// tag, so a round trip preserves the concrete runtime type.
  void Val(const Value& v);
  /// The number of bytes Val(v) appends.
  static size_t ValSize(const Value& v);
  void RowData(const Row& row);  ///< varint arity + values

 private:
  std::string* out_;
};

/// Bounds-checked reader over a packed byte range. All reads return false
/// (and latch !ok()) on underflow or malformed data.
class PackedReader {
 public:
  explicit PackedReader(std::string_view data) : data_(data) {}

  bool ok() const { return ok_; }
  bool AtEnd() const { return pos_ >= data_.size(); }
  size_t pos() const { return pos_; }

  bool Skip(size_t n);
  bool U8(uint8_t* v);
  bool U32(uint32_t* v);
  bool U64(uint64_t* v);
  bool Varint(uint64_t* v);
  /// A varint count of elements that each take at least `bits_each` bits
  /// of the remaining input (a byte unless given). Fails when that many
  /// cannot fit, so no count read from a file sizes a container beyond the
  /// bytes actually there.
  bool Count(uint64_t* n, uint64_t bits_each = 8);
  bool SVarint(int64_t* v);
  bool Str(std::string* s);
  bool Val(Value* v);
  bool RowData(Row* row);

 private:
  bool Fail() {
    ok_ = false;
    return false;
  }

  std::string_view data_;
  size_t pos_ = 0;
  bool ok_ = true;
};

/// Schema encoding shared by snapshot and WAL kCreateTable records: name,
/// columns (name/type/not-null), primary key, foreign keys.
void EncodeSchema(PackedWriter* w, const Schema& schema);
bool DecodeSchema(PackedReader* r, Schema* out);

// --- WAL ---------------------------------------------------------------------

enum class WalOp : uint8_t {
  kInsert = 1,       ///< <table> <row>
  kInsertBatch = 2,  ///< <table> <n> <row>*n
  kDelete = 3,       ///< <table> <n> <full row image>*n
  kUpdate = 4,       ///< <table> <n> (<old row> <new row>)*n
  kCreateTable = 5,  ///< <schema>
  kDropTable = 6,    ///< <table>
  kCreateIndex = 7,  ///< <table> <name> <n> <column name>*n <u8 kind>
  kDropIndex = 8,    ///< <table> <name>
};

/// Applies one decoded record body to `db`. Row-level ops bypass FK
/// re-validation (like snapshot loading: the data passed the checks when
/// first written, and replay order preserves referential consistency).
util::Status ApplyWalRecord(Database* db, WalOp op, PackedReader* r);

/// Reads the whole file at `path` into `*out` with one allocation of the
/// file's size, so recovering a large archive holds one copy of each file
/// rather than a growing stream buffer plus a copy of it. False when the
/// file cannot be opened.
bool ReadWholeFile(const std::string& path, std::string* out);

class Wal {
 public:
  struct ReplayResult {
    uint64_t records_replayed = 0;
    uint64_t bytes_truncated = 0;   ///< torn/corrupt tail dropped
    bool torn_tail = false;
    bool stale_discarded = false;   ///< epoch mismatch: whole file reset
  };

  /// Reads the WAL at `path` (a missing file reads as empty) for snapshot
  /// epoch `epoch` and replays every valid record into `db`, up to the first
  /// torn one. Writes nothing: StartAppending then makes the file match.
  util::Result<ReplayResult> Replay(const std::string& path, uint64_t epoch,
                                  Database* db);

  /// Starts a new, empty WAL at `path` for snapshot `epoch` and opens it to
  /// append: one truncating open, which also discards whatever file was
  /// there (a fresh archive's leftover WAL belongs to no snapshot).
  util::Status Create(const std::string& path, uint64_t epoch);

  /// Makes the file what Replay recovered (a fresh header when it was
  /// missing, stale or not a WAL; otherwise cut at the first torn record)
  /// and opens it to append at the recovered end with the next contiguous
  /// sequence number.
  util::Status StartAppending();

  /// Buffers one record. Durable only after the next Flush().
  void Append(WalOp op, std::string_view body);

  /// Group commit: writes and flushes everything appended since the last
  /// Flush. No-op on an empty buffer.
  util::Status Flush();

  /// Discards the buffer and truncates the file to a fresh header for
  /// `epoch` (checkpoint fold: the records' effects now live in the
  /// snapshot).
  util::Status Reset(uint64_t epoch);

  /// Durable file size in bytes (header included).
  uint64_t bytes() const { return bytes_; }
  uint64_t pending_bytes() const { return pending_.size(); }
  uint64_t records_appended() const { return records_appended_; }

 private:
  util::Status WriteFreshHeader(uint64_t epoch);

  std::string path_;
  std::ofstream out_;
  std::string pending_;
  uint64_t next_sequence_ = 1;
  uint64_t bytes_ = 0;
  uint64_t records_appended_ = 0;
  // What Replay found, for StartAppending.
  uint64_t epoch_ = 0;
  bool fresh_ = false;  ///< rewrite the header
  bool torn_ = false;   ///< cut the file at bytes_
};

}  // namespace goofi::db
