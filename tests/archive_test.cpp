// Tests for the campaign archive: packed codecs, binary columnar snapshots,
// WAL replay, crash recovery (torn tails, stale WALs) and the differential
// property the whole design hangs on — a database recovered from snapshot +
// WAL is byte-identical (row order included) to the one that never crashed.
#include "db/archive.hpp"

#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <limits>
#include <random>
#include <sstream>

#include "core/goofi.hpp"
#include "db/wal.hpp"
#include "util/crc32.hpp"
#include "util/strings.hpp"

namespace goofi::db {
namespace {

namespace fs = std::filesystem;

std::string TempPath(const std::string& suffix) {
  return testing::TempDir() + "goofi_archive_" +
         ::testing::UnitTest::GetInstance()->current_test_info()->name() +
         "_" + suffix;
}

std::string FileBytes(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  std::ostringstream buf;
  buf << in.rdbuf();
  return buf.str();
}

void WriteBytes(const std::string& path, const std::string& bytes) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
}

/// Canonical dump for equality checks: every table's schema and its rows
/// in storage order, each value through Value::Serialize and length-prefixed
/// — human-diffable, and independent of the binary encoder under test.
/// (Built with += only: chained operator+ on temporaries trips GCC 12's
/// -Wrestrict false positive, PR105329.)
std::string Dump(const Database& db) {
  std::string out;
  const auto names = [&out](const std::vector<std::string>& columns) {
    for (const std::string& col : columns) {
      out += ' ';
      out += col;
    }
  };
  for (const std::string& name : db.TableNames()) {
    const Table& table = *db.GetTable(name);
    out += "TABLE ";
    out += name;
    for (const Column& col : table.schema().columns()) {
      out += "\nCOL ";
      out += col.name;
      out += ' ';
      out += ValueTypeName(col.type);
      if (col.not_null) out += " NOT NULL";
    }
    out += "\nPK";
    names(table.schema().primary_key());
    for (const ForeignKey& fk : table.schema().foreign_keys()) {
      out += "\nFK";
      names(fk.local_columns);
      out += " -> ";
      out += fk.ref_table;
      names(fk.ref_columns);
    }
    out += '\n';
    table.ForEach([&out](const Row& row) {
      for (const Value& v : row) {
        const std::string text = v.Serialize();
        out += std::to_string(text.size());
        out += ':';
        out += text;
        out += ' ';
      }
      out += '\n';
    });
  }
  return out;
}

/// A small two-table schema with a foreign key, shared by several tests.
void MakeParentChild(Database* db) {
  ASSERT_TRUE(db->CreateTable(Schema("parent",
                                     {{"id", ValueType::kInt, true},
                                      {"label", ValueType::kText, false},
                                      {"weight", ValueType::kReal, false}},
                                     {"id"}))
                  .ok());
  ASSERT_TRUE(db->CreateTable(Schema("child",
                                     {{"cid", ValueType::kInt, true},
                                      {"pid", ValueType::kInt, false},
                                      {"note", ValueType::kText, false}},
                                     {"cid"}, {{{"pid"}, "parent", {"id"}}}))
                  .ok());
}

// --- packed codec ------------------------------------------------------------

TEST(PackedCodec, IntegerRoundTrips) {
  std::string buf;
  PackedWriter w(&buf);
  const int64_t ints[] = {0,  1,  -1, 63, 64, -64, -65,
                          std::numeric_limits<int64_t>::min(),
                          std::numeric_limits<int64_t>::max()};
  const uint64_t uints[] = {0, 1, 127, 128, 16383, 16384,
                            std::numeric_limits<uint64_t>::max()};
  for (int64_t v : ints) w.SVarint(v);
  for (uint64_t v : uints) w.Varint(v);
  w.U32(0xDEADBEEFu);
  w.U64(0x0123456789ABCDEFull);

  PackedReader r(buf);
  for (int64_t v : ints) {
    int64_t got = 0;
    ASSERT_TRUE(r.SVarint(&got));
    EXPECT_EQ(got, v);
  }
  for (uint64_t v : uints) {
    uint64_t got = 0;
    ASSERT_TRUE(r.Varint(&got));
    EXPECT_EQ(got, v);
  }
  uint32_t u32 = 0;
  uint64_t u64 = 0;
  ASSERT_TRUE(r.U32(&u32));
  ASSERT_TRUE(r.U64(&u64));
  EXPECT_EQ(u32, 0xDEADBEEFu);
  EXPECT_EQ(u64, 0x0123456789ABCDEFull);
  EXPECT_TRUE(r.AtEnd());
  EXPECT_TRUE(r.ok());
}

TEST(PackedCodec, ValueRoundTripsPreserveTypeAndBits) {
  std::string buf;
  PackedWriter w(&buf);
  const Row row = {Value::Null(),
                   Value::Int(-42),
                   Value::Real(3.25),
                   Value::Real(-0.0),
                   Value::Real(std::numeric_limits<double>::infinity()),
                   Value::Real(std::numeric_limits<double>::denorm_min()),
                   // An INT stored in a REAL column keeps its concrete type.
                   Value::Int(7),
                   Value::Text(std::string("nul\0tab\tend", 11)),
                   Value::Text("")};
  w.RowData(row);

  PackedReader r(buf);
  Row got;
  ASSERT_TRUE(r.RowData(&got));
  ASSERT_EQ(got.size(), row.size());
  for (size_t i = 0; i < row.size(); ++i) {
    EXPECT_EQ(got[i].type(), row[i].type()) << "value " << i;
    EXPECT_EQ(got[i].Compare(row[i]), 0) << "value " << i;
  }
  EXPECT_EQ(got[7].as_text(), std::string("nul\0tab\tend", 11));
  EXPECT_TRUE(r.AtEnd());
}

TEST(PackedCodec, ReaderRejectsMalformedInput) {
  // Truncated string: declared length exceeds the remaining bytes.
  {
    std::string buf;
    PackedWriter w(&buf);
    w.Varint(100);
    buf += "short";
    PackedReader r(buf);
    std::string s;
    EXPECT_FALSE(r.Str(&s));
    EXPECT_FALSE(r.ok());
  }
  // Varint overflow: ten bytes of continuation with high bits set.
  {
    std::string buf(10, '\xFF');
    PackedReader r(buf);
    uint64_t v = 0;
    EXPECT_FALSE(r.Varint(&v));
    EXPECT_FALSE(r.ok());
  }
  // Unknown value tag.
  {
    std::string buf(1, '\x09');
    PackedReader r(buf);
    Value v;
    EXPECT_FALSE(r.Val(&v));
    EXPECT_FALSE(r.ok());
  }
}

// --- snapshot ----------------------------------------------------------------

class SnapshotTest : public testing::Test {
 protected:
  void TearDown() override {
    std::remove(path_.c_str());
    std::remove((path_ + ".wal").c_str());
  }
  std::string path_ = TempPath("snap.db");
};

TEST_F(SnapshotTest, BinaryRoundTripIsExact) {
  Database db;
  MakeParentChild(&db);
  // A table without a primary key must survive too.
  ASSERT_TRUE(db.CreateTable(Schema("log", {{"msg", ValueType::kText, false}}))
                  .ok());
  ASSERT_TRUE(db.Insert("parent", {Value::Int(1),
                                   Value::Text("tab\tnl\nbs\\q\"end"),
                                   Value::Real(2.5)})
                  .ok());
  ASSERT_TRUE(
      db.Insert("parent", {Value::Int(2), Value::Null(), Value::Int(3)}).ok());
  ASSERT_TRUE(
      db.Insert("child", {Value::Int(10), Value::Int(1), Value::Null()}).ok());
  ASSERT_TRUE(db.Insert("log", {Value::Text("free-floating")}).ok());
  ASSERT_TRUE(db.Save(path_).ok());

  Database loaded;
  uint64_t epoch = 99;
  ASSERT_TRUE(loaded.Load(path_, &epoch).ok());
  EXPECT_EQ(epoch, 0u);
  EXPECT_EQ(Dump(loaded), Dump(db));
  // The INT-in-REAL-column widening survived with its concrete type.
  const Table* parent = loaded.GetTable("parent");
  ASSERT_NE(parent, nullptr);
  const auto slot = parent->FindByPrimaryKey({Value::Int(2)});
  ASSERT_TRUE(slot.has_value());
  EXPECT_EQ(parent->slots()[*slot][2].type(), ValueType::kInt);
  // FK metadata survived.
  EXPECT_FALSE(
      loaded.Insert("child", {Value::Int(11), Value::Int(99), Value::Null()})
          .ok());
}

TEST_F(SnapshotTest, IndexDefinitionsPersistAndPlansInvalidate) {
  Database db;
  MakeParentChild(&db);
  ASSERT_TRUE(
      db.CreateIndex("child", "idx_pid", {"pid"}, IndexKind::kHash).ok());
  ASSERT_TRUE(
      db.CreateIndex("parent", "idx_label", {"label"}, IndexKind::kSorted)
          .ok());
  for (int i = 0; i < 20; ++i) {
    ASSERT_TRUE(db.Insert("parent", {Value::Int(i),
                                     Value::Text("p" + std::to_string(i % 5)),
                                     Value::Null()})
                    .ok());
    ASSERT_TRUE(db.Insert("child", {Value::Int(100 + i), Value::Int(i),
                                    Value::Null()})
                    .ok());
  }
  ASSERT_TRUE(db.Save(path_).ok());

  Database loaded;
  const uint64_t version_before = loaded.schema_version();
  ASSERT_TRUE(loaded.Load(path_).ok());
  EXPECT_GT(loaded.schema_version(), version_before);
  const Table* child = loaded.GetTable("child");
  const Table* parent = loaded.GetTable("parent");
  ASSERT_NE(child, nullptr);
  ASSERT_NE(parent, nullptr);
  const SecondaryIndex* idx_pid = child->FindIndex("idx_pid");
  const SecondaryIndex* idx_label = parent->FindIndex("idx_label");
  ASSERT_NE(idx_pid, nullptr);
  ASSERT_NE(idx_label, nullptr);
  EXPECT_EQ(idx_pid->kind, IndexKind::kHash);
  EXPECT_EQ(idx_label->kind, IndexKind::kSorted);
  std::string error;
  EXPECT_TRUE(child->ValidateIndexes(&error)) << error;
  EXPECT_TRUE(parent->ValidateIndexes(&error)) << error;
  EXPECT_EQ(child->IndexEqualSlots(*idx_pid, {Value::Int(3)}).size(), 1u);
}

TEST_F(SnapshotTest, EveryFlippedByteIsRejected) {
  Database db;
  ASSERT_TRUE(
      db.CreateTable(Schema("t", {{"a", ValueType::kInt, false}})).ok());
  ASSERT_TRUE(db.Insert("t", {Value::Int(7)}).ok());
  ASSERT_TRUE(db.Save(path_).ok());
  const std::string pristine = FileBytes(path_);
  ASSERT_GT(pristine.size(), 10u);
  for (size_t i = 0; i < pristine.size(); ++i) {
    std::string corrupt = pristine;
    corrupt[i] = static_cast<char>(corrupt[i] ^ 0xFF);
    WriteBytes(path_, corrupt);
    Database loaded;
    EXPECT_FALSE(loaded.Load(path_).ok()) << "flip at byte " << i;
  }
}

TEST_F(SnapshotTest, TextFileIsRefusedAndLeftUntouched) {
  // A small file in the retired text format, CRC trailer included, exactly
  // as its writer laid one out.
  std::string text =
      "GOOFIDB 1\nTABLE t 1\nCOL a\tINTEGER\t0\nROWS 1\nI7\nEND\n";
  text += "CRC ";
  text += util::Format("%08x", util::Crc32Of(text));
  text += "\n";
  WriteBytes(path_, text);

  Database db;
  ASSERT_TRUE(
      db.CreateTable(Schema("keep", {{"k", ValueType::kInt, false}})).ok());
  ASSERT_TRUE(db.Insert("keep", {Value::Int(1)}).ok());
  const std::string before = Dump(db);
  const uint64_t version = db.schema_version();
  const util::Status loaded = db.Load(path_);
  EXPECT_EQ(loaded.code(), util::StatusCode::kParseError) << loaded.ToString();
  EXPECT_NE(loaded.message().find("not a binary snapshot"), std::string::npos)
      << loaded.ToString();
  EXPECT_EQ(Dump(db), before);
  EXPECT_EQ(db.schema_version(), version);

  Database fresh;
  auto archive = Archive::Open(&fresh, path_);
  EXPECT_FALSE(archive.ok());
  EXPECT_EQ(FileBytes(path_), text);
  EXPECT_FALSE(fs::exists(path_ + ".wal"));
  EXPECT_EQ(fresh.observer(), nullptr);
}

// --- hostile counts ------------------------------------------------------------
// A count read from a file sizes vectors before the elements are read. The
// CRCs stop random damage, not a crafted file, so each count is bounded by
// the bytes left; 2^61 would otherwise abort the process in a reserve.

constexpr uint64_t kHugeCount = uint64_t{1} << 61;

/// A snapshot body (header with epoch 0, then `tables`) with a valid CRC
/// trailer.
std::string SnapshotFile(uint64_t ntables, const std::string& tables) {
  std::string bytes = "\xB1GDB\x01";
  PackedWriter w(&bytes);
  w.U64(0);
  w.Varint(ntables);
  bytes += tables;
  const uint32_t crc = util::Crc32Of(bytes);
  w.U32(crc);
  return bytes;
}

/// One table "t" with one INTEGER column "a", up to and including its
/// primary-key count `npk`; `tail` continues the table from there.
std::string TableOfOneColumn(uint64_t npk, const std::string& tail) {
  std::string bytes;
  PackedWriter w(&bytes);
  w.Str("t");
  w.Varint(1);
  w.Str("a");
  w.U8(static_cast<uint8_t>(ValueType::kInt));
  w.U8(0);
  w.Varint(npk);
  return bytes + tail;
}

std::string Varint(uint64_t v) {
  std::string bytes;
  PackedWriter(&bytes).Varint(v);
  return bytes;
}

TEST_F(SnapshotTest, HugeCountsAreRejected) {
  std::string huge_columns;
  PackedWriter(&huge_columns).Str("t");
  huge_columns += Varint(kHugeCount);
  std::string fk_head;  // one foreign key, to "t"
  PackedWriter(&fk_head).Varint(1);
  PackedWriter(&fk_head).Str("t");
  std::string index_head;  // one hash index "i"
  PackedWriter(&index_head).Varint(1);
  PackedWriter(&index_head).Str("i");
  PackedWriter(&index_head).U8(static_cast<uint8_t>(IndexKind::kHash));
  const struct {
    const char* what;
    std::string file;
  } cases[] = {
      {"table count", SnapshotFile(kHugeCount, "")},
      {"column count", SnapshotFile(1, huge_columns)},
      {"primary-key count", SnapshotFile(1, TableOfOneColumn(kHugeCount, ""))},
      {"foreign-key count",
       SnapshotFile(1, TableOfOneColumn(0, Varint(kHugeCount)))},
      {"foreign-key column count",
       SnapshotFile(1, TableOfOneColumn(0, fk_head + Varint(kHugeCount)))},
      {"index count",
       SnapshotFile(1, TableOfOneColumn(0, Varint(0) + Varint(kHugeCount)))},
      {"index column count",
       SnapshotFile(1, TableOfOneColumn(0, Varint(0) + index_head +
                                               Varint(kHugeCount)))},
      {"row count", SnapshotFile(1, TableOfOneColumn(0, Varint(0) + Varint(0) +
                                                            Varint(kHugeCount)))},
  };
  for (const auto& c : cases) {
    WriteBytes(path_, c.file);
    Database db;
    const util::Status st = db.Load(path_);
    EXPECT_FALSE(st.ok()) << c.what;
    EXPECT_EQ(st.code(), util::StatusCode::kParseError)
        << c.what << ": " << st.ToString();
  }
}

TEST_F(SnapshotTest, NullOnlyRowsNeedOneBitEach) {
  // Columnar rows can be far smaller than a byte: 1000 NULL rows of one
  // nullable column are a 125-byte bitmap. They must still load.
  Database db;
  ASSERT_TRUE(
      db.CreateTable(Schema("sparse", {{"v", ValueType::kText, false}})).ok());
  std::vector<Row> rows(1000, Row{Value::Null()});
  ASSERT_TRUE(db.InsertBatch("sparse", std::move(rows)).ok());
  ASSERT_TRUE(db.Save(path_).ok());
  Database loaded;
  ASSERT_TRUE(loaded.Load(path_).ok());
  EXPECT_EQ(Dump(loaded), Dump(db));
}

// --- archive (WAL + recovery) ------------------------------------------------

class ArchiveTest : public testing::Test {
 protected:
  void TearDown() override {
    std::remove(path_.c_str());
    std::remove((path_ + ".wal").c_str());
    std::remove((path_ + ".tmp").c_str());
  }

  /// Opens the archive at path_ into a fresh database and returns the dump
  /// (closing the archive again), plus the recovery stats via `stats_out`.
  std::string Recover(ArchiveStats* stats_out = nullptr) {
    Database db;
    auto archive = Archive::Open(&db, path_);
    EXPECT_TRUE(archive.ok()) << archive.status().ToString();
    if (!archive.ok()) return {};
    if (stats_out != nullptr) *stats_out = archive.value()->stats();
    std::string dump = Dump(db);
    EXPECT_TRUE(archive.value()->Close().ok());
    return dump;
  }

  std::string path_ = TempPath("arch.db");
};

TEST_F(ArchiveTest, WalReplaysEveryOperationKind) {
  Database db;      // archive-backed
  Database mirror;  // same operations, no archive
  MakeParentChild(&db);
  MakeParentChild(&mirror);

  auto archive = Archive::Open(&db, path_);
  ASSERT_TRUE(archive.ok()) << archive.status().ToString();

  auto both = [&](auto&& op) {
    ASSERT_TRUE(op(&db).ok());
    ASSERT_TRUE(op(&mirror).ok());
  };
  both([](Database* d) {
    return d->Insert("parent", {Value::Int(1), Value::Text("a"), Value::Null()});
  });
  both([](Database* d) {
    std::vector<Row> rows;
    for (int i = 0; i < 5; ++i) {
      rows.push_back({Value::Int(10 + i), Value::Int(1),
                      i % 2 == 0 ? Value::Null() : Value::Text("n")});
    }
    return d->InsertBatch("child", std::move(rows));
  });
  both([](Database* d) {
    return d->Delete("child",
                     [](const Row& r) { return r[0].as_int() == 12; });
  });
  both([](Database* d) {
    size_t updated = 0;
    return d->GetTable("child")->UpdateWhere(
        [](const Row& r) { return r[0].as_int() == 13; },
        [](Row& r) { r[2] = Value::Text("updated"); }, &updated);
  });
  both([](Database* d) {
    return d->CreateTable(Schema("extra", {{"x", ValueType::kInt, false}}));
  });
  both([](Database* d) { return d->Insert("extra", {Value::Int(5)}); });
  both([](Database* d) { return d->DropTable("extra"); });
  both([](Database* d) {
    return d->CreateIndex("child", "idx_pid", {"pid"}, IndexKind::kHash);
  });
  both([](Database* d) {
    return d->CreateIndex("child", "idx_note", {"note"}, IndexKind::kSorted);
  });
  both([](Database* d) { return d->DropIndex("child", "idx_note"); });
  ASSERT_TRUE(archive.value()->Close().ok());

  ArchiveStats stats;
  EXPECT_EQ(Recover(&stats), Dump(mirror));
  EXPECT_GT(stats.wal_records_replayed, 0u);
  EXPECT_FALSE(stats.recovered_torn_tail);

  // Recovered index definitions are live, not just present.
  Database again;
  auto reopened = Archive::Open(&again, path_);
  ASSERT_TRUE(reopened.ok());
  const Table* child = again.GetTable("child");
  ASSERT_NE(child, nullptr);
  ASSERT_NE(child->FindIndex("idx_pid"), nullptr);
  EXPECT_EQ(child->FindIndex("idx_note"), nullptr);
  std::string error;
  EXPECT_TRUE(child->ValidateIndexes(&error)) << error;
  EXPECT_TRUE(reopened.value()->Close().ok());
}

TEST_F(ArchiveTest, HugeCountsInWalRecordsAreRejected) {
  std::string create_table;
  PackedWriter(&create_table).Str("u");
  PackedWriter(&create_table).Varint(kHugeCount);  // columns
  std::string create_index;
  PackedWriter(&create_index).Str("t");
  PackedWriter(&create_index).Str("i");
  PackedWriter(&create_index).Varint(kHugeCount);  // columns
  std::string insert_batch;
  PackedWriter(&insert_batch).Str("t");
  PackedWriter(&insert_batch).Varint(kHugeCount);  // rows
  const struct {
    const char* what;
    WalOp op;
    std::string body;
  } cases[] = {
      {"kCreateTable column count", WalOp::kCreateTable, create_table},
      {"kCreateIndex column count", WalOp::kCreateIndex, create_index},
      {"kInsertBatch row count", WalOp::kInsertBatch, insert_batch},
  };
  for (const auto& c : cases) {
    {
      Database db;
      ASSERT_TRUE(
          db.CreateTable(Schema("t", {{"a", ValueType::kInt, false}})).ok());
      auto archive = Archive::Open(&db, path_);  // epoch-0 snapshot of t
      ASSERT_TRUE(archive.ok()) << archive.status().ToString();
    }
    // One CRC-valid record: the count is the only thing wrong with it.
    std::string wal = "GWAL\x01";
    PackedWriter w(&wal);
    w.U64(0);
    std::string payload;
    PackedWriter(&payload).Varint(1);  // sequence
    PackedWriter(&payload).U8(static_cast<uint8_t>(c.op));
    payload += c.body;
    w.U32(static_cast<uint32_t>(payload.size()));
    w.U32(util::Crc32Of(payload));
    wal += payload;
    WriteBytes(path_ + ".wal", wal);

    Database db;
    auto archive = Archive::Open(&db, path_);
    EXPECT_FALSE(archive.ok()) << c.what;
    std::remove(path_.c_str());
    std::remove((path_ + ".wal").c_str());
  }
}

TEST_F(ArchiveTest, FailedBatchLeavesNoTrace) {
  Database db;
  Database mirror;
  MakeParentChild(&db);
  MakeParentChild(&mirror);
  auto archive = Archive::Open(&db, path_);
  ASSERT_TRUE(archive.ok());
  for (Database* d : {&db, &mirror}) {
    ASSERT_TRUE(
        d->Insert("parent", {Value::Int(1), Value::Null(), Value::Null()})
            .ok());
  }
  // Second row violates the FK; the whole batch rolls back.
  std::vector<Row> bad;
  bad.push_back({Value::Int(10), Value::Int(1), Value::Null()});
  bad.push_back({Value::Int(11), Value::Int(999), Value::Null()});
  ASSERT_FALSE(db.InsertBatch("child", std::move(bad)).ok());
  ASSERT_TRUE(archive.value()->Close().ok());
  EXPECT_EQ(Recover(), Dump(mirror));
}

TEST_F(ArchiveTest, TornTailTruncatesAtEveryByteOffset) {
  // Build an archive whose WAL holds 4 single-insert commits, remembering
  // the durable WAL size after each commit.
  Database db;
  ASSERT_TRUE(
      db.CreateTable(Schema("t", {{"a", ValueType::kInt, false},
                                  {"b", ValueType::kText, false}}))
          .ok());
  std::vector<uint64_t> size_after;  // WAL bytes after commit i
  std::string dump_after_3;          // state with the last record dropped
  {
    auto archive = Archive::Open(&db, path_);
    ASSERT_TRUE(archive.ok());
    for (int i = 0; i < 4; ++i) {
      if (i == 3) dump_after_3 = Dump(db);
      ASSERT_TRUE(
          db.Insert("t", {Value::Int(i), Value::Text("row" + std::to_string(i))})
              .ok());
      size_after.push_back(archive.value()->stats().wal_bytes);
    }
    ASSERT_TRUE(archive.value()->Close().ok());
  }
  const std::string full_dump = Dump(db);
  const std::string wal_path = path_ + ".wal";
  const std::string snapshot = FileBytes(path_);
  const std::string wal = FileBytes(wal_path);
  ASSERT_EQ(wal.size(), size_after[3]);

  // Truncating anywhere strictly inside the last record must recover exactly
  // the first three commits; truncating at the record boundary loses nothing.
  for (uint64_t len = size_after[2]; len <= size_after[3]; ++len) {
    WriteBytes(path_, snapshot);
    WriteBytes(wal_path, wal.substr(0, len));
    ArchiveStats stats;
    const std::string dump = Recover(&stats);
    if (len == size_after[2] || len == size_after[3]) {
      EXPECT_FALSE(stats.recovered_torn_tail) << "len " << len;
      EXPECT_EQ(dump, len == size_after[3] ? full_dump : dump_after_3)
          << "len " << len;
    } else {
      EXPECT_TRUE(stats.recovered_torn_tail) << "len " << len;
      EXPECT_EQ(stats.wal_bytes_truncated, len - size_after[2]) << "len " << len;
      EXPECT_EQ(dump, dump_after_3) << "len " << len;
    }
  }
}

TEST_F(ArchiveTest, CorruptRecordDropsItAndTheTail) {
  Database db;
  ASSERT_TRUE(
      db.CreateTable(Schema("t", {{"a", ValueType::kInt, false}})).ok());
  std::vector<uint64_t> size_after;
  std::string dump_after_1;
  {
    auto archive = Archive::Open(&db, path_);
    ASSERT_TRUE(archive.ok());
    for (int i = 0; i < 3; ++i) {
      if (i == 1) dump_after_1 = Dump(db);
      ASSERT_TRUE(db.Insert("t", {Value::Int(i)}).ok());
      size_after.push_back(archive.value()->stats().wal_bytes);
    }
    ASSERT_TRUE(archive.value()->Close().ok());
  }
  // Flip a byte inside the payload of record 2 (of 3): replay keeps record 1,
  // drops the corrupt record and everything after it.
  const std::string wal_path = path_ + ".wal";
  std::string wal = FileBytes(wal_path);
  const uint64_t target = size_after[0] + 8;  // past the record frame
  ASSERT_LT(target, size_after[1]);
  wal[target] = static_cast<char>(wal[target] ^ 0xFF);
  WriteBytes(wal_path, wal);

  ArchiveStats stats;
  EXPECT_EQ(Recover(&stats), dump_after_1);
  EXPECT_TRUE(stats.recovered_torn_tail);
  EXPECT_EQ(stats.wal_records_replayed, 1u);
  EXPECT_EQ(stats.wal_bytes_truncated, size_after[2] - size_after[0]);
}

TEST_F(ArchiveTest, StaleWalFromCheckpointCrashIsDiscarded) {
  Database db;
  ASSERT_TRUE(
      db.CreateTable(Schema("t", {{"a", ValueType::kInt, false}})).ok());
  {
    auto archive = Archive::Open(&db, path_);
    ASSERT_TRUE(archive.ok());
    ASSERT_TRUE(db.Insert("t", {Value::Int(1)}).ok());
    ASSERT_TRUE(archive.value()->Close().ok());
  }
  // Simulate a crash between Checkpoint's snapshot rename and WAL reset: the
  // snapshot advances to epoch 1 (folding the record in), the WAL stays at
  // epoch 0. Its records must not be replayed twice.
  ASSERT_TRUE(WriteSnapshotFile(db, path_, /*epoch=*/1).ok());
  ArchiveStats stats;
  EXPECT_EQ(Recover(&stats), Dump(db));
  EXPECT_TRUE(stats.stale_wal_discarded);
  EXPECT_EQ(stats.wal_records_replayed, 0u);
  EXPECT_EQ(stats.epoch, 1u);
}

TEST_F(ArchiveTest, FreshOpenDiscardsALeftoverWal) {
  // A WAL holding records, left behind when its snapshot was deleted.
  {
    Database old;
    ASSERT_TRUE(
        old.CreateTable(Schema("t", {{"a", ValueType::kInt, false}})).ok());
    auto archive = Archive::Open(&old, path_);
    ASSERT_TRUE(archive.ok());
    for (int i = 0; i < 5; ++i) {
      ASSERT_TRUE(old.Insert("t", {Value::Int(i)}).ok());
    }
    ASSERT_TRUE(archive.value()->Close().ok());
    EXPECT_EQ(archive.value()->stats().checkpoints_folded, 0u);
  }
  ASSERT_TRUE(fs::remove(path_));
  const std::string wal_path = path_ + ".wal";
  ASSERT_GT(fs::file_size(wal_path), 13u) << "the leftover WAL holds records";

  // A fresh open at the same path neither replays nor keeps it.
  Database db;
  ASSERT_TRUE(
      db.CreateTable(Schema("t", {{"a", ValueType::kInt, false},
                                  {"b", ValueType::kText, false}}))
          .ok());
  const std::string empty = Dump(db);
  auto archive = Archive::Open(&db, path_);
  ASSERT_TRUE(archive.ok()) << archive.status().ToString();
  EXPECT_EQ(Dump(db), empty);
  const ArchiveStats opened = archive.value()->stats();
  EXPECT_EQ(opened.wal_records_replayed, 0u);
  EXPECT_FALSE(opened.stale_wal_discarded);
  EXPECT_EQ(opened.wal_bytes, 13u);
  EXPECT_EQ(fs::file_size(wal_path), 13u) << "only the new header is left";

  // A reopen recovers exactly the records written after the fresh open.
  ASSERT_TRUE(db.Insert("t", {Value::Int(7), Value::Text("x")}).ok());
  ASSERT_TRUE(db.Insert("t", {Value::Int(8), Value::Null()}).ok());
  ASSERT_TRUE(archive.value()->Close().ok());
  ArchiveStats recovered;
  EXPECT_EQ(Recover(&recovered), Dump(db));
  EXPECT_EQ(recovered.wal_records_replayed, 2u);
  EXPECT_FALSE(recovered.recovered_torn_tail);
}

TEST_F(ArchiveTest, AutoCheckpointFoldsWalIntoSnapshot) {
  Database db;
  ASSERT_TRUE(
      db.CreateTable(Schema("t", {{"a", ValueType::kInt, false},
                                  {"b", ValueType::kText, false}}))
          .ok());
  ArchiveOptions options;
  options.min_fold_bytes = 1;  // fold as soon as the WAL outgrows the snapshot
  auto archive = Archive::Open(&db, path_, options);
  ASSERT_TRUE(archive.ok());
  for (int i = 0; i < 200; ++i) {
    ASSERT_TRUE(
        db.Insert("t", {Value::Int(i), Value::Text(std::string(64, 'x'))})
            .ok());
  }
  const ArchiveStats stats = archive.value()->stats();
  EXPECT_GT(stats.checkpoints_folded, 0u);
  EXPECT_GT(stats.epoch, 0u);
  ASSERT_TRUE(archive.value()->Close().ok());
  EXPECT_EQ(Recover(), Dump(db));
}

TEST_F(ArchiveTest, ExplicitCheckpointResetsWal) {
  Database db;
  ASSERT_TRUE(
      db.CreateTable(Schema("t", {{"a", ValueType::kInt, false}})).ok());
  auto archive = Archive::Open(&db, path_);
  ASSERT_TRUE(archive.ok());
  for (int i = 0; i < 10; ++i) {
    ASSERT_TRUE(db.Insert("t", {Value::Int(i)}).ok());
  }
  const uint64_t wal_before = archive.value()->stats().wal_bytes;
  ASSERT_TRUE(archive.value()->Checkpoint().ok());
  const ArchiveStats stats = archive.value()->stats();
  EXPECT_LT(stats.wal_bytes, wal_before);
  EXPECT_EQ(stats.epoch, 1u);
  // More appends after the fold land in the new epoch's WAL.
  ASSERT_TRUE(db.Insert("t", {Value::Int(100)}).ok());
  ASSERT_TRUE(archive.value()->Close().ok());
  ArchiveStats recovered;
  EXPECT_EQ(Recover(&recovered), Dump(db));
  EXPECT_EQ(recovered.epoch, 1u);
  EXPECT_EQ(recovered.wal_records_replayed, 1u);
}

TEST_F(ArchiveTest, GroupCommitBuffersUntilScopeEnds) {
  Database db;
  ASSERT_TRUE(
      db.CreateTable(Schema("t", {{"a", ValueType::kInt, false}})).ok());
  auto archive = Archive::Open(&db, path_);
  ASSERT_TRUE(archive.ok());
  const uint64_t commits_before = archive.value()->stats().wal_commits;
  {
    Archive::GroupCommitScope scope(archive.value().get());
    for (int i = 0; i < 50; ++i) {
      ASSERT_TRUE(db.Insert("t", {Value::Int(i)}).ok());
    }
    // Nothing durable yet: all 50 records sit in the commit buffer.
    EXPECT_EQ(archive.value()->stats().wal_commits, commits_before);
  }
  EXPECT_EQ(archive.value()->stats().wal_commits, commits_before + 1);
  ASSERT_TRUE(archive.value()->Close().ok());
  EXPECT_EQ(Recover(), Dump(db));
}

/// Bit-at-a-time CRC-32 (reflected 0xEDB88320): a reference for the golden
/// file checks that shares no code with util::Crc32.
uint32_t BitwiseCrc32(std::string_view bytes) {
  uint32_t crc = 0xFFFFFFFFu;
  for (const char c : bytes) {
    crc ^= static_cast<uint8_t>(c);
    for (int k = 0; k < 8; ++k) {
      crc = (crc & 1u) ? 0xEDB88320u ^ (crc >> 1) : crc >> 1;
    }
  }
  return ~crc;
}

/// Two tables joined by a foreign key, holding every value type (INT, REAL,
/// TEXT, an INT in a REAL column), NULLs in every nullable column, values
/// long enough for multi-kilobyte segments, and one index of each kind.
void MakeGoldenTables(Database* db) {
  MakeParentChild(db);
  ASSERT_TRUE(
      db->CreateIndex("child", "idx_pid", {"pid"}, IndexKind::kHash).ok());
  ASSERT_TRUE(
      db->CreateIndex("parent", "idx_weight", {"weight"}, IndexKind::kSorted)
          .ok());
  for (int i = 0; i < 40; ++i) {
    const Value label =
        i % 5 == 0 ? Value::Null()
                   : Value::Text(std::string(static_cast<size_t>(i) * 7,
                                             static_cast<char>('a' + i % 26)));
    const Value weight = i % 3 == 0   ? Value::Null()
                         : i % 3 == 1 ? Value::Real(-1.25 * i)
                                      : Value::Int(int64_t{1000003} * i);
    ASSERT_TRUE(db->Insert("parent", {Value::Int(37 * i - 500), label, weight})
                    .ok());
  }
  ASSERT_TRUE(db->Insert("parent", {Value::Int(std::numeric_limits<int64_t>::min()),
                                    Value::Text(""), Value::Real(-0.0)})
                  .ok());
  std::vector<Row> children;
  for (int i = 0; i < 60; ++i) {
    children.push_back(
        {Value::Int(i), i % 4 == 0 ? Value::Null() : Value::Int(37 * (i % 9) - 500),
         i % 6 == 0 ? Value::Null()
                    : Value::Text("note\t" + std::to_string(i * i) + "\n\\")});
  }
  ASSERT_TRUE(db->InsertBatch("child", std::move(children)).ok());
}

TEST_F(ArchiveTest, GoldenFileBytes) {
  // CRC-32s of the files this format writes for a fixed database: a
  // snapshot, a WAL holding every record kind, and the snapshot and WAL of
  // an explicit fold and of an automatic one. Any change to the encoder, the
  // CRC or the fold point moves them. The file checks use a bitwise CRC, so
  // a faulty util::Crc32 shows as a changed constant, not as a matching one.
  const auto crc_of = [](const std::string& path) {
    return BitwiseCrc32(FileBytes(path));
  };
  // A snapshot ends in the CRC of everything before it, and the CRC of any
  // message followed by its own CRC is the constant residue 0x2144DF1C. So a
  // snapshot is pinned by the CRC of its body, which must equal its trailer.
  const auto snapshot_crc = [](const std::string& path) {
    const std::string bytes = FileBytes(path);
    if (bytes.size() < 4) return uint32_t{0};
    const uint32_t body_crc =
        BitwiseCrc32(std::string_view(bytes).substr(0, bytes.size() - 4));
    uint32_t trailer = 0;
    for (int i = 3; i >= 0; --i) {
      trailer = (trailer << 8) | static_cast<uint8_t>(bytes[bytes.size() - 4 + i]);
    }
    EXPECT_EQ(trailer, body_crc) << path;
    return body_crc;
  };
  Database db;
  MakeGoldenTables(&db);
  ASSERT_TRUE(WriteSnapshotFile(db, path_, /*epoch=*/0).ok());
  EXPECT_EQ(snapshot_crc(path_), 0x43452433u) << "plain snapshot";
  ASSERT_TRUE(fs::remove(path_));

  auto archive = Archive::Open(&db, path_);  // epoch-0 snapshot of db
  ASSERT_TRUE(archive.ok()) << archive.status().ToString();
  EXPECT_EQ(snapshot_crc(path_), 0x43452433u) << "archive's first snapshot";
  ASSERT_TRUE(
      db.Insert("parent", {Value::Int(9000), Value::Text("x"), Value::Real(0.5)})
          .ok());
  ASSERT_TRUE(db.InsertBatch("child", {{Value::Int(900), Value::Int(9000),
                                        Value::Text("batch")},
                                       {Value::Int(901), Value::Null(),
                                        Value::Null()}})
                  .ok());
  ASSERT_TRUE(db.Delete("child", [](const Row& r) {
                  return r[0].as_int() % 10 == 3;
                }).ok());
  size_t updated = 0;
  ASSERT_TRUE(db.GetTable("child")
                  ->UpdateWhere([](const Row& r) { return r[0].as_int() < 8; },
                                [](Row& r) { r[2] = Value::Text("updated"); },
                                &updated)
                  .ok());
  ASSERT_TRUE(db.CreateTable(Schema("extra", {{"x", ValueType::kInt, false}})).ok());
  ASSERT_TRUE(db.Insert("extra", {Value::Int(5)}).ok());
  ASSERT_TRUE(db.DropTable("extra").ok());
  ASSERT_TRUE(
      db.CreateIndex("child", "idx_note", {"note"}, IndexKind::kSorted).ok());
  ASSERT_TRUE(db.CreateIndex("parent", "idx_label_id", {"label", "id"},
                             IndexKind::kHash)
                  .ok());
  ASSERT_TRUE(db.DropIndex("child", "idx_note").ok());
  ASSERT_FALSE(db.InsertBatch("child", {{Value::Int(950), Value::Int(9000),
                                         Value::Null()},
                                        {Value::Int(951), Value::Int(-1),
                                         Value::Null()}})
                   .ok());  // FK violation: rolled back, no record
  const ArchiveStats logged = archive.value()->stats();
  EXPECT_EQ(logged.checkpoints_folded, 0u);
  EXPECT_EQ(crc_of(path_ + ".wal"), 0xF8E4B479u) << "WAL of every record kind";
  EXPECT_EQ(logged.wal_bytes, 578u);

  ASSERT_TRUE(archive.value()->Checkpoint().ok());
  EXPECT_EQ(snapshot_crc(path_), 0xEDD569D6u) << "explicit fold's snapshot";
  EXPECT_EQ(crc_of(path_ + ".wal"), 0xCFF8572Eu) << "explicit fold's WAL";

  // The first commit whose WAL outgrows max(min_fold_bytes, snapshot) folds.
  int inserts_to_fold = 0;
  while (archive.value()->stats().checkpoints_folded < 2) {
    ASSERT_LT(inserts_to_fold, 10000);
    ++inserts_to_fold;
    ASSERT_TRUE(db.Insert("child", {Value::Int(2000 + inserts_to_fold),
                                    Value::Int(9000),
                                    Value::Text(std::string(
                                        static_cast<size_t>(inserts_to_fold % 97),
                                        'z'))})
                    .ok());
  }
  EXPECT_EQ(inserts_to_fold, 879) << "insert that triggered the automatic fold";
  EXPECT_EQ(snapshot_crc(path_), 0x9B5C8F2Eu) << "automatic fold's snapshot";
  EXPECT_EQ(archive.value()->stats().snapshot_bytes, 56105u);
  ASSERT_TRUE(archive.value()->Close().ok());
  EXPECT_EQ(Recover(), Dump(db));
}

TEST_F(ArchiveTest, RandomizedDifferentialAgainstMirror) {
  // Fixed-seed fuzz: a random mutation stream applied to an archive-backed
  // database and to a plain mirror, with periodic close/reopen of the
  // archive. After every reopen the recovered database must dump identically
  // to the mirror that never left memory.
  std::mt19937 rng(0x600F1u);
  Database mirror;
  MakeParentChild(&mirror);
  ASSERT_TRUE(
      mirror.Insert("parent", {Value::Int(0), Value::Null(), Value::Null()})
          .ok());

  auto db = std::make_unique<Database>();
  MakeParentChild(db.get());
  ASSERT_TRUE(
      db->Insert("parent", {Value::Int(0), Value::Null(), Value::Null()}).ok());
  ArchiveOptions options;
  options.min_fold_bytes = 4096;  // exercise mid-stream checkpoint folds too
  auto archive = Archive::Open(db.get(), path_, options);
  ASSERT_TRUE(archive.ok());

  int next_parent = 1;
  int next_child = 1000;
  for (int step = 0; step < 300; ++step) {
    const int op = static_cast<int>(rng() % 100);
    auto on_both = [&](auto&& fn) {
      const auto a = fn(db.get());
      const auto b = fn(&mirror);
      ASSERT_EQ(a.ok(), b.ok()) << "step " << step;
    };
    if (op < 30) {
      const int id = next_parent++;
      const bool with_label = rng() % 2 == 0;
      on_both([&](Database* d) {
        return d->Insert("parent",
                         {Value::Int(id),
                          with_label ? Value::Text("p" + std::to_string(id))
                                     : Value::Null(),
                          Value::Real(static_cast<double>(id) / 3.0)});
      });
    } else if (op < 60) {
      const int parent = static_cast<int>(rng() % next_parent);
      std::vector<Row> rows;
      const int n = 1 + static_cast<int>(rng() % 4);
      for (int i = 0; i < n; ++i) {
        rows.push_back({Value::Int(next_child++), Value::Int(parent),
                        rng() % 2 == 0 ? Value::Null() : Value::Text("c")});
      }
      on_both([&](Database* d) { return d->InsertBatch("child", rows); });
    } else if (op < 75) {
      const int victim = 1000 + static_cast<int>(rng() % (next_child - 1000 + 1));
      on_both([&](Database* d) {
        return d->Delete("child", [&](const Row& r) {
          return r[0].as_int() == victim;
        });
      });
    } else if (op < 90) {
      const int victim = 1000 + static_cast<int>(rng() % (next_child - 1000 + 1));
      const std::string note = "u" + std::to_string(step);
      on_both([&](Database* d) {
        size_t updated = 0;
        return d->GetTable("child")->UpdateWhere(
            [&](const Row& r) { return r[0].as_int() == victim; },
            [&](Row& r) { r[2] = Value::Text(note); }, &updated);
      });
    } else {
      // FK-violating insert: must fail identically on both sides.
      on_both([&](Database* d) {
        return d->Insert("child", {Value::Int(next_child + 7777),
                                   Value::Int(999999), Value::Null()});
      });
    }

    if (step % 60 == 59) {
      ASSERT_TRUE(archive.value()->Close().ok());
      archive.value().reset();
      db = std::make_unique<Database>();
      archive = Archive::Open(db.get(), path_, options);
      ASSERT_TRUE(archive.ok()) << "step " << step;
      ASSERT_EQ(Dump(*db), Dump(mirror)) << "reopen at step " << step;
    }
  }
  ASSERT_TRUE(archive.value()->Close().ok());
  EXPECT_EQ(Recover(), Dump(mirror));
}

// --- campaign runner integration ---------------------------------------------

core::CampaignData SmallCampaign(int num_experiments = 8) {
  core::CampaignData campaign;
  campaign.name = "arch_swifi";
  campaign.target_name = core::SwifiSimTarget::kTargetName;
  campaign.technique = core::Technique::kSwifiPreRuntime;
  campaign.num_experiments = num_experiments;
  campaign.workload = "fibonacci";
  campaign.locations = {{"memory.text", ""}};
  campaign.inject_min_instr = 1;
  campaign.inject_max_instr = 500;
  campaign.timeout_cycles = 100000;
  return campaign;
}

/// Three SCIFI experiments late in bubblesort, so in detail mode each one
/// logs dozens of detail rows after its main row.
core::CampaignData ThorDetailCampaign(core::LogMode log_mode) {
  core::CampaignData campaign;
  campaign.name = "arch_thor";
  campaign.target_name = core::ThorRdTarget::kTargetName;
  campaign.technique = core::Technique::kScifi;
  campaign.num_experiments = 3;
  campaign.workload = "bubblesort";
  campaign.locations = {{"internal_regfile", ""}};
  campaign.inject_min_instr = 2250;
  campaign.inject_max_instr = 2300;
  campaign.log_mode = log_mode;
  return campaign;
}

/// A serial Thor target bound to a store over `db`.
struct ThorSession {
  explicit ThorSession(Database* db) : store(db), target(&store, &card) {}
  core::CampaignStore store;
  testcard::SimTestCard card;
  core::ThorRdTarget target;
};

/// The detail re-runs of a campaign's reference run and experiments, in the
/// order a §2.3 analysis session makes them.
std::vector<std::string> RerunNames(const core::CampaignData& campaign) {
  std::vector<std::string> names = {
      core::CampaignStore::ReferenceName(campaign.name)};
  for (int i = 0; i < campaign.num_experiments; ++i) {
    names.push_back(core::CampaignStore::ExperimentName(campaign.name, i));
  }
  return names;
}

/// Re-runs each of `names` in detail mode unless its "/detail" row exists,
/// so the same call resumes an interrupted sequence of re-runs.
void RerunMissing(ThorSession* session, const std::vector<std::string>& names) {
  for (const std::string& name : names) {
    if (session->store.GetExperiment(name + "/detail").ok()) continue;
    ASSERT_TRUE(session->target.RerunDetailed(name).ok()) << name;
  }
}

/// The campaign (and with `reruns`, every detail re-run) with no archive.
std::string SerialReferenceDump(const core::CampaignData& campaign,
                                bool reruns) {
  Database db;
  ThorSession session(&db);
  EXPECT_TRUE(session.store
                  .PutTargetSystem(core::ThorRdTarget::DescribeTarget(
                      session.card, core::ThorRdTarget::kTargetName))
                  .ok());
  EXPECT_TRUE(session.store.PutCampaign(campaign).ok());
  EXPECT_TRUE(session.target.RunCampaign(campaign.name).ok());
  if (reruns) RerunMissing(&session, RerunNames(campaign));
  return Dump(db);
}

/// Dump equality without printing megabytes of dump on failure.
testing::AssertionResult SameDump(const std::string& actual,
                                  const std::string& expected) {
  if (actual == expected) return testing::AssertionSuccess();
  size_t at = 0;
  while (at < actual.size() && at < expected.size() && actual[at] == expected[at]) {
    ++at;
  }
  return testing::AssertionFailure()
         << "dumps differ at byte " << at << " (sizes " << actual.size()
         << " vs " << expected.size() << ")";
}

/// Records the durable WAL size after each committed experiment.
class WalSizeMonitor : public core::ProgressMonitor {
 public:
  explicit WalSizeMonitor(const Archive* archive) : archive_(archive) {}
  bool OnExperiment(int, int, const core::LoggedState&) override {
    sizes.push_back(archive_->stats().wal_bytes);
    return true;
  }
  std::vector<uint64_t> sizes;

 private:
  const Archive* archive_;
};

/// Offsets of the WAL record frames (<u32 len LE> <u32 crc> <payload>) that
/// start at or after `from`, plus the end of the file.
std::vector<uint64_t> RecordBoundaries(const std::string& wal, uint64_t from) {
  std::vector<uint64_t> boundaries;
  uint64_t offset = from;
  while (offset + 8 <= wal.size()) {
    boundaries.push_back(offset);
    uint32_t length = 0;
    for (int i = 0; i < 4; ++i) {
      length |= static_cast<uint32_t>(static_cast<uint8_t>(wal[offset + i]))
                << (8 * i);
    }
    offset += 8 + length;
  }
  EXPECT_EQ(offset, wal.size()) << "frames must tile the WAL";
  boundaries.push_back(wal.size());
  return boundaries;
}

class ArchiveRunnerTest : public testing::Test {
 protected:
  void TearDown() override {
    std::remove(path_.c_str());
    std::remove((path_ + ".wal").c_str());
    std::remove((path_ + ".tmp").c_str());
  }

  /// Runs the campaign serially into a fresh archive at path_, then (with
  /// `reruns`) every detail re-run. Returns the durable WAL size before the
  /// last experiment (or, with `reruns`, before the last re-run) was logged.
  uint64_t RunArchived(const core::CampaignData& campaign, bool reruns,
                       ArchiveOptions options = {}) {
    Database db;
    ThorSession session(&db);
    EXPECT_TRUE(session.store
                    .PutTargetSystem(core::ThorRdTarget::DescribeTarget(
                        session.card, core::ThorRdTarget::kTargetName))
                    .ok());
    EXPECT_TRUE(session.store.PutCampaign(campaign).ok());
    auto archive = Archive::Open(&db, path_, options);
    EXPECT_TRUE(archive.ok()) << archive.status().ToString();
    if (!archive.ok()) return 0;
    session.store.AttachArchive(archive.value().get());
    WalSizeMonitor monitor(archive.value().get());
    session.target.SetProgressMonitor(&monitor);
    EXPECT_TRUE(session.target.RunCampaign(campaign.name).ok());
    EXPECT_EQ(monitor.sizes.size(), static_cast<size_t>(campaign.num_experiments));
    uint64_t last_start = monitor.sizes.size() >= 2
                              ? monitor.sizes[monitor.sizes.size() - 2]
                              : 0;
    if (reruns) {
      std::vector<std::string> names = RerunNames(campaign);
      const std::string last = names.back();
      names.pop_back();
      RerunMissing(&session, names);
      last_start = archive.value()->stats().wal_bytes;
      RerunMissing(&session, {last});
    }
    session.store.AttachArchive(nullptr);
    EXPECT_TRUE(archive.value()->Close().ok());
    return last_start;
  }

  /// Recovers the archive at path_ and runs the campaign again (and with
  /// `reruns`, the missing re-runs); returns the resulting dump.
  std::string Resume(const core::CampaignData& campaign, bool reruns,
                     core::FaultInjectionAlgorithms::Stats* stats = nullptr,
                     ArchiveOptions options = {}) {
    Database db;
    auto archive = Archive::Open(&db, path_, options);
    EXPECT_TRUE(archive.ok()) << archive.status().ToString();
    if (!archive.ok()) return "";
    ThorSession session(&db);
    session.store.AttachArchive(archive.value().get());
    EXPECT_TRUE(session.target.RunCampaign(campaign.name).ok());
    if (stats != nullptr) *stats = session.target.stats();
    if (reruns) RerunMissing(&session, RerunNames(campaign));
    std::string dump = Dump(db);
    session.store.AttachArchive(nullptr);
    EXPECT_TRUE(archive.value()->Close().ok());
    return dump;
  }

  /// Tears the WAL at every record boundary from `from` on and checks that
  /// each recovery resumes to `reference`. Returns the boundaries.
  std::vector<uint64_t> SweepBoundaries(const core::CampaignData& campaign,
                                        bool reruns, uint64_t from,
                                        const std::string& reference,
                                        ArchiveOptions options) {
    const std::string wal_path = path_ + ".wal";
    const std::string snapshot = FileBytes(path_);
    const std::string wal = FileBytes(wal_path);
    const std::vector<uint64_t> boundaries = RecordBoundaries(wal, from);
    for (const uint64_t boundary : boundaries) {
      WriteBytes(path_, snapshot);
      WriteBytes(wal_path, wal.substr(0, boundary));
      const testing::AssertionResult same =
          SameDump(Resume(campaign, reruns, nullptr, options), reference);
      if (!same) {
        ADD_FAILURE() << same.message() << "; WAL torn at byte " << boundary
                      << " of " << wal.size();
        break;
      }
    }
    return boundaries;
  }

  std::string path_ = TempPath("runner.db");
};

/// Reference: the same campaign run with no archive at all.
std::string ReferenceDump(const core::CampaignData& campaign, int workers) {
  Database db;
  core::CampaignStore store(&db);
  EXPECT_TRUE(store.PutTargetSystem(core::SwifiSimTarget::Describe()).ok());
  EXPECT_TRUE(store.PutCampaign(campaign).ok());
  core::ParallelCampaignRunner runner(&store, core::MakeSwifiSimFactory(&store),
                                      workers);
  EXPECT_TRUE(runner.Run(campaign.name).ok());
  return Dump(db);
}

TEST_F(ArchiveRunnerTest, ParallelRunRecoversByteIdentical) {
  const core::CampaignData campaign = SmallCampaign();
  const std::string reference = ReferenceDump(campaign, 3);

  // The archived run: every runner batch group-commits the WAL.
  {
    Database db;
    core::CampaignStore store(&db);
    ASSERT_TRUE(store.PutTargetSystem(core::SwifiSimTarget::Describe()).ok());
    ASSERT_TRUE(store.PutCampaign(campaign).ok());
    auto archive = Archive::Open(&db, path_);
    ASSERT_TRUE(archive.ok()) << archive.status().ToString();
    store.AttachArchive(archive.value().get());
    core::ParallelCampaignRunner runner(&store,
                                        core::MakeSwifiSimFactory(&store), 3);
    ASSERT_TRUE(runner.Run(campaign.name).ok());
    EXPECT_EQ(Dump(db), reference);
    EXPECT_GT(archive.value()->stats().wal_commits, 0u);
    store.AttachArchive(nullptr);
    ASSERT_TRUE(archive.value()->Close().ok());
  }

  // Recovery without any rerun: snapshot + WAL alone reproduce the bytes.
  Database recovered;
  auto archive = Archive::Open(&recovered, path_);
  ASSERT_TRUE(archive.ok()) << archive.status().ToString();
  EXPECT_EQ(Dump(recovered), reference);
  ASSERT_TRUE(archive.value()->Close().ok());
}

TEST_F(ArchiveRunnerTest, KilledRunResumesToIdenticalBytes) {
  // More experiments than one 64-row commit batch, so tearing the last WAL
  // record loses only the final batch and the rerun genuinely resumes.
  const core::CampaignData campaign = SmallCampaign(80);
  const std::string reference = ReferenceDump(campaign, 3);

  {
    Database db;
    core::CampaignStore store(&db);
    ASSERT_TRUE(store.PutTargetSystem(core::SwifiSimTarget::Describe()).ok());
    ASSERT_TRUE(store.PutCampaign(campaign).ok());
    auto archive = Archive::Open(&db, path_);
    ASSERT_TRUE(archive.ok());
    store.AttachArchive(archive.value().get());
    core::ParallelCampaignRunner runner(&store,
                                        core::MakeSwifiSimFactory(&store), 3);
    ASSERT_TRUE(runner.Run(campaign.name).ok());
    store.AttachArchive(nullptr);
    ASSERT_TRUE(archive.value()->Close().ok());
  }

  // "Kill" the process mid-append: tear the last WAL record. Recovery drops
  // the final committed batch; rerunning the campaign resumes the completed
  // experiments and re-executes only the lost ones.
  const std::string wal_path = path_ + ".wal";
  const uint64_t wal_size = fs::file_size(wal_path);
  ASSERT_GT(wal_size, 3u);
  fs::resize_file(wal_path, wal_size - 3);

  Database db;
  auto archive = Archive::Open(&db, path_);
  ASSERT_TRUE(archive.ok()) << archive.status().ToString();
  EXPECT_TRUE(archive.value()->stats().recovered_torn_tail);
  core::CampaignStore store(&db);
  store.AttachArchive(archive.value().get());
  core::ParallelCampaignRunner runner(&store, core::MakeSwifiSimFactory(&store),
                                      3);
  ASSERT_TRUE(runner.Run(campaign.name).ok());
  EXPECT_GT(runner.stats().experiments_resumed, 0);
  EXPECT_EQ(Dump(db), reference);
  store.AttachArchive(nullptr);
  ASSERT_TRUE(archive.value()->Close().ok());

  // And the recovered-plus-resumed archive itself reopens byte-identical.
  Database again;
  auto reopened = Archive::Open(&again, path_);
  ASSERT_TRUE(reopened.ok());
  EXPECT_EQ(Dump(again), reference);
  ASSERT_TRUE(reopened.value()->Close().ok());
}

TEST_F(ArchiveRunnerTest, PreparedStatementsSurviveRecovery) {
  const core::CampaignData campaign = SmallCampaign();
  {
    Database db;
    core::CampaignStore store(&db);
    ASSERT_TRUE(store.PutTargetSystem(core::SwifiSimTarget::Describe()).ok());
    ASSERT_TRUE(store.PutCampaign(campaign).ok());
    auto archive = Archive::Open(&db, path_);
    ASSERT_TRUE(archive.ok());
    store.AttachArchive(archive.value().get());
    core::ParallelCampaignRunner runner(&store,
                                        core::MakeSwifiSimFactory(&store), 2);
    ASSERT_TRUE(runner.Run(campaign.name).ok());
    store.AttachArchive(nullptr);
    ASSERT_TRUE(archive.value()->Close().ok());
  }

  Database db;
  core::CampaignStore store(&db);
  // Plan the statement against the pre-recovery (empty-schema) database...
  const std::string sql =
      "SELECT COUNT(*) FROM LoggedSystemState WHERE campaignName = 'arch_swifi'";
  auto before = store.statement_cache().Execute(db, sql);
  ASSERT_TRUE(before.ok()) << before.status().ToString();

  // ...then let recovery replace every table. The cached plan must replan
  // (schema_version moved on), not dereference dead Table pointers.
  auto archive = Archive::Open(&db, path_);
  ASSERT_TRUE(archive.ok());
  auto after = store.statement_cache().Execute(db, sql);
  ASSERT_TRUE(after.ok()) << after.status().ToString();
  ASSERT_EQ(after.value().rows.size(), 1u);
  // 8 experiments + the reference run's row.
  EXPECT_EQ(after.value().rows[0][0].as_int(), 9);
  ASSERT_TRUE(archive.value()->Close().ok());
}

// --- serial drivers: one experiment per WAL group commit ---------------------

TEST_F(ArchiveRunnerTest, KilledSerialDetailRunResumesToIdenticalBytes) {
  const core::CampaignData campaign = ThorDetailCampaign(core::LogMode::kDetail);
  const std::string reference = SerialReferenceDump(campaign, false);
  RunArchived(campaign, false);

  // Kill mid-append: tear the last WAL record. It holds the last
  // experiment's main row and all its detail rows, so recovery drops the
  // whole experiment and the resumed run executes it again.
  const std::string wal_path = path_ + ".wal";
  fs::resize_file(wal_path, fs::file_size(wal_path) - 3);
  core::FaultInjectionAlgorithms::Stats stats;
  EXPECT_TRUE(SameDump(Resume(campaign, false, &stats), reference));
  EXPECT_EQ(stats.experiments_resumed, 2);
  EXPECT_EQ(stats.experiments_run, 1);
}

TEST_F(ArchiveRunnerTest, SerialWalTornAtEveryBoundaryOfLastExperimentResumes) {
  const core::CampaignData campaign = ThorDetailCampaign(core::LogMode::kDetail);
  const std::string reference = SerialReferenceDump(campaign, false);
  // No folds, so every record since the initial snapshot stays in the WAL.
  ArchiveOptions options;
  options.auto_checkpoint = false;
  const uint64_t last_start = RunArchived(campaign, false, options);
  ASSERT_GT(last_start, 0u);
  const std::vector<uint64_t> boundaries =
      SweepBoundaries(campaign, false, last_start, reference, options);
  EXPECT_EQ(boundaries.size(), 2u)
      << "the last experiment must be exactly one WAL record";
}

TEST_F(ArchiveRunnerTest, KilledDetailRerunsResumeToIdenticalBytes) {
  const core::CampaignData campaign = ThorDetailCampaign(core::LogMode::kNormal);
  const std::string reference = SerialReferenceDump(campaign, true);
  RunArchived(campaign, true);
  const std::string wal_path = path_ + ".wal";
  fs::resize_file(wal_path, fs::file_size(wal_path) - 3);
  EXPECT_TRUE(SameDump(Resume(campaign, true), reference));
}

TEST_F(ArchiveRunnerTest, WalTornAtEveryBoundaryOfLastRerunResumes) {
  const core::CampaignData campaign = ThorDetailCampaign(core::LogMode::kNormal);
  const std::string reference = SerialReferenceDump(campaign, true);
  ArchiveOptions options;
  options.auto_checkpoint = false;
  const uint64_t last_start = RunArchived(campaign, true, options);
  const std::vector<uint64_t> boundaries =
      SweepBoundaries(campaign, true, last_start, reference, options);
  EXPECT_EQ(boundaries.size(), 2u)
      << "the last re-run must be exactly one WAL record";
}

}  // namespace
}  // namespace goofi::db
