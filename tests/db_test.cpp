// Unit tests for the embedded database: values, schemas, tables, foreign
// keys and persistence.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <fstream>
#include <iterator>
#include <string>
#include <vector>

#include "db/database.hpp"
#include "db/wal.hpp"

namespace goofi::db {
namespace {

// --- Value -----------------------------------------------------------------

TEST(ValueTest, TypesAndAccessors) {
  EXPECT_EQ(Value::Null().type(), ValueType::kNull);
  EXPECT_TRUE(Value::Null().is_null());
  EXPECT_EQ(Value::Int(5).as_int(), 5);
  EXPECT_DOUBLE_EQ(Value::Real(2.5).as_real(), 2.5);
  EXPECT_EQ(Value::Text("hi").as_text(), "hi");
  EXPECT_EQ(Value::Bool(true).as_int(), 1);
}

TEST(ValueTest, IntPromotesToRealAccessor) {
  EXPECT_DOUBLE_EQ(Value::Int(3).as_real(), 3.0);
}

TEST(ValueTest, Truthiness) {
  EXPECT_FALSE(Value::Null().Truthy());
  EXPECT_FALSE(Value::Int(0).Truthy());
  EXPECT_TRUE(Value::Int(-1).Truthy());
  EXPECT_FALSE(Value::Real(0.0).Truthy());
  EXPECT_TRUE(Value::Real(0.1).Truthy());
  EXPECT_FALSE(Value::Text("").Truthy());
  EXPECT_TRUE(Value::Text("x").Truthy());
}

TEST(ValueTest, CompareWithinTypes) {
  EXPECT_LT(Value::Int(1).Compare(Value::Int(2)), 0);
  EXPECT_EQ(Value::Int(2).Compare(Value::Int(2)), 0);
  EXPECT_GT(Value::Text("b").Compare(Value::Text("a")), 0);
  EXPECT_EQ(Value::Null().Compare(Value::Null()), 0);
}

TEST(ValueTest, CompareMixedNumerics) {
  EXPECT_EQ(Value::Int(2).Compare(Value::Real(2.0)), 0);
  EXPECT_LT(Value::Int(2).Compare(Value::Real(2.5)), 0);
  EXPECT_GT(Value::Real(3.0).Compare(Value::Int(2)), 0);
}

TEST(ValueTest, CrossTypeOrderingNullNumericText) {
  EXPECT_LT(Value::Null().Compare(Value::Int(0)), 0);
  EXPECT_LT(Value::Int(999).Compare(Value::Text("")), 0);
}

// Values are stored through the packed codec (snapshot and WAL) and keyed
// through Serialize (GROUP BY, test dumps); both must keep type and value.
TEST(ValueTest, SerializeRoundTrip) {
  const Value values[] = {Value::Null(), Value::Int(-42), Value::Real(1.5e-3),
                          Value::Text("with spaces & symbols !")};
  const char* const texts[] = {"N", "I-42", "R0.0015",
                               "Twith spaces & symbols !"};
  for (size_t i = 0; i < std::size(values); ++i) {
    const Value& v = values[i];
    EXPECT_EQ(v.Serialize(), texts[i]);
    std::string bytes;
    PackedWriter(&bytes).Val(v);
    PackedReader r(bytes);
    Value back;
    ASSERT_TRUE(r.Val(&back));
    EXPECT_TRUE(r.AtEnd());
    EXPECT_EQ(back.type(), v.type());
    EXPECT_EQ(back.Compare(v), 0);
  }
}

TEST(ValueTest, DeserializeRejectsGarbage) {
  const auto decodes = [](const std::string& bytes) {
    PackedReader r(bytes);
    Value v;
    return r.Val(&v);
  };
  EXPECT_FALSE(decodes(""));                    // no tag
  EXPECT_FALSE(decodes("Zfoo"));                // unknown tag
  EXPECT_FALSE(decodes(std::string(1, '\x01')));  // INT without its varint
  EXPECT_FALSE(decodes("\x02" "1.2"));          // REAL short of 8 bytes
  EXPECT_FALSE(decodes("\x03\x05" "abc"));      // TEXT shorter than its length
}

TEST(ValueTest, HashConsistentWithEquality) {
  EXPECT_EQ(Value::Int(7).Hash(), Value::Int(7).Hash());
  EXPECT_EQ(Value::Text("abc").Hash(), Value::Text("abc").Hash());
}

// --- Schema ---------------------------------------------------------------

Schema MakeUserSchema() {
  return Schema("users",
                {{"id", ValueType::kInt, true},
                 {"name", ValueType::kText, true},
                 {"score", ValueType::kReal, false}},
                {"id"});
}

TEST(SchemaTest, ColumnIndexCaseInsensitive) {
  const Schema schema = MakeUserSchema();
  EXPECT_EQ(schema.ColumnIndex("ID"), 0u);
  EXPECT_EQ(schema.ColumnIndex("Name"), 1u);
  EXPECT_FALSE(schema.ColumnIndex("missing").has_value());
}

TEST(SchemaTest, ValidateCatchesDuplicates) {
  Schema schema("t", {{"a", ValueType::kInt, false}, {"A", ValueType::kText, false}});
  EXPECT_FALSE(schema.Validate().ok());
}

TEST(SchemaTest, ValidateCatchesUnknownPkColumn) {
  Schema schema("t", {{"a", ValueType::kInt, false}}, {"nope"});
  EXPECT_FALSE(schema.Validate().ok());
}

TEST(SchemaTest, CheckRowArityAndTypes) {
  const Schema schema = MakeUserSchema();
  EXPECT_TRUE(schema.CheckRow({Value::Int(1), Value::Text("a"), Value::Real(1.0)}).ok());
  // INT widens into REAL column.
  EXPECT_TRUE(schema.CheckRow({Value::Int(1), Value::Text("a"), Value::Int(3)}).ok());
  // NULL ok for nullable column, rejected for NOT NULL.
  EXPECT_TRUE(schema.CheckRow({Value::Int(1), Value::Text("a"), Value::Null()}).ok());
  EXPECT_FALSE(schema.CheckRow({Value::Null(), Value::Text("a"), Value::Null()}).ok());
  // Wrong arity / wrong type.
  EXPECT_FALSE(schema.CheckRow({Value::Int(1), Value::Text("a")}).ok());
  EXPECT_FALSE(schema.CheckRow({Value::Text("x"), Value::Text("a"), Value::Null()}).ok());
}

// --- Table ------------------------------------------------------------------

TEST(TableTest, InsertAndLookupByPrimaryKey) {
  Table table(MakeUserSchema());
  ASSERT_TRUE(table.Insert({Value::Int(1), Value::Text("ada"), Value::Real(9.5)}).ok());
  ASSERT_TRUE(table.Insert({Value::Int(2), Value::Text("bob"), Value::Null()}).ok());
  EXPECT_EQ(table.size(), 2u);
  const auto slot = table.FindByPrimaryKey({Value::Int(2)});
  ASSERT_TRUE(slot.has_value());
  EXPECT_EQ(table.slots()[*slot][1].as_text(), "bob");
  EXPECT_FALSE(table.FindByPrimaryKey({Value::Int(3)}).has_value());
}

TEST(TableTest, DuplicatePrimaryKeyRejected) {
  Table table(MakeUserSchema());
  ASSERT_TRUE(table.Insert({Value::Int(1), Value::Text("a"), Value::Null()}).ok());
  const auto st = table.Insert({Value::Int(1), Value::Text("b"), Value::Null()});
  EXPECT_EQ(st.code(), util::StatusCode::kConstraintViolation);
  EXPECT_EQ(table.size(), 1u);
}

TEST(TableTest, NullPrimaryKeyRejected) {
  Table table(MakeUserSchema());
  // id is NOT NULL so CheckRow already rejects; use a schema with nullable pk
  Schema schema("t", {{"k", ValueType::kInt, false}}, {"k"});
  Table t2(schema);
  EXPECT_FALSE(t2.Insert({Value::Null()}).ok());
}

TEST(TableTest, DeleteWhereUpdatesIndexAndCount) {
  Table table(MakeUserSchema());
  for (int i = 0; i < 10; ++i) {
    ASSERT_TRUE(
        table.Insert({Value::Int(i), Value::Text("u"), Value::Null()}).ok());
  }
  const size_t deleted =
      table.DeleteWhere([](const Row& row) { return row[0].as_int() % 2 == 0; });
  EXPECT_EQ(deleted, 5u);
  EXPECT_EQ(table.size(), 5u);
  EXPECT_FALSE(table.FindByPrimaryKey({Value::Int(2)}).has_value());
  EXPECT_TRUE(table.FindByPrimaryKey({Value::Int(3)}).has_value());
  // A deleted key can be reinserted.
  EXPECT_TRUE(table.Insert({Value::Int(2), Value::Text("back"), Value::Null()}).ok());
}

TEST(TableTest, UpdateWhereMutatesAndReindexes) {
  Table table(MakeUserSchema());
  ASSERT_TRUE(table.Insert({Value::Int(1), Value::Text("a"), Value::Null()}).ok());
  size_t updated = 0;
  ASSERT_TRUE(table
                  .UpdateWhere([](const Row& row) { return row[0].as_int() == 1; },
                               [](Row& row) { row[0] = Value::Int(99); }, &updated)
                  .ok());
  EXPECT_EQ(updated, 1u);
  EXPECT_FALSE(table.FindByPrimaryKey({Value::Int(1)}).has_value());
  EXPECT_TRUE(table.FindByPrimaryKey({Value::Int(99)}).has_value());
}

TEST(TableTest, UpdateWhereRejectsPkCollision) {
  Table table(MakeUserSchema());
  ASSERT_TRUE(table.Insert({Value::Int(1), Value::Text("a"), Value::Null()}).ok());
  ASSERT_TRUE(table.Insert({Value::Int(2), Value::Text("b"), Value::Null()}).ok());
  size_t updated = 0;
  const auto st =
      table.UpdateWhere([](const Row& row) { return row[0].as_int() == 1; },
                        [](Row& row) { row[0] = Value::Int(2); }, &updated);
  EXPECT_EQ(st.code(), util::StatusCode::kConstraintViolation);
}

TEST(TableTest, ExistsWhere) {
  Table table(MakeUserSchema());
  ASSERT_TRUE(table.Insert({Value::Int(1), Value::Text("a"), Value::Real(5)}).ok());
  EXPECT_TRUE(table.ExistsWhere({1}, {Value::Text("a")}));
  EXPECT_FALSE(table.ExistsWhere({1}, {Value::Text("zz")}));
  // PK fast path.
  EXPECT_TRUE(table.ExistsWhere({0}, {Value::Int(1)}));
}

// --- Database & foreign keys ---------------------------------------------------

class DatabaseFkTest : public ::testing::Test {
 protected:
  void SetUp() override {
    ASSERT_TRUE(db_.CreateTable(Schema("parent",
                                       {{"id", ValueType::kInt, true},
                                        {"label", ValueType::kText, false}},
                                       {"id"}))
                    .ok());
    ASSERT_TRUE(db_.CreateTable(Schema("child",
                                       {{"cid", ValueType::kInt, true},
                                        {"pid", ValueType::kInt, false}},
                                       {"cid"},
                                       {{{"pid"}, "parent", {"id"}}}))
                    .ok());
  }
  Database db_;
};

TEST_F(DatabaseFkTest, InsertRequiresReferencedRow) {
  EXPECT_FALSE(db_.Insert("child", {Value::Int(1), Value::Int(7)}).ok());
  ASSERT_TRUE(db_.Insert("parent", {Value::Int(7), Value::Text("p")}).ok());
  EXPECT_TRUE(db_.Insert("child", {Value::Int(1), Value::Int(7)}).ok());
}

TEST_F(DatabaseFkTest, NullForeignKeyIsAllowed) {
  EXPECT_TRUE(db_.Insert("child", {Value::Int(1), Value::Null()}).ok());
}

TEST_F(DatabaseFkTest, DeleteRestrictedWhileReferenced) {
  ASSERT_TRUE(db_.Insert("parent", {Value::Int(7), Value::Text("p")}).ok());
  ASSERT_TRUE(db_.Insert("child", {Value::Int(1), Value::Int(7)}).ok());
  const auto st =
      db_.Delete("parent", [](const Row& row) { return row[0].as_int() == 7; });
  EXPECT_EQ(st.code(), util::StatusCode::kConstraintViolation);
  // After removing the child, the delete goes through.
  ASSERT_TRUE(db_.Delete("child", [](const Row&) { return true; }).ok());
  EXPECT_TRUE(
      db_.Delete("parent", [](const Row& row) { return row[0].as_int() == 7; }).ok());
}

TEST_F(DatabaseFkTest, DropTableRestrictedWhileReferenced) {
  EXPECT_FALSE(db_.DropTable("parent").ok());
  EXPECT_TRUE(db_.DropTable("child").ok());
  EXPECT_TRUE(db_.DropTable("parent").ok());
}

TEST_F(DatabaseFkTest, CreateTableRejectsUnknownFkTarget) {
  EXPECT_FALSE(db_.CreateTable(Schema("bad", {{"x", ValueType::kInt, false}}, {},
                                      {{{"x"}, "nope", {"y"}}}))
                   .ok());
  EXPECT_FALSE(db_.CreateTable(Schema("bad", {{"x", ValueType::kInt, false}}, {},
                                      {{{"x"}, "parent", {"nope"}}}))
                   .ok());
}

TEST_F(DatabaseFkTest, SelfReferencingForeignKey) {
  ASSERT_TRUE(db_.CreateTable(Schema("tree",
                                     {{"id", ValueType::kInt, true},
                                      {"up", ValueType::kInt, false}},
                                     {"id"}, {{{"up"}, "tree", {"id"}}}))
                  .ok());
  EXPECT_TRUE(db_.Insert("tree", {Value::Int(1), Value::Null()}).ok());
  EXPECT_TRUE(db_.Insert("tree", {Value::Int(2), Value::Int(1)}).ok());
  EXPECT_FALSE(db_.Insert("tree", {Value::Int(3), Value::Int(99)}).ok());
}

TEST(DatabaseTest, TableNamesCaseInsensitive) {
  Database db;
  ASSERT_TRUE(db.CreateTable(Schema("MyTable", {{"a", ValueType::kInt, false}})).ok());
  EXPECT_TRUE(db.HasTable("mytable"));
  EXPECT_NE(db.GetTable("MYTABLE"), nullptr);
  EXPECT_FALSE(db.CreateTable(Schema("mytable", {{"a", ValueType::kInt, false}})).ok());
}

// --- insert path: secondary indexes and all-or-nothing batches ------------------

/// Every live row of every table in slot order, with each table's live count.
std::string DumpRows(const Database& db) {
  std::string out;
  for (const std::string& name : db.TableNames()) {
    const Table& table = *db.GetTable(name);
    out += name;
    out += ' ';
    out += std::to_string(table.size());
    out += '\n';
    table.ForEach([&out](const Row& row) {
      for (const Value& v : row) {
        out += v.Serialize();
        out += '|';
      }
      out += '\n';
    });
  }
  return out;
}

testing::AssertionResult IndexesValid(const Database& db) {
  for (const std::string& name : db.TableNames()) {
    std::string error;
    if (!db.GetTable(name)->ValidateIndexes(&error)) {
      return testing::AssertionFailure() << error;
    }
  }
  return testing::AssertionSuccess();
}

TEST(KeyViewTest, HashesAndComparesLikeTheKeyRow) {
  const Row row = {Value::Int(4), Value::Text("x"), Value::Null(),
                   Value::Real(2.5)};
  const std::vector<size_t> columns = {3, 1, 2};
  const KeyView view{row, columns};
  const Row key = view.ToRow();
  EXPECT_EQ(key, (Row{Value::Real(2.5), Value::Text("x"), Value::Null()}));
  EXPECT_EQ(KeyHash{}(view), KeyHash{}(key));
  EXPECT_TRUE(KeyEq{}(view, key));
  EXPECT_TRUE(KeyEq{}(key, view));
  EXPECT_FALSE(KeyEq{}(view, Row{Value::Real(2.5), Value::Text("x")}));
  EXPECT_FALSE(
      KeyEq{}(view, Row{Value::Real(2.5), Value::Text("y"), Value::Null()}));
}

TEST(IndexInsertTest, HashIndexesTakeNewAndExistingKeys) {
  Table table(Schema("t",
                     {{"k", ValueType::kInt, true},
                      {"a", ValueType::kInt, false},
                      {"b", ValueType::kText, false}},
                     {"k"}));
  ASSERT_TRUE(table.CreateIndex("ia", {"a"}, IndexKind::kHash).ok());
  ASSERT_TRUE(table.CreateIndex("iba", {"b", "a"}, IndexKind::kHash).ok());
  const Value a_values[] = {Value::Int(1), Value::Int(2), Value::Int(1),
                            Value::Null(), Value::Int(3), Value::Int(1),
                            Value::Null(), Value::Int(2)};
  int k = 0;
  for (const Value& a : a_values) {
    ASSERT_TRUE(
        table.Insert({Value::Int(k), a, Value::Text(k % 2 == 0 ? "even" : "odd")})
            .ok());
    ++k;
    std::string error;
    ASSERT_TRUE(table.ValidateIndexes(&error)) << "after row " << k << ": " << error;
  }
  // A rejected duplicate leaves the indexes alone.
  EXPECT_FALSE(table.Insert({Value::Int(0), Value::Int(9), Value::Null()}).ok());
  std::string error;
  EXPECT_TRUE(table.ValidateIndexes(&error)) << error;
  const SecondaryIndex& ia = *table.FindIndex("ia");
  const SecondaryIndex& iba = *table.FindIndex("iba");
  EXPECT_EQ(table.IndexEqualSlots(ia, {Value::Int(1)}),
            (std::vector<size_t>{0, 2, 5}));
  EXPECT_EQ(table.IndexEqualSlots(ia, {Value::Null()}),
            (std::vector<size_t>{3, 6}));
  EXPECT_EQ(table.IndexEqualSlots(ia, {Value::Int(9)}), std::vector<size_t>{});
  EXPECT_EQ(table.IndexEqualSlots(iba, {Value::Text("even"), Value::Int(1)}),
            (std::vector<size_t>{0, 2}));
  EXPECT_EQ(table.IndexEqualSlots(iba, {Value::Text("odd"), Value::Int(1)}),
            (std::vector<size_t>{5}));
  EXPECT_TRUE(table.ExistsWhere({2, 1}, {Value::Text("odd"), Value::Null()}));
  EXPECT_FALSE(table.ExistsWhere({2, 1}, {Value::Text("odd"), Value::Int(3)}));
}

TEST(IndexInsertTest, SortedIndexTakesIncreasingDecreasingAndRepeatedKeys) {
  struct Order {
    const char* name;
    std::vector<int> keys;
  };
  const Order orders[] = {
      {"increasing", {1, 2, 3, 5, 8, 13, 21}},
      {"decreasing", {21, 13, 8, 5, 3, 2, 1}},
      {"repeated", {4, 4, 2, 4, 2, 9, 4, 9}},
  };
  for (const Order& order : orders) {
    Table table(Schema("t",
                       {{"k", ValueType::kInt, true}, {"v", ValueType::kInt, false}},
                       {"k"}));
    ASSERT_TRUE(table.CreateIndex("iv", {"v"}, IndexKind::kSorted).ok());
    for (size_t i = 0; i < order.keys.size(); ++i) {
      ASSERT_TRUE(table
                      .Insert({Value::Int(static_cast<int64_t>(i)),
                               Value::Int(order.keys[i])})
                      .ok());
      std::string error;
      ASSERT_TRUE(table.ValidateIndexes(&error))
          << order.name << " after row " << i << ": " << error;
    }
    // Re-keying the first row puts its slot at the front of a posting list
    // that already holds later slots.
    size_t updated = 0;
    ASSERT_TRUE(table
                    .UpdateWhere([](const Row& r) { return r[0].as_int() == 0; },
                                 [&order](Row& r) {
                                   r[1] = Value::Int(order.keys.back());
                                 },
                                 &updated)
                    .ok());
    ASSERT_EQ(updated, 1u);
    std::string error;
    EXPECT_TRUE(table.ValidateIndexes(&error)) << order.name << ": " << error;
    const std::vector<size_t> slots = table.IndexEqualSlots(
        *table.FindIndex("iv"), {Value::Int(order.keys.back())});
    ASSERT_FALSE(slots.empty()) << order.name;
    EXPECT_EQ(slots.front(), 0u) << order.name;
    EXPECT_TRUE(std::is_sorted(slots.begin(), slots.end())) << order.name;
  }
}

/// parent <- child (hash, sorted and two-column hash indexes) <- grand, whose
/// two-column foreign key references child (pid, tag).
class InsertBatchRollbackTest : public ::testing::Test {
 protected:
  void SetUp() override {
    ASSERT_TRUE(db_.CreateTable(Schema("parent",
                                       {{"id", ValueType::kInt, true},
                                        {"label", ValueType::kText, false}},
                                       {"id"}))
                    .ok());
    ASSERT_TRUE(db_.CreateTable(Schema("child",
                                       {{"cid", ValueType::kInt, true},
                                        {"pid", ValueType::kInt, false},
                                        {"tag", ValueType::kText, false}},
                                       {"cid"}, {{{"pid"}, "parent", {"id"}}}))
                    .ok());
    ASSERT_TRUE(db_.CreateTable(Schema("grand",
                                       {{"gid", ValueType::kInt, true},
                                        {"pid", ValueType::kInt, false},
                                        {"tag", ValueType::kText, false}},
                                       {"gid"},
                                       {{{"pid", "tag"}, "child", {"pid", "tag"}}}))
                    .ok());
    ASSERT_TRUE(db_.CreateIndex("child", "idx_pid", {"pid"}, IndexKind::kHash).ok());
    ASSERT_TRUE(
        db_.CreateIndex("child", "idx_tag", {"tag"}, IndexKind::kSorted).ok());
    ASSERT_TRUE(db_.CreateIndex("child", "idx_pid_tag", {"pid", "tag"},
                                IndexKind::kHash)
                    .ok());
    for (int id = 1; id <= 3; ++id) {
      ASSERT_TRUE(
          db_.Insert("parent", {Value::Int(id), Value::Text("p")}).ok());
    }
    std::vector<Row> children;
    for (int cid = 1; cid <= 5; ++cid) {
      children.push_back({Value::Int(cid), Value::Int(1 + cid % 3),
                          Value::Text("t" + std::to_string(cid % 2))});
    }
    ASSERT_TRUE(db_.InsertBatch("child", std::move(children)).ok());
    ASSERT_TRUE(db_.InsertBatch("grand", {{Value::Int(1), Value::Int(2),
                                           Value::Text("t1")}})
                    .ok());
  }

  Database db_;
};

TEST_F(InsertBatchRollbackTest, FailedBatchLeavesRowsAndIndexesAsTheyWere) {
  enum class Fault { kForeignKey, kDuplicateOfStored, kDuplicateInBatch };
  constexpr size_t kBatch = 5;
  for (const Fault fault :
       {Fault::kForeignKey, Fault::kDuplicateOfStored, Fault::kDuplicateInBatch}) {
    for (const size_t at : {size_t{0}, kBatch / 2, kBatch - 1}) {
      // A duplicate within the batch needs an earlier row to repeat.
      const size_t bad = fault == Fault::kDuplicateInBatch && at == 0 ? 1 : at;
      std::vector<Row> batch;
      for (size_t i = 0; i < kBatch; ++i) {
        batch.push_back({Value::Int(100 + static_cast<int64_t>(i)),
                         i % 2 == 0 ? Value::Null() : Value::Int(1 + i % 3),
                         Value::Text("new")});
      }
      const std::vector<Row> good = batch;
      switch (fault) {
        case Fault::kForeignKey:
          batch[bad][1] = Value::Int(99);
          break;
        case Fault::kDuplicateOfStored:
          batch[bad][0] = Value::Int(3);
          break;
        case Fault::kDuplicateInBatch:
          batch[bad][0] = batch[bad - 1][0];
          break;
      }
      const std::string context = "fault " + std::to_string(static_cast<int>(fault)) +
                                  " at row " + std::to_string(bad);
      const std::string before = DumpRows(db_);
      const util::Status st = db_.InsertBatch("child", batch);
      EXPECT_EQ(st.code(), util::StatusCode::kConstraintViolation) << context;
      EXPECT_EQ(DumpRows(db_), before) << context;
      EXPECT_TRUE(IndexesValid(db_)) << context;
      const Table& child = *db_.GetTable("child");
      for (const Row& row : good) {
        EXPECT_FALSE(child.FindByPrimaryKey({row[0]}).has_value()) << context;
      }
      EXPECT_TRUE(child.FindByPrimaryKey({Value::Int(3)}).has_value()) << context;
      // Nothing of the failed batch lingers: the intact batch goes in, and
      // comes out again for the next case.
      ASSERT_TRUE(db_.InsertBatch("child", good).ok()) << context;
      EXPECT_TRUE(IndexesValid(db_)) << context;
      ASSERT_TRUE(db_.Delete("child", [](const Row& r) {
                       return r[0].as_int() >= 100;
                     }).ok());
      EXPECT_EQ(DumpRows(db_), before) << context;
    }
  }
}

TEST_F(InsertBatchRollbackTest, MultiColumnForeignKeysAreCheckedInPlace) {
  // (1, t1) is a (pid, tag) of child; (1, t0) is not. The batch memo must
  // not let a verified key pass for another one.
  const std::string before = DumpRows(db_);
  EXPECT_FALSE(db_.InsertBatch("grand", {{Value::Int(10), Value::Int(1),
                                          Value::Text("t1")},
                                         {Value::Int(11), Value::Int(1),
                                          Value::Text("t1")},
                                         {Value::Int(12), Value::Int(1),
                                          Value::Text("t0")}})
                   .ok());
  EXPECT_EQ(DumpRows(db_), before);
  EXPECT_TRUE(IndexesValid(db_));
  EXPECT_TRUE(db_.InsertBatch("grand", {{Value::Int(10), Value::Int(2),
                                         Value::Text("t1")},
                                        {Value::Int(11), Value::Null(),
                                         Value::Text("t9")},
                                        {Value::Int(12), Value::Int(3),
                                         Value::Text("t0")}})
                  .ok());
  EXPECT_EQ(db_.GetTable("grand")->size(), 4u);
}

// --- amortized Table::Reserve ----------------------------------------------------

Schema KeyValueSchema() {
  return Schema("t", {{"k", ValueType::kInt, true}, {"v", ValueType::kText, false}},
                {"k"});
}

/// Feeds `rows` one-row batches through `insert` and counts how often the
/// table's slot capacity changes on the way.
template <typename InsertOne>
int CapacityChanges(const Table& table, int rows, InsertOne insert) {
  int changes = 0;
  size_t capacity = table.slots().capacity();
  for (int i = 0; i < rows; ++i) {
    insert(i);
    if (table.slots().capacity() != capacity) {
      ++changes;
      capacity = table.slots().capacity();
    }
  }
  return changes;
}

// Geometric growth from one slot reaches 4096 in 13 steps; an exact reserve
// per batch would change the capacity on every one of the 4096 batches.
constexpr int kOneRowBatches = 4096;
constexpr int kMaxCapacityChanges = 2 * 13;

TEST(TableReserveTest, OneRowInsertBatchesGrowCapacityGeometrically) {
  Database db;
  ASSERT_TRUE(db.CreateTable(KeyValueSchema()).ok());
  const Table& table = *db.GetTable("t");
  const int changes = CapacityChanges(table, kOneRowBatches, [&db](int i) {
    ASSERT_TRUE(db.InsertBatch("t", {{Value::Int(i), Value::Text("row")}}).ok());
  });
  EXPECT_EQ(table.size(), static_cast<size_t>(kOneRowBatches));
  EXPECT_LE(changes, kMaxCapacityChanges);
}

TEST(TableReserveTest, OneRowBatchReplayGrowsCapacityGeometrically) {
  Database db;
  ASSERT_TRUE(db.CreateTable(KeyValueSchema()).ok());
  const Table& table = *db.GetTable("t");
  const int changes = CapacityChanges(table, kOneRowBatches, [&db](int i) {
    std::string body;
    PackedWriter w(&body);
    w.Str("t");
    w.Varint(1);
    w.RowData({Value::Int(i), Value::Text("row")});
    PackedReader r(body);
    ASSERT_TRUE(ApplyWalRecord(&db, WalOp::kInsertBatch, &r).ok());
  });
  EXPECT_EQ(table.size(), static_cast<size_t>(kOneRowBatches));
  EXPECT_LE(changes, kMaxCapacityChanges);
}

// --- persistence ----------------------------------------------------------------

class PersistenceTest : public ::testing::Test {
 protected:
  void SetUp() override {
    path_ = testing::TempDir() + "goofi_db_test.db";
  }
  void TearDown() override { std::remove(path_.c_str()); }
  std::string path_;
};

TEST_F(PersistenceTest, SaveLoadRoundTrip) {
  Database db;
  ASSERT_TRUE(db.CreateTable(Schema("parent",
                                    {{"id", ValueType::kInt, true},
                                     {"label", ValueType::kText, false}},
                                    {"id"}))
                  .ok());
  ASSERT_TRUE(db.CreateTable(Schema("child",
                                    {{"cid", ValueType::kInt, true},
                                     {"pid", ValueType::kInt, false},
                                     {"note", ValueType::kText, false}},
                                    {"cid"}, {{{"pid"}, "parent", {"id"}}}))
                  .ok());
  ASSERT_TRUE(db.Insert("parent", {Value::Int(1), Value::Text("tab\tnewline\nback\\slash")}).ok());
  ASSERT_TRUE(db.Insert("child", {Value::Int(10), Value::Int(1), Value::Null()}).ok());
  ASSERT_TRUE(db.Save(path_).ok());

  Database loaded;
  ASSERT_TRUE(loaded.Load(path_).ok());
  ASSERT_TRUE(loaded.HasTable("parent"));
  ASSERT_TRUE(loaded.HasTable("child"));
  const Table* parent = loaded.GetTable("parent");
  EXPECT_EQ(parent->size(), 1u);
  const auto slot = parent->FindByPrimaryKey({Value::Int(1)});
  ASSERT_TRUE(slot.has_value());
  EXPECT_EQ(parent->slots()[*slot][1].as_text(), "tab\tnewline\nback\\slash");
  // FK metadata survived: inserting an orphan child still fails.
  EXPECT_FALSE(loaded.Insert("child", {Value::Int(11), Value::Int(99), Value::Null()}).ok());
}

TEST_F(PersistenceTest, LoadRejectsCorruptFile) {
  Database db;
  ASSERT_TRUE(db.CreateTable(Schema("t", {{"a", ValueType::kInt, false}})).ok());
  ASSERT_TRUE(db.Insert("t", {Value::Int(1)}).ok());
  ASSERT_TRUE(db.Save(path_).ok());

  // Flip a byte in the body; the CRC trailer must catch it.
  std::string content;
  {
    std::ifstream in(path_, std::ios::binary);
    content.assign(std::istreambuf_iterator<char>(in), {});
  }
  ASSERT_GT(content.size(), 8u);
  content[content.size() / 2] ^= 0xFF;
  {
    std::ofstream out(path_, std::ios::binary | std::ios::trunc);
    out << content;
  }
  Database loaded;
  const auto st = loaded.Load(path_);
  EXPECT_FALSE(st.ok());
}

TEST_F(PersistenceTest, LoadMissingFileFails) {
  Database loaded;
  EXPECT_EQ(loaded.Load("/nonexistent/dir/x.db").code(),
            util::StatusCode::kIoError);
}

}  // namespace
}  // namespace goofi::db
