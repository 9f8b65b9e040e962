// Differential tests of the indexed query engine: every query must produce
// byte-identical results with indexes on (`ExecOptions::use_indexes = true`,
// the default) and off (forced full scans / nested loops). Randomized
// generation covers NULL three-valued logic, joins, GROUP BY and ORDER BY;
// incremental index maintenance is validated against a from-scratch rebuild
// after every mutation. Also covers the executor's choice among several
// probes as posting lists shift, prepared statements, the statement cache,
// CREATE/DROP INDEX SQL and `explain` plan text.
#include <gtest/gtest.h>

#include <cstdio>
#include <optional>
#include <set>
#include <string>
#include <vector>

#include "db/database.hpp"
#include "db/prepared.hpp"
#include "db/sql_executor.hpp"
#include "util/rng.hpp"
#include "util/strings.hpp"

namespace goofi::db {
namespace {

/// Serializes a result set (schema + every value) for byte-identity checks.
std::string Fingerprint(const QueryResult& result) {
  std::string fp = util::Join(result.columns, ",") + "\n";
  for (const Row& row : result.rows) {
    for (const Value& v : row) {
      fp += v.Serialize();
      fp += "|";
    }
    fp += "\n";
  }
  fp += "affected=" + std::to_string(result.affected);
  return fp;
}

/// Runs `sql` with indexes on and off and expects byte-identical outcomes
/// (same error, or same fingerprint). Returns the indexed result.
util::Result<QueryResult> ExpectSame(Database& db, const std::string& sql) {
  ExecOptions scan;
  scan.use_indexes = false;
  auto indexed = ExecuteSql(db, sql);
  auto scanned = ExecuteSql(db, sql, scan);
  EXPECT_EQ(indexed.ok(), scanned.ok()) << sql;
  if (indexed.ok() && scanned.ok()) {
    EXPECT_EQ(Fingerprint(indexed.value()), Fingerprint(scanned.value())) << sql;
  } else if (!indexed.ok() && !scanned.ok()) {
    EXPECT_EQ(indexed.status().ToString(), scanned.status().ToString()) << sql;
  }
  return indexed;
}

void ExpectValidIndexes(const Database& db, const std::string& table) {
  std::string error;
  ASSERT_TRUE(db.GetTable(table)->ValidateIndexes(&error)) << error;
}

/// t(id INT PK, label TEXT ~10% NULL, score REAL ~10% NULL) with a sorted
/// index on label and a composite hash index on (label, score).
void Populate(Database* db, util::Rng* rng, int n) {
  ASSERT_TRUE(db->CreateTable(Schema("t",
                                     {{"id", ValueType::kInt, true},
                                      {"label", ValueType::kText, false},
                                      {"score", ValueType::kReal, false}},
                                     {"id"}))
                  .ok());
  ASSERT_TRUE(ExecuteSql(*db, "CREATE INDEX idx_label ON t (label)").ok());
  ASSERT_TRUE(
      ExecuteSql(*db, "CREATE INDEX idx_label_score ON t (label, score)").ok());
  std::set<int64_t> used;
  while (static_cast<int>(used.size()) < n) {
    const int64_t id = static_cast<int64_t>(rng->NextBelow(100000));
    if (!used.insert(id).second) continue;
    Row row = {Value::Int(id),
               rng->NextBool(0.1)
                   ? Value::Null()
                   : Value::Text("x" + std::to_string(rng->NextBelow(20))),
               rng->NextBool(0.1)
                   ? Value::Null()
                   : Value::Real(static_cast<double>(rng->NextBelow(1000)) / 4)};
    ASSERT_TRUE(db->Insert("t", std::move(row)).ok());
  }
}

/// A random type-safe predicate over t's columns. Comparisons keep each
/// column with literals of its own type, so indexed and scan paths cannot
/// diverge through evaluation errors (that divergence is documented in
/// DESIGN.md; it is not under test here).
std::string RandomPredicate(util::Rng* rng) {
  auto conjunct = [rng]() -> std::string {
    static const char* const kOps[] = {"=", "!=", "<", "<=", ">", ">="};
    switch (rng->NextBelow(6)) {
      case 0:
        return util::Format("id %s %d", kOps[rng->NextBelow(6)],
                            static_cast<int>(rng->NextBelow(100000)));
      case 1:
        return util::Format("label %s 'x%d'", kOps[rng->NextBelow(6)],
                            static_cast<int>(rng->NextBelow(20)));
      case 2:
        return util::Format("score %s %d.25", kOps[rng->NextBelow(6)],
                            static_cast<int>(rng->NextBelow(250)));
      case 3:
        return rng->NextBool() ? "label IS NULL" : "label IS NOT NULL";
      case 4:
        return rng->NextBool() ? "score IS NULL" : "score IS NOT NULL";
      default:
        // Range pair on one column: the sorted-index path with both bounds.
        return util::Format("label >= 'x%d' AND label < 'x%d'",
                            static_cast<int>(rng->NextBelow(20)),
                            static_cast<int>(rng->NextBelow(20)));
    }
  };
  std::string predicate = conjunct();
  const size_t extra = rng->NextBelow(3);
  for (size_t i = 0; i < extra; ++i) {
    predicate += rng->NextBool(0.8) ? " AND " : " OR ";
    predicate += conjunct();
  }
  return predicate;
}

std::string RandomQuery(util::Rng* rng) {
  std::string sql;
  if (rng->NextBool(0.3)) {
    sql = "SELECT label, COUNT(*), SUM(id), MIN(score) FROM t";
    if (rng->NextBool(0.8)) sql += " WHERE " + RandomPredicate(rng);
    sql += " GROUP BY label ORDER BY label";
  } else {
    sql = rng->NextBool() ? "SELECT * FROM t" : "SELECT id, score FROM t";
    if (rng->NextBool(0.8)) sql += " WHERE " + RandomPredicate(rng);
    if (rng->NextBool()) {
      sql += rng->NextBool() ? " ORDER BY id" : " ORDER BY score DESC, id";
    }
    if (rng->NextBool(0.3)) {
      sql += util::Format(" LIMIT %d", 1 + static_cast<int>(rng->NextBelow(40)));
    }
  }
  return sql;
}

TEST(SqlIndexTest, RandomQueriesMatchScanByteForByte) {
  util::Rng rng(4242);
  for (int trial = 0; trial < 8; ++trial) {
    Database db;
    Populate(&db, &rng, 120 + static_cast<int>(rng.NextBelow(200)));
    for (int q = 0; q < 60; ++q) {
      ExpectSame(db, RandomQuery(&rng));
    }
  }
}

TEST(SqlIndexTest, QueriesMatchAcrossRandomMutations) {
  util::Rng rng(911);
  Database db;
  Populate(&db, &rng, 250);
  for (int round = 0; round < 25; ++round) {
    // One random mutation (executed once — mutations are not idempotent, so
    // only SELECTs go through the run-both-ways differential helper)...
    switch (rng.NextBelow(3)) {
      case 0:
        ASSERT_TRUE(ExecuteSql(db, util::Format("DELETE FROM t WHERE %s",
                                                RandomPredicate(&rng).c_str()))
                        .ok());
        break;
      case 1:
        ASSERT_TRUE(
            ExecuteSql(db, util::Format("UPDATE t SET label = 'x%d', "
                                        "score = %d.25 WHERE %s",
                                        static_cast<int>(rng.NextBelow(20)),
                                        static_cast<int>(rng.NextBelow(250)),
                                        RandomPredicate(&rng).c_str()))
                .ok());
        break;
      default:
        // May collide with an existing PK; the table must be unchanged then.
        ExecuteSql(db, util::Format("INSERT INTO t VALUES (%d, 'x%d', %d.25)",
                                    static_cast<int>(rng.NextBelow(100000)),
                                    static_cast<int>(rng.NextBelow(20)),
                                    static_cast<int>(rng.NextBelow(250))));
        break;
    }
    // ... then the incremental index state must equal a full rebuild and
    // queries must stay byte-identical.
    ExpectValidIndexes(db, "t");
    for (int q = 0; q < 10; ++q) {
      ExpectSame(db, RandomQuery(&rng));
    }
  }
}

TEST(SqlIndexTest, NullSemanticsAgreeBetweenPaths) {
  util::Rng rng(77);
  Database db;
  Populate(&db, &rng, 200);
  // Equality with NULL never matches (three-valued logic), even though the
  // index stores NULL keys; IS NULL is the only way to probe them.
  auto eq_null = ExpectSame(db, "SELECT COUNT(*) FROM t WHERE label = NULL");
  EXPECT_EQ(eq_null.ValueOrDie().rows[0][0].as_int(), 0);
  auto is_null =
      ExpectSame(db, "SELECT id FROM t WHERE label IS NULL ORDER BY id");
  EXPECT_GT(is_null.ValueOrDie().rows.size(), 0u);
  // Range probes exclude NULL keys: `label < 'z'` is NULL (not true) for
  // NULL labels, so IS NULL + range must partition the non-null rows.
  auto below = ExpectSame(db, "SELECT COUNT(*) FROM t WHERE label < 'z'");
  auto total = ExpectSame(db, "SELECT COUNT(*) FROM t");
  EXPECT_EQ(is_null.ValueOrDie().rows.size() +
                static_cast<size_t>(below.ValueOrDie().rows[0][0].as_int()),
            static_cast<size_t>(total.ValueOrDie().rows[0][0].as_int()));
  // NULL bounds make ranges empty; GROUP BY groups NULLs together; ORDER BY
  // sorts NULL first — all byte-checked against the scan path.
  ExpectSame(db, "SELECT COUNT(*) FROM t WHERE label > NULL");
  ExpectSame(db, "SELECT label, COUNT(*) FROM t GROUP BY label ORDER BY label");
  ExpectSame(db, "SELECT label FROM t ORDER BY label, id");
}

TEST(SqlIndexTest, JoinMatchesNestedLoop) {
  util::Rng rng(31337);
  Database db;
  ASSERT_TRUE(db.CreateTable(Schema("campaign",
                                    {{"name", ValueType::kText, true},
                                     {"target", ValueType::kText, true}},
                                    {"name"}))
                  .ok());
  ASSERT_TRUE(db.CreateTable(Schema("state",
                                    {{"experiment", ValueType::kText, true},
                                     {"campaign", ValueType::kText, false},
                                     {"outcome", ValueType::kText, false}},
                                    {"experiment"}))
                  .ok());
  ASSERT_TRUE(ExecuteSql(db, "CREATE INDEX idx_state_campaign ON state (campaign)").ok());
  for (int c = 0; c < 12; ++c) {
    ASSERT_TRUE(ExecuteSql(db, util::Format(
        "INSERT INTO campaign VALUES ('c%d', 't%d')", c, c % 3)).ok());
  }
  static const char* const kOutcomes[] = {"ok", "wrong", "latent"};
  for (int e = 0; e < 400; ++e) {
    // ~5% of rows reference no campaign (NULL join key: never matches).
    if (rng.NextBool(0.05)) {
      ASSERT_TRUE(ExecuteSql(db, util::Format(
          "INSERT INTO state VALUES ('e%04d', NULL, '%s')", e,
          kOutcomes[rng.NextBelow(3)])).ok());
    } else {
      ASSERT_TRUE(ExecuteSql(db, util::Format(
          "INSERT INTO state VALUES ('e%04d', 'c%d', '%s')", e,
          static_cast<int>(rng.NextBelow(12)), kOutcomes[rng.NextBelow(3)])).ok());
    }
  }
  // Index-nested-loop join on the secondary index (state.campaign) ...
  ExpectSame(db,
             "SELECT campaign.name, COUNT(*) FROM campaign "
             "JOIN state ON state.campaign = campaign.name "
             "GROUP BY campaign.name ORDER BY campaign.name");
  // ... and on the right table's primary key, plus residual ON conjuncts.
  ExpectSame(db,
             "SELECT state.experiment, campaign.target FROM state "
             "JOIN campaign ON campaign.name = state.campaign "
             "WHERE state.outcome = 'wrong' ORDER BY state.experiment");
  ExpectSame(db,
             "SELECT state.experiment FROM state "
             "JOIN campaign ON campaign.name = state.campaign "
             "AND campaign.target = 't1' ORDER BY state.experiment");
}

TEST(SqlIndexTest, CreateAndDropIndexSql) {
  Database db;
  ASSERT_TRUE(db.CreateTable(Schema("t", {{"a", ValueType::kInt, true},
                                          {"b", ValueType::kText, false}},
                                    {"a"}))
                  .ok());
  ASSERT_TRUE(ExecuteSql(db, "INSERT INTO t VALUES (1, 'x')").ok());
  ASSERT_TRUE(ExecuteSql(db, "CREATE INDEX i1 ON t (b)").ok());
  ASSERT_TRUE(ExecuteSql(db, "CREATE INDEX i2 ON t (a, b)").ok());
  const Table* table = db.GetTable("t");
  ASSERT_NE(table->FindIndex("i1"), nullptr);
  EXPECT_EQ(table->FindIndex("i1")->kind, IndexKind::kSorted);
  EXPECT_EQ(table->FindIndex("i2")->kind, IndexKind::kHash);
  // Duplicate names, unknown columns and unknown tables are errors.
  EXPECT_FALSE(ExecuteSql(db, "CREATE INDEX i1 ON t (a)").ok());
  EXPECT_FALSE(ExecuteSql(db, "CREATE INDEX i3 ON t (nope)").ok());
  EXPECT_FALSE(ExecuteSql(db, "CREATE INDEX i3 ON missing (a)").ok());
  ASSERT_TRUE(ExecuteSql(db, "DROP INDEX i1 ON t").ok());
  EXPECT_EQ(table->FindIndex("i1"), nullptr);
  EXPECT_FALSE(ExecuteSql(db, "DROP INDEX i1 ON t").ok());
  ExpectValidIndexes(db, "t");
}

TEST(SqlIndexTest, PreparedStatementsBindParams) {
  util::Rng rng(55);
  Database db;
  Populate(&db, &rng, 150);
  auto prepared =
      PreparedStatement::Prepare("SELECT id FROM t WHERE label = ? ORDER BY id");
  ASSERT_TRUE(prepared.ok());
  EXPECT_EQ(prepared.value()->params_expected(), 1u);
  // Wrong arity is rejected.
  EXPECT_FALSE(prepared.value()->Execute(db, {}).ok());
  // Bound execution matches the literal query, for several bindings.
  for (int k = 0; k < 20; ++k) {
    const std::string label = "x" + std::to_string(k);
    auto bound = prepared.value()->Execute(db, {Value::Text(label)});
    ASSERT_TRUE(bound.ok());
    auto literal = ExecuteSql(
        db, "SELECT id FROM t WHERE label = '" + label + "' ORDER BY id");
    ASSERT_TRUE(literal.ok());
    EXPECT_EQ(Fingerprint(bound.value()), Fingerprint(literal.value()));
  }
  // NULL param: `label = NULL` matches nothing.
  auto null_bound = prepared.value()->Execute(db, {Value::Null()});
  ASSERT_TRUE(null_bound.ok());
  EXPECT_TRUE(null_bound.value().rows.empty());
  // The plan was built once and reused across all executions above.
  EXPECT_EQ(prepared.value()->plans_built(), 1u);
}

TEST(SqlIndexTest, ForEachMatchVisitsTheStoredRowsExecuteReturns) {
  // ForEachMatch runs Execute's gather-and-WHERE stage and hands out the
  // stored rows themselves, whatever the select list: for random
  // predicates they are SELECT *'s rows, in its order.
  util::Rng rng(77);
  Database db;
  Populate(&db, &rng, 300);
  const auto text_of = [](const std::vector<Row>& rows) {
    std::string text;
    for (const Row& row : rows) {
      for (const Value& v : row) text += v.Serialize() + "|";
      text += "\n";
    }
    return text;
  };
  const auto visit = [](PreparedStatement& statement, const Database& database,
                        const std::vector<Value>& params,
                        std::vector<Row>* rows) {
    return statement.ForEachMatch(database, params, [rows](const Row& row) {
      rows->push_back(row);
      return util::Status::Ok();
    });
  };
  for (int q = 0; q < 200; ++q) {
    const std::string where = RandomPredicate(&rng);
    auto star = ExpectSame(db, "SELECT * FROM t WHERE " + where);
    auto ids = PreparedStatement::Prepare("SELECT id FROM t WHERE " + where);
    ASSERT_TRUE(ids.ok()) << where;
    std::vector<Row> visited;
    const util::Status status = visit(*ids.value(), db, {}, &visited);
    ASSERT_EQ(status.ok(), star.ok()) << where;
    if (!star.ok()) {
      EXPECT_EQ(status.ToString(), star.status().ToString()) << where;
      continue;
    }
    EXPECT_EQ(text_of(visited), text_of(star.value().rows)) << where;
  }

  // A bound `?` (index probe), NULL keys and the primary key.
  auto by_label = PreparedStatement::Prepare("SELECT * FROM t WHERE label = ?");
  ASSERT_TRUE(by_label.ok());
  for (const Value& key : {Value::Text("x3"), Value::Null()}) {
    std::vector<Row> visited;
    ASSERT_TRUE(visit(*by_label.value(), db, {key}, &visited).ok());
    auto executed = by_label.value()->Execute(db, {key});
    ASSERT_TRUE(executed.ok());
    EXPECT_EQ(text_of(visited), text_of(executed.value().rows));
  }
  EXPECT_EQ(by_label.value()->plans_built(), 1u) << "one plan for both calls";
  std::vector<Row> none;
  EXPECT_EQ(visit(*by_label.value(), db, {}, &none).code(),
            util::StatusCode::kInvalidArgument)
      << "the parameter count is checked";

  // The callback's error stops the walk and is returned.
  auto all = PreparedStatement::Prepare("SELECT * FROM t");
  ASSERT_TRUE(all.ok());
  int seen = 0;
  const util::Status stopped =
      all.value()->ForEachMatch(db, {}, [&seen](const Row&) {
        return ++seen == 5 ? util::Internal("enough") : util::Status::Ok();
      });
  EXPECT_EQ(stopped.message(), "enough");
  EXPECT_EQ(seen, 5);

  // Anything but a plain filtered read is refused.
  for (const char* sql :
       {"SELECT * FROM t JOIN t u ON t.id = u.id",
        "SELECT label FROM t GROUP BY label", "SELECT COUNT(*) FROM t",
        "SELECT * FROM t ORDER BY id", "SELECT * FROM t LIMIT 3",
        "DELETE FROM t WHERE id = 1"}) {
    auto prepared = PreparedStatement::Prepare(sql);
    ASSERT_TRUE(prepared.ok()) << sql;
    std::vector<Row> visited;
    EXPECT_EQ(visit(*prepared.value(), db, {}, &visited).code(),
              util::StatusCode::kInvalidArgument)
        << sql;
    EXPECT_TRUE(visited.empty()) << sql;
  }
  EXPECT_EQ(db.GetTable("t")->size(), 300u) << "the DELETE never ran";
}

TEST(SqlIndexTest, PreparedPlanInvalidatedBySchemaChanges) {
  util::Rng rng(66);
  Database db;
  Populate(&db, &rng, 100);
  auto prepared = PreparedStatement::Prepare(
      "SELECT COUNT(*) FROM t WHERE label = ?");
  ASSERT_TRUE(prepared.ok());
  const auto run = [&](Database& target) {
    auto r = prepared.value()->Execute(target, {Value::Text("x1")});
    ASSERT_TRUE(r.ok());
  };
  run(db);
  run(db);
  EXPECT_EQ(prepared.value()->plans_built(), 1u);
  // DDL bumps the schema version: the next execution replans (the old plan
  // held a pointer to the dropped index).
  ASSERT_TRUE(ExecuteSql(db, "DROP INDEX idx_label ON t").ok());
  run(db);
  EXPECT_EQ(prepared.value()->plans_built(), 2u);
  ASSERT_TRUE(ExecuteSql(db, "CREATE INDEX idx_label ON t (label)").ok());
  run(db);
  EXPECT_EQ(prepared.value()->plans_built(), 3u);
  // Load replaces all tables; the statement must replan, not reuse pointers
  // into the pre-load tables.
  const std::string path = testing::TempDir() + "sql_index_prepared.db";
  ASSERT_TRUE(db.Save(path).ok());
  ASSERT_TRUE(db.Load(path).ok());
  std::remove(path.c_str());
  run(db);
  EXPECT_EQ(prepared.value()->plans_built(), 4u);
  // A different Database object likewise forces a replan.
  Database other;
  util::Rng rng2(67);
  Populate(&other, &rng2, 10);
  run(other);
  EXPECT_EQ(prepared.value()->plans_built(), 5u);
}

TEST(SqlIndexTest, StatementCacheCountsHitsAndParsesOnce) {
  util::Rng rng(88);
  Database db;
  Populate(&db, &rng, 80);
  StatementCache cache;
  for (int i = 0; i < 5; ++i) {
    auto r = cache.Execute(db, "SELECT COUNT(*) FROM t WHERE id >= ?",
                           {Value::Int(i * 1000)});
    ASSERT_TRUE(r.ok());
  }
  EXPECT_EQ(cache.misses(), 1u);
  EXPECT_EQ(cache.hits(), 4u);
  EXPECT_EQ(cache.size(), 1u);
  // Parse errors are not cached.
  EXPECT_FALSE(cache.Execute(db, "SELEKT broken").ok());
  EXPECT_EQ(cache.size(), 1u);
  cache.Clear();
  EXPECT_EQ(cache.size(), 0u);
}

TEST(SqlIndexTest, ExplainDescribesAccessPaths) {
  util::Rng rng(99);
  Database db;
  Populate(&db, &rng, 50);
  auto eq = ExplainSql(db, "SELECT * FROM t WHERE label = 'x1'");
  ASSERT_TRUE(eq.ok());
  EXPECT_NE(eq.value().find("index equality probe idx_label"), std::string::npos)
      << eq.value();
  auto pk = ExplainSql(db, "SELECT * FROM t WHERE id = 7");
  ASSERT_TRUE(pk.ok());
  EXPECT_NE(pk.value().find("primary-key probe"), std::string::npos);
  auto range = ExplainSql(db, "SELECT * FROM t WHERE label > 'x1' ORDER BY id");
  ASSERT_TRUE(range.ok());
  EXPECT_NE(range.value().find("index range probe idx_label"), std::string::npos);
  EXPECT_NE(range.value().find("ORDER BY: stable sort"), std::string::npos);
  auto scan = ExplainSql(db, "SELECT * FROM t WHERE score = 1.5");
  ASSERT_TRUE(scan.ok());
  EXPECT_NE(scan.value().find("full scan"), std::string::npos);
  auto ddl = ExplainSql(db, "DELETE FROM t WHERE id = 1");
  ASSERT_TRUE(ddl.ok());
  EXPECT_NE(ddl.value().find("no plan"), std::string::npos);
}

/// p(id INT PK, a INT, b TEXT), both nullable, with a sorted index on a and
/// a hash index on b: two single-column indexes whose posting lists the
/// executor weighs against each other.
void PopulateTwoIndexes(Database* db, util::Rng* rng, int n) {
  ASSERT_TRUE(db->CreateTable(Schema("p",
                                     {{"id", ValueType::kInt, true},
                                      {"a", ValueType::kInt, false},
                                      {"b", ValueType::kText, false}},
                                     {"id"}))
                  .ok());
  ASSERT_TRUE(ExecuteSql(*db, "CREATE INDEX idx_a ON p (a)").ok());
  ASSERT_TRUE(db->CreateIndex("p", "idx_b", {"b"}, IndexKind::kHash).ok());
  for (int id = 0; id < n; ++id) {
    const Value a = rng->NextBool(0.15)
                        ? Value::Null()
                        : Value::Int(static_cast<int64_t>(rng->NextBelow(4)));
    const Value b = rng->NextBool(0.15)
                        ? Value::Null()
                        : Value::Text("v" + std::to_string(rng->NextBelow(4)));
    ASSERT_TRUE(db->Insert("p", {Value::Int(id), a, b}).ok());
  }
}

TEST(SqlIndexTest, SmallestProbeMatchesScanAsPostingListsShift) {
  util::Rng rng(2718);
  Database db;
  PopulateTwoIndexes(&db, &rng, 300);
  const Table& table = *db.GetTable("p");
  const SecondaryIndex& idx_a = *table.FindIndex("idx_a");
  const SecondaryIndex& idx_b = *table.FindIndex("idx_b");
  // One conjunct per column: equality with a key or IS NULL. `key` is the
  // posting list's key, empty for `a = NULL`, which matches nothing.
  auto a_term = [&](std::optional<Value>* key) {
    if (rng.NextBool(0.3)) {
      *key = Value::Null();
      return std::string("a IS NULL");
    }
    if (rng.NextBool(0.05)) {
      key->reset();
      return std::string("a = NULL");
    }
    const int k = static_cast<int>(rng.NextBelow(5));
    *key = Value::Int(k);
    return util::Format("a = %d", k);
  };
  auto b_term = [&](Value* key) {
    if (rng.NextBool(0.3)) {
      *key = Value::Null();
      return std::string("b IS NULL");
    }
    const int k = static_cast<int>(rng.NextBelow(5));
    *key = Value::Text("v" + std::to_string(k));
    return util::Format("b = 'v%d'", k);
  };
  int a_smaller = 0;
  int b_smaller = 0;
  int ties = 0;
  for (int round = 0; round < 60; ++round) {
    for (int q = 0; q < 12; ++q) {
      std::optional<Value> a_key;
      Value b_key;
      const std::string a = a_term(&a_key);
      const std::string b = b_term(&b_key);
      std::string where = rng.NextBool() ? a + " AND " + b : b + " AND " + a;
      if (rng.NextBool(0.3)) {
        where += util::Format(" AND id %s %d", rng.NextBool() ? "<" : ">=",
                              static_cast<int>(rng.NextBelow(400)));
      }
      static const char* const kHeads[] = {
          "SELECT * FROM p WHERE ", "SELECT id, b FROM p WHERE ",
          "SELECT COUNT(*), MIN(id) FROM p WHERE "};
      std::string sql = kHeads[rng.NextBelow(3)] + where;
      if (sql.find("COUNT") == std::string::npos && rng.NextBool()) {
        sql += " ORDER BY id DESC";
      }
      ExpectSame(db, sql);
      if (!a_key) continue;
      const size_t na = table.IndexEqualSlots(idx_a, {*a_key}).size();
      const size_t nb = table.IndexEqualSlots(idx_b, {b_key}).size();
      (na < nb ? a_smaller : nb < na ? b_smaller : ties) += 1;
    }
    // Shift rows between keys so the smaller posting list changes sides.
    const int k = static_cast<int>(rng.NextBelow(4));
    const int r = static_cast<int>(rng.NextBelow(3));
    std::vector<std::string> mutations;
    switch (rng.NextBelow(5)) {
      case 0:
        mutations.push_back(
            util::Format("UPDATE p SET a = %d WHERE id %% 3 = %d", k, r));
        break;
      case 1:
        mutations.push_back(
            util::Format("UPDATE p SET b = 'v%d' WHERE id %% 3 = %d", k, r));
        break;
      case 2:
        mutations.push_back(
            util::Format("UPDATE p SET %s = NULL WHERE id %% 4 = %d",
                         rng.NextBool() ? "a" : "b", r));
        break;
      case 3:
        mutations.push_back(
            util::Format("DELETE FROM p WHERE id %% 7 = %d AND a = %d", r, k));
        break;
      default:
        for (int i = 0; i < 20; ++i) {
          mutations.push_back(
              util::Format("INSERT INTO p VALUES (%d, %d, 'v%d')",
                           1000 + round * 20 + i, k, (k + i) % 4));
        }
        break;
    }
    for (const std::string& sql : mutations) {
      ASSERT_TRUE(ExecuteSql(db, sql).ok()) << sql;
    }
    ExpectValidIndexes(db, "p");
  }
  // Both probes won at some point, so the choice flipped between them.
  EXPECT_GT(a_smaller, 20);
  EXPECT_GT(b_smaller, 20);
  EXPECT_GT(ties, 0);
  const auto plan =
      ExplainSql(db, "SELECT * FROM p WHERE b = 'v1' AND a IS NULL");
  ASSERT_TRUE(plan.ok());
  EXPECT_EQ(plan.value(),
            "FROM p: smallest of index equality probe idx_b (b), index IS NULL "
            "probe idx_a (a)\nWHERE: residual filter on candidates\n");
}

TEST(SqlIndexTest, IndexSurvivesUpdateOfKeyColumns) {
  Database db;
  ASSERT_TRUE(db.CreateTable(Schema("t", {{"a", ValueType::kInt, true},
                                          {"b", ValueType::kText, false}},
                                    {"a"}))
                  .ok());
  ASSERT_TRUE(ExecuteSql(db, "CREATE INDEX ib ON t (b)").ok());
  for (int i = 0; i < 50; ++i) {
    ASSERT_TRUE(ExecuteSql(db, util::Format(
        "INSERT INTO t VALUES (%d, 'k%d')", i, i % 5)).ok());
  }
  // Moving rows between index keys must relocate their postings.
  ASSERT_TRUE(ExecuteSql(db, "UPDATE t SET b = 'moved' WHERE b = 'k2'").ok());
  ExpectValidIndexes(db, "t");
  EXPECT_EQ(ExpectSame(db, "SELECT COUNT(*) FROM t WHERE b = 'moved'")
                .ValueOrDie().rows[0][0].as_int(), 10);
  EXPECT_EQ(ExpectSame(db, "SELECT COUNT(*) FROM t WHERE b = 'k2'")
                .ValueOrDie().rows[0][0].as_int(), 0);
  // Updating to NULL moves postings to the NULL key.
  ASSERT_TRUE(ExecuteSql(db, "UPDATE t SET b = NULL WHERE b = 'k3'").ok());
  ExpectValidIndexes(db, "t");
  EXPECT_EQ(ExpectSame(db, "SELECT COUNT(*) FROM t WHERE b IS NULL")
                .ValueOrDie().rows[0][0].as_int(), 10);
  ASSERT_TRUE(ExecuteSql(db, "DELETE FROM t WHERE b IS NULL").ok());
  ExpectValidIndexes(db, "t");
  EXPECT_EQ(ExpectSame(db, "SELECT COUNT(*) FROM t")
                .ValueOrDie().rows[0][0].as_int(), 40);
}

}  // namespace
}  // namespace goofi::db
