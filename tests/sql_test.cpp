// Tests for the SQL dialect: tokenizer, parser and executor.
#include <gtest/gtest.h>

#include <cstdint>
#include <limits>

#include "db/prepared.hpp"
#include "db/sql_executor.hpp"
#include "db/sql_parser.hpp"
#include "db/sql_tokenizer.hpp"

namespace goofi::db {
namespace {

// --- tokenizer -----------------------------------------------------------

TEST(SqlTokenizerTest, BasicKinds) {
  auto tokens = Tokenize("SELECT a, 42, 3.5, 'text', 0x10 <= >= != <>").ValueOrDie();
  ASSERT_GE(tokens.size(), 10u);
  EXPECT_TRUE(tokens[0].IsKeyword("select"));
  EXPECT_EQ(tokens[1].type, TokenType::kIdent);
  EXPECT_EQ(tokens[3].int_value, 42);
  EXPECT_DOUBLE_EQ(tokens[5].real_value, 3.5);
  EXPECT_EQ(tokens[7].text, "text");
  EXPECT_EQ(tokens[9].int_value, 16);
}

TEST(SqlTokenizerTest, StringEscapes) {
  auto tokens = Tokenize("'it''s'").ValueOrDie();
  EXPECT_EQ(tokens[0].text, "it's");
}

TEST(SqlTokenizerTest, LineComments) {
  auto tokens = Tokenize("SELECT -- comment here\n 1").ValueOrDie();
  EXPECT_TRUE(tokens[0].IsKeyword("SELECT"));
  EXPECT_EQ(tokens[1].int_value, 1);
}

TEST(SqlTokenizerTest, NotEqualsNormalized) {
  auto tokens = Tokenize("a <> b").ValueOrDie();
  EXPECT_TRUE(tokens[1].IsSymbol("!="));
}

TEST(SqlTokenizerTest, RejectsUnterminatedString) {
  EXPECT_FALSE(Tokenize("'oops").ok());
}

TEST(SqlTokenizerTest, RejectsStrayCharacter) {
  EXPECT_FALSE(Tokenize("SELECT @").ok());
}

// --- parser ------------------------------------------------------------------

TEST(SqlParserTest, ParsesFullSelect) {
  auto stmt = ParseSql(
                  "SELECT a, b AS bee, COUNT(*) FROM t JOIN u ON t.id = u.id "
                  "WHERE a > 1 AND b != 'x' GROUP BY a ORDER BY a DESC LIMIT 5;")
                  .ValueOrDie();
  const auto& select = std::get<SelectStmt>(stmt);
  EXPECT_EQ(select.items.size(), 3u);
  EXPECT_EQ(select.items[1].alias, "bee");
  EXPECT_EQ(select.joins.size(), 1u);
  ASSERT_TRUE(select.where != nullptr);
  EXPECT_EQ(select.group_by.size(), 1u);
  EXPECT_EQ(select.order_by.size(), 1u);
  EXPECT_TRUE(select.order_by[0].descending);
  EXPECT_EQ(select.limit, 5);
}

TEST(SqlParserTest, ParsesInsertMultiRow) {
  auto stmt =
      ParseSql("INSERT INTO t (a, b) VALUES (1, 'x'), (2, 'y')").ValueOrDie();
  const auto& insert = std::get<InsertStmt>(stmt);
  EXPECT_EQ(insert.columns.size(), 2u);
  EXPECT_EQ(insert.rows.size(), 2u);
}

TEST(SqlParserTest, ParsesCreateTableWithConstraints) {
  auto stmt = ParseSql(
                  "CREATE TABLE c (id INTEGER NOT NULL PRIMARY KEY, p TEXT, "
                  "FOREIGN KEY (p) REFERENCES parent (name))")
                  .ValueOrDie();
  const auto& create = std::get<CreateTableStmt>(stmt);
  EXPECT_EQ(create.schema.table_name(), "c");
  EXPECT_EQ(create.schema.primary_key(), std::vector<std::string>{"id"});
  ASSERT_EQ(create.schema.foreign_keys().size(), 1u);
  EXPECT_EQ(create.schema.foreign_keys()[0].ref_table, "parent");
}

TEST(SqlParserTest, RejectsTrailingGarbage) {
  EXPECT_FALSE(ParseSql("SELECT 1 FROM t extra garbage here").ok());
}

TEST(SqlParserTest, RejectsUnknownFunction) {
  EXPECT_FALSE(ParseSql("SELECT NOPE(a) FROM t").ok());
}

TEST(SqlParserTest, OperatorPrecedence) {
  // 1 + 2 * 3 = 7, not 9.
  auto stmt = ParseSql("SELECT 1 + 2 * 3 FROM t").ValueOrDie();
  const auto& select = std::get<SelectStmt>(stmt);
  const Expr& e = *select.items[0].expr;
  EXPECT_EQ(e.op, "+");
  EXPECT_EQ(e.args[1]->op, "*");
}

// --- executor -------------------------------------------------------------------

class SqlExecTest : public ::testing::Test {
 protected:
  void SetUp() override {
    Exec("CREATE TABLE exp (name TEXT PRIMARY KEY, outcome TEXT, cycles INTEGER, "
         "score REAL)");
    Exec("INSERT INTO exp VALUES ('e1', 'detected', 100, 0.5)");
    Exec("INSERT INTO exp VALUES ('e2', 'escaped', 250, 1.5)");
    Exec("INSERT INTO exp VALUES ('e3', 'detected', 50, NULL)");
    Exec("INSERT INTO exp VALUES ('e4', 'overwritten', 70, 2.0)");
  }

  QueryResult Exec(const std::string& sql) {
    auto result = ExecuteSql(db_, sql);
    EXPECT_TRUE(result.ok()) << sql << " -> " << result.status().ToString();
    return result.ok() ? std::move(result).value() : QueryResult{};
  }

  Database db_;
};

TEST_F(SqlExecTest, SelectStar) {
  const auto result = Exec("SELECT * FROM exp");
  EXPECT_EQ(result.columns.size(), 4u);
  EXPECT_EQ(result.rows.size(), 4u);
}

TEST_F(SqlExecTest, WhereFilters) {
  const auto result = Exec("SELECT name FROM exp WHERE outcome = 'detected'");
  EXPECT_EQ(result.rows.size(), 2u);
}

TEST_F(SqlExecTest, WhereWithAndOrNot) {
  EXPECT_EQ(Exec("SELECT name FROM exp WHERE outcome = 'detected' AND cycles > 60")
                .rows.size(),
            1u);
  EXPECT_EQ(Exec("SELECT name FROM exp WHERE cycles < 60 OR cycles > 200").rows.size(),
            2u);
  EXPECT_EQ(Exec("SELECT name FROM exp WHERE NOT outcome = 'detected'").rows.size(),
            2u);
}

TEST_F(SqlExecTest, ArithmeticInProjection) {
  const auto result = Exec("SELECT cycles * 2 + 1 FROM exp WHERE name = 'e1'");
  EXPECT_EQ(result.rows[0][0].as_int(), 201);
}

TEST_F(SqlExecTest, IntegerDivisionAndModulo) {
  const auto result = Exec("SELECT 7 / 2, 7 % 2, 7.0 / 2 FROM exp LIMIT 1");
  EXPECT_EQ(result.rows[0][0].as_int(), 3);
  EXPECT_EQ(result.rows[0][1].as_int(), 1);
  EXPECT_DOUBLE_EQ(result.rows[0][2].as_real(), 3.5);
}

TEST_F(SqlExecTest, DivisionByZeroYieldsNull) {
  const auto result = Exec("SELECT 1 / 0 FROM exp LIMIT 1");
  EXPECT_TRUE(result.rows[0][0].is_null());
}

// Integer arithmetic at the int64 edges: each operator's results that fit are
// exact, and the first result past an edge is an error — never a wrapped
// value, undefined behaviour or a trap.
class SqlInt64EdgeTest : public SqlExecTest {
 protected:
  static constexpr const char* kMax = "9223372036854775807";
  static constexpr const char* kMin = "(0 - 9223372036854775807 - 1)";

  int64_t IntOf(const std::string& expr) {
    const QueryResult result = Exec("SELECT " + expr + " FROM exp LIMIT 1");
    EXPECT_EQ(result.rows.size(), 1u) << expr;
    return result.rows.empty() ? 0 : result.rows[0][0].as_int();
  }

  void ExpectOverflow(const std::string& expr) {
    const auto result = ExecuteSql(db_, "SELECT " + expr + " FROM exp LIMIT 1");
    ASSERT_FALSE(result.ok()) << expr;
    EXPECT_EQ(result.status().code(), util::StatusCode::kInvalidArgument)
        << expr;
    EXPECT_EQ(result.status().message(), "integer overflow") << expr;
  }

  static std::string Op(const std::string& a, const char* op,
                        const std::string& b) {
    return a + " " + op + " " + b;
  }
};

constexpr int64_t kInt64Max = std::numeric_limits<int64_t>::max();
constexpr int64_t kInt64Min = std::numeric_limits<int64_t>::min();

TEST_F(SqlInt64EdgeTest, Addition) {
  EXPECT_EQ(IntOf(Op(kMax, "+", "0")), kInt64Max);
  EXPECT_EQ(IntOf(Op(kMin, "+", kMax)), -1);
  ExpectOverflow(Op(kMax, "+", "1"));
  ExpectOverflow(Op(kMin, "+", "(0 - 1)"));
}

TEST_F(SqlInt64EdgeTest, Subtraction) {
  EXPECT_EQ(IntOf(kMin), kInt64Min);
  EXPECT_EQ(IntOf(Op(kMax, "-", kMax)), 0);
  ExpectOverflow(Op(kMin, "-", "1"));
  ExpectOverflow(Op(kMax, "-", "(0 - 1)"));
  ExpectOverflow(Op("0", "-", kMin));
}

TEST_F(SqlInt64EdgeTest, Multiplication) {
  EXPECT_EQ(IntOf(Op("4611686018427387903", "*", "2")), kInt64Max - 1);
  EXPECT_EQ(IntOf(Op("4611686018427387904", "*", "(0 - 2)")), kInt64Min);
  EXPECT_EQ(IntOf(Op(kMax, "*", "(0 - 1)")), -kInt64Max);
  ExpectOverflow(Op("4611686018427387904", "*", "2"));
  ExpectOverflow(Op(kMin, "*", "(0 - 1)"));
  ExpectOverflow(Op(kMax, "*", kMax));
}

TEST_F(SqlInt64EdgeTest, Division) {
  EXPECT_EQ(IntOf(Op(kMax, "/", "(0 - 1)")), -kInt64Max);
  EXPECT_EQ(IntOf(Op(kMin, "/", "1")), kInt64Min);
  EXPECT_EQ(IntOf(Op(kMin, "/", "(0 - 2)")), 4611686018427387904);
  EXPECT_EQ(IntOf(Op("(0 - 7)", "/", "2")), -3);
  ExpectOverflow(Op(kMin, "/", "(0 - 1)"));  // traps (SIGFPE) if computed
}

TEST_F(SqlInt64EdgeTest, Modulo) {
  EXPECT_EQ(IntOf(Op(kMin, "%", "(0 - 1)")), 0);  // traps if computed
  EXPECT_EQ(IntOf(Op(kMax, "%", "(0 - 1)")), 0);
  EXPECT_EQ(IntOf(Op(kMin, "%", kMax)), -1);
  EXPECT_EQ(IntOf(Op("(0 - 7)", "%", "2")), -1);
  EXPECT_EQ(IntOf(Op("7", "%", "(0 - 2)")), 1);
}

TEST_F(SqlInt64EdgeTest, UnaryMinusAndAbs) {
  EXPECT_EQ(IntOf(std::string("-") + kMax), -kInt64Max);
  EXPECT_EQ(IntOf(std::string("ABS(-") + kMax + ")"), kInt64Max);
  EXPECT_EQ(IntOf(std::string("ABS(") + kMax + ")"), kInt64Max);
  ExpectOverflow(std::string("-") + kMin);
  ExpectOverflow(std::string("ABS(") + kMin + ")");
}

TEST_F(SqlInt64EdgeTest, SumIsExactAndOnlyAnOutOfRangeTotalOverflows) {
  Exec("CREATE TABLE big (v INTEGER)");
  Exec(std::string("INSERT INTO big VALUES (") + kMax + "), (1)");
  const auto over = ExecuteSql(db_, "SELECT SUM(v) FROM big");
  ASSERT_FALSE(over.ok());
  EXPECT_EQ(over.status().message(), "integer overflow");
  // A partial sum past the edge is fine when the total comes back in range.
  Exec("INSERT INTO big VALUES (0 - 1)");
  EXPECT_EQ(Exec("SELECT SUM(v) FROM big").rows.at(0).at(0).as_int(),
            kInt64Max);
  Exec("DELETE FROM big");
  Exec(std::string("INSERT INTO big VALUES (") + kMin + "), (" + kMin + ")");
  const auto under = ExecuteSql(db_, "SELECT SUM(v) FROM big");
  ASSERT_FALSE(under.ok());
  EXPECT_EQ(under.status().message(), "integer overflow");
}

TEST_F(SqlExecTest, TextConcatenation) {
  const auto result = Exec("SELECT name + '!' FROM exp WHERE name = 'e1'");
  EXPECT_EQ(result.rows[0][0].as_text(), "e1!");
}

TEST_F(SqlExecTest, IsNullAndIsNotNull) {
  EXPECT_EQ(Exec("SELECT name FROM exp WHERE score IS NULL").rows.size(), 1u);
  EXPECT_EQ(Exec("SELECT name FROM exp WHERE score IS NOT NULL").rows.size(), 3u);
}

TEST_F(SqlExecTest, NullComparisonIsNeverTrue) {
  EXPECT_EQ(Exec("SELECT name FROM exp WHERE score > 0").rows.size(), 3u);
  EXPECT_EQ(Exec("SELECT name FROM exp WHERE score = NULL").rows.size(), 0u);
}

TEST_F(SqlExecTest, OrderByAscDesc) {
  const auto asc = Exec("SELECT name FROM exp ORDER BY cycles");
  EXPECT_EQ(asc.rows[0][0].as_text(), "e3");
  const auto desc = Exec("SELECT name FROM exp ORDER BY cycles DESC");
  EXPECT_EQ(desc.rows[0][0].as_text(), "e2");
}

TEST_F(SqlExecTest, OrderByMultipleKeysStable) {
  const auto result = Exec("SELECT name FROM exp ORDER BY outcome, cycles DESC");
  // detected(e1 100, e3 50) then escaped then overwritten.
  EXPECT_EQ(result.rows[0][0].as_text(), "e1");
  EXPECT_EQ(result.rows[1][0].as_text(), "e3");
}

TEST_F(SqlExecTest, Limit) {
  EXPECT_EQ(Exec("SELECT name FROM exp ORDER BY name LIMIT 2").rows.size(), 2u);
  EXPECT_EQ(Exec("SELECT name FROM exp LIMIT 0").rows.size(), 0u);
}

TEST_F(SqlExecTest, AggregatesWholeTable) {
  const auto result = Exec(
      "SELECT COUNT(*), COUNT(score), SUM(cycles), MIN(cycles), MAX(cycles), "
      "AVG(cycles) FROM exp");
  ASSERT_EQ(result.rows.size(), 1u);
  EXPECT_EQ(result.rows[0][0].as_int(), 4);
  EXPECT_EQ(result.rows[0][1].as_int(), 3);  // COUNT skips NULL
  EXPECT_EQ(result.rows[0][2].as_int(), 470);
  EXPECT_EQ(result.rows[0][3].as_int(), 50);
  EXPECT_EQ(result.rows[0][4].as_int(), 250);
  EXPECT_DOUBLE_EQ(result.rows[0][5].as_real(), 117.5);
}

TEST_F(SqlExecTest, GroupByWithHavingStyleFilter) {
  const auto result = Exec(
      "SELECT outcome, COUNT(*) AS n FROM exp GROUP BY outcome ORDER BY outcome");
  ASSERT_EQ(result.rows.size(), 3u);
  EXPECT_EQ(result.rows[0][0].as_text(), "detected");
  EXPECT_EQ(result.rows[0][1].as_int(), 2);
}

TEST_F(SqlExecTest, AggregateOverEmptyGroupIsNull) {
  const auto result = Exec("SELECT SUM(cycles) FROM exp WHERE cycles > 9999");
  ASSERT_EQ(result.rows.size(), 1u);
  EXPECT_TRUE(result.rows[0][0].is_null());
}

TEST_F(SqlExecTest, ScalarFunctions) {
  const auto result =
      Exec("SELECT ABS(0 - cycles), LENGTH(name) FROM exp WHERE name = 'e1'");
  EXPECT_EQ(result.rows[0][0].as_int(), 100);
  EXPECT_EQ(result.rows[0][1].as_int(), 2);
}

TEST_F(SqlExecTest, JoinWithQualifiedColumns) {
  Exec("CREATE TABLE camp (cname TEXT PRIMARY KEY, wl TEXT)");
  Exec("INSERT INTO camp VALUES ('c1', 'sort')");
  Exec("CREATE TABLE run (rname TEXT PRIMARY KEY, cname TEXT)");
  Exec("INSERT INTO run VALUES ('e1', 'c1'), ('e2', 'c1')");
  const auto result = Exec(
      "SELECT run.rname, camp.wl FROM run JOIN camp ON run.cname = camp.cname "
      "ORDER BY run.rname");
  ASSERT_EQ(result.rows.size(), 2u);
  EXPECT_EQ(result.rows[0][1].as_text(), "sort");
}

TEST_F(SqlExecTest, JoinWithAliases) {
  Exec("CREATE TABLE pair (a INTEGER, b INTEGER)");
  Exec("INSERT INTO pair VALUES (1, 2), (2, 3)");
  const auto result = Exec(
      "SELECT x.a, y.b FROM pair x JOIN pair y ON x.b = y.a");
  ASSERT_EQ(result.rows.size(), 1u);
  EXPECT_EQ(result.rows[0][0].as_int(), 1);
  EXPECT_EQ(result.rows[0][1].as_int(), 3);
}

TEST_F(SqlExecTest, AmbiguousColumnRejected) {
  Exec("CREATE TABLE pair (a INTEGER, b INTEGER)");
  Exec("INSERT INTO pair VALUES (1, 2)");
  auto result = ExecuteSql(db_, "SELECT a FROM pair x JOIN pair y ON x.a = y.a");
  EXPECT_FALSE(result.ok());
}

TEST_F(SqlExecTest, UpdateWithWhere) {
  const auto result =
      Exec("UPDATE exp SET outcome = 'latent', cycles = cycles + 1 "
           "WHERE name = 'e4'");
  EXPECT_EQ(result.affected, 1u);
  const auto check = Exec("SELECT outcome, cycles FROM exp WHERE name = 'e4'");
  EXPECT_EQ(check.rows[0][0].as_text(), "latent");
  EXPECT_EQ(check.rows[0][1].as_int(), 71);
}

TEST_F(SqlExecTest, DeleteWithWhere) {
  const auto result = Exec("DELETE FROM exp WHERE cycles < 80");
  EXPECT_EQ(result.affected, 2u);
  EXPECT_EQ(Exec("SELECT * FROM exp").rows.size(), 2u);
}

TEST_F(SqlExecTest, InsertColumnSubsetFillsNull) {
  Exec("CREATE TABLE partial (a INTEGER, b TEXT)");
  Exec("INSERT INTO partial (a) VALUES (5)");
  const auto result = Exec("SELECT b FROM partial");
  EXPECT_TRUE(result.rows[0][0].is_null());
}

TEST_F(SqlExecTest, InsertEnforcesConstraints) {
  auto dup = ExecuteSql(db_, "INSERT INTO exp VALUES ('e1', 'x', 0, 0)");
  EXPECT_FALSE(dup.ok());
}

TEST_F(SqlExecTest, UnknownTableAndColumnErrors) {
  EXPECT_FALSE(ExecuteSql(db_, "SELECT * FROM missing").ok());
  EXPECT_FALSE(ExecuteSql(db_, "SELECT missing_col FROM exp").ok());
  EXPECT_FALSE(ExecuteSql(db_, "UPDATE exp SET nope = 1").ok());
}

TEST_F(SqlExecTest, CreateAndDropTableViaSql) {
  Exec("CREATE TABLE tmp (x INTEGER)");
  EXPECT_TRUE(db_.HasTable("tmp"));
  Exec("DROP TABLE tmp");
  EXPECT_FALSE(db_.HasTable("tmp"));
}

TEST_F(SqlExecTest, QueryResultToStringContainsHeaderAndRows) {
  const auto result = Exec("SELECT name FROM exp ORDER BY name LIMIT 1");
  const std::string text = result.ToString();
  EXPECT_NE(text.find("name"), std::string::npos);
  EXPECT_NE(text.find("e1"), std::string::npos);
}

TEST_F(SqlExecTest, ColumnIndexLookup) {
  const auto result = Exec("SELECT name, cycles FROM exp LIMIT 1");
  EXPECT_EQ(result.ColumnIndex("CYCLES"), 1u);
  EXPECT_FALSE(result.ColumnIndex("zzz").has_value());
}

// --- column resolution and operands -----------------------------------------

/// The values of a one-column result, as display text.
std::vector<std::string> Column0(const QueryResult& result) {
  std::vector<std::string> out;
  for (const Row& row : result.rows) out.push_back(row[0].ToString());
  return out;
}

TEST_F(SqlExecTest, AJoinedTableMakesAnUnqualifiedNameAmbiguousInWhere) {
  Exec("CREATE TABLE l (k INTEGER, a INTEGER)");
  Exec("CREATE TABLE r (k2 INTEGER, b INTEGER)");
  Exec("CREATE TABLE s (k3 INTEGER, b INTEGER)");
  Exec("INSERT INTO l VALUES (1, 10), (2, 20)");
  Exec("INSERT INTO r VALUES (1, 5), (2, 6)");
  Exec("INSERT INTO s VALUES (1, 7), (2, 8)");
  // `b` names r.b alone while r is the last table joined, in its ON clause
  // and in WHERE...
  EXPECT_EQ(Column0(Exec("SELECT a FROM l JOIN r ON k = k2 AND b > 5 "
                         "WHERE b < 9 ORDER BY a")),
            std::vector<std::string>{"20"});
  // ... and becomes ambiguous once s is joined too, though the first ON
  // clause still resolves it to r.b.
  const std::string sql =
      "SELECT a FROM l JOIN r ON k = k2 AND b > 5 JOIN s ON k2 = k3 "
      "WHERE b < 9";
  for (const bool use_indexes : {true, false}) {
    ExecOptions options;
    options.use_indexes = use_indexes;
    const auto result = ExecuteSql(db_, sql, options);
    ASSERT_FALSE(result.ok());
    EXPECT_EQ(result.status().ToString(),
              "invalid_argument: ambiguous column b");
  }
  auto prepared = PreparedStatement::Prepare(sql);
  ASSERT_TRUE(prepared.ok());
  for (int i = 0; i < 2; ++i) {
    const auto result = prepared.value()->Execute(db_);
    ASSERT_FALSE(result.ok());
    EXPECT_EQ(result.status().ToString(),
              "invalid_argument: ambiguous column b");
  }
}

TEST_F(SqlExecTest, OnePreparedStatementResolvesEachDatabaseAfresh) {
  // Resolved columns are remembered per execution, not in the statement: the
  // same text runs against two tables whose columns are in different orders.
  Database other;
  ASSERT_TRUE(ExecuteSql(other, "CREATE TABLE exp (cycles INTEGER, score REAL, "
                                "outcome TEXT, name TEXT PRIMARY KEY)")
                  .ok());
  ASSERT_TRUE(ExecuteSql(other, "INSERT INTO exp VALUES (7, 0.5, 'latent', "
                                "'x1')")
                  .ok());
  auto prepared = PreparedStatement::Prepare(
      "SELECT name, cycles FROM exp WHERE outcome = ? ORDER BY name");
  ASSERT_TRUE(prepared.ok());
  for (int i = 0; i < 2; ++i) {
    const auto mine =
        prepared.value()->Execute(db_, {Value::Text("detected")}).ValueOrDie();
    ASSERT_EQ(mine.rows.size(), 2u);
    EXPECT_EQ(mine.rows[1][0].as_text(), "e3");
    EXPECT_EQ(mine.rows[1][1].as_int(), 50);
    const auto theirs =
        prepared.value()->Execute(other, {Value::Text("latent")}).ValueOrDie();
    ASSERT_EQ(theirs.rows.size(), 1u);
    EXPECT_EQ(theirs.rows[0][0].as_text(), "x1");
    EXPECT_EQ(theirs.rows[0][1].as_int(), 7);
  }
}

TEST_F(SqlExecTest, UnknownColumnsAndUnboundParamsKeepTheirErrors) {
  struct Case {
    const char* sql;
    const char* error;
  };
  const Case cases[] = {
      {"SELECT name FROM exp WHERE nope = 1", "not_found: unknown column nope"},
      {"SELECT name FROM exp WHERE exp.nope IS NULL",
       "not_found: unknown column exp.nope"},
      {"SELECT nope FROM exp", "not_found: unknown column nope"},
      {"SELECT name, cycles + nope FROM exp", "not_found: unknown column nope"},
      {"SELECT name FROM exp ORDER BY nope", "not_found: unknown column nope"},
      {"SELECT name FROM exp WHERE cycles = ?",
       "invalid_argument: unbound parameter ?1"},
      {"SELECT name FROM exp WHERE ? IS NULL",
       "invalid_argument: unbound parameter ?1"},
      {"SELECT ? FROM exp", "invalid_argument: unbound parameter ?1"},
      {"SELECT name FROM exp ORDER BY cycles, ?",
       "invalid_argument: unbound parameter ?1"},
  };
  for (const Case& c : cases) {
    for (const bool use_indexes : {true, false}) {
      ExecOptions options;
      options.use_indexes = use_indexes;
      const auto result = ExecuteSql(db_, c.sql, options);
      ASSERT_FALSE(result.ok()) << c.sql;
      EXPECT_EQ(result.status().ToString(), c.error) << c.sql;
    }
  }
}

TEST_F(SqlExecTest, ColumnsCompareWithThemselvesParamsAndLiterals) {
  auto run = [this](const std::string& sql, std::vector<Value> params = {}) {
    ExecOptions options;
    options.params = &params;
    const auto result = ExecuteSql(db_, sql, options);
    EXPECT_TRUE(result.ok()) << sql << ": " << result.status().ToString();
    return result.ok() ? Column0(result.value()) : std::vector<std::string>{};
  };
  using Names = std::vector<std::string>;
  EXPECT_EQ(run("SELECT name FROM exp WHERE cycles = cycles ORDER BY name"),
            (Names{"e1", "e2", "e3", "e4"}));
  // NULL = NULL is NULL, not true.
  EXPECT_EQ(run("SELECT name FROM exp WHERE score = score ORDER BY name"),
            (Names{"e1", "e2", "e4"}));
  EXPECT_EQ(run("SELECT name FROM exp WHERE cycles < cycles"), Names{});
  EXPECT_EQ(run("SELECT name FROM exp WHERE cycles > ? ORDER BY name",
                {Value::Int(60)}),
            (Names{"e1", "e2", "e4"}));
  EXPECT_EQ(run("SELECT name FROM exp WHERE ? = outcome ORDER BY name",
                {Value::Text("detected")}),
            (Names{"e1", "e3"}));
  EXPECT_EQ(run("SELECT name FROM exp WHERE score <= ? ORDER BY name",
                {Value::Int(1)}),
            Names{"e1"});
  EXPECT_EQ(run("SELECT name FROM exp WHERE outcome = ?", {Value::Null()}),
            Names{});
  EXPECT_EQ(run("SELECT name FROM exp WHERE 100 = cycles"), Names{"e1"});
  EXPECT_EQ(run("SELECT name FROM exp WHERE 'escaped' != outcome "
                "ORDER BY name"),
            (Names{"e1", "e3", "e4"}));
  EXPECT_EQ(run("SELECT name FROM exp WHERE score IS NULL"), Names{"e3"});
  EXPECT_EQ(run("SELECT name FROM exp WHERE ? IS NOT NULL ORDER BY name",
                {Value::Int(0)}),
            (Names{"e1", "e2", "e3", "e4"}));
  EXPECT_EQ(run("SELECT name FROM exp WHERE ? = ? ORDER BY name",
                {Value::Int(2), Value::Real(2.0)}),
            (Names{"e1", "e2", "e3", "e4"}));
  // The same `?` read in place twice, and an operand that is computed.
  EXPECT_EQ(run("SELECT name FROM exp WHERE cycles - ? >= ? ORDER BY name",
                {Value::Int(40), Value::Int(40)}),
            (Names{"e1", "e2"}));
}

TEST_F(SqlExecTest, QueriesWithMoreColumnReferencesThanTheMemoHolds) {
  // 100 references to `cycles` and 100 to `name`: the resolver remembers the
  // first 64 and resolves the rest by name on every row.
  std::string sum = "cycles";
  std::string test = "name = 'e2'";
  for (int i = 1; i < 100; ++i) {
    sum += " + cycles";
    test += " OR name = 'e2'";
  }
  const auto result =
      Exec("SELECT name, " + sum + " FROM exp WHERE " + test + " OR " + sum +
           " = 5000 ORDER BY name");
  ASSERT_EQ(result.rows.size(), 2u);
  EXPECT_EQ(result.rows[0][0].as_text(), "e2");
  EXPECT_EQ(result.rows[0][1].as_int(), 25000);
  EXPECT_EQ(result.rows[1][0].as_text(), "e3");
  EXPECT_EQ(result.rows[1][1].as_int(), 5000);
}

TEST_F(SqlExecTest, BareColumnOfAnAggregateOverNoRowsIsNull) {
  const auto result =
      Exec("SELECT name, COUNT(*), MAX(cycles) FROM exp WHERE cycles > 1000");
  ASSERT_EQ(result.rows.size(), 1u);
  EXPECT_TRUE(result.rows[0][0].is_null());
  EXPECT_EQ(result.rows[0][1].as_int(), 0);
  EXPECT_TRUE(result.rows[0][2].is_null());
  Exec("CREATE TABLE empty (a INTEGER, b TEXT)");
  const auto joined = Exec(
      "SELECT empty.b, exp.name, COUNT(*) FROM exp JOIN empty ON exp.cycles = "
      "empty.a");
  ASSERT_EQ(joined.rows.size(), 1u);
  EXPECT_TRUE(joined.rows[0][0].is_null());
  EXPECT_TRUE(joined.rows[0][1].is_null());
  EXPECT_EQ(joined.rows[0][2].as_int(), 0);
}

// --- expression depth bound --------------------------------------------------

/// The four ways to build a deep expression: nesting through parentheses,
/// NOT or unary minus, and a left-deep operator chain. Depth n selects
/// `open`^n `leaf` `close`^n; at n = kMaxExprDepth (even) it evaluates to
/// `expect` on row e1.
struct DeepShape {
  const char* name;
  const char* open;
  const char* leaf;
  const char* close;
  int64_t expect;

  std::string Sql(size_t n) const {
    std::string sql = "SELECT ";
    for (size_t i = 0; i < n; ++i) sql += open;
    sql += leaf;
    for (size_t i = 0; i < n; ++i) sql += close;
    sql += " FROM exp WHERE name = 'e1'";
    return sql;
  }
};

const DeepShape kDeepShapes[] = {
    {"parentheses", "(", "cycles", ")", 100},
    {"operator chain", "", "cycles", " + 1",
     100 + static_cast<int64_t>(kMaxExprDepth)},
    {"NOT", "NOT ", "1", "", 1},
    {"unary minus", "- ", "cycles", "", 100},  // spaced: "--" is a comment
};

TEST_F(SqlExecTest, ExpressionsDeeperThanTheLimitAreParseErrors) {
  for (const DeepShape& shape : kDeepShapes) {
    for (const size_t n : {kMaxExprDepth + 1, size_t{100000}}) {
      const auto result = ExecuteSql(db_, shape.Sql(n));
      ASSERT_FALSE(result.ok()) << shape.name << " at depth " << n;
      EXPECT_EQ(result.status().code(), util::StatusCode::kParseError)
          << shape.name << " at depth " << n << ": "
          << result.status().ToString();
    }
  }
  // Nesting and chains add up: NOT over a chain at the limit is one deeper.
  std::string mixed = "SELECT NOT (cycles";
  for (size_t i = 0; i < kMaxExprDepth; ++i) mixed += " + 1";
  mixed += ") FROM exp";
  EXPECT_EQ(ExecuteSql(db_, mixed).status().code(),
            util::StatusCode::kParseError);
}

TEST_F(SqlExecTest, ExpressionsAtTheLimitStillExecute) {
  for (const DeepShape& shape : kDeepShapes) {
    const auto result = ExecuteSql(db_, shape.Sql(kMaxExprDepth));
    ASSERT_TRUE(result.ok()) << shape.name << ": " << result.status().ToString();
    ASSERT_EQ(result.value().rows.size(), 1u) << shape.name;
    EXPECT_EQ(result.value().rows[0][0].as_int(), shape.expect) << shape.name;
  }
}

// Parameterized sweep: COUNT(*) with WHERE cycles >= threshold must be
// monotonically non-increasing in the threshold.
class SqlThresholdSweep : public SqlExecTest,
                          public ::testing::WithParamInterface<int> {};

TEST_P(SqlThresholdSweep, CountMonotone) {
  const int threshold = GetParam();
  const auto at = Exec("SELECT COUNT(*) FROM exp WHERE cycles >= " +
                       std::to_string(threshold));
  const auto above = Exec("SELECT COUNT(*) FROM exp WHERE cycles >= " +
                          std::to_string(threshold + 10));
  EXPECT_GE(at.rows[0][0].as_int(), above.rows[0][0].as_int());
}

INSTANTIATE_TEST_SUITE_P(Thresholds, SqlThresholdSweep,
                         ::testing::Values(0, 50, 60, 70, 100, 240, 260));

}  // namespace
}  // namespace goofi::db
