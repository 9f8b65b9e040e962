// Executes parsed SQL statements against a Database.
//
// This is the layer the paper's analysis phase uses: "The user must write
// tailor made scripts or programs that query the database for the required
// information" (§3.4). Examples and the analysis module issue SELECTs with
// WHERE/GROUP BY/aggregates through this executor.
//
// SELECT execution is plan-driven (see query_plan.hpp): sargable WHERE/ON
// conjuncts route through table indexes, and the full predicate is then
// re-evaluated on the candidates, so results are byte-identical to a full
// scan. `ExecOptions::use_indexes = false` forces the scan path — the
// differential test suite runs every query both ways.
#pragma once

#include <functional>
#include <string>
#include <vector>

#include "db/database.hpp"
#include "db/query_plan.hpp"
#include "db/sql_ast.hpp"

namespace goofi::db {

/// Result set of a statement. Non-SELECT statements return an empty rowset
/// and report the number of affected rows.
struct QueryResult {
  std::vector<std::string> columns;
  std::vector<Row> rows;
  size_t affected = 0;

  /// Column index by (case-insensitive) name, or nullopt.
  std::optional<size_t> ColumnIndex(std::string_view name) const;

  /// ASCII table rendering, for examples and debugging.
  std::string ToString() const;
};

struct ExecOptions {
  /// When false, every SELECT runs as a full nested-loop scan even if an
  /// index applies (reference semantics for differential testing).
  bool use_indexes = true;
  /// Values bound to `?` placeholders, in order. Evaluating a placeholder
  /// without a bound value is an error.
  const std::vector<Value>* params = nullptr;
};

/// Parses and executes one SQL statement.
util::Result<QueryResult> ExecuteSql(Database& database, const std::string& sql);
util::Result<QueryResult> ExecuteSql(Database& database, const std::string& sql,
                                     const ExecOptions& options);

/// Executes an already-parsed statement. `select_plan` optionally supplies a
/// cached plan for a SelectStmt (the prepared-statement layer); it must have
/// been built for this database at its current schema_version. When null,
/// SELECTs are planned on the fly.
util::Result<QueryResult> ExecuteStatement(Database& database,
                                           const Statement& statement);
util::Result<QueryResult> ExecuteStatement(Database& database,
                                           const Statement& statement,
                                           const ExecOptions& options,
                                           const SelectPlan* select_plan = nullptr);

/// The gather-and-WHERE stage of ExecuteStatement for a SELECT, without the
/// result set: calls `fn` on each stored row of the FROM table that passes
/// the WHERE clause, in the order ExecuteStatement would return it, read in
/// place (every column, whatever the select list). The row is valid only
/// inside `fn`, and nothing may mutate the table until this returns. Stops
/// at the first error, `fn`'s included. kInvalidArgument for a SELECT with
/// joins, GROUP BY, aggregates, ORDER BY or LIMIT. `select_plan` as for
/// ExecuteStatement.
util::Status ForEachSelectMatch(
    const Database& database, const SelectStmt& stmt,
    const ExecOptions& options, const SelectPlan* select_plan,
    const std::function<util::Status(const Row&)>& fn);

/// Parses `sql` and returns the chosen plan as text (shell `explain`).
util::Result<std::string> ExplainSql(Database& database, const std::string& sql);

}  // namespace goofi::db
