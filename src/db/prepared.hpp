// Prepared statements and a statement cache.
//
// A PreparedStatement parses its SQL once and, for SELECTs, caches the
// chosen access plan alongside the AST. The plan holds pointers into the
// database's tables and indexes, so it is keyed by (database, schema
// version): any DDL — CREATE/DROP TABLE or INDEX, or a Load — bumps
// Database::schema_version() and forces a replan on the next Execute.
//
// StatementCache maps SQL text to prepared statements so hot paths (the
// campaign store's per-experiment INSERT/SELECT) skip tokenizing, parsing
// and planning entirely after the first call. Both classes are internally
// locked; the database itself is not, so concurrent Execute calls are only
// safe when the callers already serialize table mutations (the parallel
// campaign runner commits batches under its own store mutex).
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <string>
#include <unordered_map>
#include <vector>

#include "db/sql_executor.hpp"

namespace goofi::db {

class PreparedStatement {
 public:
  /// Parses `sql`. Fails on parse errors; the statement is not validated
  /// against any schema until executed.
  static util::Result<std::shared_ptr<PreparedStatement>> Prepare(
      const std::string& sql);

  /// Executes with `params` bound to the `?` placeholders in order.
  /// Fails if the parameter count does not match.
  util::Result<QueryResult> Execute(Database& database,
                                    const std::vector<Value>& params = {});

  /// Executes a SELECT without building its result set: `fn` sees each
  /// stored row that passes the WHERE clause, in place and in result order
  /// (ForEachSelectMatch). The SELECT must have no joins, GROUP BY,
  /// aggregates, ORDER BY or LIMIT.
  util::Status ForEachMatch(const Database& database,
                            const std::vector<Value>& params,
                            const std::function<util::Status(const Row&)>& fn);

  const std::string& sql() const { return sql_; }
  size_t params_expected() const { return params_expected_; }

  /// Number of times Execute (re)planned the SELECT. Stays 0 for
  /// non-SELECT statements; grows past 1 only after schema changes.
  uint64_t plans_built() const;

 private:
  PreparedStatement(std::string sql, Statement statement);

  util::Status CheckParams(const std::vector<Value>& params) const;
  /// The cached plan for `database`, rebuilt first when stale.
  SelectPlan CurrentPlan(const Database& database, const SelectStmt& select);

  const std::string sql_;
  const Statement statement_;
  const size_t params_expected_;

  // Cached SELECT plan, valid for (plan_database_, plan_version_) only.
  mutable std::mutex mutex_;
  SelectPlan plan_;
  const Database* plan_database_ = nullptr;
  uint64_t plan_version_ = 0;
  bool plan_valid_ = false;
  uint64_t plans_built_ = 0;
};

/// SQL-text-keyed cache of prepared statements.
class StatementCache {
 public:
  /// At most `capacity` distinct statements are kept; preparing one more
  /// evicts the whole cache (hot paths reuse a handful of fixed strings,
  /// so eviction only fires on adversarial workloads).
  explicit StatementCache(size_t capacity = 64) : capacity_(capacity) {}

  /// The prepared statement for `sql`, preparing and caching it on miss.
  util::Result<std::shared_ptr<PreparedStatement>> Get(const std::string& sql);

  /// Get + Execute in one call.
  util::Result<QueryResult> Execute(Database& database, const std::string& sql,
                                    const std::vector<Value>& params = {});

  uint64_t hits() const;
  uint64_t misses() const;
  size_t size() const;
  void Clear();

 private:
  const size_t capacity_;
  mutable std::mutex mutex_;
  std::unordered_map<std::string, std::shared_ptr<PreparedStatement>> cache_;
  uint64_t hits_ = 0;
  uint64_t misses_ = 0;
};

}  // namespace goofi::db
