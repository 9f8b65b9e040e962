#include "db/prepared.hpp"

#include "db/sql_parser.hpp"

namespace goofi::db {

PreparedStatement::PreparedStatement(std::string sql, Statement statement)
    : sql_(std::move(sql)),
      statement_(std::move(statement)),
      params_expected_(CountStatementParams(statement_)) {}

util::Result<std::shared_ptr<PreparedStatement>> PreparedStatement::Prepare(
    const std::string& sql) {
  auto statement = ParseSql(sql);
  if (!statement.ok()) return statement.status();
  return std::shared_ptr<PreparedStatement>(
      new PreparedStatement(sql, std::move(statement).value()));
}

util::Status PreparedStatement::CheckParams(
    const std::vector<Value>& params) const {
  if (params.size() != params_expected_) {
    return util::InvalidArgument(
        "statement expects " + std::to_string(params_expected_) +
        " parameter(s), got " + std::to_string(params.size()));
  }
  return util::Status::Ok();
}

SelectPlan PreparedStatement::CurrentPlan(const Database& database,
                                          const SelectStmt& select) {
  // Reuse the cached plan when it was built for this database at its current
  // schema version; otherwise replan. The plan is copied out so the lock is
  // not held across execution.
  std::lock_guard<std::mutex> lock(mutex_);
  if (!plan_valid_ || plan_database_ != &database ||
      plan_version_ != database.schema_version()) {
    plan_ = PlanSelect(database, select);
    plan_database_ = &database;
    plan_version_ = database.schema_version();
    plan_valid_ = true;
    ++plans_built_;
  }
  return plan_;
}

util::Result<QueryResult> PreparedStatement::Execute(
    Database& database, const std::vector<Value>& params) {
  GOOFI_RETURN_IF_ERROR(CheckParams(params));
  ExecOptions options;
  options.params = &params;
  const auto* select = std::get_if<SelectStmt>(&statement_);
  if (select == nullptr) {
    return ExecuteStatement(database, statement_, options);
  }
  const SelectPlan plan = CurrentPlan(database, *select);
  return ExecuteStatement(database, statement_, options, &plan);
}

util::Status PreparedStatement::ForEachMatch(
    const Database& database, const std::vector<Value>& params,
    const std::function<util::Status(const Row&)>& fn) {
  GOOFI_RETURN_IF_ERROR(CheckParams(params));
  const auto* select = std::get_if<SelectStmt>(&statement_);
  if (select == nullptr) {
    return util::InvalidArgument("ForEachMatch needs a SELECT");
  }
  ExecOptions options;
  options.params = &params;
  const SelectPlan plan = CurrentPlan(database, *select);
  return ForEachSelectMatch(database, *select, options, &plan, fn);
}

uint64_t PreparedStatement::plans_built() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return plans_built_;
}

util::Result<std::shared_ptr<PreparedStatement>> StatementCache::Get(
    const std::string& sql) {
  {
    std::lock_guard<std::mutex> lock(mutex_);
    const auto it = cache_.find(sql);
    if (it != cache_.end()) {
      ++hits_;
      return it->second;
    }
    ++misses_;
  }
  // Parse outside the lock; parsing is the expensive part.
  auto prepared = PreparedStatement::Prepare(sql);
  if (!prepared.ok()) return prepared.status();
  std::lock_guard<std::mutex> lock(mutex_);
  if (cache_.size() >= capacity_) cache_.clear();
  auto [it, inserted] = cache_.emplace(sql, std::move(prepared).value());
  return it->second;
}

util::Result<QueryResult> StatementCache::Execute(
    Database& database, const std::string& sql,
    const std::vector<Value>& params) {
  auto prepared = Get(sql);
  if (!prepared.ok()) return prepared.status();
  return prepared.value()->Execute(database, params);
}

uint64_t StatementCache::hits() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return hits_;
}

uint64_t StatementCache::misses() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return misses_;
}

size_t StatementCache::size() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return cache_.size();
}

void StatementCache::Clear() {
  std::lock_guard<std::mutex> lock(mutex_);
  cache_.clear();
}

}  // namespace goofi::db
