// Abstract syntax tree for the SQL dialect.
//
// Supported statements: CREATE TABLE, DROP TABLE, INSERT, SELECT (with JOIN,
// WHERE, GROUP BY, ORDER BY, LIMIT, aggregates), UPDATE, DELETE. This covers
// the analysis queries the paper expects users to write against
// LoggedSystemState (§3.4) and everything the tool itself needs.
#pragma once

#include <algorithm>
#include <memory>
#include <optional>
#include <string>
#include <utility>
#include <variant>
#include <vector>

#include "db/schema.hpp"

namespace goofi::db {

struct Expr;
using ExprPtr = std::unique_ptr<Expr>;

struct Expr {
  enum class Kind {
    kLiteral,  ///< `literal`
    kColumn,   ///< [qualifier.]column
    kParam,    ///< `?` placeholder, bound at execution time
    kUnary,    ///< op(args[0]); op in {NOT, NEG}
    kBinary,   ///< op(args[0], args[1]); comparisons, AND/OR, arithmetic
    kCall,     ///< func(args...) or COUNT(*) when star
  };

  Kind kind = Kind::kLiteral;
  Value literal;
  std::string qualifier;  ///< table name or alias; empty if unqualified
  std::string column;
  std::string op;    ///< canonical: NOT NEG AND OR = != < <= > >= + - * / %
  std::string func;  ///< uppercase: COUNT SUM AVG MIN MAX ABS LENGTH
  bool star = false; ///< COUNT(*)
  size_t param_index = 0;  ///< ordinal of a kParam, left to right from 0
  std::vector<ExprPtr> args;
  /// Levels of operators and calls below and including this node: 0 for a
  /// leaf, else 1 + the deepest argument's. The parser bounds it by
  /// kMaxExprDepth (db/sql_parser.hpp).
  size_t depth = 0;

  static ExprPtr Literal(Value v) {
    auto e = std::make_unique<Expr>();
    e->kind = Kind::kLiteral;
    e->literal = std::move(v);
    return e;
  }
  static ExprPtr Column(std::string qualifier, std::string column) {
    auto e = std::make_unique<Expr>();
    e->kind = Kind::kColumn;
    e->qualifier = std::move(qualifier);
    e->column = std::move(column);
    return e;
  }
  static ExprPtr Unary(std::string op, ExprPtr arg) {
    auto e = std::make_unique<Expr>();
    e->kind = Kind::kUnary;
    e->op = std::move(op);
    e->depth = arg->depth + 1;
    e->args.push_back(std::move(arg));
    return e;
  }
  static ExprPtr Binary(std::string op, ExprPtr lhs, ExprPtr rhs) {
    auto e = std::make_unique<Expr>();
    e->kind = Kind::kBinary;
    e->op = std::move(op);
    e->depth = std::max(lhs->depth, rhs->depth) + 1;
    e->args.push_back(std::move(lhs));
    e->args.push_back(std::move(rhs));
    return e;
  }
  static ExprPtr Param(size_t index) {
    auto e = std::make_unique<Expr>();
    e->kind = Kind::kParam;
    e->param_index = index;
    return e;
  }

  /// True if this expression (recursively) contains an aggregate call.
  bool ContainsAggregate() const;

  /// Number of `?` placeholders in this expression (recursively).
  size_t CountParams() const;
};

struct SelectItem {
  ExprPtr expr;        ///< null when star
  std::string alias;   ///< output column name; derived if empty
  bool star = false;   ///< bare `*`
};

struct JoinClause {
  std::string table;
  std::string alias;  ///< empty = table name
  ExprPtr on;
};

struct OrderItem {
  ExprPtr expr;
  bool descending = false;
};

struct SelectStmt {
  std::vector<SelectItem> items;
  std::string from_table;
  std::string from_alias;
  std::vector<JoinClause> joins;
  ExprPtr where;
  std::vector<ExprPtr> group_by;
  std::vector<OrderItem> order_by;
  std::optional<int64_t> limit;
};

struct InsertStmt {
  std::string table;
  std::vector<std::string> columns;          ///< empty = schema order
  std::vector<std::vector<ExprPtr>> rows;    ///< constant expressions
};

struct UpdateStmt {
  std::string table;
  std::vector<std::pair<std::string, ExprPtr>> assignments;
  ExprPtr where;
};

struct DeleteStmt {
  std::string table;
  ExprPtr where;
};

struct CreateTableStmt {
  Schema schema;
};

struct DropTableStmt {
  std::string table;
};

/// `CREATE INDEX name ON table (col, ...)`. One column builds a sorted index
/// (equality + range probes); several build a hash index (equality only).
struct CreateIndexStmt {
  std::string index_name;
  std::string table;
  std::vector<std::string> columns;
};

struct DropIndexStmt {
  std::string index_name;
  std::string table;
};

using Statement =
    std::variant<SelectStmt, InsertStmt, UpdateStmt, DeleteStmt,
                 CreateTableStmt, DropTableStmt, CreateIndexStmt,
                 DropIndexStmt>;

/// Number of `?` placeholders in the statement, in binding order.
size_t CountStatementParams(const Statement& statement);

}  // namespace goofi::db
