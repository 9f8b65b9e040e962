// Recursive-descent parser: token stream -> Statement AST.
#pragma once

#include <cstddef>
#include <string>

#include "db/sql_ast.hpp"
#include "util/status.hpp"

namespace goofi::db {

/// Deepest expression ParseSql accepts, both as nesting (parentheses, NOT,
/// unary minus, function arguments) and as tree depth (Expr::depth, which
/// left-deep operator chains grow without nesting). Parsing, planning,
/// evaluation and destruction all recurse over the tree; the bound keeps
/// each of them far from the end of the stack. Deeper input is a
/// kParseError.
inline constexpr size_t kMaxExprDepth = 256;

/// Parses one SQL statement (a trailing ';' is allowed).
util::Result<Statement> ParseSql(const std::string& sql);

}  // namespace goofi::db
