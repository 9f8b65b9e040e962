#include "db/sql_parser.hpp"

#include <type_traits>

#include "db/sql_tokenizer.hpp"
#include "util/strings.hpp"

namespace goofi::db {

namespace {

const char* const kAggregates[] = {"COUNT", "SUM", "AVG", "MIN", "MAX"};
const char* const kScalarFuncs[] = {"ABS", "LENGTH"};

bool IsAggregateName(std::string_view name) {
  for (const char* agg : kAggregates) {
    if (util::EqualsIgnoreCase(name, agg)) return true;
  }
  return false;
}

bool IsFunctionName(std::string_view name) {
  if (IsAggregateName(name)) return true;
  for (const char* fn : kScalarFuncs) {
    if (util::EqualsIgnoreCase(name, fn)) return true;
  }
  return false;
}

class Parser {
 public:
  explicit Parser(std::vector<Token> tokens) : tokens_(std::move(tokens)) {}

  util::Result<Statement> ParseStatement() {
    util::Result<Statement> result = ParseStatementImpl();
    if (!result.ok()) return result;
    if (Peek().IsSymbol(";")) Advance();
    if (Peek().type != TokenType::kEnd) {
      return Error("trailing input after statement");
    }
    return result;
  }

 private:
  util::Result<Statement> ParseStatementImpl() {
    const Token& tok = Peek();
    if (tok.IsKeyword("SELECT")) return WrapStmt(ParseSelect());
    if (tok.IsKeyword("INSERT")) return WrapStmt(ParseInsert());
    if (tok.IsKeyword("UPDATE")) return WrapStmt(ParseUpdate());
    if (tok.IsKeyword("DELETE")) return WrapStmt(ParseDelete());
    if (tok.IsKeyword("CREATE")) {
      if (PeekAhead(1).IsKeyword("INDEX")) return WrapStmt(ParseCreateIndex());
      return WrapStmt(ParseCreateTable());
    }
    if (tok.IsKeyword("DROP")) {
      if (PeekAhead(1).IsKeyword("INDEX")) return WrapStmt(ParseDropIndex());
      return WrapStmt(ParseDropTable());
    }
    return Error("expected a statement keyword");
  }

  template <typename T>
  util::Result<Statement> WrapStmt(util::Result<T> inner) {
    if (!inner.ok()) return inner.status();
    return Statement(std::move(inner).value());
  }

  // --- SELECT ---------------------------------------------------------

  util::Result<SelectStmt> ParseSelect() {
    Advance();  // SELECT
    SelectStmt stmt;
    for (;;) {
      SelectItem item;
      if (Peek().IsSymbol("*")) {
        Advance();
        item.star = true;
      } else {
        auto expr = ParseExpr();
        if (!expr.ok()) return expr.status();
        item.expr = std::move(expr).value();
        if (Peek().IsKeyword("AS")) {
          Advance();
          GOOFI_RETURN_IF_ERROR(ExpectIdent(&item.alias));
        } else if (Peek().type == TokenType::kIdent && !IsClauseKeyword(Peek())) {
          item.alias = Peek().text;
          Advance();
        }
      }
      stmt.items.push_back(std::move(item));
      if (!Peek().IsSymbol(",")) break;
      Advance();
    }

    if (!Peek().IsKeyword("FROM")) return Error("expected FROM");
    Advance();
    GOOFI_RETURN_IF_ERROR(ExpectIdent(&stmt.from_table));
    if (Peek().type == TokenType::kIdent && !IsClauseKeyword(Peek())) {
      stmt.from_alias = Peek().text;
      Advance();
    }

    while (Peek().IsKeyword("JOIN") || Peek().IsKeyword("INNER")) {
      if (Peek().IsKeyword("INNER")) {
        Advance();
        if (!Peek().IsKeyword("JOIN")) return Error("expected JOIN after INNER");
      }
      Advance();  // JOIN
      JoinClause join;
      GOOFI_RETURN_IF_ERROR(ExpectIdent(&join.table));
      if (Peek().type == TokenType::kIdent && !Peek().IsKeyword("ON")) {
        join.alias = Peek().text;
        Advance();
      }
      if (!Peek().IsKeyword("ON")) return Error("expected ON in JOIN");
      Advance();
      auto on = ParseExpr();
      if (!on.ok()) return on.status();
      join.on = std::move(on).value();
      stmt.joins.push_back(std::move(join));
    }

    if (Peek().IsKeyword("WHERE")) {
      Advance();
      auto where = ParseExpr();
      if (!where.ok()) return where.status();
      stmt.where = std::move(where).value();
    }
    if (Peek().IsKeyword("GROUP")) {
      Advance();
      if (!Peek().IsKeyword("BY")) return Error("expected BY after GROUP");
      Advance();
      for (;;) {
        auto expr = ParseExpr();
        if (!expr.ok()) return expr.status();
        stmt.group_by.push_back(std::move(expr).value());
        if (!Peek().IsSymbol(",")) break;
        Advance();
      }
    }
    if (Peek().IsKeyword("ORDER")) {
      Advance();
      if (!Peek().IsKeyword("BY")) return Error("expected BY after ORDER");
      Advance();
      for (;;) {
        OrderItem item;
        auto expr = ParseExpr();
        if (!expr.ok()) return expr.status();
        item.expr = std::move(expr).value();
        if (Peek().IsKeyword("ASC")) {
          Advance();
        } else if (Peek().IsKeyword("DESC")) {
          Advance();
          item.descending = true;
        }
        stmt.order_by.push_back(std::move(item));
        if (!Peek().IsSymbol(",")) break;
        Advance();
      }
    }
    if (Peek().IsKeyword("LIMIT")) {
      Advance();
      if (Peek().type != TokenType::kInt) return Error("expected integer after LIMIT");
      stmt.limit = Peek().int_value;
      Advance();
    }
    return stmt;
  }

  static bool IsClauseKeyword(const Token& tok) {
    static const char* const kClauses[] = {"FROM",  "WHERE", "GROUP", "ORDER",
                                           "LIMIT", "JOIN",  "INNER", "ON",
                                           "AS",    "ASC",   "DESC",  "SET"};
    for (const char* kw : kClauses) {
      if (tok.IsKeyword(kw)) return true;
    }
    return false;
  }

  // --- INSERT ---------------------------------------------------------

  util::Result<InsertStmt> ParseInsert() {
    Advance();  // INSERT
    if (!Peek().IsKeyword("INTO")) return Error("expected INTO");
    Advance();
    InsertStmt stmt;
    GOOFI_RETURN_IF_ERROR(ExpectIdent(&stmt.table));
    if (Peek().IsSymbol("(")) {
      Advance();
      for (;;) {
        std::string col;
        GOOFI_RETURN_IF_ERROR(ExpectIdent(&col));
        stmt.columns.push_back(std::move(col));
        if (Peek().IsSymbol(")")) break;
        if (!Peek().IsSymbol(",")) return Error("expected , or ) in column list");
        Advance();
      }
      Advance();  // )
    }
    if (!Peek().IsKeyword("VALUES")) return Error("expected VALUES");
    Advance();
    for (;;) {
      if (!Peek().IsSymbol("(")) return Error("expected ( in VALUES");
      Advance();
      std::vector<ExprPtr> row;
      for (;;) {
        auto expr = ParseExpr();
        if (!expr.ok()) return expr.status();
        row.push_back(std::move(expr).value());
        if (Peek().IsSymbol(")")) break;
        if (!Peek().IsSymbol(",")) return Error("expected , or ) in VALUES row");
        Advance();
      }
      Advance();  // )
      stmt.rows.push_back(std::move(row));
      if (!Peek().IsSymbol(",")) break;
      Advance();
    }
    return stmt;
  }

  // --- UPDATE / DELETE -------------------------------------------------

  util::Result<UpdateStmt> ParseUpdate() {
    Advance();  // UPDATE
    UpdateStmt stmt;
    GOOFI_RETURN_IF_ERROR(ExpectIdent(&stmt.table));
    if (!Peek().IsKeyword("SET")) return Error("expected SET");
    Advance();
    for (;;) {
      std::string col;
      GOOFI_RETURN_IF_ERROR(ExpectIdent(&col));
      if (!Peek().IsSymbol("=")) return Error("expected = in SET");
      Advance();
      auto expr = ParseExpr();
      if (!expr.ok()) return expr.status();
      stmt.assignments.emplace_back(std::move(col), std::move(expr).value());
      if (!Peek().IsSymbol(",")) break;
      Advance();
    }
    if (Peek().IsKeyword("WHERE")) {
      Advance();
      auto where = ParseExpr();
      if (!where.ok()) return where.status();
      stmt.where = std::move(where).value();
    }
    return stmt;
  }

  util::Result<DeleteStmt> ParseDelete() {
    Advance();  // DELETE
    if (!Peek().IsKeyword("FROM")) return Error("expected FROM");
    Advance();
    DeleteStmt stmt;
    GOOFI_RETURN_IF_ERROR(ExpectIdent(&stmt.table));
    if (Peek().IsKeyword("WHERE")) {
      Advance();
      auto where = ParseExpr();
      if (!where.ok()) return where.status();
      stmt.where = std::move(where).value();
    }
    return stmt;
  }

  // --- CREATE / DROP TABLE ----------------------------------------------

  util::Result<CreateTableStmt> ParseCreateTable() {
    Advance();  // CREATE
    if (!Peek().IsKeyword("TABLE")) return Error("expected TABLE");
    Advance();
    std::string name;
    GOOFI_RETURN_IF_ERROR(ExpectIdent(&name));
    if (!Peek().IsSymbol("(")) return Error("expected ( in CREATE TABLE");
    Advance();

    std::vector<Column> columns;
    std::vector<std::string> primary_key;
    std::vector<ForeignKey> fks;
    for (;;) {
      if (Peek().IsKeyword("PRIMARY")) {
        Advance();
        if (!Peek().IsKeyword("KEY")) return Error("expected KEY");
        Advance();
        auto cols = ParseParenIdentList();
        if (!cols.ok()) return cols.status();
        primary_key = std::move(cols).value();
      } else if (Peek().IsKeyword("FOREIGN")) {
        Advance();
        if (!Peek().IsKeyword("KEY")) return Error("expected KEY");
        Advance();
        ForeignKey fk;
        auto local = ParseParenIdentList();
        if (!local.ok()) return local.status();
        fk.local_columns = std::move(local).value();
        if (!Peek().IsKeyword("REFERENCES")) return Error("expected REFERENCES");
        Advance();
        GOOFI_RETURN_IF_ERROR(ExpectIdent(&fk.ref_table));
        auto refs = ParseParenIdentList();
        if (!refs.ok()) return refs.status();
        fk.ref_columns = std::move(refs).value();
        fks.push_back(std::move(fk));
      } else {
        Column col;
        GOOFI_RETURN_IF_ERROR(ExpectIdent(&col.name));
        const Token& type_tok = Peek();
        if (type_tok.IsKeyword("INTEGER") || type_tok.IsKeyword("INT")) {
          col.type = ValueType::kInt;
        } else if (type_tok.IsKeyword("REAL") || type_tok.IsKeyword("DOUBLE")) {
          col.type = ValueType::kReal;
        } else if (type_tok.IsKeyword("TEXT") || type_tok.IsKeyword("VARCHAR")) {
          col.type = ValueType::kText;
        } else {
          return Error("expected a column type");
        }
        Advance();
        for (;;) {
          if (Peek().IsKeyword("NOT")) {
            Advance();
            if (!Peek().IsKeyword("NULL")) return Error("expected NULL after NOT");
            Advance();
            col.not_null = true;
          } else if (Peek().IsKeyword("PRIMARY")) {
            Advance();
            if (!Peek().IsKeyword("KEY")) return Error("expected KEY");
            Advance();
            primary_key.push_back(col.name);
          } else {
            break;
          }
        }
        columns.push_back(std::move(col));
      }
      if (Peek().IsSymbol(")")) break;
      if (!Peek().IsSymbol(",")) return Error("expected , or ) in CREATE TABLE");
      Advance();
    }
    Advance();  // )
    CreateTableStmt stmt;
    stmt.schema = Schema(std::move(name), std::move(columns),
                         std::move(primary_key), std::move(fks));
    return stmt;
  }

  util::Result<DropTableStmt> ParseDropTable() {
    Advance();  // DROP
    if (!Peek().IsKeyword("TABLE")) return Error("expected TABLE");
    Advance();
    DropTableStmt stmt;
    GOOFI_RETURN_IF_ERROR(ExpectIdent(&stmt.table));
    return stmt;
  }

  // --- CREATE / DROP INDEX ----------------------------------------------

  util::Result<CreateIndexStmt> ParseCreateIndex() {
    Advance();  // CREATE
    Advance();  // INDEX
    CreateIndexStmt stmt;
    GOOFI_RETURN_IF_ERROR(ExpectIdent(&stmt.index_name));
    if (!Peek().IsKeyword("ON")) return Error("expected ON in CREATE INDEX");
    Advance();
    GOOFI_RETURN_IF_ERROR(ExpectIdent(&stmt.table));
    auto cols = ParseParenIdentList();
    if (!cols.ok()) return cols.status();
    stmt.columns = std::move(cols).value();
    return stmt;
  }

  util::Result<DropIndexStmt> ParseDropIndex() {
    Advance();  // DROP
    Advance();  // INDEX
    DropIndexStmt stmt;
    GOOFI_RETURN_IF_ERROR(ExpectIdent(&stmt.index_name));
    if (!Peek().IsKeyword("ON")) return Error("expected ON in DROP INDEX");
    Advance();
    GOOFI_RETURN_IF_ERROR(ExpectIdent(&stmt.table));
    return stmt;
  }

  util::Result<std::vector<std::string>> ParseParenIdentList() {
    if (!Peek().IsSymbol("(")) return Error("expected (");
    Advance();
    std::vector<std::string> out;
    for (;;) {
      std::string ident;
      GOOFI_RETURN_IF_ERROR(ExpectIdent(&ident));
      out.push_back(std::move(ident));
      if (Peek().IsSymbol(")")) break;
      if (!Peek().IsSymbol(",")) return Error("expected , or )");
      Advance();
    }
    Advance();  // )
    return out;
  }

  // --- expressions ------------------------------------------------------
  // Precedence: OR < AND < NOT < comparison < additive < multiplicative <
  // unary minus < primary.

  util::Result<ExprPtr> ParseExpr() { return ParseOr(); }

  util::Result<ExprPtr> ParseOr() {
    auto lhs = ParseAnd();
    if (!lhs.ok()) return lhs;
    while (Peek().IsKeyword("OR")) {
      Advance();
      auto rhs = ParseAnd();
      if (!rhs.ok()) return rhs;
      lhs = Bounded(
          Expr::Binary("OR", std::move(lhs).value(), std::move(rhs).value()));
      if (!lhs.ok()) return lhs;
    }
    return lhs;
  }

  util::Result<ExprPtr> ParseAnd() {
    auto lhs = ParseNot();
    if (!lhs.ok()) return lhs;
    while (Peek().IsKeyword("AND")) {
      Advance();
      auto rhs = ParseNot();
      if (!rhs.ok()) return rhs;
      lhs = Bounded(
          Expr::Binary("AND", std::move(lhs).value(), std::move(rhs).value()));
      if (!lhs.ok()) return lhs;
    }
    return lhs;
  }

  util::Result<ExprPtr> ParseNot() {
    if (Peek().IsKeyword("NOT")) {
      Advance();
      auto arg = Nested(&Parser::ParseNot);
      if (!arg.ok()) return arg;
      return Bounded(Expr::Unary("NOT", std::move(arg).value()));
    }
    return ParseComparison();
  }

  util::Result<ExprPtr> ParseComparison() {
    auto lhs = ParseAdditive();
    if (!lhs.ok()) return lhs;
    // IS NULL / IS NOT NULL
    if (Peek().IsKeyword("IS")) {
      Advance();
      bool negated = false;
      if (Peek().IsKeyword("NOT")) {
        Advance();
        negated = true;
      }
      if (!Peek().IsKeyword("NULL")) return Error("expected NULL after IS");
      Advance();
      return Bounded(Expr::Binary(negated ? "ISNOTNULL" : "ISNULL",
                                  std::move(lhs).value(),
                                  Expr::Literal(Value::Null())));
    }
    static const char* const kCmps[] = {"=", "!=", "<=", ">=", "<", ">"};
    for (const char* op : kCmps) {
      if (Peek().IsSymbol(op)) {
        Advance();
        auto rhs = ParseAdditive();
        if (!rhs.ok()) return rhs;
        return Bounded(
            Expr::Binary(op, std::move(lhs).value(), std::move(rhs).value()));
      }
    }
    return lhs;
  }

  util::Result<ExprPtr> ParseAdditive() {
    auto lhs = ParseMultiplicative();
    if (!lhs.ok()) return lhs;
    for (;;) {
      const char* op = nullptr;
      if (Peek().IsSymbol("+")) {
        op = "+";
      } else if (Peek().IsSymbol("-")) {
        op = "-";
      } else {
        break;
      }
      Advance();
      auto rhs = ParseMultiplicative();
      if (!rhs.ok()) return rhs;
      lhs = Bounded(
          Expr::Binary(op, std::move(lhs).value(), std::move(rhs).value()));
      if (!lhs.ok()) return lhs;
    }
    return lhs;
  }

  util::Result<ExprPtr> ParseMultiplicative() {
    auto lhs = ParseUnary();
    if (!lhs.ok()) return lhs;
    for (;;) {
      const char* op = nullptr;
      if (Peek().IsSymbol("*")) {
        op = "*";
      } else if (Peek().IsSymbol("/")) {
        op = "/";
      } else if (Peek().IsSymbol("%")) {
        op = "%";
      } else {
        break;
      }
      Advance();
      auto rhs = ParseUnary();
      if (!rhs.ok()) return rhs;
      lhs = Bounded(
          Expr::Binary(op, std::move(lhs).value(), std::move(rhs).value()));
      if (!lhs.ok()) return lhs;
    }
    return lhs;
  }

  util::Result<ExprPtr> ParseUnary() {
    if (Peek().IsSymbol("-")) {
      Advance();
      auto arg = Nested(&Parser::ParseUnary);
      if (!arg.ok()) return arg;
      return Bounded(Expr::Unary("NEG", std::move(arg).value()));
    }
    return ParsePrimary();
  }

  util::Result<ExprPtr> ParsePrimary() {
    const Token& tok = Peek();
    switch (tok.type) {
      case TokenType::kInt: {
        Advance();
        return ExprPtr(Expr::Literal(Value::Int(tok.int_value)));
      }
      case TokenType::kReal: {
        Advance();
        return ExprPtr(Expr::Literal(Value::Real(tok.real_value)));
      }
      case TokenType::kString: {
        Advance();
        return ExprPtr(Expr::Literal(Value::Text(tok.text)));
      }
      case TokenType::kSymbol: {
        if (tok.IsSymbol("?")) {
          Advance();
          return ExprPtr(Expr::Param(next_param_++));
        }
        if (tok.IsSymbol("(")) {
          Advance();
          auto inner = Nested(&Parser::ParseExpr);
          if (!inner.ok()) return inner;
          if (!Peek().IsSymbol(")")) return Error("expected )");
          Advance();
          return inner;
        }
        return Error("unexpected symbol '" + tok.text + "'");
      }
      case TokenType::kIdent: {
        if (tok.IsKeyword("NULL")) {
          Advance();
          return ExprPtr(Expr::Literal(Value::Null()));
        }
        const std::string first = tok.text;
        Advance();
        if (Peek().IsSymbol("(")) {  // function call
          if (!IsFunctionName(first)) {
            return Error("unknown function " + first);
          }
          Advance();
          auto e = std::make_unique<Expr>();
          e->kind = Expr::Kind::kCall;
          e->func = util::ToUpper(first);
          if (Peek().IsSymbol("*")) {
            Advance();
            e->star = true;
          } else if (!Peek().IsSymbol(")")) {
            for (;;) {
              auto arg = Nested(&Parser::ParseExpr);
              if (!arg.ok()) return arg;
              e->depth = std::max(e->depth, arg.value()->depth + 1);
              e->args.push_back(std::move(arg).value());
              if (Peek().IsSymbol(")")) break;
              if (!Peek().IsSymbol(",")) return Error("expected , or ) in call");
              Advance();
            }
          }
          if (!Peek().IsSymbol(")")) return Error("expected ) after call args");
          Advance();
          return Bounded(std::move(e));
        }
        if (Peek().IsSymbol(".")) {  // qualified column
          Advance();
          std::string column;
          GOOFI_RETURN_IF_ERROR(ExpectIdent(&column));
          return ExprPtr(Expr::Column(first, std::move(column)));
        }
        return ExprPtr(Expr::Column("", first));
      }
      case TokenType::kEnd:
        return Error("unexpected end of input in expression");
    }
    return Error("unexpected token");
  }

  // --- depth bound ----------------------------------------------------------

  /// Parses the operand of NOT, unary minus, parentheses or a call one
  /// nesting level down, failing past kMaxExprDepth before the descent can
  /// run out of stack.
  util::Result<ExprPtr> Nested(util::Result<ExprPtr> (Parser::*parse)()) {
    if (nesting_ == kMaxExprDepth) return TooDeep();
    ++nesting_;
    auto e = (this->*parse)();
    --nesting_;
    return e;
  }

  /// Passes a freshly built node on, or fails when its tree is deeper than
  /// kMaxExprDepth.
  util::Result<ExprPtr> Bounded(ExprPtr e) const {
    if (e->depth > kMaxExprDepth) return TooDeep();
    return e;
  }

  util::Status TooDeep() const {
    return Error("expression nested deeper than " +
                 std::to_string(kMaxExprDepth) + " levels");
  }

  // --- plumbing -----------------------------------------------------------

  const Token& Peek() const { return tokens_[pos_]; }
  const Token& PeekAhead(size_t n) const {
    const size_t i = pos_ + n;
    return i < tokens_.size() ? tokens_[i] : tokens_.back();
  }
  void Advance() {
    if (tokens_[pos_].type != TokenType::kEnd) ++pos_;
  }

  util::Status ExpectIdent(std::string* out) {
    if (Peek().type != TokenType::kIdent) {
      return util::ParseError("expected identifier at offset " +
                              std::to_string(Peek().offset));
    }
    *out = Peek().text;
    Advance();
    return util::Status::Ok();
  }

  util::Status Error(const std::string& message) const {
    return util::ParseError(message + " (at offset " +
                            std::to_string(Peek().offset) + ")");
  }

  std::vector<Token> tokens_;
  size_t pos_ = 0;
  size_t next_param_ = 0;  ///< ordinal assigned to the next `?` placeholder
  size_t nesting_ = 0;     ///< Nested operands open around the cursor
};

}  // namespace

bool Expr::ContainsAggregate() const {
  if (kind == Kind::kCall && IsAggregateName(func)) return true;
  for (const auto& arg : args) {
    if (arg->ContainsAggregate()) return true;
  }
  return false;
}

size_t Expr::CountParams() const {
  size_t count = kind == Kind::kParam ? 1 : 0;
  for (const auto& arg : args) count += arg->CountParams();
  return count;
}

size_t CountStatementParams(const Statement& statement) {
  auto count_opt = [](const ExprPtr& e) { return e ? e->CountParams() : 0; };
  return std::visit(
      [&](const auto& stmt) -> size_t {
        using T = std::decay_t<decltype(stmt)>;
        size_t n = 0;
        if constexpr (std::is_same_v<T, SelectStmt>) {
          for (const SelectItem& item : stmt.items) n += count_opt(item.expr);
          for (const JoinClause& join : stmt.joins) n += count_opt(join.on);
          n += count_opt(stmt.where);
          for (const ExprPtr& e : stmt.group_by) n += count_opt(e);
          for (const OrderItem& item : stmt.order_by) n += count_opt(item.expr);
        } else if constexpr (std::is_same_v<T, InsertStmt>) {
          for (const auto& row : stmt.rows) {
            for (const ExprPtr& e : row) n += count_opt(e);
          }
        } else if constexpr (std::is_same_v<T, UpdateStmt>) {
          for (const auto& [name, e] : stmt.assignments) n += count_opt(e);
          n += count_opt(stmt.where);
        } else if constexpr (std::is_same_v<T, DeleteStmt>) {
          n += count_opt(stmt.where);
        }
        return n;
      },
      statement);
}

util::Result<Statement> ParseSql(const std::string& sql) {
  auto tokens = Tokenize(sql);
  if (!tokens.ok()) return tokens.status();
  Parser parser(std::move(tokens).value());
  return parser.ParseStatement();
}

}  // namespace goofi::db
