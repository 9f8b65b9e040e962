#include "db/query_plan.hpp"

#include <algorithm>
#include <sstream>

namespace goofi::db {

namespace {

/// True when every column reference in `expr` resolves. The planner only
/// routes through an index when the whole predicate is well-formed;
/// otherwise an index probe that yields no candidates would silently
/// swallow the "unknown column" error a scan reports.
bool ColumnsResolve(const Expr& expr, const Resolver& resolver) {
  if (expr.kind == Expr::Kind::kColumn) {
    return resolver.Resolve(expr.qualifier, expr.column).ok();
  }
  for (const ExprPtr& arg : expr.args) {
    if (!ColumnsResolve(*arg, resolver)) return false;
  }
  return true;
}

/// True when `expr` is row-independent: no column references, no
/// aggregates. Literals, params, arithmetic and scalar functions over them
/// qualify — they can be evaluated once, before the probe.
bool IsRowFree(const Expr& expr) {
  if (expr.kind == Expr::Kind::kColumn) return false;
  if (expr.kind == Expr::Kind::kCall && expr.ContainsAggregate()) return false;
  for (const ExprPtr& arg : expr.args) {
    if (!IsRowFree(*arg)) return false;
  }
  return true;
}

/// True when every column in `expr` resolves to an offset below `limit`
/// (i.e. references only the tables bound before the join being planned).
bool ColumnsBelow(const Expr& expr, const Resolver& resolver, size_t limit) {
  if (expr.kind == Expr::Kind::kColumn) {
    const auto idx = resolver.Resolve(expr.qualifier, expr.column);
    return idx.ok() && idx.value() < limit;
  }
  if (expr.ContainsAggregate()) return false;
  for (const ExprPtr& arg : expr.args) {
    if (!ColumnsBelow(*arg, resolver, limit)) return false;
  }
  return true;
}

/// Splits nested top-level ANDs into individual conjuncts.
void CollectConjuncts(const Expr* expr, std::vector<const Expr*>* out) {
  if (expr->kind == Expr::Kind::kBinary && expr->op == "AND") {
    CollectConjuncts(expr->args[0].get(), out);
    CollectConjuncts(expr->args[1].get(), out);
    return;
  }
  out->push_back(expr);
}

/// A sargable conjunct on one column of the planned table:
/// `col op <row-free expr>` or `col IS NULL`.
struct Sarg {
  size_t column = 0;        ///< column index within the planned table
  std::string op;           ///< = < <= > >= ISNULL
  const Expr* value = nullptr;  ///< null for ISNULL
};

/// Matches `conjunct` against the binding at [offset, offset + width);
/// flips the comparison when the column is on the right-hand side.
std::optional<Sarg> MatchSarg(const Expr& conjunct, const Resolver& resolver,
                              size_t offset, size_t width) {
  if (conjunct.kind != Expr::Kind::kBinary) return std::nullopt;
  auto column_of = [&](const Expr& e) -> std::optional<size_t> {
    if (e.kind != Expr::Kind::kColumn) return std::nullopt;
    const auto idx = resolver.Resolve(e.qualifier, e.column);
    if (!idx.ok() || idx.value() < offset || idx.value() >= offset + width) {
      return std::nullopt;
    }
    return idx.value() - offset;
  };
  if (conjunct.op == "ISNULL") {
    const auto col = column_of(*conjunct.args[0]);
    if (!col) return std::nullopt;
    return Sarg{*col, "ISNULL", nullptr};
  }
  static const char* const kOps[] = {"=", "<", "<=", ">", ">="};
  static const char* const kFlipped[] = {"=", ">", ">=", "<", "<="};
  for (size_t i = 0; i < 5; ++i) {
    if (conjunct.op != kOps[i]) continue;
    if (const auto col = column_of(*conjunct.args[0]);
        col && IsRowFree(*conjunct.args[1])) {
      return Sarg{*col, kOps[i], conjunct.args[1].get()};
    }
    if (const auto col = column_of(*conjunct.args[1]);
        col && IsRowFree(*conjunct.args[0])) {
      return Sarg{*col, kFlipped[i], conjunct.args[0].get()};
    }
    return std::nullopt;
  }
  return std::nullopt;
}

IndexAccess PlanBaseAccess(const Table& table, const std::vector<Sarg>& sargs) {
  IndexAccess access;
  // First equality / IS NULL / range bound per column.
  std::vector<const Expr*> eq(table.schema().num_columns(), nullptr);
  std::vector<bool> is_null(table.schema().num_columns(), false);
  struct Bound {
    const Expr* expr = nullptr;
    bool inclusive = false;
  };
  std::vector<Bound> lower(table.schema().num_columns());
  std::vector<Bound> upper(table.schema().num_columns());
  for (const Sarg& sarg : sargs) {
    if (sarg.op == "=" && eq[sarg.column] == nullptr) {
      eq[sarg.column] = sarg.value;
    } else if (sarg.op == "ISNULL") {
      is_null[sarg.column] = true;
    } else if ((sarg.op == ">" || sarg.op == ">=") &&
               lower[sarg.column].expr == nullptr) {
      lower[sarg.column] = {sarg.value, sarg.op == ">="};
    } else if ((sarg.op == "<" || sarg.op == "<=") &&
               upper[sarg.column].expr == nullptr) {
      upper[sarg.column] = {sarg.value, sarg.op == "<="};
    }
  }

  // Primary key beats everything: at most one row.
  const auto& pk = table.schema().primary_key_indices();
  if (!pk.empty()) {
    bool covered = true;
    for (size_t idx : pk) covered = covered && eq[idx] != nullptr;
    if (covered) {
      access.kind = IndexAccess::Kind::kPrimaryKey;
      for (size_t idx : pk) access.eq_exprs.push_back(eq[idx]);
      return access;
    }
  }
  // Equality probes on every fully covered index, then IS NULL probes on
  // single-column indexes, each in declared order. The executor takes the one
  // with the fewest slots, the earlier one on a tie.
  std::vector<IndexProbe> eq_probes;
  std::vector<IndexProbe> null_probes;
  for (const auto& index : table.indexes()) {
    bool covered = true;
    for (size_t idx : index->columns) covered = covered && eq[idx] != nullptr;
    if (covered) {
      IndexProbe& probe = eq_probes.emplace_back();
      probe.index = index.get();
      for (size_t idx : index->columns) probe.eq_exprs.push_back(eq[idx]);
    }
    if (index->columns.size() == 1 && is_null[index->columns[0]]) {
      null_probes.push_back(IndexProbe{index.get(), {}});
    }
  }
  if (!eq_probes.empty()) {
    access.kind = IndexAccess::Kind::kIndexProbe;
    access.probes = std::move(eq_probes);
    access.probes.insert(access.probes.end(), null_probes.begin(),
                         null_probes.end());
    return access;
  }
  // Range probe on a sorted index.
  for (const auto& index : table.indexes()) {
    if (index->kind != IndexKind::kSorted) continue;
    const size_t col = index->columns[0];
    if (lower[col].expr == nullptr && upper[col].expr == nullptr) continue;
    access.kind = IndexAccess::Kind::kIndexRange;
    access.index = index.get();
    access.lower = lower[col].expr;
    access.lower_inclusive = lower[col].inclusive;
    access.upper = upper[col].expr;
    access.upper_inclusive = upper[col].inclusive;
    return access;
  }
  if (!null_probes.empty()) {
    access.kind = IndexAccess::Kind::kIndexProbe;
    access.probes = std::move(null_probes);
  }
  return access;  // full scan unless an IS NULL probe applies
}

JoinPlan PlanJoin(const Table& right, const Resolver& resolver,
                  size_t right_offset, const Expr& on) {
  JoinPlan plan;
  if (!ColumnsResolve(on, resolver)) return plan;
  std::vector<const Expr*> conjuncts;
  CollectConjuncts(&on, &conjuncts);
  // First `right.col = <expr over earlier tables>` per right column.
  const size_t width = right.schema().num_columns();
  std::vector<const Expr*> eq(width, nullptr);
  for (const Expr* conjunct : conjuncts) {
    if (conjunct->kind != Expr::Kind::kBinary || conjunct->op != "=") continue;
    for (int side = 0; side < 2; ++side) {
      const Expr& col_side = *conjunct->args[side];
      const Expr& val_side = *conjunct->args[1 - side];
      if (col_side.kind != Expr::Kind::kColumn) continue;
      const auto idx = resolver.Resolve(col_side.qualifier, col_side.column);
      if (!idx.ok() || idx.value() < right_offset ||
          idx.value() >= right_offset + width) {
        continue;
      }
      if (!ColumnsBelow(val_side, resolver, right_offset)) continue;
      if (eq[idx.value() - right_offset] == nullptr) {
        eq[idx.value() - right_offset] = &val_side;
      }
      break;
    }
  }
  const auto& pk = right.schema().primary_key_indices();
  if (!pk.empty()) {
    bool covered = true;
    for (size_t idx : pk) covered = covered && eq[idx] != nullptr;
    if (covered) {
      plan.kind = JoinPlan::Kind::kPrimaryKey;
      for (size_t idx : pk) plan.outer_exprs.push_back(eq[idx]);
      return plan;
    }
  }
  for (const auto& index : right.indexes()) {
    bool covered = true;
    for (size_t idx : index->columns) covered = covered && eq[idx] != nullptr;
    if (!covered) continue;
    plan.kind = JoinPlan::Kind::kIndexEq;
    plan.index = index.get();
    for (size_t idx : index->columns) plan.outer_exprs.push_back(eq[idx]);
    return plan;
  }
  return plan;
}

std::string ColumnNames(const Schema& schema,
                        const std::vector<size_t>& columns) {
  std::string out;
  for (size_t i = 0; i < columns.size(); ++i) {
    if (i > 0) out += ", ";
    out += schema.columns()[columns[i]].name;
  }
  return out;
}

std::string PkNames(const Schema& schema) {
  return ColumnNames(schema, schema.primary_key_indices());
}

}  // namespace

SelectPlan PlanSelect(const Database& database, const SelectStmt& stmt) {
  SelectPlan plan;
  const Table* from = database.GetTable(stmt.from_table);
  if (from == nullptr) {
    plan.joins.resize(stmt.joins.size());
    return plan;
  }

  // Bind progressively, exactly like the executor: the ON clause of join i
  // may only reference the FROM table and joins 0..i.
  Resolver resolver;
  resolver.Bind(stmt.from_alias.empty() ? stmt.from_table : stmt.from_alias,
                from->schema());
  size_t prior_width = resolver.total_columns();
  for (const JoinClause& join : stmt.joins) {
    const Table* right = database.GetTable(join.table);
    if (right == nullptr) {
      plan.joins.emplace_back();  // missing table: executor reports it
      continue;
    }
    resolver.Bind(join.alias.empty() ? join.table : join.alias,
                  right->schema());
    plan.joins.push_back(PlanJoin(*right, resolver, prior_width, *join.on));
    prior_width = resolver.total_columns();
  }

  if (stmt.where && ColumnsResolve(*stmt.where, resolver)) {
    std::vector<const Expr*> conjuncts;
    CollectConjuncts(stmt.where.get(), &conjuncts);
    std::vector<Sarg> sargs;
    for (const Expr* conjunct : conjuncts) {
      if (auto sarg = MatchSarg(*conjunct, resolver, 0,
                                from->schema().num_columns())) {
        sargs.push_back(*sarg);
      }
    }
    plan.base = PlanBaseAccess(*from, sargs);
  }
  return plan;
}

std::string DescribePlan(const Database& database, const SelectStmt& stmt,
                         const SelectPlan& plan) {
  std::ostringstream out;
  const Table* from = database.GetTable(stmt.from_table);
  out << "FROM " << stmt.from_table << ": ";
  if (from == nullptr) {
    out << "unknown table\n";
    return out.str();
  }
  const Schema& schema = from->schema();
  switch (plan.base.kind) {
    case IndexAccess::Kind::kFullScan:
      out << "full scan (" << from->size() << " rows)";
      break;
    case IndexAccess::Kind::kPrimaryKey:
      out << "primary-key probe (" << PkNames(schema) << ")";
      break;
    case IndexAccess::Kind::kIndexProbe:
      // Every candidate; the one with the fewest slots runs.
      if (plan.base.probes.size() > 1) out << "smallest of ";
      for (size_t i = 0; i < plan.base.probes.size(); ++i) {
        const IndexProbe& probe = plan.base.probes[i];
        if (i > 0) out << ", ";
        out << (probe.eq_exprs.empty() ? "index IS NULL probe "
                                       : "index equality probe ")
            << probe.index->name << " ("
            << ColumnNames(schema, probe.index->columns) << ")";
      }
      break;
    case IndexAccess::Kind::kIndexRange:
      out << "index range probe " << plan.base.index->name << " ("
          << ColumnNames(schema, plan.base.index->columns) << ", "
          << (plan.base.lower != nullptr ? "bounded below" : "unbounded below")
          << ", "
          << (plan.base.upper != nullptr ? "bounded above" : "unbounded above")
          << ")";
      break;
  }
  out << "\n";
  for (size_t i = 0; i < stmt.joins.size(); ++i) {
    const JoinClause& join = stmt.joins[i];
    const Table* right = database.GetTable(join.table);
    out << "JOIN " << join.table << ": ";
    if (right == nullptr) {
      out << "unknown table\n";
      continue;
    }
    const JoinPlan fallback;
    const JoinPlan& jp = i < plan.joins.size() ? plan.joins[i] : fallback;
    switch (jp.kind) {
      case JoinPlan::Kind::kNestedLoop:
        out << "nested loop (" << right->size() << " rows per outer row)";
        break;
      case JoinPlan::Kind::kPrimaryKey:
        out << "primary-key probe (" << PkNames(right->schema()) << ")";
        break;
      case JoinPlan::Kind::kIndexEq:
        out << "index probe " << jp.index->name << " ("
            << ColumnNames(right->schema(), jp.index->columns) << ")";
        break;
    }
    out << "\n";
  }
  if (stmt.where) out << "WHERE: residual filter on candidates\n";
  if (!stmt.group_by.empty() ||
      std::any_of(stmt.items.begin(), stmt.items.end(),
                  [](const SelectItem& item) {
                    return item.expr && item.expr->ContainsAggregate();
                  })) {
    out << "GROUP/AGGREGATE: hash aggregation\n";
  }
  if (!stmt.order_by.empty()) out << "ORDER BY: stable sort\n";
  return out.str();
}

}  // namespace goofi::db
