#include "db/sql_executor.hpp"

#include <algorithm>
#include <cmath>
#include <functional>
#include <limits>
#include <map>
#include <span>
#include <sstream>

#include "db/sql_parser.hpp"
#include "util/strings.hpp"

namespace goofi::db {

namespace {

// ---------------------------------------------------------------------------
// Expression evaluation. `group` is non-null when evaluating in aggregate
// context; aggregate calls then fold over the group's member rows. Column
// resolution and `?` parameter binding live in the Resolver (query_plan.hpp),
// shared with the planner.
// ---------------------------------------------------------------------------

struct GroupContext {
  const std::vector<const Row*>* members = nullptr;
};

util::Result<Value> Eval(const Expr& expr, const Resolver& resolver,
                         const Row& row, const GroupContext* group);

bool IsLeaf(const Expr& expr) {
  return expr.kind == Expr::Kind::kLiteral || expr.kind == Expr::Kind::kParam ||
         expr.kind == Expr::Kind::kColumn;
}

/// A leaf (column, `?` or literal) read in place, without a copy.
util::Result<const Value*> Borrow(const Expr& leaf, const Resolver& resolver,
                                  const Row& row) {
  if (leaf.kind == Expr::Kind::kLiteral) return &leaf.literal;
  if (leaf.kind == Expr::Kind::kParam) return resolver.Param(leaf.param_index);
  auto idx = resolver.ResolveColumn(leaf);
  if (!idx.ok()) return idx.status();
  return &row[idx.value()];
}

/// An operand: a leaf read in place, or any other expression evaluated into
/// `*scratch`.
util::Result<const Value*> Operand(const Expr& expr, const Resolver& resolver,
                                   const Row& row, const GroupContext* group,
                                   Value* scratch) {
  if (IsLeaf(expr)) return Borrow(expr, resolver, row);
  auto v = Eval(expr, resolver, row, group);
  if (!v.ok()) return v.status();
  *scratch = std::move(v).value();
  return scratch;
}

/// `x op y` for op +, - or *. Integer arithmetic never wraps: a result
/// outside int64 is an error, as in SQLite.
util::Result<Value> CheckedInt(const std::string& op, int64_t x, int64_t y) {
  int64_t result = 0;
  const bool overflow = op == "+"   ? __builtin_add_overflow(x, y, &result)
                        : op == "-" ? __builtin_sub_overflow(x, y, &result)
                                    : __builtin_mul_overflow(x, y, &result);
  if (overflow) return util::InvalidArgument("integer overflow");
  return Value::Int(result);
}

util::Result<Value> NegateInt(int64_t x) { return CheckedInt("-", 0, x); }

util::Result<Value> EvalAggregate(const Expr& expr, const Resolver& resolver,
                                  const GroupContext& group) {
  const auto& members = *group.members;
  if (expr.func == "COUNT") {
    if (expr.star) return Value::Int(static_cast<int64_t>(members.size()));
    if (expr.args.size() != 1) return util::InvalidArgument("COUNT takes 1 arg");
    int64_t count = 0;
    Value scratch;
    for (const Row* member : members) {
      auto v = Operand(*expr.args[0], resolver, *member, nullptr, &scratch);
      if (!v.ok()) return v.status();
      if (!v.value()->is_null()) ++count;
    }
    return Value::Int(count);
  }
  if (expr.args.size() != 1) {
    return util::InvalidArgument(expr.func + " takes 1 arg");
  }
  bool any = false;
  bool all_int = true;
  double sum = 0.0;
  // Exact: fewer than 2^64 rows of int64 values cannot overflow it, so only
  // a total outside int64 is an overflow.
  __int128 isum = 0;
  Value best;
  Value scratch;
  for (const Row* member : members) {
    auto v = Operand(*expr.args[0], resolver, *member, nullptr, &scratch);
    if (!v.ok()) return v.status();
    const Value& value = *v.value();
    if (value.is_null()) continue;
    if (value.type() == ValueType::kText &&
        (expr.func == "SUM" || expr.func == "AVG")) {
      return util::InvalidArgument(expr.func + " over TEXT column");
    }
    if (!any) {
      best = value;
    } else if (expr.func == "MIN") {
      if (value.Compare(best) < 0) best = value;
    } else if (expr.func == "MAX") {
      if (value.Compare(best) > 0) best = value;
    }
    if (value.type() != ValueType::kInt) all_int = false;
    if (value.type() == ValueType::kInt) {
      isum += value.as_int();
      sum += static_cast<double>(value.as_int());
    } else if (value.type() == ValueType::kReal) {
      sum += value.as_real();
    }
    any = true;
  }
  if (!any) return Value::Null();  // SQL: aggregates over empty input are NULL
  if (expr.func == "MIN" || expr.func == "MAX") return best;
  if (expr.func == "SUM") {
    if (!all_int) return Value::Real(sum);
    if (isum < std::numeric_limits<int64_t>::min() ||
        isum > std::numeric_limits<int64_t>::max()) {
      return util::InvalidArgument("integer overflow");
    }
    return Value::Int(static_cast<int64_t>(isum));
  }
  // AVG
  return Value::Real(sum / static_cast<double>(members.size()));
}

util::Result<Value> EvalBinary(const Expr& expr, const Resolver& resolver,
                               const Row& row, const GroupContext* group) {
  // Operands are read in place where they are columns, `?`s or literals.
  Value lhs_scratch;
  Value rhs_scratch;
  // IS NULL / IS NOT NULL never propagate NULL.
  if (expr.op == "ISNULL" || expr.op == "ISNOTNULL") {
    auto v = Operand(*expr.args[0], resolver, row, group, &lhs_scratch);
    if (!v.ok()) return v.status();
    const bool is_null = v.value()->is_null();
    return Value::Bool(expr.op == "ISNULL" ? is_null : !is_null);
  }
  // AND/OR with SQL-ish short-circuit (NULL treated as false).
  if (expr.op == "AND" || expr.op == "OR") {
    auto lhs = Operand(*expr.args[0], resolver, row, group, &lhs_scratch);
    if (!lhs.ok()) return lhs.status();
    const bool l = lhs.value()->Truthy();
    if (expr.op == "AND" && !l) return Value::Bool(false);
    if (expr.op == "OR" && l) return Value::Bool(true);
    auto rhs = Operand(*expr.args[1], resolver, row, group, &rhs_scratch);
    if (!rhs.ok()) return rhs.status();
    return Value::Bool(rhs.value()->Truthy());
  }

  auto lhs = Operand(*expr.args[0], resolver, row, group, &lhs_scratch);
  if (!lhs.ok()) return lhs.status();
  auto rhs = Operand(*expr.args[1], resolver, row, group, &rhs_scratch);
  if (!rhs.ok()) return rhs.status();
  const Value& a = *lhs.value();
  const Value& b = *rhs.value();

  // Comparisons: NULL compared to anything is NULL (false in WHERE).
  static const char* const kCmps[] = {"=", "!=", "<", "<=", ">", ">="};
  for (const char* op : kCmps) {
    if (expr.op != op) continue;
    if (a.is_null() || b.is_null()) return Value::Null();
    const int c = a.Compare(b);
    bool result = false;
    if (expr.op == "=") result = c == 0;
    if (expr.op == "!=") result = c != 0;
    if (expr.op == "<") result = c < 0;
    if (expr.op == "<=") result = c <= 0;
    if (expr.op == ">") result = c > 0;
    if (expr.op == ">=") result = c >= 0;
    return Value::Bool(result);
  }

  // Arithmetic. NULL propagates. '+' on two TEXT values concatenates.
  if (a.is_null() || b.is_null()) return Value::Null();
  if (expr.op == "+" && a.type() == ValueType::kText &&
      b.type() == ValueType::kText) {
    return Value::Text(a.as_text() + b.as_text());
  }
  if (a.type() == ValueType::kText || b.type() == ValueType::kText) {
    return util::InvalidArgument("arithmetic on TEXT value");
  }
  const bool both_int =
      a.type() == ValueType::kInt && b.type() == ValueType::kInt;
  if (expr.op == "%") {
    if (!both_int) return util::InvalidArgument("% requires integers");
    if (b.as_int() == 0) return Value::Null();
    // Every x % -1 is 0; computing INT64_MIN % -1 would trap.
    return Value::Int(b.as_int() == -1 ? 0 : a.as_int() % b.as_int());
  }
  if (both_int) {
    const int64_t x = a.as_int();
    const int64_t y = b.as_int();
    if (expr.op == "+" || expr.op == "-" || expr.op == "*") {
      return CheckedInt(expr.op, x, y);
    }
    if (expr.op == "/") {
      if (y == 0) return Value::Null();
      // INT64_MIN / -1 is the one quotient outside int64.
      return y == -1 ? NegateInt(x) : Value::Int(x / y);
    }
  } else {
    const double x = a.as_real();
    const double y = b.as_real();
    if (expr.op == "+") return Value::Real(x + y);
    if (expr.op == "-") return Value::Real(x - y);
    if (expr.op == "*") return Value::Real(x * y);
    if (expr.op == "/") return y == 0.0 ? Value::Null() : Value::Real(x / y);
  }
  return util::Internal("unknown binary operator " + expr.op);
}

util::Result<Value> Eval(const Expr& expr, const Resolver& resolver,
                         const Row& row, const GroupContext* group) {
  switch (expr.kind) {
    case Expr::Kind::kLiteral:
    case Expr::Kind::kParam:
    case Expr::Kind::kColumn: {
      auto v = Borrow(expr, resolver, row);
      if (!v.ok()) return v.status();
      return *v.value();
    }
    case Expr::Kind::kUnary: {
      Value scratch;
      auto v = Operand(*expr.args[0], resolver, row, group, &scratch);
      if (!v.ok()) return v.status();
      const Value& a = *v.value();
      if (expr.op == "NOT") {
        if (a.is_null()) return Value::Null();
        return Value::Bool(!a.Truthy());
      }
      // NEG
      if (a.is_null()) return Value::Null();
      if (a.type() == ValueType::kInt) return NegateInt(a.as_int());
      if (a.type() == ValueType::kReal) return Value::Real(-a.as_real());
      return util::InvalidArgument("unary minus on TEXT");
    }
    case Expr::Kind::kBinary:
      return EvalBinary(expr, resolver, row, group);
    case Expr::Kind::kCall: {
      if (expr.func == "ABS" || expr.func == "LENGTH") {
        if (expr.args.size() != 1) {
          return util::InvalidArgument(expr.func + " takes 1 arg");
        }
        Value scratch;
        auto v = Operand(*expr.args[0], resolver, row, group, &scratch);
        if (!v.ok()) return v.status();
        const Value& a = *v.value();
        if (a.is_null()) return Value::Null();
        if (expr.func == "ABS") {
          if (a.type() == ValueType::kInt) {
            return a.as_int() < 0 ? NegateInt(a.as_int()) : a;
          }
          if (a.type() == ValueType::kReal) return Value::Real(std::fabs(a.as_real()));
          return util::InvalidArgument("ABS on TEXT");
        }
        if (a.type() != ValueType::kText) {
          return util::InvalidArgument("LENGTH on non-TEXT");
        }
        return Value::Int(static_cast<int64_t>(a.as_text().size()));
      }
      // Aggregate.
      if (group == nullptr || group->members == nullptr) {
        return util::InvalidArgument("aggregate " + expr.func +
                                     " outside aggregate context");
      }
      return EvalAggregate(expr, resolver, *group);
    }
  }
  return util::Internal("bad expression kind");
}

// ---------------------------------------------------------------------------
// SELECT execution.
// ---------------------------------------------------------------------------

std::string DeriveItemName(const SelectItem& item, size_t index) {
  if (!item.alias.empty()) return item.alias;
  const Expr& e = *item.expr;
  if (e.kind == Expr::Kind::kColumn) return e.column;
  if (e.kind == Expr::Kind::kCall) {
    return e.func + "(" + (e.star ? "*" : (e.args.empty() ? "" : "...")) + ")";
  }
  return "expr" + std::to_string(index);
}

/// Candidate slots for the FROM table per the plan's base access, ascending:
/// a posting list read in place, or slots gathered into `*scratch`.
/// nullopt requests a plain full scan (e.g. a probe expression failed to
/// evaluate — any real error then resurfaces through normal evaluation);
/// an empty span means the probe proved there are no matches.
std::optional<std::span<const size_t>> GatherBaseSlots(
    const Table& table, const IndexAccess& access, const Resolver& resolver,
    std::vector<size_t>* scratch) {
  const Row no_row;
  auto eval_key = [&](const std::vector<const Expr*>& exprs)
      -> std::optional<Row> {
    Row key;
    key.reserve(exprs.size());
    for (const Expr* e : exprs) {
      auto v = Eval(*e, resolver, no_row, nullptr);
      if (!v.ok()) return std::nullopt;
      key.push_back(std::move(v).value());
    }
    return key;
  };
  auto has_null = [](const Row& key) {
    return std::any_of(key.begin(), key.end(),
                       [](const Value& v) { return v.is_null(); });
  };
  switch (access.kind) {
    case IndexAccess::Kind::kFullScan:
      return std::nullopt;
    case IndexAccess::Kind::kPrimaryKey: {
      const auto key = eval_key(access.eq_exprs);
      if (!key) return std::nullopt;
      // `col = NULL` is NULL, never true: provably empty.
      if (has_null(*key)) return std::span<const size_t>{};
      if (const auto slot = table.FindByPrimaryKey(*key)) {
        scratch->push_back(*slot);
      }
      return std::span<const size_t>(*scratch);
    }
    case IndexAccess::Kind::kIndexProbe: {
      // Every key is evaluated before any probe runs, so a key that fails to
      // evaluate sends the query to a full scan whichever probe is smallest.
      std::vector<Row> keys;
      keys.reserve(access.probes.size());
      bool provably_empty = false;
      for (const IndexProbe& probe : access.probes) {
        if (probe.eq_exprs.empty()) {  // IS NULL: the index's NULL key
          keys.push_back(Row{Value::Null()});
          continue;
        }
        auto key = eval_key(probe.eq_exprs);
        if (!key) return std::nullopt;
        provably_empty = provably_empty || has_null(*key);
        keys.push_back(std::move(*key));
      }
      if (provably_empty) return std::span<const size_t>{};
      // Each posting list lists its slots ascending, so the smallest one
      // replays the scan's order as well as any other would.
      const std::vector<size_t>* smallest = nullptr;
      for (size_t i = 0; i < access.probes.size(); ++i) {
        const std::vector<size_t>& slots =
            table.IndexEqualSlots(*access.probes[i].index, keys[i]);
        if (smallest == nullptr || slots.size() < smallest->size()) {
          smallest = &slots;
        }
      }
      return std::span<const size_t>(*smallest);
    }
    case IndexAccess::Kind::kIndexRange: {
      Value lower_value;
      Value upper_value;
      const Value* lower = nullptr;
      const Value* upper = nullptr;
      if (access.lower != nullptr) {
        auto v = Eval(*access.lower, resolver, no_row, nullptr);
        if (!v.ok()) return std::nullopt;
        // col > NULL is never true.
        if (v.value().is_null()) return std::span<const size_t>{};
        lower_value = std::move(v).value();
        lower = &lower_value;
      }
      if (access.upper != nullptr) {
        auto v = Eval(*access.upper, resolver, no_row, nullptr);
        if (!v.ok()) return std::nullopt;
        if (v.value().is_null()) return std::span<const size_t>{};
        upper_value = std::move(v).value();
        upper = &upper_value;
      }
      *scratch = table.IndexRangeSlots(*access.index, lower,
                                       access.lower_inclusive, upper,
                                       access.upper_inclusive);
      // The range walk yields key order; restore physical scan order.
      std::sort(scratch->begin(), scratch->end());
      return std::span<const size_t>(*scratch);
    }
  }
  return std::nullopt;
}

/// The FROM side of a SELECT: its table, a resolver bound to it, and the
/// access plan (caller-cached, freshly planned, or with indexes off the
/// default plan of full scans and nested loops). `plan` may point at
/// `local_plan`, so a FromStage stays where BindFrom filled it.
struct FromStage {
  const Table* table = nullptr;
  Resolver resolver;
  SelectPlan local_plan;
  const SelectPlan* plan = nullptr;
};

util::Status BindFrom(const Database& database, const SelectStmt& stmt,
                      const ExecOptions& options, const SelectPlan* cached_plan,
                      FromStage* stage) {
  stage->table = database.GetTable(stmt.from_table);
  if (stage->table == nullptr) {
    return util::NotFound("no table " + stmt.from_table);
  }
  stage->resolver.SetParams(options.params);
  stage->resolver.Bind(
      stmt.from_alias.empty() ? stmt.from_table : stmt.from_alias,
      stage->table->schema());
  stage->local_plan.joins.resize(stmt.joins.size());
  stage->plan = &stage->local_plan;
  if (options.use_indexes) {
    if (cached_plan != nullptr) {
      stage->plan = cached_plan;
    } else {
      stage->local_plan = PlanSelect(database, stmt);
    }
  }
  return util::Status::Ok();
}

/// The gather-and-WHERE stage of every SELECT: calls `admit` on each
/// candidate row of the FROM table, read in place, in scan order. Without
/// joins the WHERE clause runs here, so only matching rows reach `admit`.
template <typename Admit>
util::Status GatherFrom(const FromStage& stage, const SelectStmt& stmt,
                        Admit&& admit) {
  const bool filter_in_place = stmt.where != nullptr && stmt.joins.empty();
  const std::vector<Row>& slots = stage.table->slots();
  const std::vector<bool>& live = stage.table->live();
  auto visit = [&](const Row& row) -> util::Status {
    if (filter_in_place) {
      auto keep = Eval(*stmt.where, stage.resolver, row, nullptr);
      if (!keep.ok()) return keep.status();
      if (!keep.value().Truthy()) return util::Status::Ok();
    }
    return admit(row);
  };
  std::vector<size_t> scratch;
  const auto base_slots =
      GatherBaseSlots(*stage.table, stage.plan->base, stage.resolver, &scratch);
  if (base_slots) {
    for (const size_t slot : *base_slots) {
      GOOFI_RETURN_IF_ERROR(visit(slots[slot]));
    }
  } else {
    for (size_t slot = 0; slot < slots.size(); ++slot) {
      if (live[slot]) GOOFI_RETURN_IF_ERROR(visit(slots[slot]));
    }
  }
  return util::Status::Ok();
}

util::Result<QueryResult> ExecuteSelect(Database& database,
                                        const SelectStmt& stmt,
                                        const ExecOptions& options,
                                        const SelectPlan* cached_plan) {
  FromStage stage;
  GOOFI_RETURN_IF_ERROR(BindFrom(database, stmt, options, cached_plan, &stage));
  Resolver& resolver = stage.resolver;
  const SelectPlan* plan = stage.plan;

  // The FROM table's candidate rows (only matching ones when join-free).
  std::vector<const Row*> rows;
  GOOFI_RETURN_IF_ERROR(GatherFrom(stage, stmt, [&rows](const Row& row) {
    rows.push_back(&row);
    return util::Status::Ok();
  }));

  // Join each JOIN clause in turn. Planned joins probe the right table's
  // PK/secondary index with key values from the left row and still evaluate
  // the full ON expression on every merged row; index matches arrive in
  // ascending slot order, so results are a byte-identical subsequence-ordered
  // match for the nested loop. A key-expression evaluation error falls back
  // to the nested loop so errors surface exactly as in a scan. Merged rows
  // live in `joined`, and `rows` points at them.
  std::vector<Row> joined;
  for (size_t j = 0; j < stmt.joins.size(); ++j) {
    const JoinClause& join = stmt.joins[j];
    const Table* right = database.GetTable(join.table);
    if (right == nullptr) return util::NotFound("no table " + join.table);
    resolver.Bind(join.alias.empty() ? join.table : join.alias, right->schema());

    const std::vector<Row>& right_slots = right->slots();
    const std::vector<bool>& right_live = right->live();
    const size_t right_width = right->schema().num_columns();

    std::vector<Row> next;
    auto merge_and_filter = [&](const Row& left_row,
                                const Row& right_row) -> util::Status {
      Row merged;
      merged.reserve(left_row.size() + right_width);
      merged.insert(merged.end(), left_row.begin(), left_row.end());
      merged.insert(merged.end(), right_row.begin(), right_row.end());
      auto on = Eval(*join.on, resolver, merged, nullptr);
      if (!on.ok()) return on.status();
      if (on.value().Truthy()) next.push_back(std::move(merged));
      return util::Status::Ok();
    };
    auto run_nested_loop = [&]() -> util::Status {
      next.clear();
      for (const Row* left_row : rows) {
        for (size_t slot = 0; slot < right_slots.size(); ++slot) {
          if (!right_live[slot]) continue;
          GOOFI_RETURN_IF_ERROR(merge_and_filter(*left_row, right_slots[slot]));
        }
      }
      return util::Status::Ok();
    };

    const JoinPlan fallback;
    const JoinPlan& jp = j < plan->joins.size() ? plan->joins[j] : fallback;
    if (jp.kind == JoinPlan::Kind::kNestedLoop) {
      GOOFI_RETURN_IF_ERROR(run_nested_loop());
    } else {
      bool fell_back = false;
      for (const Row* left_row : rows) {
        Row key;
        key.reserve(jp.outer_exprs.size());
        bool null_key = false;
        for (const Expr* e : jp.outer_exprs) {
          auto v = Eval(*e, resolver, *left_row, nullptr);
          if (!v.ok()) {
            fell_back = true;
            break;
          }
          if (v.value().is_null()) {
            null_key = true;
            break;
          }
          key.push_back(std::move(v).value());
        }
        if (fell_back) break;
        if (null_key) continue;  // `col = NULL` never matches
        if (jp.kind == JoinPlan::Kind::kPrimaryKey) {
          if (const auto slot = right->FindByPrimaryKey(key)) {
            GOOFI_RETURN_IF_ERROR(
                merge_and_filter(*left_row, right_slots[*slot]));
          }
        } else {
          for (const size_t slot : right->IndexEqualSlots(*jp.index, key)) {
            GOOFI_RETURN_IF_ERROR(
                merge_and_filter(*left_row, right_slots[slot]));
          }
        }
      }
      if (fell_back) GOOFI_RETURN_IF_ERROR(run_nested_loop());
    }
    joined = std::move(next);
    rows.clear();
    for (const Row& row : joined) rows.push_back(&row);
  }

  // WHERE (already applied in place when there are no joins).
  if (stmt.where != nullptr && !stmt.joins.empty()) {
    size_t kept = 0;
    for (const Row* row : rows) {
      auto keep = Eval(*stmt.where, resolver, *row, nullptr);
      if (!keep.ok()) return keep.status();
      if (keep.value().Truthy()) rows[kept++] = row;
    }
    rows.resize(kept);
  }

  const bool has_aggregate =
      !stmt.group_by.empty() ||
      std::any_of(stmt.items.begin(), stmt.items.end(), [](const SelectItem& i) {
        return i.expr && i.expr->ContainsAggregate();
      });

  QueryResult result;

  // Output column names.
  for (size_t i = 0; i < stmt.items.size(); ++i) {
    const SelectItem& item = stmt.items[i];
    if (item.star) {
      if (has_aggregate) {
        return util::InvalidArgument("* not allowed in aggregate SELECT");
      }
      for (const TableBinding& b : resolver.bindings()) {
        for (const Column& col : b.schema->columns()) {
          result.columns.push_back(col.name);
        }
      }
    } else {
      result.columns.push_back(DeriveItemName(item, i));
    }
  }

  // Rows to sort and project: (sort keys, output row).
  struct OutRow {
    Row keys;
    Row values;
  };
  std::vector<OutRow> out_rows;

  if (!has_aggregate) {
    // Each returned value is copied once, from the stored or merged row.
    out_rows.reserve(rows.size());
    for (const Row* row : rows) {
      OutRow out;
      for (const SelectItem& item : stmt.items) {
        if (item.star) {
          out.values.insert(out.values.end(), row->begin(), row->end());
          continue;
        }
        auto v = Eval(*item.expr, resolver, *row, nullptr);
        if (!v.ok()) return v.status();
        out.values.push_back(std::move(v).value());
      }
      for (const OrderItem& ord : stmt.order_by) {
        auto v = Eval(*ord.expr, resolver, *row, nullptr);
        if (!v.ok()) return v.status();
        out.keys.push_back(std::move(v).value());
      }
      out_rows.push_back(std::move(out));
    }
  } else {
    // Group the rows by the GROUP BY key (whole input is one group when
    // GROUP BY is absent).
    std::map<std::vector<std::string>, std::vector<const Row*>> groups;
    if (stmt.group_by.empty()) {
      groups[{}] = std::move(rows);
    } else {
      for (const Row* row : rows) {
        std::vector<std::string> key;
        key.reserve(stmt.group_by.size());
        for (const ExprPtr& expr : stmt.group_by) {
          auto v = Eval(*expr, resolver, *row, nullptr);
          if (!v.ok()) return v.status();
          key.push_back(v.value().Serialize());
        }
        groups[std::move(key)].push_back(row);
      }
    }
    // The representative of an ungrouped aggregate over no rows: every
    // column NULL, so a bare column in it reads NULL.
    const Row empty_row(resolver.total_columns(), Value::Null());
    for (const auto& [key, members] : groups) {
      // A grouped query emits no row for an empty group, but an ungrouped
      // aggregate over zero input rows emits exactly one row (SUM -> NULL,
      // COUNT -> 0), matching standard SQL.
      if (members.empty() && !stmt.group_by.empty()) continue;
      GroupContext group;
      group.members = &members;
      // Non-aggregate expressions are evaluated on the group's first row
      // (valid when they are functionally dependent on the GROUP BY key,
      // which is how GOOFI's analysis queries use them).
      const Row& representative = members.empty() ? empty_row : *members.front();
      OutRow out;
      for (const SelectItem& item : stmt.items) {
        auto v = Eval(*item.expr, resolver, representative, &group);
        if (!v.ok()) return v.status();
        out.values.push_back(std::move(v).value());
      }
      for (const OrderItem& ord : stmt.order_by) {
        auto v = Eval(*ord.expr, resolver, representative, &group);
        if (!v.ok()) return v.status();
        out.keys.push_back(std::move(v).value());
      }
      out_rows.push_back(std::move(out));
    }
  }

  // ORDER BY.
  if (!stmt.order_by.empty()) {
    std::stable_sort(out_rows.begin(), out_rows.end(),
                     [&stmt](const OutRow& a, const OutRow& b) {
                       for (size_t i = 0; i < stmt.order_by.size(); ++i) {
                         const int c = a.keys[i].Compare(b.keys[i]);
                         if (c != 0) {
                           return stmt.order_by[i].descending ? c > 0 : c < 0;
                         }
                       }
                       return false;
                     });
  }

  // LIMIT + projection.
  size_t limit = out_rows.size();
  if (stmt.limit && static_cast<size_t>(*stmt.limit) < limit) {
    limit = static_cast<size_t>(*stmt.limit);
  }
  result.rows.reserve(limit);
  for (size_t i = 0; i < limit; ++i) {
    result.rows.push_back(std::move(out_rows[i].values));
  }
  result.affected = result.rows.size();
  return result;
}

// ---------------------------------------------------------------------------
// INSERT / UPDATE / DELETE / DDL.
// ---------------------------------------------------------------------------

util::Result<QueryResult> ExecuteInsert(Database& database,
                                        const InsertStmt& stmt,
                                        const ExecOptions& options) {
  Table* table = database.GetTable(stmt.table);
  if (table == nullptr) return util::NotFound("no table " + stmt.table);
  const Schema& schema = table->schema();

  // Map the statement's column order to schema positions.
  std::vector<size_t> positions;
  if (stmt.columns.empty()) {
    positions.resize(schema.num_columns());
    for (size_t i = 0; i < positions.size(); ++i) positions[i] = i;
  } else {
    for (const std::string& name : stmt.columns) {
      auto idx = schema.ColumnIndex(name);
      if (!idx) return util::NotFound("no column " + name + " in " + stmt.table);
      positions.push_back(*idx);
    }
  }

  Resolver empty_resolver;
  empty_resolver.SetParams(options.params);
  const Row no_row;
  QueryResult result;
  for (const auto& value_exprs : stmt.rows) {
    if (value_exprs.size() != positions.size()) {
      return util::InvalidArgument("VALUES arity mismatch");
    }
    Row row(schema.num_columns(), Value::Null());
    for (size_t i = 0; i < positions.size(); ++i) {
      auto v = Eval(*value_exprs[i], empty_resolver, no_row, nullptr);
      if (!v.ok()) return v.status();
      row[positions[i]] = std::move(v).value();
    }
    GOOFI_RETURN_IF_ERROR(database.Insert(stmt.table, std::move(row)));
    ++result.affected;
  }
  return result;
}

util::Result<QueryResult> ExecuteUpdate(Database& database,
                                        const UpdateStmt& stmt,
                                        const ExecOptions& options) {
  Table* table = database.GetTable(stmt.table);
  if (table == nullptr) return util::NotFound("no table " + stmt.table);
  const Schema& schema = table->schema();

  Resolver resolver;
  resolver.SetParams(options.params);
  resolver.Bind(stmt.table, schema);

  std::vector<std::pair<size_t, const Expr*>> sets;
  for (const auto& [name, expr] : stmt.assignments) {
    auto idx = schema.ColumnIndex(name);
    if (!idx) return util::NotFound("no column " + name + " in " + stmt.table);
    sets.emplace_back(*idx, expr.get());
  }

  util::Status eval_error = util::Status::Ok();
  auto predicate = [&](const Row& row) {
    if (!eval_error.ok()) return false;
    if (!stmt.where) return true;
    auto v = Eval(*stmt.where, resolver, row, nullptr);
    if (!v.ok()) {
      eval_error = v.status();
      return false;
    }
    return v.value().Truthy();
  };
  auto mutate = [&](Row& row) {
    if (!eval_error.ok()) return;
    const Row original = row;
    for (const auto& [idx, expr] : sets) {
      auto v = Eval(*expr, resolver, original, nullptr);
      if (!v.ok()) {
        eval_error = v.status();
        return;
      }
      row[idx] = std::move(v).value();
    }
  };
  size_t updated = 0;
  const util::Status st = table->UpdateWhere(predicate, mutate, &updated);
  GOOFI_RETURN_IF_ERROR(eval_error);
  GOOFI_RETURN_IF_ERROR(st);
  QueryResult result;
  result.affected = updated;
  return result;
}

util::Result<QueryResult> ExecuteDelete(Database& database,
                                        const DeleteStmt& stmt,
                                        const ExecOptions& options) {
  const Table* table = database.GetTable(stmt.table);
  if (table == nullptr) return util::NotFound("no table " + stmt.table);

  Resolver resolver;
  resolver.SetParams(options.params);
  resolver.Bind(stmt.table, table->schema());

  util::Status eval_error = util::Status::Ok();
  auto predicate = [&](const Row& row) {
    if (!eval_error.ok()) return false;
    if (!stmt.where) return true;
    auto v = Eval(*stmt.where, resolver, row, nullptr);
    if (!v.ok()) {
      eval_error = v.status();
      return false;
    }
    return v.value().Truthy();
  };
  size_t deleted = 0;
  const util::Status st = database.Delete(stmt.table, predicate, &deleted);
  GOOFI_RETURN_IF_ERROR(eval_error);
  GOOFI_RETURN_IF_ERROR(st);
  QueryResult result;
  result.affected = deleted;
  return result;
}

}  // namespace

std::optional<size_t> QueryResult::ColumnIndex(std::string_view name) const {
  for (size_t i = 0; i < columns.size(); ++i) {
    if (util::EqualsIgnoreCase(columns[i], name)) return i;
  }
  return std::nullopt;
}

std::string QueryResult::ToString() const {
  // Column widths.
  std::vector<size_t> widths(columns.size());
  for (size_t i = 0; i < columns.size(); ++i) widths[i] = columns[i].size();
  std::vector<std::vector<std::string>> cells;
  cells.reserve(rows.size());
  for (const Row& row : rows) {
    std::vector<std::string> line;
    line.reserve(row.size());
    for (size_t i = 0; i < row.size(); ++i) {
      line.push_back(row[i].ToString());
      if (i < widths.size()) widths[i] = std::max(widths[i], line.back().size());
    }
    cells.push_back(std::move(line));
  }
  std::ostringstream out;
  auto emit_row = [&](const std::vector<std::string>& line) {
    for (size_t i = 0; i < line.size(); ++i) {
      out << (i == 0 ? "| " : " | ");
      out << line[i];
      const size_t w = i < widths.size() ? widths[i] : line[i].size();
      out << std::string(w - std::min(w, line[i].size()), ' ');
    }
    out << " |\n";
  };
  emit_row(columns);
  out << "|";
  for (size_t w : widths) out << std::string(w + 2, '-') << "|";
  out << "\n";
  for (const auto& line : cells) emit_row(line);
  return out.str();
}

util::Result<QueryResult> ExecuteStatement(Database& database,
                                           const Statement& statement,
                                           const ExecOptions& options,
                                           const SelectPlan* select_plan) {
  return std::visit(
      [&](const auto& stmt) -> util::Result<QueryResult> {
        using T = std::decay_t<decltype(stmt)>;
        if constexpr (std::is_same_v<T, SelectStmt>) {
          return ExecuteSelect(database, stmt, options, select_plan);
        } else if constexpr (std::is_same_v<T, InsertStmt>) {
          return ExecuteInsert(database, stmt, options);
        } else if constexpr (std::is_same_v<T, UpdateStmt>) {
          return ExecuteUpdate(database, stmt, options);
        } else if constexpr (std::is_same_v<T, DeleteStmt>) {
          return ExecuteDelete(database, stmt, options);
        } else if constexpr (std::is_same_v<T, CreateTableStmt>) {
          QueryResult result;
          GOOFI_RETURN_IF_ERROR(database.CreateTable(stmt.schema));
          return result;
        } else if constexpr (std::is_same_v<T, DropTableStmt>) {
          QueryResult result;
          GOOFI_RETURN_IF_ERROR(database.DropTable(stmt.table));
          return result;
        } else if constexpr (std::is_same_v<T, CreateIndexStmt>) {
          // One key column gets a sorted index (equality + range probes);
          // composite keys hash.
          QueryResult result;
          const IndexKind kind = stmt.columns.size() == 1 ? IndexKind::kSorted
                                                          : IndexKind::kHash;
          GOOFI_RETURN_IF_ERROR(database.CreateIndex(stmt.table, stmt.index_name,
                                                     stmt.columns, kind));
          return result;
        } else {
          static_assert(std::is_same_v<T, DropIndexStmt>);
          QueryResult result;
          GOOFI_RETURN_IF_ERROR(database.DropIndex(stmt.table, stmt.index_name));
          return result;
        }
      },
      statement);
}

util::Status ForEachSelectMatch(
    const Database& database, const SelectStmt& stmt,
    const ExecOptions& options, const SelectPlan* select_plan,
    const std::function<util::Status(const Row&)>& fn) {
  const bool aggregate = std::any_of(
      stmt.items.begin(), stmt.items.end(), [](const SelectItem& i) {
        return i.expr && i.expr->ContainsAggregate();
      });
  if (!stmt.joins.empty() || !stmt.group_by.empty() || aggregate ||
      !stmt.order_by.empty() || stmt.limit) {
    return util::InvalidArgument(
        "ForEachMatch needs a SELECT without joins, GROUP BY, aggregates, "
        "ORDER BY or LIMIT");
  }
  FromStage stage;
  GOOFI_RETURN_IF_ERROR(BindFrom(database, stmt, options, select_plan, &stage));
  return GatherFrom(stage, stmt, fn);
}

util::Result<QueryResult> ExecuteStatement(Database& database,
                                           const Statement& statement) {
  return ExecuteStatement(database, statement, ExecOptions{});
}

util::Result<QueryResult> ExecuteSql(Database& database, const std::string& sql,
                                     const ExecOptions& options) {
  auto stmt = ParseSql(sql);
  if (!stmt.ok()) return stmt.status();
  return ExecuteStatement(database, stmt.value(), options);
}

util::Result<QueryResult> ExecuteSql(Database& database, const std::string& sql) {
  return ExecuteSql(database, sql, ExecOptions{});
}

util::Result<std::string> ExplainSql(Database& database, const std::string& sql) {
  auto stmt = ParseSql(sql);
  if (!stmt.ok()) return stmt.status();
  const auto* select = std::get_if<SelectStmt>(&stmt.value());
  if (select == nullptr) {
    return std::string("(no plan: only SELECT statements are planned)\n");
  }
  const SelectPlan plan = PlanSelect(database, *select);
  return DescribePlan(database, *select, plan);
}

}  // namespace goofi::db
