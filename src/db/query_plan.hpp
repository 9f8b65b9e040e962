// Query planning: column resolution over joined tables, sargable-predicate
// analysis, and index access-path selection for SELECT statements.
//
// The planner is purely advisory: a SelectPlan tells the executor which
// index (if any) can produce the candidate rows of the FROM table and of
// each JOIN, and the executor re-evaluates the full WHERE/ON expressions on
// those candidates. That residual evaluation is what keeps indexed
// execution byte-identical to a full scan — the index only has to deliver a
// superset of the matching rows, in ascending slot (= insertion) order. When
// several equality or IS NULL probes apply to the FROM table, the plan lists
// them all and the executor takes the one with the fewest slots: the sizes
// are known only at execution, when `?` keys are bound.
//
// Plans hold raw pointers into the statement's AST and into the database's
// Table/SecondaryIndex objects. They stay valid while the statement is
// alive and Database::schema_version() is unchanged; the prepared-statement
// layer replans on a version mismatch.
#pragma once

#include <string>
#include <utility>
#include <vector>

#include "db/database.hpp"
#include "db/sql_ast.hpp"
#include "util/strings.hpp"

namespace goofi::db {

/// One table (or alias) bound into a combined row. A "combined row" is the
/// concatenation of one row from each bound table, in binding order.
struct TableBinding {
  std::string alias;  ///< table name or user alias
  const Schema* schema = nullptr;
  size_t base_offset = 0;  ///< index of this table's first column in the row
};

/// Resolves column references against the bound tables and carries the
/// bound `?` parameter values during execution.
///
/// One Resolver serves one execution. It remembers each column expression it
/// resolved until the next Bind, since a table bound later can make a name
/// ambiguous; the memo lives here, not in the statement's AST or its cached
/// plan, because prepared statements execute those without a lock.
class Resolver {
 public:
  void Bind(std::string alias, const Schema& schema) {
    TableBinding b;
    b.alias = std::move(alias);
    b.schema = &schema;
    b.base_offset = total_columns_;
    total_columns_ += schema.num_columns();
    bindings_.push_back(std::move(b));
    resolved_.clear();
  }

  size_t total_columns() const { return total_columns_; }
  const std::vector<TableBinding>& bindings() const { return bindings_; }

  util::Result<size_t> Resolve(const std::string& qualifier,
                               const std::string& column) const {
    std::optional<size_t> found;
    for (const TableBinding& b : bindings_) {
      if (!qualifier.empty() && !util::EqualsIgnoreCase(b.alias, qualifier)) {
        continue;
      }
      if (auto idx = b.schema->ColumnIndex(column)) {
        if (found) {
          return util::InvalidArgument("ambiguous column " + column);
        }
        found = b.base_offset + *idx;
      }
    }
    if (!found) {
      return util::NotFound(
          "unknown column " +
          (qualifier.empty() ? column : qualifier + "." + column));
    }
    return *found;
  }

  /// Resolve() for a kColumn expression, remembered until the next Bind.
  /// Errors are not remembered: each call reports them afresh. A query
  /// references few columns, so the memo is a short list searched in order;
  /// past kMaxResolved entries, further columns are resolved by name.
  util::Result<size_t> ResolveColumn(const Expr& column) const {
    for (const auto& [expr, offset] : resolved_) {
      if (expr == &column) return offset;
    }
    auto idx = Resolve(column.qualifier, column.column);
    if (idx.ok() && resolved_.size() < kMaxResolved) {
      resolved_.emplace_back(&column, idx.value());
    }
    return idx;
  }

  void SetParams(const std::vector<Value>* params) { params_ = params; }

  /// The value bound to the `?` with this ordinal, read in place.
  util::Result<const Value*> Param(size_t index) const {
    if (params_ == nullptr || index >= params_->size()) {
      return util::InvalidArgument("unbound parameter ?" +
                                   std::to_string(index + 1));
    }
    return &(*params_)[index];
  }

 private:
  static constexpr size_t kMaxResolved = 64;

  std::vector<TableBinding> bindings_;
  size_t total_columns_ = 0;
  const std::vector<Value>* params_ = nullptr;
  mutable std::vector<std::pair<const Expr*, size_t>> resolved_;
};

/// One posting-list probe of a FROM-table index: equality on the key that
/// `eq_exprs` give (in the index's column order), or, with no `eq_exprs`,
/// IS NULL on a single-column index.
struct IndexProbe {
  const SecondaryIndex* index = nullptr;
  std::vector<const Expr*> eq_exprs;  ///< row-independent (params allowed)
};

/// How the executor produces candidate slots for the FROM table.
struct IndexAccess {
  enum class Kind {
    kFullScan,    ///< every live slot
    kPrimaryKey,  ///< pk_index probe; eq_exprs give the key, in PK order
    kIndexProbe,  ///< the probe in `probes` with the fewest slots
    kIndexRange,  ///< sorted-index range probe via lower/upper
  };
  Kind kind = Kind::kFullScan;
  /// kPrimaryKey: row-independent expressions producing the key values.
  std::vector<const Expr*> eq_exprs;
  /// kIndexProbe: every equality probe on a fully covered index, then every
  /// IS NULL probe, in the planner's order. The executor sizes them all and
  /// takes the smallest; on a tie, the earlier one.
  std::vector<IndexProbe> probes;
  const SecondaryIndex* index = nullptr;  ///< kIndexRange only
  const Expr* lower = nullptr;
  bool lower_inclusive = false;
  const Expr* upper = nullptr;
  bool upper_inclusive = false;
};

/// How one JOIN clause finds its matching right-table rows.
struct JoinPlan {
  enum class Kind {
    kNestedLoop,  ///< evaluate ON against every right row
    kPrimaryKey,  ///< probe the right table's PK with values from the left row
    kIndexEq,     ///< probe a right-table secondary index likewise
  };
  Kind kind = Kind::kNestedLoop;
  const SecondaryIndex* index = nullptr;
  /// Key-value expressions over the tables bound before this join.
  std::vector<const Expr*> outer_exprs;
};

struct SelectPlan {
  IndexAccess base;
  std::vector<JoinPlan> joins;  ///< parallel to SelectStmt::joins
};

/// Builds the access plan for `stmt`. Never fails: on missing tables,
/// unresolvable columns or non-sargable predicates it degrades to full
/// scans and lets the executor surface errors through normal evaluation.
SelectPlan PlanSelect(const Database& database, const SelectStmt& stmt);

/// Human-readable description of the plan (the `explain` shell command).
std::string DescribePlan(const Database& database, const SelectStmt& stmt,
                         const SelectPlan& plan);

}  // namespace goofi::db
