// Binds raw parse trees against the catalog, producing planner/session inputs.
#ifndef GPHTAP_SQL_ANALYZER_H_
#define GPHTAP_SQL_ANALYZER_H_

#include <optional>
#include <vector>

#include "cluster/cluster.h"
#include "plan/select_query.h"
#include "sql/ast.h"

namespace gphtap {

struct BoundInsert {
  TableDef table;
  std::vector<int> positions;  // schema position of each inserted column
  // INSERT ... VALUES: full rows, or, when a value holds a parameter, the
  // bound VALUES expressions (InsertValuesRows substitutes and evaluates).
  std::vector<Row> rows;
  std::vector<std::vector<ExprPtr>> values;
  std::optional<SelectQuery> select;  // INSERT ... SELECT
};

/// The full rows of an INSERT ... VALUES: `bound.values` with `params`
/// substituted, each value at its column's position, NULL elsewhere.
StatusOr<std::vector<Row>> InsertValuesRows(const BoundInsert& bound,
                                            const std::vector<Datum>& params);

struct BoundUpdate {
  TableDef table;
  std::vector<std::pair<int, ExprPtr>> sets;
  ExprPtr where;
};

struct BoundDelete {
  TableDef table;
  ExprPtr where;
};

class Analyzer {
 public:
  explicit Analyzer(Cluster* cluster) : cluster_(cluster) {}

  StatusOr<SelectQuery> BindSelect(const sql_ast::SelectNode& node);
  StatusOr<BoundInsert> BindInsert(const sql_ast::InsertNode& node);
  StatusOr<BoundUpdate> BindUpdate(const sql_ast::UpdateNode& node);
  StatusOr<BoundDelete> BindDelete(const sql_ast::DeleteNode& node);

  /// Evaluates a constant expression (no column references).
  static StatusOr<Datum> EvalConst(const sql_ast::ExprNode& e);

  /// The highest $N this analyzer has bound: a prepared statement's
  /// parameter count. One analyzer binds one statement.
  int max_param() const { return max_param_; }

 private:
  struct Scope {
    // (qualifier, column) -> combined index. Empty qualifier matches any table.
    std::vector<TableDef> tables;
    std::vector<std::string> aliases;
    std::vector<int> offsets;

    StatusOr<int> Resolve(const std::string& qualifier, const std::string& column) const;
  };

  StatusOr<ExprPtr> BindExpr(const sql_ast::ExprNode& e, const Scope& scope);
  StatusOr<AggSpec> BindAgg(const sql_ast::ExprNode& e, const Scope& scope);
  /// Appends the bounds of generate_series(`args`), bound over no columns.
  Status BindSeries(const std::vector<sql_ast::ExprNodePtr>& args,
                    std::vector<ExprPtr>* bounds);
  /// Binds a HAVING expression over the select-item layout, appending hidden
  /// items for aggregates/grouped columns that are not already projected.
  StatusOr<ExprPtr> BindHavingExpr(const sql_ast::ExprNode& e, const Scope& scope,
                                   SelectQuery* q);
  static bool IsAggName(const std::string& name);

  Cluster* const cluster_;
  int max_param_ = 0;
};

}  // namespace gphtap

#endif  // GPHTAP_SQL_ANALYZER_H_
