#include "sql/analyzer.h"

#include <algorithm>

#include "plan/plan.h"

namespace gphtap {

using sql_ast::ExprNode;
using sql_ast::ExprNodeKind;

namespace {

// Splits a bound predicate into top-level conjuncts.
void SplitConjuncts(const ExprPtr& e, std::vector<ExprPtr>* out) {
  if (e == nullptr) return;
  if (e->kind == ExprKind::kBinary && e->op == BinOp::kAnd) {
    SplitConjuncts(e->left, out);
    SplitConjuncts(e->right, out);
    return;
  }
  out->push_back(e);
}

// The relation of a function scan: int columns, Replicated since every node
// computes the same rows.
TableDef FunctionScanDef(const std::string& name, std::vector<Column> cols) {
  TableDef def;
  def.name = name;
  def.schema = Schema(std::move(cols));
  def.distribution = DistributionPolicy::Replicated();
  def.is_function_scan = true;
  return def;
}

StatusOr<BinOp> BindOp(const std::string& op) {
  if (op == "+") return BinOp::kAdd;
  if (op == "-") return BinOp::kSub;
  if (op == "*") return BinOp::kMul;
  if (op == "/") return BinOp::kDiv;
  if (op == "%") return BinOp::kMod;
  if (op == "=") return BinOp::kEq;
  if (op == "<>") return BinOp::kNe;
  if (op == "<") return BinOp::kLt;
  if (op == "<=") return BinOp::kLe;
  if (op == ">") return BinOp::kGt;
  if (op == ">=") return BinOp::kGe;
  if (op == "and") return BinOp::kAnd;
  if (op == "or") return BinOp::kOr;
  return Status::InvalidArgument("unknown operator " + op);
}

}  // namespace

StatusOr<int> Analyzer::Scope::Resolve(const std::string& qualifier,
                                       const std::string& column) const {
  int found = -1;
  for (size_t t = 0; t < tables.size(); ++t) {
    // An explicit alias hides the underlying table name (PostgreSQL rules).
    if (!qualifier.empty() && aliases[t] != qualifier) continue;
    int c = tables[t].schema.FindColumn(column);
    if (c < 0) continue;
    if (found >= 0) {
      return Status::InvalidArgument("ambiguous column reference: " + column);
    }
    found = offsets[t] + c;
  }
  if (found < 0) {
    return Status::NotFound("column " +
                            (qualifier.empty() ? column : qualifier + "." + column));
  }
  return found;
}

bool Analyzer::IsAggName(const std::string& name) {
  return name == "count" || name == "sum" || name == "avg" || name == "min" ||
         name == "max";
}

StatusOr<Datum> Analyzer::EvalConst(const ExprNode& e) {
  GPHTAP_ASSIGN_OR_RETURN(ExprPtr bound, Analyzer(nullptr).BindExpr(e, Scope{}));
  return EvalExpr(*bound, Row{});
}

Status Analyzer::BindSeries(const std::vector<sql_ast::ExprNodePtr>& args,
                            std::vector<ExprPtr>* bounds) {
  if (args.size() != 2) return Status::InvalidArgument("generate_series expects two arguments");
  for (const auto& arg : args) {
    GPHTAP_ASSIGN_OR_RETURN(ExprPtr bound, BindExpr(*arg, Scope{}));
    bounds->push_back(std::move(bound));
  }
  return Status::OK();
}

StatusOr<ExprPtr> Analyzer::BindExpr(const ExprNode& e, const Scope& scope) {
  switch (e.kind) {
    case ExprNodeKind::kLiteral:
      return Expr::Const(e.literal);
    case ExprNodeKind::kColumnRef: {
      GPHTAP_ASSIGN_OR_RETURN(int idx, scope.Resolve(e.table, e.column));
      return Expr::Column(idx);
    }
    case ExprNodeKind::kBinary: {
      GPHTAP_ASSIGN_OR_RETURN(BinOp op, BindOp(e.op));
      GPHTAP_ASSIGN_OR_RETURN(ExprPtr l, BindExpr(*e.args[0], scope));
      GPHTAP_ASSIGN_OR_RETURN(ExprPtr r, BindExpr(*e.args[1], scope));
      return Expr::Binary(op, l, r);
    }
    case ExprNodeKind::kNot: {
      GPHTAP_ASSIGN_OR_RETURN(ExprPtr inner, BindExpr(*e.args[0], scope));
      return Expr::Not(inner);
    }
    case ExprNodeKind::kIsNull: {
      GPHTAP_ASSIGN_OR_RETURN(ExprPtr inner, BindExpr(*e.args[0], scope));
      return Expr::IsNull(inner);
    }
    case ExprNodeKind::kIsNotNull: {
      GPHTAP_ASSIGN_OR_RETURN(ExprPtr inner, BindExpr(*e.args[0], scope));
      return Expr::Not(Expr::IsNull(inner));
    }
    case ExprNodeKind::kFuncCall:
      if (IsAggName(e.func)) {
        return Status::InvalidArgument("aggregate " + e.func +
                                       " not allowed in this context");
      }
      return Status::NotSupported("function " + e.func);
    case ExprNodeKind::kStar:
      return Status::InvalidArgument("'*' not allowed in this context");
    case ExprNodeKind::kParam:
      max_param_ = std::max(max_param_, e.param);
      return Expr::Param(e.param - 1);  // SQL positions are 1-based
  }
  return Status::Internal("bad expr node");
}

StatusOr<AggSpec> Analyzer::BindAgg(const ExprNode& e, const Scope& scope) {
  AggSpec spec;
  if (e.func == "count") {
    if (e.args.size() == 1 && e.args[0]->kind == ExprNodeKind::kStar) {
      spec.fn = AggFunc::kCountStar;
      return spec;
    }
    if (e.args.size() != 1) return Status::InvalidArgument("count expects one argument");
    spec.fn = AggFunc::kCount;
  } else if (e.func == "sum") {
    spec.fn = AggFunc::kSum;
  } else if (e.func == "avg") {
    spec.fn = AggFunc::kAvg;
  } else if (e.func == "min") {
    spec.fn = AggFunc::kMin;
  } else if (e.func == "max") {
    spec.fn = AggFunc::kMax;
  } else {
    return Status::NotSupported("aggregate " + e.func);
  }
  if (e.args.size() != 1) {
    return Status::InvalidArgument(e.func + " expects one argument");
  }
  GPHTAP_ASSIGN_OR_RETURN(spec.arg, BindExpr(*e.args[0], scope));
  return spec;
}

StatusOr<ExprPtr> Analyzer::BindHavingExpr(const ExprNode& e, const Scope& scope,
                                           SelectQuery* q) {
  switch (e.kind) {
    case ExprNodeKind::kLiteral:
      return Expr::Const(e.literal);
    case ExprNodeKind::kFuncCall: {
      if (!IsAggName(e.func)) return Status::NotSupported("function " + e.func);
      GPHTAP_ASSIGN_OR_RETURN(AggSpec spec, BindAgg(e, scope));
      // Reuse an identical select-list aggregate if present, else hide one.
      SelectItem hidden;
      hidden.is_agg = true;
      hidden.agg = std::move(spec);
      hidden.name = "?having?";
      q->items.push_back(std::move(hidden));
      return Expr::Column(static_cast<int>(q->items.size()) - 1);
    }
    case ExprNodeKind::kColumnRef: {
      // Prefer a select-list output (alias or column name)...
      for (size_t i = 0; i < q->items.size(); ++i) {
        if (q->items[i].name == e.column && e.table.empty()) {
          return Expr::Column(static_cast<int>(i));
        }
      }
      // ... otherwise it must be a grouped input column; project it hidden.
      GPHTAP_ASSIGN_OR_RETURN(int input_col, scope.Resolve(e.table, e.column));
      if (std::find(q->group_by.begin(), q->group_by.end(), input_col) ==
          q->group_by.end()) {
        return Status::InvalidArgument("HAVING column " + e.column +
                                       " must appear in GROUP BY or be aggregated");
      }
      SelectItem hidden;
      hidden.expr = Expr::Column(input_col);
      hidden.name = "?having?";
      q->items.push_back(std::move(hidden));
      return Expr::Column(static_cast<int>(q->items.size()) - 1);
    }
    case ExprNodeKind::kBinary: {
      GPHTAP_ASSIGN_OR_RETURN(BinOp op, BindOp(e.op));
      GPHTAP_ASSIGN_OR_RETURN(ExprPtr l, BindHavingExpr(*e.args[0], scope, q));
      GPHTAP_ASSIGN_OR_RETURN(ExprPtr r, BindHavingExpr(*e.args[1], scope, q));
      return Expr::Binary(op, l, r);
    }
    case ExprNodeKind::kNot: {
      GPHTAP_ASSIGN_OR_RETURN(ExprPtr inner, BindHavingExpr(*e.args[0], scope, q));
      return Expr::Not(inner);
    }
    case ExprNodeKind::kIsNull: {
      GPHTAP_ASSIGN_OR_RETURN(ExprPtr inner, BindHavingExpr(*e.args[0], scope, q));
      return Expr::IsNull(inner);
    }
    case ExprNodeKind::kIsNotNull: {
      GPHTAP_ASSIGN_OR_RETURN(ExprPtr inner, BindHavingExpr(*e.args[0], scope, q));
      return Expr::Not(Expr::IsNull(inner));
    }
    case ExprNodeKind::kStar:
      return Status::InvalidArgument("'*' not allowed in HAVING");
    case ExprNodeKind::kParam:
      max_param_ = std::max(max_param_, e.param);
      return Expr::Param(e.param - 1);
  }
  return Status::Internal("bad having expr");
}

StatusOr<SelectQuery> Analyzer::BindSelect(const sql_ast::SelectNode& node) {
  SelectQuery q;
  Scope scope;
  int offset = 0;
  for (const auto& t : node.from) {
    TableDef def;
    if (t.is_function) {
      if (t.name != "generate_series") return Status::NotSupported("function " + t.name);
      GPHTAP_RETURN_IF_ERROR(BindSeries(t.func_args, &q.series_bounds.emplace_back()));
      const std::string& name = t.alias.empty() ? t.name : t.alias;
      def = FunctionScanDef(name, {{name, TypeId::kInt64}});
    } else {
      GPHTAP_ASSIGN_OR_RETURN(def, cluster_->LookupTable(t.name));
    }
    scope.tables.push_back(def);
    scope.aliases.push_back(t.alias.empty() ? def.name : t.alias);
    scope.offsets.push_back(offset);
    offset += static_cast<int>(def.schema.num_columns());
    q.tables.push_back(std::move(def));
  }

  // WHERE + JOIN ON quals, split into conjuncts.
  if (node.where != nullptr) {
    GPHTAP_ASSIGN_OR_RETURN(ExprPtr w, BindExpr(*node.where, scope));
    SplitConjuncts(w, &q.quals);
  }
  for (const auto& jq : node.join_quals) {
    GPHTAP_ASSIGN_OR_RETURN(ExprPtr w, BindExpr(*jq, scope));
    SplitConjuncts(w, &q.quals);
  }

  // Select items ('*' expands; aggregates split out). Top-level
  // generate_series() items become the columns of one more function scan,
  // appended to FROM, which zips them (PostgreSQL's ProjectSet). A FROM-less
  // SELECT scans it too, with zero series: one row with no columns.
  std::vector<ExprPtr> srf_bounds;
  std::vector<Column> srf_cols;
  for (const auto& item : node.items) {
    if (item.expr->kind == ExprNodeKind::kFuncCall && item.expr->func == "generate_series") {
      GPHTAP_RETURN_IF_ERROR(BindSeries(item.expr->args, &srf_bounds));
      SelectItem si;
      si.expr = Expr::Column(offset + static_cast<int>(srf_cols.size()));
      si.name = item.alias.empty() ? item.expr->func : item.alias;
      srf_cols.push_back({si.name, TypeId::kInt64});
      q.items.push_back(std::move(si));
      continue;
    }
    if (item.expr->kind == ExprNodeKind::kStar) {
      if (scope.tables.empty()) {
        return Status::InvalidArgument("SELECT * with no tables specified is not valid");
      }
      for (size_t t = 0; t < scope.tables.size(); ++t) {
        const Schema& schema = scope.tables[t].schema;
        for (size_t c = 0; c < schema.num_columns(); ++c) {
          SelectItem si;
          si.expr = Expr::Column(scope.offsets[t] + static_cast<int>(c));
          si.name = schema.column(c).name;
          q.items.push_back(std::move(si));
        }
      }
      continue;
    }
    SelectItem si;
    if (item.expr->kind == ExprNodeKind::kFuncCall && IsAggName(item.expr->func)) {
      si.is_agg = true;
      GPHTAP_ASSIGN_OR_RETURN(si.agg, BindAgg(*item.expr, scope));
      si.name = item.alias.empty() ? item.expr->func : item.alias;
    } else {
      GPHTAP_ASSIGN_OR_RETURN(si.expr, BindExpr(*item.expr, scope));
      if (!item.alias.empty()) {
        si.name = item.alias;
      } else if (item.expr->kind == ExprNodeKind::kColumnRef) {
        si.name = item.expr->column;
      } else {
        si.name = "?column?";
      }
    }
    q.items.push_back(std::move(si));
  }

  const bool srf_items = !srf_cols.empty();
  if (node.from.empty() || srf_items) {
    q.tables.push_back(FunctionScanDef("generate_series", std::move(srf_cols)));
    q.series_bounds.push_back(std::move(srf_bounds));
  }

  // GROUP BY: bare columns only.
  for (const auto& g : node.group_by) {
    GPHTAP_ASSIGN_OR_RETURN(ExprPtr bound, BindExpr(*g, scope));
    if (bound->kind != ExprKind::kColumn) {
      return Status::NotSupported("GROUP BY expressions must be columns");
    }
    q.group_by.push_back(bound->column);
  }
  // Aggregate queries: every non-agg item must be a grouped column.
  if (q.HasAggregates()) {
    if (srf_items) {
      return Status::NotSupported("generate_series in the select list of an aggregate query");
    }
    for (const auto& item : q.items) {
      if (item.is_agg) continue;
      if (item.expr->kind != ExprKind::kColumn ||
          std::find(q.group_by.begin(), q.group_by.end(), item.expr->column) ==
              q.group_by.end()) {
        return Status::InvalidArgument("column " + item.name +
                                       " must appear in GROUP BY");
      }
    }
  }

  q.distinct = node.distinct;
  // HAVING: bound over the item layout; may append hidden items.
  if (node.having != nullptr) {
    q.visible_items = static_cast<int>(q.items.size());
    if (!q.HasAggregates()) {
      return Status::NotSupported("HAVING requires GROUP BY or aggregates");
    }
    GPHTAP_ASSIGN_OR_RETURN(q.having, BindHavingExpr(*node.having, scope, &q));
    // Hidden non-agg items must be validated like visible ones.
    for (int i = q.visible_items; i < static_cast<int>(q.items.size()); ++i) {
      const SelectItem& item = q.items[static_cast<size_t>(i)];
      if (!item.is_agg && item.expr->kind == ExprKind::kColumn &&
          std::find(q.group_by.begin(), q.group_by.end(), item.expr->column) ==
              q.group_by.end()) {
        return Status::InvalidArgument("HAVING column must appear in GROUP BY");
      }
    }
  }

  // ORDER BY: select-list position (1-based int) or a name/column matching a
  // select item.
  for (const auto& o : node.order_by) {
    OrderItem oi;
    oi.ascending = o.ascending;
    if (o.expr->kind == ExprNodeKind::kLiteral && o.expr->literal.is_int()) {
      int64_t pos = o.expr->literal.int_val();
      if (pos < 1 || pos > static_cast<int64_t>(q.NumVisible())) {
        return Status::InvalidArgument("ORDER BY position out of range");
      }
      oi.select_index = static_cast<int>(pos - 1);
    } else if (o.expr->kind == ExprNodeKind::kColumnRef) {
      int found = -1;
      for (size_t i = 0; i < q.items.size(); ++i) {
        if (q.items[i].name == o.expr->column) {
          found = static_cast<int>(i);
          break;
        }
      }
      if (found < 0) {
        // Fall back to matching the underlying column.
        auto idx = scope.Resolve(o.expr->table, o.expr->column);
        if (idx.ok()) {
          for (size_t i = 0; i < q.items.size(); ++i) {
            if (!q.items[i].is_agg && q.items[i].expr->kind == ExprKind::kColumn &&
                q.items[i].expr->column == *idx) {
              found = static_cast<int>(i);
              break;
            }
          }
        }
      }
      if (found < 0) {
        return Status::InvalidArgument("ORDER BY column " + o.expr->column +
                                       " is not in the select list");
      }
      oi.select_index = found;
    } else {
      return Status::NotSupported("ORDER BY expressions must be columns or positions");
    }
    q.order_by.push_back(oi);
  }
  q.limit = node.limit;
  return q;
}

StatusOr<BoundInsert> Analyzer::BindInsert(const sql_ast::InsertNode& node) {
  BoundInsert out;
  GPHTAP_ASSIGN_OR_RETURN(out.table, cluster_->LookupTable(node.table));
  const Schema& schema = out.table.schema;

  // Optional explicit column list -> schema position mapping.
  if (!node.columns.empty()) {
    for (const std::string& col : node.columns) {
      int idx = schema.FindColumn(col);
      if (idx < 0) return Status::NotFound("column " + col);
      out.positions.push_back(idx);
    }
  } else {
    out.positions.resize(schema.num_columns());
    for (size_t i = 0; i < out.positions.size(); ++i) out.positions[i] = static_cast<int>(i);
  }

  if (node.select != nullptr) {
    GPHTAP_ASSIGN_OR_RETURN(out.select, BindSelect(*node.select));
    if (static_cast<size_t>(out.select->NumVisible()) != out.positions.size()) {
      return Status::InvalidArgument("INSERT SELECT arity mismatch");
    }
    return out;
  }

  for (const auto& row_exprs : node.rows) {
    if (row_exprs.size() != out.positions.size()) {
      return Status::InvalidArgument("INSERT row arity mismatch");
    }
    std::vector<ExprPtr>& row = out.values.emplace_back();
    for (const auto& e : row_exprs) {
      GPHTAP_ASSIGN_OR_RETURN(ExprPtr bound, BindExpr(*e, Scope{}));
      row.push_back(std::move(bound));
    }
  }
  if (max_param_ == 0) {
    GPHTAP_ASSIGN_OR_RETURN(out.rows, InsertValuesRows(out, {}));
    out.values.clear();
  }
  return out;
}

StatusOr<std::vector<Row>> InsertValuesRows(const BoundInsert& bound,
                                            const std::vector<Datum>& params) {
  std::vector<Row> rows;
  rows.reserve(bound.values.size());
  for (const std::vector<ExprPtr>& exprs : bound.values) {
    Row row(bound.table.schema.num_columns(), Datum::Null());
    for (size_t i = 0; i < exprs.size(); ++i) {
      GPHTAP_ASSIGN_OR_RETURN(ExprPtr value, CloneExprWithParams(exprs[i], params));
      GPHTAP_ASSIGN_OR_RETURN(row[static_cast<size_t>(bound.positions[i])],
                              EvalExpr(*value, Row{}));
    }
    rows.push_back(std::move(row));
  }
  return rows;
}

StatusOr<BoundUpdate> Analyzer::BindUpdate(const sql_ast::UpdateNode& node) {
  BoundUpdate out;
  GPHTAP_ASSIGN_OR_RETURN(out.table, cluster_->LookupTable(node.table));
  Scope scope;
  scope.tables.push_back(out.table);
  scope.aliases.push_back(out.table.name);
  scope.offsets.push_back(0);
  for (const auto& [col, expr] : node.sets) {
    int idx = out.table.schema.FindColumn(col);
    if (idx < 0) return Status::NotFound("column " + col);
    GPHTAP_ASSIGN_OR_RETURN(ExprPtr bound, BindExpr(*expr, scope));
    out.sets.emplace_back(idx, bound);
  }
  if (node.where != nullptr) {
    GPHTAP_ASSIGN_OR_RETURN(out.where, BindExpr(*node.where, scope));
  }
  return out;
}

StatusOr<BoundDelete> Analyzer::BindDelete(const sql_ast::DeleteNode& node) {
  BoundDelete out;
  GPHTAP_ASSIGN_OR_RETURN(out.table, cluster_->LookupTable(node.table));
  Scope scope;
  scope.tables.push_back(out.table);
  scope.aliases.push_back(out.table.name);
  scope.offsets.push_back(0);
  if (node.where != nullptr) {
    GPHTAP_ASSIGN_OR_RETURN(out.where, BindExpr(*node.where, scope));
  }
  return out;
}

}  // namespace gphtap
