#include "plan/plan.h"

namespace gphtap {

const char* AggFuncName(AggFunc fn) {
  switch (fn) {
    case AggFunc::kCountStar:
      return "count(*)";
    case AggFunc::kCount:
      return "count";
    case AggFunc::kSum:
      return "sum";
    case AggFunc::kAvg:
      return "avg";
    case AggFunc::kMin:
      return "min";
    case AggFunc::kMax:
      return "max";
  }
  return "?";
}

int AggStateArity(AggFunc fn) { return fn == AggFunc::kAvg ? 2 : 1; }

namespace {
const char* PlanKindName(PlanKind k) {
  switch (k) {
    case PlanKind::kSeqScan:
      return "SeqScan";
    case PlanKind::kIndexScan:
      return "IndexScan";
    case PlanKind::kVirtualScan:
      return "VirtualScan";
    case PlanKind::kFunctionScan:
      return "FunctionScan";
    case PlanKind::kFilter:
      return "Filter";
    case PlanKind::kProject:
      return "Project";
    case PlanKind::kHashJoin:
      return "HashJoin";
    case PlanKind::kNestLoop:
      return "NestLoop";
    case PlanKind::kHashAgg:
      return "HashAgg";
    case PlanKind::kSort:
      return "Sort";
    case PlanKind::kLimit:
      return "Limit";
    case PlanKind::kMotion:
      return "Motion";
    case PlanKind::kModifyTable:
      return "ModifyTable";
  }
  return "?";
}

const char* MotionKindName(MotionKind k) {
  switch (k) {
    case MotionKind::kGather:
      return "Gather";
    case MotionKind::kRedistribute:
      return "Redistribute";
    case MotionKind::kBroadcast:
      return "Broadcast";
  }
  return "?";
}
}  // namespace

int AssignPlanNodeIds(PlanNode* root, int next_id) {
  if (root == nullptr) return next_id;
  root->node_id = next_id++;
  for (auto& child : root->children) next_id = AssignPlanNodeIds(child.get(), next_id);
  return next_id;
}

std::string PlanNode::ToString(int indent) const {
  std::string pad(static_cast<size_t>(indent) * 2, ' ');
  std::string s = pad + PlanKindName(kind);
  switch (kind) {
    case PlanKind::kSeqScan:
    case PlanKind::kIndexScan:
    case PlanKind::kVirtualScan:
      s += " table=" + std::to_string(table);
      if (kind == PlanKind::kIndexScan) {
        s += " key[$" + std::to_string(index_col) + "=" + index_key->ToString() + "]";
      }
      if (filter) s += " filter=" + filter->ToString();
      if (!scan_store.empty()) s += " store=" + scan_store;
      break;
    case PlanKind::kFunctionScan:
      for (size_t i = 0; i + 1 < exprs.size(); i += 2) {
        s += " generate_series(" + exprs[i]->ToString() + ", " + exprs[i + 1]->ToString() + ")";
      }
      if (filter) s += " filter=" + filter->ToString();
      break;
    case PlanKind::kFilter:
      if (filter) s += " " + filter->ToString();
      break;
    case PlanKind::kMotion:
      s += std::string(" ") + MotionKindName(motion) + " id=" + std::to_string(motion_id);
      break;
    case PlanKind::kModifyTable:
      s += std::string(exprs.empty() ? " delete" : " update") + " table=" +
           std::to_string(table);
      break;
    case PlanKind::kHashAgg:
      s += " phase=" + std::to_string(static_cast<int>(agg_phase)) +
           " groups=" + std::to_string(group_cols.size()) +
           " aggs=" + std::to_string(aggs.size());
      break;
    case PlanKind::kLimit:
      s += " n=" + std::to_string(limit);
      break;
    default:
      break;
  }
  if (vectorize) s += " (vectorized)";
  s += "\n";
  for (const auto& c : children) s += c->ToString(indent + 1);
  return s;
}

PlanPtr MakeSeqScan(TableId table, int arity, ExprPtr filter) {
  auto p = std::make_unique<PlanNode>();
  p->kind = PlanKind::kSeqScan;
  p->table = table;
  p->filter = std::move(filter);
  p->output_arity = arity;
  return p;
}

PlanPtr MakeVirtualScan(TableId table, int arity, ExprPtr filter) {
  auto p = std::make_unique<PlanNode>();
  p->kind = PlanKind::kVirtualScan;
  p->table = table;
  p->filter = std::move(filter);
  p->output_arity = arity;
  return p;
}

PlanPtr MakeFunctionScan(std::vector<ExprPtr> bounds, ExprPtr filter) {
  auto p = std::make_unique<PlanNode>();
  p->kind = PlanKind::kFunctionScan;
  p->output_arity = static_cast<int>(bounds.size() / 2);
  p->exprs = std::move(bounds);
  p->filter = std::move(filter);
  return p;
}

PlanPtr MakeIndexScan(TableId table, int arity, int col, ExprPtr key, ExprPtr filter) {
  auto p = std::make_unique<PlanNode>();
  p->kind = PlanKind::kIndexScan;
  p->table = table;
  p->index_col = col;
  p->index_key = std::move(key);
  p->filter = std::move(filter);
  p->output_arity = arity;
  return p;
}

namespace {
// Does any kParam appear in this expression?
bool ExprHasParams(const Expr& e) {
  if (e.kind == ExprKind::kParam) return true;
  if (e.left != nullptr && ExprHasParams(*e.left)) return true;
  return e.right != nullptr && ExprHasParams(*e.right);
}
}  // namespace

StatusOr<ExprPtr> CloneExprWithParams(const ExprPtr& e,
                                      const std::vector<Datum>& params) {
  if (e == nullptr) return ExprPtr{};
  if (!ExprHasParams(*e)) return e;  // immutable: share the subtree
  switch (e->kind) {
    case ExprKind::kParam: {
      if (e->param < 0 || static_cast<size_t>(e->param) >= params.size()) {
        return Status::InvalidArgument("parameter $" +
                                       std::to_string(e->param + 1) +
                                       " has no value");
      }
      return Expr::Const(params[static_cast<size_t>(e->param)]);
    }
    case ExprKind::kNot: {
      GPHTAP_ASSIGN_OR_RETURN(ExprPtr l, CloneExprWithParams(e->left, params));
      return Expr::Not(std::move(l));
    }
    case ExprKind::kIsNull: {
      GPHTAP_ASSIGN_OR_RETURN(ExprPtr l, CloneExprWithParams(e->left, params));
      return Expr::IsNull(std::move(l));
    }
    case ExprKind::kBinary: {
      GPHTAP_ASSIGN_OR_RETURN(ExprPtr l, CloneExprWithParams(e->left, params));
      GPHTAP_ASSIGN_OR_RETURN(ExprPtr r, CloneExprWithParams(e->right, params));
      return Expr::Binary(e->op, std::move(l), std::move(r));
    }
    case ExprKind::kConst:
    case ExprKind::kColumn:
      return e;  // unreachable given ExprHasParams, kept for completeness
  }
  return Status::Internal("bad expr kind");
}

StatusOr<PlanPtr> ClonePlanWithParams(const PlanNode& node,
                                      const std::vector<Datum>& params) {
  auto p = std::make_unique<PlanNode>();
  p->kind = node.kind;
  p->table = node.table;
  p->scan_cols = node.scan_cols;
  GPHTAP_ASSIGN_OR_RETURN(p->filter, CloneExprWithParams(node.filter, params));
  p->index_col = node.index_col;
  GPHTAP_ASSIGN_OR_RETURN(p->index_key, CloneExprWithParams(node.index_key, params));
  p->emit_tid = node.emit_tid;
  p->exprs.reserve(node.exprs.size());
  for (const ExprPtr& e : node.exprs) {
    GPHTAP_ASSIGN_OR_RETURN(ExprPtr c, CloneExprWithParams(e, params));
    p->exprs.push_back(std::move(c));
  }
  p->left_keys = node.left_keys;
  p->right_keys = node.right_keys;
  p->prefetch_inner = node.prefetch_inner;
  p->group_cols = node.group_cols;
  p->aggs.reserve(node.aggs.size());
  for (const AggSpec& a : node.aggs) {
    AggSpec spec;
    spec.fn = a.fn;
    GPHTAP_ASSIGN_OR_RETURN(spec.arg, CloneExprWithParams(a.arg, params));
    p->aggs.push_back(std::move(spec));
  }
  p->agg_phase = node.agg_phase;
  p->sort_keys = node.sort_keys;
  p->limit = node.limit;
  p->motion = node.motion;
  p->hash_cols = node.hash_cols;
  p->motion_id = node.motion_id;
  p->output_arity = node.output_arity;
  p->node_id = node.node_id;
  p->vectorize = node.vectorize;
  p->scan_store = node.scan_store;
  p->children.reserve(node.children.size());
  for (const auto& child : node.children) {
    GPHTAP_ASSIGN_OR_RETURN(PlanPtr c, ClonePlanWithParams(*child, params));
    p->children.push_back(std::move(c));
  }
  return p;
}

PlanPtr MakeMotion(MotionKind kind, PlanPtr child, int motion_id,
                   std::vector<int> hash_cols) {
  auto p = std::make_unique<PlanNode>();
  p->kind = PlanKind::kMotion;
  p->motion = kind;
  p->motion_id = motion_id;
  p->hash_cols = std::move(hash_cols);
  p->output_arity = child->output_arity;
  p->children.push_back(std::move(child));
  return p;
}

}  // namespace gphtap
