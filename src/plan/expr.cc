#include "plan/expr.h"

#include <cmath>

namespace gphtap {

const char* BinOpName(BinOp op) {
  switch (op) {
    case BinOp::kAdd:
      return "+";
    case BinOp::kSub:
      return "-";
    case BinOp::kMul:
      return "*";
    case BinOp::kDiv:
      return "/";
    case BinOp::kMod:
      return "%";
    case BinOp::kEq:
      return "=";
    case BinOp::kNe:
      return "<>";
    case BinOp::kLt:
      return "<";
    case BinOp::kLe:
      return "<=";
    case BinOp::kGt:
      return ">";
    case BinOp::kGe:
      return ">=";
    case BinOp::kAnd:
      return "AND";
    case BinOp::kOr:
      return "OR";
  }
  return "?";
}

ExprPtr Expr::Const(Datum d) {
  auto e = std::make_shared<Expr>();
  e->kind = ExprKind::kConst;
  e->value = std::move(d);
  return e;
}

ExprPtr Expr::Column(int index) {
  auto e = std::make_shared<Expr>();
  e->kind = ExprKind::kColumn;
  e->column = index;
  return e;
}

ExprPtr Expr::Param(int index) {
  auto e = std::make_shared<Expr>();
  e->kind = ExprKind::kParam;
  e->param = index;
  return e;
}

ExprPtr Expr::Binary(BinOp op, ExprPtr l, ExprPtr r) {
  auto e = std::make_shared<Expr>();
  e->kind = ExprKind::kBinary;
  e->op = op;
  e->left = std::move(l);
  e->right = std::move(r);
  return e;
}

ExprPtr Expr::Not(ExprPtr inner) {
  auto e = std::make_shared<Expr>();
  e->kind = ExprKind::kNot;
  e->left = std::move(inner);
  return e;
}

ExprPtr Expr::IsNull(ExprPtr inner) {
  auto e = std::make_shared<Expr>();
  e->kind = ExprKind::kIsNull;
  e->left = std::move(inner);
  return e;
}

std::string Expr::ToString() const {
  switch (kind) {
    case ExprKind::kConst:
      return value.ToString();
    case ExprKind::kColumn:
      return "$" + std::to_string(column);
    case ExprKind::kBinary:
      return "(" + left->ToString() + " " + BinOpName(op) + " " + right->ToString() + ")";
    case ExprKind::kNot:
      return "NOT " + left->ToString();
    case ExprKind::kIsNull:
      return left->ToString() + " IS NULL";
    case ExprKind::kParam:
      return "$param" + std::to_string(param + 1);
  }
  return "?";
}

namespace {

StatusOr<Datum> EvalArith(BinOp op, const Datum& l, const Datum& r) {
  if (l.is_null() || r.is_null()) return Datum::Null();
  if (l.is_string() || r.is_string()) {
    if (op == BinOp::kAdd && l.is_string() && r.is_string()) {
      return Datum(l.string_val() + r.string_val());  // string concatenation
    }
    return Status::InvalidArgument("arithmetic on strings");
  }
  if (l.is_int() && r.is_int()) {
    int64_t out = 0;
    GPHTAP_RETURN_IF_ERROR(IntArith(op, l.int_val(), r.int_val(), &out));
    return Datum(out);
  }
  double a = l.AsDouble(), b = r.AsDouble();
  switch (op) {
    case BinOp::kAdd:
      return Datum(a + b);
    case BinOp::kSub:
      return Datum(a - b);
    case BinOp::kMul:
      return Datum(a * b);
    case BinOp::kDiv:
      if (b == 0) return Status::InvalidArgument("division by zero");
      return Datum(a / b);
    case BinOp::kMod:
      if (b == 0) return Status::InvalidArgument("division by zero");
      return Datum(std::fmod(a, b));
    default:
      break;
  }
  return Status::Internal("bad arithmetic op");
}

StatusOr<Datum> EvalCompare(BinOp op, const Datum& l, const Datum& r) {
  if (l.is_null() || r.is_null()) return Datum::Null();
  int c = l.Compare(r);
  bool result = false;
  switch (op) {
    case BinOp::kEq:
      result = c == 0;
      break;
    case BinOp::kNe:
      result = c != 0;
      break;
    case BinOp::kLt:
      result = c < 0;
      break;
    case BinOp::kLe:
      result = c <= 0;
      break;
    case BinOp::kGt:
      result = c > 0;
      break;
    case BinOp::kGe:
      result = c >= 0;
      break;
    default:
      return Status::Internal("bad comparison op");
  }
  return Datum(static_cast<int64_t>(result ? 1 : 0));
}

// Boolean interpretation: NULL stays NULL, nonzero = true.
enum class Tri { kFalse, kTrue, kNull };

Tri AsTri(const Datum& d) {
  if (d.is_null()) return Tri::kNull;
  if (d.is_int()) return d.int_val() != 0 ? Tri::kTrue : Tri::kFalse;
  if (d.is_double()) return d.double_val() != 0 ? Tri::kTrue : Tri::kFalse;
  return d.string_val().empty() ? Tri::kFalse : Tri::kTrue;
}

}  // namespace

Status IntArith(BinOp op, int64_t a, int64_t b, int64_t* out) {
  bool overflow = false;
  switch (op) {
    case BinOp::kAdd:
      overflow = __builtin_add_overflow(a, b, out);
      break;
    case BinOp::kSub:
      overflow = __builtin_sub_overflow(a, b, out);
      break;
    case BinOp::kMul:
      overflow = __builtin_mul_overflow(a, b, out);
      break;
    case BinOp::kDiv:
    case BinOp::kMod:
      if (b == 0) return Status::InvalidArgument("division by zero");
      // x86 traps on INT64_MIN / -1 and INT64_MIN % -1. x % -1 is always 0,
      // and x / -1 is -x, which does not fit for INT64_MIN.
      if (b == -1) {
        *out = 0;
        if (op == BinOp::kDiv) overflow = __builtin_sub_overflow(int64_t{0}, a, out);
      } else {
        *out = op == BinOp::kDiv ? a / b : a % b;
      }
      break;
    default:
      return Status::Internal("bad arithmetic op");
  }
  return overflow ? BigintOutOfRange() : Status::OK();
}

Status BigintOutOfRange() { return Status::InvalidArgument("bigint out of range"); }

StatusOr<Datum> EvalBinaryOp(BinOp op, const Datum& l, const Datum& r) {
  switch (op) {
    case BinOp::kAdd:
    case BinOp::kSub:
    case BinOp::kMul:
    case BinOp::kDiv:
    case BinOp::kMod:
      return EvalArith(op, l, r);
    case BinOp::kAnd:
    case BinOp::kOr:
      return Status::Internal("EvalBinaryOp does not handle AND/OR");
    default:
      return EvalCompare(op, l, r);
  }
}

int DatumTruth(const Datum& d) {
  switch (AsTri(d)) {
    case Tri::kNull:
      return -1;
    case Tri::kFalse:
      return 0;
    case Tri::kTrue:
      return 1;
  }
  return -1;
}

StatusOr<Datum> EvalExpr(const Expr& e, const Row& row) {
  switch (e.kind) {
    case ExprKind::kConst:
      return e.value;
    case ExprKind::kColumn:
      if (e.column < 0 || static_cast<size_t>(e.column) >= row.size()) {
        return Status::Internal("column index out of range: " + std::to_string(e.column));
      }
      return row[static_cast<size_t>(e.column)];
    case ExprKind::kParam:
      // Parameters must be substituted out (ClonePlanWithParams) before a
      // prepared plan executes; reaching one here is a bind failure.
      return Status::Internal("unbound parameter $" + std::to_string(e.param + 1));
    case ExprKind::kNot: {
      GPHTAP_ASSIGN_OR_RETURN(Datum v, EvalExpr(*e.left, row));
      Tri t = AsTri(v);
      if (t == Tri::kNull) return Datum::Null();
      return Datum(static_cast<int64_t>(t == Tri::kTrue ? 0 : 1));
    }
    case ExprKind::kIsNull: {
      GPHTAP_ASSIGN_OR_RETURN(Datum v, EvalExpr(*e.left, row));
      return Datum(static_cast<int64_t>(v.is_null() ? 1 : 0));
    }
    case ExprKind::kBinary: {
      if (e.op == BinOp::kAnd || e.op == BinOp::kOr) {
        GPHTAP_ASSIGN_OR_RETURN(Datum lv, EvalExpr(*e.left, row));
        Tri lt = AsTri(lv);
        // Short circuit.
        if (e.op == BinOp::kAnd && lt == Tri::kFalse) return Datum(int64_t{0});
        if (e.op == BinOp::kOr && lt == Tri::kTrue) return Datum(int64_t{1});
        GPHTAP_ASSIGN_OR_RETURN(Datum rv, EvalExpr(*e.right, row));
        Tri rt = AsTri(rv);
        if (e.op == BinOp::kAnd) {
          if (lt == Tri::kTrue && rt == Tri::kTrue) return Datum(int64_t{1});
          if (rt == Tri::kFalse) return Datum(int64_t{0});
          return Datum::Null();
        }
        if (lt == Tri::kFalse && rt == Tri::kFalse) return Datum(int64_t{0});
        if (rt == Tri::kTrue) return Datum(int64_t{1});
        return Datum::Null();
      }
      GPHTAP_ASSIGN_OR_RETURN(Datum lv, EvalExpr(*e.left, row));
      GPHTAP_ASSIGN_OR_RETURN(Datum rv, EvalExpr(*e.right, row));
      switch (e.op) {
        case BinOp::kAdd:
        case BinOp::kSub:
        case BinOp::kMul:
        case BinOp::kDiv:
        case BinOp::kMod:
          return EvalArith(e.op, lv, rv);
        default:
          return EvalCompare(e.op, lv, rv);
      }
    }
  }
  return Status::Internal("bad expr kind");
}

StatusOr<bool> EvalPredicate(const Expr& e, const Row& row) {
  GPHTAP_ASSIGN_OR_RETURN(Datum v, EvalExpr(e, row));
  return AsTri(v) == Tri::kTrue;
}

ExprPtr ExtractEqualityKey(const Expr& e, int col) {
  if (e.kind == ExprKind::kBinary && e.op == BinOp::kAnd) {
    ExprPtr key = ExtractEqualityKey(*e.left, col);
    return key != nullptr ? key : ExtractEqualityKey(*e.right, col);
  }
  if (e.kind != ExprKind::kBinary || e.op != BinOp::kEq) return nullptr;
  auto is_key = [](const Expr& k) {
    return k.kind == ExprKind::kParam || (k.kind == ExprKind::kConst && !k.value.is_null());
  };
  if (e.left->kind == ExprKind::kColumn && e.left->column == col && is_key(*e.right)) {
    return e.right;
  }
  if (e.right->kind == ExprKind::kColumn && e.right->column == col && is_key(*e.left)) {
    return e.left;
  }
  return nullptr;
}

namespace {

void CollectScanBounds(const Expr& e, ScanBounds* out) {
  if (e.kind != ExprKind::kBinary) return;
  if (e.op == BinOp::kAnd) {
    CollectScanBounds(*e.left, out);
    CollectScanBounds(*e.right, out);
    return;
  }
  const bool column_left = e.left->kind == ExprKind::kColumn;
  const Expr& column = column_left ? *e.left : *e.right;
  const Expr& constant = column_left ? *e.right : *e.left;
  if (column.kind != ExprKind::kColumn || constant.kind != ExprKind::kConst) return;
  const Datum& v = constant.value;
  // NaN equals every double under Datum::Compare: it bounds nothing.
  if (!v.is_int() && !(v.is_double() && !std::isnan(v.double_val()))) return;
  BoundOp op;
  switch (e.op) {
    case BinOp::kEq:
      op = BoundOp::kEq;
      break;
    case BinOp::kLt:
      op = column_left ? BoundOp::kLt : BoundOp::kGt;
      break;
    case BinOp::kLe:
      op = column_left ? BoundOp::kLe : BoundOp::kGe;
      break;
    case BinOp::kGt:
      op = column_left ? BoundOp::kGt : BoundOp::kLt;
      break;
    case BinOp::kGe:
      op = column_left ? BoundOp::kGe : BoundOp::kLe;
      break;
    default:
      return;
  }
  out->push_back(ScanBound{column.column, op, v});
}

}  // namespace

ScanBounds ExtractScanBounds(const Expr& filter) {
  ScanBounds bounds;
  CollectScanBounds(filter, &bounds);
  return bounds;
}

bool ExprReadsColumns(const Expr& e) {
  switch (e.kind) {
    case ExprKind::kConst:
      return false;
    case ExprKind::kParam:
      // Not constant-foldable at plan time: the value arrives at EXECUTE.
      return true;
    case ExprKind::kColumn:
      return true;
    case ExprKind::kNot:
    case ExprKind::kIsNull:
      return ExprReadsColumns(*e.left);
    case ExprKind::kBinary:
      return ExprReadsColumns(*e.left) || ExprReadsColumns(*e.right);
  }
  return false;
}

}  // namespace gphtap
