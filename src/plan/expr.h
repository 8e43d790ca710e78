// Scalar expression trees evaluated over rows.
#ifndef GPHTAP_PLAN_EXPR_H_
#define GPHTAP_PLAN_EXPR_H_

#include <memory>
#include <string>

#include "catalog/datum.h"
#include "common/status.h"

namespace gphtap {

enum class ExprKind : uint8_t { kConst, kColumn, kBinary, kNot, kIsNull, kParam };

enum class BinOp : uint8_t {
  kAdd,
  kSub,
  kMul,
  kDiv,
  kMod,
  kEq,
  kNe,
  kLt,
  kLe,
  kGt,
  kGe,
  kAnd,
  kOr,
};

const char* BinOpName(BinOp op);

struct Expr;
using ExprPtr = std::shared_ptr<const Expr>;

/// Immutable expression node. Build with the factory helpers.
struct Expr {
  ExprKind kind = ExprKind::kConst;
  Datum value;      // kConst
  int column = -1;  // kColumn: index into the input row
  int param = -1;   // kParam: 0-based position into the EXECUTE argument list
  BinOp op = BinOp::kAdd;
  ExprPtr left;
  ExprPtr right;  // null for kNot / kIsNull

  static ExprPtr Const(Datum d);
  static ExprPtr Column(int index);
  static ExprPtr Param(int index);
  static ExprPtr Binary(BinOp op, ExprPtr l, ExprPtr r);
  static ExprPtr Not(ExprPtr e);
  static ExprPtr IsNull(ExprPtr e);

  std::string ToString() const;
};

/// Evaluates `e` against `row`. Comparison/arithmetic with NULL yields NULL;
/// AND/OR use three-valued logic collapsed to (NULL == false) at the boolean
/// boundary, matching how WHERE treats unknown.
StatusOr<Datum> EvalExpr(const Expr& e, const Row& row);

/// Evaluates as a WHERE predicate: NULL and false are both "reject".
StatusOr<bool> EvalPredicate(const Expr& e, const Row& row);

/// One non-logical binary op (arithmetic or comparison) over already-evaluated
/// operands — the same semantics EvalExpr applies per row, exposed so the
/// vectorized kernels share a single implementation. AND/OR are not accepted
/// here (they need short-circuit treatment at the caller).
StatusOr<Datum> EvalBinaryOp(BinOp op, const Datum& l, const Datum& r);

/// Integer `+ - * / %` with PostgreSQL's int8pl / int8mi / int8mul / int8div
/// / int8mod semantics, shared by both engines: a result outside int64
/// (INT64_MIN / -1 included) is "bigint out of range", a zero divisor is
/// "division by zero", and INT64_MIN % -1 is 0.
Status IntArith(BinOp op, int64_t a, int64_t b, int64_t* out);
/// The error an int64 result out of range raises (IntArith, int sums).
Status BigintOutOfRange();

/// SQL truth value of a datum: -1 = NULL/unknown, 0 = false, 1 = true.
int DatumTruth(const Datum& d);

/// If the predicate (conjunctively) pins `row[col]` to a non-null constant or
/// to a parameter (`col = $N`), returns that Const or Param expression, else
/// null — the key enabler of direct dispatch and index point lookups. A
/// parameter's value arrives when EXECUTE substitutes it.
ExprPtr ExtractEqualityKey(const Expr& e, int col);

/// True if the expression reads any column (false = evaluable at plan time).
bool ExprReadsColumns(const Expr& e);

}  // namespace gphtap

#endif  // GPHTAP_PLAN_EXPR_H_
