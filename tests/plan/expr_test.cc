#include "plan/expr.h"

#include <gtest/gtest.h>

#include <limits>

namespace gphtap {
namespace {

Datum I(int64_t v) { return Datum(v); }

TEST(ExprTest, ConstAndColumn) {
  Row row = {I(7), Datum(std::string("x"))};
  EXPECT_EQ(EvalExpr(*Expr::Const(I(5)), row)->int_val(), 5);
  EXPECT_EQ(EvalExpr(*Expr::Column(0), row)->int_val(), 7);
  EXPECT_EQ(EvalExpr(*Expr::Column(1), row)->string_val(), "x");
  EXPECT_FALSE(EvalExpr(*Expr::Column(9), row).ok());
}

TEST(ExprTest, IntArithmetic) {
  Row row;
  auto eval = [&](BinOp op, int64_t a, int64_t b) {
    return EvalExpr(*Expr::Binary(op, Expr::Const(I(a)), Expr::Const(I(b))), row);
  };
  EXPECT_EQ(eval(BinOp::kAdd, 2, 3)->int_val(), 5);
  EXPECT_EQ(eval(BinOp::kSub, 2, 3)->int_val(), -1);
  EXPECT_EQ(eval(BinOp::kMul, 4, 3)->int_val(), 12);
  EXPECT_EQ(eval(BinOp::kDiv, 7, 2)->int_val(), 3);
  EXPECT_EQ(eval(BinOp::kMod, 7, 2)->int_val(), 1);
  EXPECT_FALSE(eval(BinOp::kDiv, 1, 0).ok());
  EXPECT_FALSE(eval(BinOp::kMod, 1, 0).ok());
}

// PostgreSQL's int8div / int8mod: INT64_MIN / -1 is an error, not a trap,
// and x % -1 is 0 for every x.
TEST(ExprTest, IntMinDivisionByMinusOne) {
  Row row;
  auto eval = [&](BinOp op, int64_t a, int64_t b) {
    return EvalExpr(*Expr::Binary(op, Expr::Const(I(a)), Expr::Const(I(b))), row);
  };
  const int64_t min = std::numeric_limits<int64_t>::min();
  auto div = eval(BinOp::kDiv, min, -1);
  ASSERT_FALSE(div.ok());
  EXPECT_EQ(div.status().code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(div.status().message(), "bigint out of range");
  EXPECT_EQ(eval(BinOp::kMod, min, -1)->int_val(), 0);
  EXPECT_EQ(eval(BinOp::kMod, 7, -1)->int_val(), 0);
  EXPECT_EQ(eval(BinOp::kDiv, 7, -1)->int_val(), -7);
  EXPECT_EQ(eval(BinOp::kDiv, min, 1)->int_val(), min);
  EXPECT_EQ(eval(BinOp::kDiv, min + 1, -1)->int_val(),
            std::numeric_limits<int64_t>::max());
  EXPECT_EQ(eval(BinOp::kMod, -7, 2)->int_val(), -1);
}

// int8pl / int8mi / int8mul: a result outside int64 raises instead of
// wrapping.
TEST(ExprTest, IntOverflowRaises) {
  Row row;
  auto eval = [&](BinOp op, int64_t a, int64_t b) {
    return EvalExpr(*Expr::Binary(op, Expr::Const(I(a)), Expr::Const(I(b))), row);
  };
  const int64_t min = std::numeric_limits<int64_t>::min();
  const int64_t max = std::numeric_limits<int64_t>::max();
  struct Case {
    BinOp op;
    int64_t a, b;
  };
  for (const Case& c : {Case{BinOp::kAdd, max, 1}, Case{BinOp::kAdd, min, -1},
                        Case{BinOp::kSub, min, 1}, Case{BinOp::kSub, 0, min},
                        Case{BinOp::kMul, max, 2}, Case{BinOp::kMul, min, -1},
                        Case{BinOp::kMul, int64_t{1} << 32, int64_t{1} << 31}}) {
    auto r = eval(c.op, c.a, c.b);
    ASSERT_FALSE(r.ok()) << c.a << " " << BinOpName(c.op) << " " << c.b;
    EXPECT_EQ(r.status().code(), StatusCode::kInvalidArgument);
    EXPECT_EQ(r.status().message(), "bigint out of range");
  }
  EXPECT_EQ(eval(BinOp::kAdd, max, 0)->int_val(), max);
  EXPECT_EQ(eval(BinOp::kAdd, max, min)->int_val(), -1);
  EXPECT_EQ(eval(BinOp::kSub, min, -1)->int_val(), min + 1);
  EXPECT_EQ(eval(BinOp::kSub, -1, max)->int_val(), min);
  EXPECT_EQ(eval(BinOp::kMul, min, 1)->int_val(), min);
  EXPECT_EQ(eval(BinOp::kMul, max, -1)->int_val(), min + 1);
  EXPECT_EQ(eval(BinOp::kMul, int64_t{1} << 31, int64_t{1} << 31)->int_val(),
            int64_t{1} << 62);
}

TEST(ExprTest, MixedArithmeticWidens) {
  Row row;
  auto r = EvalExpr(
      *Expr::Binary(BinOp::kAdd, Expr::Const(I(1)), Expr::Const(Datum(0.5))), row);
  ASSERT_TRUE(r.ok());
  EXPECT_DOUBLE_EQ(r->double_val(), 1.5);
}

TEST(ExprTest, StringConcat) {
  Row row;
  auto r = EvalExpr(*Expr::Binary(BinOp::kAdd, Expr::Const(Datum(std::string("ab"))),
                                  Expr::Const(Datum(std::string("cd")))),
                    row);
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r->string_val(), "abcd");
}

TEST(ExprTest, Comparisons) {
  Row row;
  auto cmp = [&](BinOp op, int64_t a, int64_t b) {
    return EvalExpr(*Expr::Binary(op, Expr::Const(I(a)), Expr::Const(I(b))),
                    row)->int_val();
  };
  EXPECT_EQ(cmp(BinOp::kEq, 1, 1), 1);
  EXPECT_EQ(cmp(BinOp::kNe, 1, 1), 0);
  EXPECT_EQ(cmp(BinOp::kLt, 1, 2), 1);
  EXPECT_EQ(cmp(BinOp::kLe, 2, 2), 1);
  EXPECT_EQ(cmp(BinOp::kGt, 1, 2), 0);
  EXPECT_EQ(cmp(BinOp::kGe, 2, 3), 0);
}

TEST(ExprTest, NullPropagation) {
  Row row;
  auto add_null = EvalExpr(
      *Expr::Binary(BinOp::kAdd, Expr::Const(I(1)), Expr::Const(Datum::Null())), row);
  EXPECT_TRUE(add_null->is_null());
  auto eq_null = EvalExpr(
      *Expr::Binary(BinOp::kEq, Expr::Const(Datum::Null()), Expr::Const(Datum::Null())),
      row);
  EXPECT_TRUE(eq_null->is_null());  // NULL = NULL is NULL, not true
}

TEST(ExprTest, ThreeValuedLogic) {
  Row row;
  ExprPtr null_e = Expr::Const(Datum::Null());
  ExprPtr t = Expr::Const(I(1));
  ExprPtr f = Expr::Const(I(0));
  // FALSE AND NULL = FALSE; TRUE AND NULL = NULL.
  EXPECT_EQ(EvalExpr(*Expr::Binary(BinOp::kAnd, f, null_e), row)->int_val(), 0);
  EXPECT_TRUE(EvalExpr(*Expr::Binary(BinOp::kAnd, t, null_e), row)->is_null());
  // TRUE OR NULL = TRUE; FALSE OR NULL = NULL.
  EXPECT_EQ(EvalExpr(*Expr::Binary(BinOp::kOr, t, null_e), row)->int_val(), 1);
  EXPECT_TRUE(EvalExpr(*Expr::Binary(BinOp::kOr, f, null_e), row)->is_null());
  // NOT NULL = NULL.
  EXPECT_TRUE(EvalExpr(*Expr::Not(null_e), row)->is_null());
}

TEST(ExprTest, IsNull) {
  Row row = {Datum::Null(), I(1)};
  EXPECT_EQ(EvalExpr(*Expr::IsNull(Expr::Column(0)), row)->int_val(), 1);
  EXPECT_EQ(EvalExpr(*Expr::IsNull(Expr::Column(1)), row)->int_val(), 0);
}

TEST(ExprTest, PredicateTreatsNullAsFalse) {
  Row row = {Datum::Null()};
  ExprPtr pred = Expr::Binary(BinOp::kGt, Expr::Column(0), Expr::Const(I(5)));
  auto r = EvalPredicate(*pred, row);
  ASSERT_TRUE(r.ok());
  EXPECT_FALSE(*r);
}

TEST(ExprTest, ExtractEqualityKey) {
  // c0 = 42 AND c1 > 5
  ExprPtr pred = Expr::Binary(
      BinOp::kAnd, Expr::Binary(BinOp::kEq, Expr::Column(0), Expr::Const(I(42))),
      Expr::Binary(BinOp::kGt, Expr::Column(1), Expr::Const(I(5))));
  ExprPtr key = ExtractEqualityKey(*pred, 0);
  ASSERT_NE(key, nullptr);
  EXPECT_EQ(key->kind, ExprKind::kConst);
  EXPECT_EQ(key->value.int_val(), 42);
  EXPECT_EQ(ExtractEqualityKey(*pred, 1), nullptr);  // inequality doesn't pin

  // Reversed: 42 = c0.
  ExprPtr rev = Expr::Binary(BinOp::kEq, Expr::Const(I(42)), Expr::Column(0));
  EXPECT_NE(ExtractEqualityKey(*rev, 0), nullptr);

  // OR disjunction must NOT pin, nor a NULL constant.
  ExprPtr disj = Expr::Binary(
      BinOp::kOr, Expr::Binary(BinOp::kEq, Expr::Column(0), Expr::Const(I(1))),
      Expr::Binary(BinOp::kEq, Expr::Column(0), Expr::Const(I(2))));
  EXPECT_EQ(ExtractEqualityKey(*disj, 0), nullptr);
  EXPECT_EQ(ExtractEqualityKey(
                *Expr::Binary(BinOp::kEq, Expr::Column(0), Expr::Const(Datum::Null())), 0),
            nullptr);
}

// `col = $N` and `$N = col` pin the column to the parameter itself, so the
// planner keys index scans and direct dispatch by it as it does a constant.
TEST(ExprTest, ExtractEqualityKeyFindsParameters) {
  ExprPtr param = Expr::Param(1);
  ExprPtr pred = Expr::Binary(
      BinOp::kAnd, Expr::Binary(BinOp::kGt, Expr::Column(0), Expr::Const(I(5))),
      Expr::Binary(BinOp::kEq, Expr::Column(2), param));
  EXPECT_EQ(ExtractEqualityKey(*pred, 2), param);
  EXPECT_EQ(ExtractEqualityKey(*pred, 0), nullptr);
  ExprPtr rev = Expr::Binary(BinOp::kEq, param, Expr::Column(2));
  EXPECT_EQ(ExtractEqualityKey(*rev, 2), param);
  // A parameter inside arithmetic is no key.
  ExprPtr sum = Expr::Binary(BinOp::kEq, Expr::Column(2),
                             Expr::Binary(BinOp::kAdd, param, Expr::Const(I(1))));
  EXPECT_EQ(ExtractEqualityKey(*sum, 2), nullptr);
}

TEST(ExprTest, ShortCircuitSkipsErrors) {
  Row row;
  // FALSE AND (1/0 = 1): short circuit means no error.
  ExprPtr div0 = Expr::Binary(BinOp::kEq,
                              Expr::Binary(BinOp::kDiv, Expr::Const(I(1)),
                                           Expr::Const(I(0))),
                              Expr::Const(I(1)));
  ExprPtr pred = Expr::Binary(BinOp::kAnd, Expr::Const(I(0)), div0);
  auto r = EvalExpr(*pred, row);
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r->int_val(), 0);
}

TEST(ExprTest, ToStringReadable) {
  ExprPtr e = Expr::Binary(BinOp::kAnd,
                           Expr::Binary(BinOp::kEq, Expr::Column(0), Expr::Const(I(1))),
                           Expr::IsNull(Expr::Column(1)));
  EXPECT_EQ(e->ToString(), "(($0 = 1) AND $1 IS NULL)");
}

TEST(ExprTest, ReadsColumns) {
  EXPECT_FALSE(ExprReadsColumns(*Expr::Const(I(1))));
  EXPECT_TRUE(ExprReadsColumns(*Expr::Column(0)));
  EXPECT_TRUE(ExprReadsColumns(
      *Expr::Binary(BinOp::kAdd, Expr::Const(I(1)), Expr::Column(2))));
}

}  // namespace
}  // namespace gphtap
