#include "vec/vec_kernels.h"

#include <cmath>

namespace gphtap {

namespace {

using Tag = ColumnVector::Tag;

// Comparison fast path for two non-null int64 values.
inline int64_t CompareIntOp(BinOp op, int64_t a, int64_t b) {
  switch (op) {
    case BinOp::kEq:
      return a == b;
    case BinOp::kNe:
      return a != b;
    case BinOp::kLt:
      return a < b;
    case BinOp::kLe:
      return a <= b;
    case BinOp::kGt:
      return a > b;
    case BinOp::kGe:
      return a >= b;
    default:
      return 0;  // unreachable, guarded by caller
  }
}

// Comparison over a three-way result, mirroring EvalCompare's use of
// Datum::Compare (so NaN handling matches the row engine exactly).
inline int64_t CompareCmp(BinOp op, int c) {
  switch (op) {
    case BinOp::kEq:
      return c == 0;
    case BinOp::kNe:
      return c != 0;
    case BinOp::kLt:
      return c < 0;
    case BinOp::kLe:
      return c <= 0;
    case BinOp::kGt:
      return c > 0;
    case BinOp::kGe:
      return c >= 0;
    default:
      return 0;
  }
}

inline bool IsCompare(BinOp op) {
  switch (op) {
    case BinOp::kEq:
    case BinOp::kNe:
    case BinOp::kLt:
    case BinOp::kLe:
    case BinOp::kGt:
    case BinOp::kGe:
      return true;
    default:
      return false;
  }
}

// Numeric slot read for an int64- or double-tagged column.
inline double NumAt(const ColumnVector& v, size_t r) {
  return v.tag == Tag::kInt64 ? static_cast<double>(v.ints[r]) : v.dbls[r];
}

/// Evaluates an operand, returning a pointer either straight into the batch
/// (bare column reference: zero copies) or at `scratch` holding the result.
Status EvalOperand(const Expr& e, const ColumnBatch& batch,
                   const std::vector<int32_t>& pos, ColumnVector* scratch,
                   const ColumnVector** out) {
  if (e.kind == ExprKind::kColumn) {
    if (e.column < 0 || static_cast<size_t>(e.column) >= batch.NumColumns()) {
      return Status::Internal("column index out of range: " +
                              std::to_string(e.column));
    }
    *out = &batch.columns[static_cast<size_t>(e.column)];
    return Status::OK();
  }
  GPHTAP_RETURN_IF_ERROR(VecEval(e, batch, pos, scratch));
  *out = scratch;
  return Status::OK();
}

Status VecEvalLogical(const Expr& e, const ColumnBatch& batch,
                      const std::vector<int32_t>& pos, ColumnVector* out) {
  const bool is_and = e.op == BinOp::kAnd;
  ColumnVector lscratch;
  const ColumnVector* lv = nullptr;
  GPHTAP_RETURN_IF_ERROR(EvalOperand(*e.left, batch, pos, &lscratch, &lv));

  out->ResetTyped(Tag::kInt64, batch.rows);

  // Positions the left operand did not decide; the right operand is evaluated
  // ONLY there (short circuit: errors in the skipped positions never surface,
  // exactly like the row engine).
  std::vector<int32_t> undecided;
  undecided.reserve(pos.size());
  for (int32_t r : pos) {
    const size_t i = static_cast<size_t>(r);
    int lt = VecTruthAt(*lv, i);
    if (is_and && lt == 0) {
      out->ints[i] = 0;
    } else if (!is_and && lt == 1) {
      out->ints[i] = 1;
    } else {
      undecided.push_back(r);
    }
  }
  if (undecided.empty()) return Status::OK();

  ColumnVector rscratch;
  const ColumnVector* rv = nullptr;
  GPHTAP_RETURN_IF_ERROR(EvalOperand(*e.right, batch, undecided, &rscratch, &rv));
  for (int32_t r : undecided) {
    const size_t i = static_cast<size_t>(r);
    int lt = VecTruthAt(*lv, i);
    int rt = VecTruthAt(*rv, i);
    if (is_and) {
      if (lt == 1 && rt == 1) {
        out->ints[i] = 1;
      } else if (rt == 0) {
        out->ints[i] = 0;
      } else {
        out->SetNull(i);
      }
    } else {
      if (lt == 0 && rt == 0) {
        out->ints[i] = 0;
      } else if (rt == 1) {
        out->ints[i] = 1;
      } else {
        out->SetNull(i);
      }
    }
  }
  return Status::OK();
}

// Int64 x int64 kernel: branchless compare loops split by null presence;
// arithmetic goes row by row through IntArith (it can raise).
Status EvalBinaryIntInt(BinOp op, const ColumnVector& l, const ColumnVector& r,
                        const std::vector<int32_t>& pos, size_t rows,
                        ColumnVector* out) {
  out->ResetTyped(Tag::kInt64, rows);
  const bool nullable = !l.nulls.empty() || !r.nulls.empty();
  const int64_t* a = l.ints.data();
  const int64_t* b = r.ints.data();
  int64_t* o = out->ints.data();
  if (!IsCompare(op)) {
    for (int32_t p : pos) {
      const size_t i = static_cast<size_t>(p);
      if (nullable && (l.IsNull(i) || r.IsNull(i))) {
        out->SetNull(i);
        continue;
      }
      GPHTAP_RETURN_IF_ERROR(IntArith(op, a[i], b[i], &o[i]));
    }
    return Status::OK();
  }
  if (!nullable) {
    switch (op) {
      case BinOp::kEq:
        for (int32_t p : pos) o[p] = a[p] == b[p];
        return Status::OK();
      case BinOp::kNe:
        for (int32_t p : pos) o[p] = a[p] != b[p];
        return Status::OK();
      case BinOp::kLt:
        for (int32_t p : pos) o[p] = a[p] < b[p];
        return Status::OK();
      case BinOp::kLe:
        for (int32_t p : pos) o[p] = a[p] <= b[p];
        return Status::OK();
      case BinOp::kGt:
        for (int32_t p : pos) o[p] = a[p] > b[p];
        return Status::OK();
      case BinOp::kGe:
        for (int32_t p : pos) o[p] = a[p] >= b[p];
        return Status::OK();
      default:
        return Status::Internal("bad int binary op");
    }
  }
  for (int32_t p : pos) {
    const size_t i = static_cast<size_t>(p);
    if (l.IsNull(i) || r.IsNull(i)) {
      out->SetNull(i);
      continue;
    }
    o[i] = CompareIntOp(op, a[i], b[i]);
  }
  return Status::OK();
}

// Numeric kernel with at least one double side: comparisons produce int64
// truth values, arithmetic promotes to double (EvalArith's mixed-type rule).
Status EvalBinaryNumeric(BinOp op, const ColumnVector& l, const ColumnVector& r,
                         const std::vector<int32_t>& pos, size_t rows,
                         ColumnVector* out) {
  const bool nullable = !l.nulls.empty() || !r.nulls.empty();
  if (IsCompare(op)) {
    out->ResetTyped(Tag::kInt64, rows);
    for (int32_t p : pos) {
      const size_t i = static_cast<size_t>(p);
      if (nullable && (l.IsNull(i) || r.IsNull(i))) {
        out->SetNull(i);
        continue;
      }
      double a = NumAt(l, i), b = NumAt(r, i);
      int c = a < b ? -1 : (a > b ? 1 : 0);
      out->ints[i] = CompareCmp(op, c);
    }
    return Status::OK();
  }
  out->ResetTyped(Tag::kDouble, rows);
  for (int32_t p : pos) {
    const size_t i = static_cast<size_t>(p);
    if (nullable && (l.IsNull(i) || r.IsNull(i))) {
      out->SetNull(i);
      continue;
    }
    double a = NumAt(l, i), b = NumAt(r, i);
    switch (op) {
      case BinOp::kAdd:
        out->dbls[i] = a + b;
        break;
      case BinOp::kSub:
        out->dbls[i] = a - b;
        break;
      case BinOp::kMul:
        out->dbls[i] = a * b;
        break;
      case BinOp::kDiv:
        if (b == 0) return Status::InvalidArgument("division by zero");
        out->dbls[i] = a / b;
        break;
      case BinOp::kMod:
        if (b == 0) return Status::InvalidArgument("division by zero");
        out->dbls[i] = std::fmod(a, b);
        break;
      default:
        return Status::Internal("bad numeric binary op");
    }
  }
  return Status::OK();
}

// Boxed fallback for string/mixed columns: per-row EvalBinaryOp with the
// int-int datum fast path, exactly the pre-typed-vector behaviour.
Status EvalBinaryBoxed(BinOp op, const ColumnVector& lv, const ColumnVector& rv,
                       const std::vector<int32_t>& pos, size_t rows,
                       ColumnVector* out) {
  out->ResetTyped(Tag::kDatum, rows);
  const bool cmp = IsCompare(op);
  for (int32_t p : pos) {
    const size_t i = static_cast<size_t>(p);
    Datum l = lv.GetDatum(i);
    Datum v = rv.GetDatum(i);
    Datum& o = out->datums[i];
    if (l.is_int() && v.is_int()) {
      int64_t a = l.int_val(), b = v.int_val();
      int64_t r = 0;
      if (cmp) {
        r = CompareIntOp(op, a, b);
      } else {
        GPHTAP_RETURN_IF_ERROR(IntArith(op, a, b, &r));
      }
      o = Datum(r);
      continue;
    }
    GPHTAP_ASSIGN_OR_RETURN(o, EvalBinaryOp(op, l, v));
  }
  return Status::OK();
}

}  // namespace

int VecTruthAt(const ColumnVector& v, size_t r) {
  if (v.IsNull(r)) return -1;
  switch (v.tag) {
    case Tag::kInt64:
      return v.ints[r] != 0 ? 1 : 0;
    case Tag::kDouble:
      return v.dbls[r] != 0 ? 1 : 0;
    case Tag::kDatum:
      return DatumTruth(v.datums[r]);
  }
  return -1;
}

Status VecEval(const Expr& e, const ColumnBatch& batch,
               const std::vector<int32_t>& pos, ColumnVector* out) {
  switch (e.kind) {
    case ExprKind::kConst: {
      const Datum& v = e.value;
      if (v.is_int()) {
        out->ResetTyped(Tag::kInt64, batch.rows);
        std::fill(out->ints.begin(), out->ints.end(), v.int_val());
      } else if (v.is_double()) {
        out->ResetTyped(Tag::kDouble, batch.rows);
        std::fill(out->dbls.begin(), out->dbls.end(), v.double_val());
      } else if (v.is_null()) {
        out->ResetTyped(Tag::kInt64, batch.rows);
        out->nulls.assign(batch.rows, 1);
      } else {
        out->ResetTyped(Tag::kDatum, batch.rows);
        for (int32_t r : pos) out->datums[static_cast<size_t>(r)] = v;
      }
      return Status::OK();
    }
    case ExprKind::kColumn: {
      if (e.column < 0 || static_cast<size_t>(e.column) >= batch.NumColumns()) {
        return Status::Internal("column index out of range: " +
                                std::to_string(e.column));
      }
      *out = batch.columns[static_cast<size_t>(e.column)];
      return Status::OK();
    }
    case ExprKind::kNot: {
      ColumnVector scratch;
      const ColumnVector* v = nullptr;
      GPHTAP_RETURN_IF_ERROR(EvalOperand(*e.left, batch, pos, &scratch, &v));
      out->ResetTyped(Tag::kInt64, batch.rows);
      for (int32_t r : pos) {
        const size_t i = static_cast<size_t>(r);
        int t = VecTruthAt(*v, i);
        if (t < 0) {
          out->SetNull(i);
        } else {
          out->ints[i] = t == 1 ? 0 : 1;
        }
      }
      return Status::OK();
    }
    case ExprKind::kIsNull: {
      ColumnVector scratch;
      const ColumnVector* v = nullptr;
      GPHTAP_RETURN_IF_ERROR(EvalOperand(*e.left, batch, pos, &scratch, &v));
      out->ResetTyped(Tag::kInt64, batch.rows);
      for (int32_t r : pos) {
        const size_t i = static_cast<size_t>(r);
        out->ints[i] = v->IsNull(i) ? 1 : 0;
      }
      return Status::OK();
    }
    case ExprKind::kBinary: {
      if (e.op == BinOp::kAnd || e.op == BinOp::kOr) {
        return VecEvalLogical(e, batch, pos, out);
      }
      ColumnVector lscratch, rscratch;
      const ColumnVector* lv = nullptr;
      const ColumnVector* rv = nullptr;
      GPHTAP_RETURN_IF_ERROR(EvalOperand(*e.left, batch, pos, &lscratch, &lv));
      GPHTAP_RETURN_IF_ERROR(EvalOperand(*e.right, batch, pos, &rscratch, &rv));
      if (lv->tag == Tag::kInt64 && rv->tag == Tag::kInt64) {
        return EvalBinaryIntInt(e.op, *lv, *rv, pos, batch.rows, out);
      }
      if (lv->tag != Tag::kDatum && rv->tag != Tag::kDatum) {
        return EvalBinaryNumeric(e.op, *lv, *rv, pos, batch.rows, out);
      }
      return EvalBinaryBoxed(e.op, *lv, *rv, pos, batch.rows, out);
    }
    case ExprKind::kParam:
      // Parameters are substituted before execution (ClonePlanWithParams);
      // one surviving to a kernel is a bind failure, same as the row engine.
      return Status::Internal("unbound parameter $" + std::to_string(e.param + 1));
  }
  return Status::Internal("bad expr kind");
}

Status VecFilterBatch(const Expr& filter, ColumnBatch* batch) {
  if (batch->sel.empty()) return Status::OK();
  ColumnVector vals;
  GPHTAP_RETURN_IF_ERROR(VecEval(filter, *batch, batch->sel, &vals));
  size_t w = 0;
  if (vals.tag == Tag::kInt64 && vals.nulls.empty()) {
    // Branchless compaction over the unboxed truth vector.
    const int64_t* t = vals.ints.data();
    for (int32_t r : batch->sel) {
      batch->sel[w] = r;
      w += t[r] != 0;
    }
  } else {
    for (int32_t r : batch->sel) {
      batch->sel[w] = r;
      w += VecTruthAt(vals, static_cast<size_t>(r)) == 1;
    }
  }
  batch->sel.resize(w);
  return Status::OK();
}

Status VecProjectBatch(const std::vector<ExprPtr>& exprs, const ColumnBatch& in,
                       ColumnBatch* out) {
  out->Clear();
  out->columns.resize(exprs.size());
  ColumnVector vals;
  const bool dense = in.sel.size() == in.rows;
  for (size_t i = 0; i < exprs.size(); ++i) {
    GPHTAP_RETURN_IF_ERROR(VecEval(*exprs[i], in, in.sel, &vals));
    ColumnVector& col = out->columns[i];
    if (dense) {
      col = std::move(vals);
    } else {
      col.Clear();
      col.tag = vals.tag;
      col.Reserve(in.sel.size());
      for (int32_t r : in.sel) col.AppendFrom(vals, static_cast<size_t>(r));
    }
  }
  out->rows = in.sel.size();
  out->SelectAll();
  return Status::OK();
}

uint64_t VecHashRowKey(const ColumnBatch& in, const std::vector<int>& hash_cols,
                       int32_t r) {
  // Mirrors HashRowKey(in.MaterializeRow(r), hash_cols) term for term.
  uint64_t h = 0x9e3779b97f4a7c15ULL;
  for (int c : hash_cols) {
    h = h * 1099511628211ULL ^ in.columns[static_cast<size_t>(c)].HashAt(static_cast<size_t>(r));
  }
  return h;
}

Status VecPartitionBatch(const ColumnBatch& in, const std::vector<int>& hash_cols,
                         int num_targets, std::vector<ColumnBatch>* out) {
  if (num_targets <= 0) return Status::InvalidArgument("num_targets");
  for (int c : hash_cols) {
    if (c < 0 || static_cast<size_t>(c) >= in.NumColumns()) {
      return Status::Internal("hash column out of range");
    }
  }
  out->clear();
  out->resize(static_cast<size_t>(num_targets));
  for (ColumnBatch& b : *out) {
    b.Reset(in.NumColumns(),
            in.sel.size() / static_cast<size_t>(num_targets) + 1);
  }
  for (int32_t r : in.sel) {
    size_t t = static_cast<size_t>(VecHashRowKey(in, hash_cols, r) %
                                   static_cast<uint64_t>(num_targets));
    (*out)[t].AppendSelectedFrom(in, r);
  }
  return Status::OK();
}

Status VecAggUpdate(AggFunc fn, const ColumnVector& vals,
                    const std::vector<int32_t>& pos, AggState* s) {
  if (fn == AggFunc::kCountStar) {
    s->count += static_cast<int64_t>(pos.size());
    return Status::OK();
  }
  if (fn == AggFunc::kCount && vals.tag != Tag::kDatum) {
    if (vals.nulls.empty()) {
      s->count += static_cast<int64_t>(pos.size());
    } else {
      for (int32_t r : pos) s->count += vals.nulls[static_cast<size_t>(r)] == 0;
    }
    return Status::OK();
  }
  if ((fn == AggFunc::kSum || fn == AggFunc::kAvg) && vals.tag == Tag::kInt64 &&
      s->sum_is_int) {
    // Unboxed int-sum hot loop (a typed int column can never force the
    // accumulator to widen). It adds in row order from the running sum, as the
    // row engine does, and checks the OR of the overflow flags once per batch
    // so the loop stays branch-free.
    const int64_t* v = vals.ints.data();
    int64_t acc = s->isum;
    bool overflow = false;
    if (vals.nulls.empty()) {
      for (int32_t r : pos) overflow |= __builtin_add_overflow(acc, v[r], &acc);
      s->count += static_cast<int64_t>(pos.size());
      if (!pos.empty()) s->has_value = true;
    } else {
      for (int32_t r : pos) {
        const size_t i = static_cast<size_t>(r);
        if (vals.nulls[i]) continue;
        overflow |= __builtin_add_overflow(acc, v[i], &acc);
        ++s->count;
        s->has_value = true;
      }
    }
    if (overflow) return BigintOutOfRange();
    s->isum = acc;
    return Status::OK();
  }
  if ((fn == AggFunc::kSum || fn == AggFunc::kAvg) && vals.tag == Tag::kDouble) {
    const double* v = vals.dbls.data();
    for (int32_t r : pos) {
      const size_t i = static_cast<size_t>(r);
      if (!vals.nulls.empty() && vals.nulls[i]) continue;
      if (s->sum_is_int) {
        s->sum = static_cast<double>(s->isum);
        s->sum_is_int = false;
      }
      s->sum += v[i];
      ++s->count;
      s->has_value = true;
    }
    return Status::OK();
  }
  for (int32_t r : pos) {
    const size_t i = static_cast<size_t>(r);
    // Boxed values are folded in place, without a copy out of the column.
    GPHTAP_RETURN_IF_ERROR(vals.tag == Tag::kDatum ? AggUpdateValue(fn, s, vals.datums[i])
                                                   : AggUpdateValue(fn, s, vals.GetDatum(i)));
  }
  return Status::OK();
}

}  // namespace gphtap
