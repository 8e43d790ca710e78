// Vectorized kernels: predicate evaluation, projection, redistribution
// partitioning, and aggregate accumulation over whole ColumnBatches. The hot
// paths are type-specialized loops over unboxed int64/double payloads,
// dispatched once per batch; columns holding strings or mixed types fall back
// to the boxed Datum path. Scalar semantics (three-valued logic, NULL
// propagation, short-circuit AND/OR error behaviour, arithmetic errors) are
// shared with the row engine via plan/expr.h's EvalBinaryOp/DatumTruth, so
// both engines agree bit-for-bit.
#ifndef GPHTAP_VEC_VEC_KERNELS_H_
#define GPHTAP_VEC_VEC_KERNELS_H_

#include <vector>

#include "exec/agg_ops.h"
#include "plan/expr.h"
#include "vec/column_batch.h"

namespace gphtap {

/// Evaluates `e` over `batch` at the row positions in `pos`. `out` is RESET on
/// every call to exactly batch.rows slots (zeroed, non-NULL) — it never
/// carries values from a previous, larger batch; only entries at `pos` are
/// meaningful. AND/OR evaluate the right operand only at positions the left
/// operand did not decide — matching the row engine's short circuit, including
/// its suppression of errors in the unevaluated operand.
Status VecEval(const Expr& e, const ColumnBatch& batch,
               const std::vector<int32_t>& pos, ColumnVector* out);

/// SQL truth value of slot `r` (-1 NULL, 0 false, 1 true), matching
/// DatumTruth.
int VecTruthAt(const ColumnVector& v, size_t r);

/// Applies a WHERE predicate to the batch, shrinking its selection vector in
/// place (NULL and false both reject, as in EvalPredicate).
Status VecFilterBatch(const Expr& filter, ColumnBatch* batch);

/// Projects `exprs` over `in`'s live rows into a dense, fully-selected `out`.
Status VecProjectBatch(const std::vector<ExprPtr>& exprs, const ColumnBatch& in,
                       ColumnBatch* out);

/// Splits `in`'s live rows into `num_targets` dense batches routed by the
/// distribution-key hash — identical routing to the row path's redistribute
/// motion (HashRowKey), but hashing the key columns straight out of the
/// column vectors and appending by column copy, with no Row materialization.
Status VecPartitionBatch(const ColumnBatch& in, const std::vector<int>& hash_cols,
                         int num_targets, std::vector<ColumnBatch>* out);

/// Hash of the key columns at physical row `r`, equal to
/// HashRowKey(in.MaterializeRow(r), hash_cols) without building the Row.
uint64_t VecHashRowKey(const ColumnBatch& in, const std::vector<int>& hash_cols,
                       int32_t r);

/// Folds a pre-evaluated argument column (dense by row index) into an
/// aggregate state for every position in `pos`. Tight unboxed inner loops for
/// int/double sum/count; falls back to AggUpdateValue otherwise. An int sum
/// outside int64 is "bigint out of range", as in the row engine.
Status VecAggUpdate(AggFunc fn, const ColumnVector& vals,
                    const std::vector<int32_t>& pos, AggState* s);

}  // namespace gphtap

#endif  // GPHTAP_VEC_VEC_KERNELS_H_
