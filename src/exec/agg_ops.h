// Aggregate accumulators shared by the row executor and the vectorized batch
// engine. One implementation of update / partial-state wire format / merge /
// final emission keeps the two engines bit-identical on aggregation results.
#ifndef GPHTAP_EXEC_AGG_OPS_H_
#define GPHTAP_EXEC_AGG_OPS_H_

#include <string>
#include <vector>

#include "catalog/datum.h"
#include "common/status.h"
#include "plan/plan.h"

namespace gphtap {

struct AggState {
  int64_t count = 0;
  bool has_value = false;
  Datum acc;       // sum / min / max accumulator
  double sum = 0;  // numeric sum for kSum / kAvg
  bool sum_is_int = true;
  int64_t isum = 0;
};

/// Folds one already-evaluated argument value into the state. NULLs are
/// ignored (except kCountStar, which ignores the value entirely). An int sum
/// outside int64 is "bigint out of range", as in int8pl.
Status AggUpdateValue(AggFunc fn, AggState* s, const Datum& v);

/// Evaluates the agg's argument against `row`, then folds it in.
Status AggUpdate(const AggSpec& spec, AggState* s, const Row& row);

/// The SUM result datum (int until a double value widened the accumulator).
Datum AggSumDatum(const AggState& s);

/// Appends the partial state columns for one agg (wire format between the
/// partial and final phases).
void AggEmitPartial(const AggSpec& spec, const AggState& s, Row* out);

/// Merges one partial-state row segment into the final state. `col` points at
/// the first state column of this agg within the input row.
Status AggMergePartial(const AggSpec& spec, AggState* s, const Row& row, int col);

void AggEmitFinal(const AggSpec& spec, const AggState& s, Row* out);

/// Appends one group-key component (NULL-safe, unambiguous) to `key`.
void AppendGroupKeyPart(const Datum& d, std::string* key);

/// Serialized grouping key for hash aggregation over a row.
std::string GroupKeyString(const Row& row, const std::vector<int>& keys);

}  // namespace gphtap

#endif  // GPHTAP_EXEC_AGG_OPS_H_
