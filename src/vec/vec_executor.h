// Vectorized (batch-at-a-time) plan execution, parallel to the row engine in
// exec/executor.h. The planner marks qualifying subtrees (scan → filter →
// project → partial/single agg over AO column tables, plus the motions above
// them) with PlanNode::vectorize; those subtrees run here, everything else
// stays on the row path. The two engines meet at two boundaries:
//   - row parent over vec child: ExecuteNode explodes batches into rows;
//   - vec parent over row child: ExecuteChildVec packs rows into batches
//     (counted as vec.fallbacks).
#ifndef GPHTAP_VEC_VEC_EXECUTOR_H_
#define GPHTAP_VEC_VEC_EXECUTOR_H_

#include <functional>

#include "exec/exec_context.h"
#include "plan/plan.h"
#include "vec/column_batch.h"

namespace gphtap {

/// Receives produced batches. Returning kStopIteration stops production early
/// (LIMIT); any other non-OK status aborts the query.
using BatchSink = std::function<Status(ColumnBatch&&)>;

/// True if the batch engine implements this node kind. A node only runs
/// vectorized when BOTH its `vectorize` mark and this predicate hold.
bool VecEngineSupports(PlanKind kind);

/// Executes one vectorize-marked plan subtree, pushing batches into `sink`.
/// Records per-operator rows/batches into the statement record (EXPLAIN
/// ANALYZE) and bumps the cluster `vec.*` metrics.
Status ExecuteNodeVec(const PlanNode& node, ExecContext& ctx, const BatchSink& sink);

}  // namespace gphtap

#endif  // GPHTAP_VEC_VEC_EXECUTOR_H_
