// Query planning (Section 3.4): a fast heuristic planner for transactional
// queries ("MPP-aware PostgreSQL planner") and a cost-based mode for analytics
// ("Orca-style"): join ordering by cardinality and broadcast-vs-redistribute
// motion choice. Both produce sliced physical plans with Motion nodes, and both
// apply direct dispatch when a predicate pins the distribution key.
#ifndef GPHTAP_PLAN_PLANNER_H_
#define GPHTAP_PLAN_PLANNER_H_

#include <functional>
#include <memory>
#include <utility>

#include "plan/plan.h"
#include "plan/select_query.h"

namespace gphtap {

struct PlannerOptions {
  int num_segments = 1;
  bool use_orca = false;          // cost-based join order + motion choice
  bool direct_dispatch = true;    // single-segment routing for pinned keys
  bool vectorize = false;         // mark batch-executable subtrees (src/vec/)
  // Delta store on: plain heap scans run as vectorized delta-merged scans
  // (src/delta/), so they join the vec_tables set and their scan lines are
  // labeled store=delta-merged. Only meaningful with `vectorize`.
  bool delta_store = false;
  /// Estimated stored rows per table (for the cost-based mode); may be null.
  std::function<uint64_t(TableId)> row_estimate;
  /// Allocates cluster-unique motion ids.
  std::function<int()> next_motion_id;
  /// Elastic expansion: fresh (dist_segments, rebalancing) for a table, read
  /// from the live catalog (cached TableDefs can be stale across a cutover).
  /// Null — the default — means every table spans num_segments and nothing is
  /// rebalancing. A returned dist_segments <= 0 means "unknown table": the
  /// planner falls back to the TableDef's own dist_segments field.
  std::function<std::pair<int, bool>(TableId)> table_dist;
};

/// A planned statement: a SELECT, or an UPDATE / DELETE (PlanModify), which
/// the plan cache and prepared statements keep for reuse. The plan tree is
/// shared immutable state — executors only read PlanNode, so any number of
/// concurrent queries may run the same root. Tables ride along for
/// execute-time lock acquisition.
struct CachedPlan {
  std::shared_ptr<const PlanNode> root;  // top slice runs on the coordinator
  std::vector<int> gang;                 // segments executing the leaf slices
  std::vector<std::string> columns;      // output column labels
  std::vector<TableDef> tables;
  uint64_t catalog_version = 0;          // stamped by the caller that plans
  ParamDispatch param_dispatch;          // a key `gang` narrows to once bound
};
using PlannedSelect = CachedPlan;  // the planner output's earlier name

/// Plans a bound SELECT. `col = $N` plans like `col = const`: an IndexScan
/// keyed by the parameter, and a distribution key pinned by parameters kept
/// in `param_dispatch`.
StatusOr<CachedPlan> PlanSelect(const SelectQuery& query, const PlannerOptions& opts);

/// Plans UPDATE (`sets` non-null: column, new value over the old row) or
/// DELETE as a ModifyTable over the scan PlanSelect would pick for `where`:
/// an IndexScan when an indexed column is pinned by equality, else a SeqScan.
/// The root has no motion; each gang member runs the whole plan on its own
/// rows. Rejects an UPDATE of a distribution-key column.
StatusOr<CachedPlan> PlanModify(const TableDef& def,
                                const std::vector<std::pair<int, ExprPtr>>* sets,
                                const ExprPtr& where, const PlannerOptions& opts);

/// EXECUTE of a prepared plan: `generic` with every parameter replaced by its
/// value (ClonePlanWithParams), and a distribution key pinned by parameters
/// hashed to its one-segment gang. Without parameters, `generic` itself.
StatusOr<std::shared_ptr<const CachedPlan>> BindPlanParams(
    std::shared_ptr<const CachedPlan> generic, const std::vector<Datum>& params);

}  // namespace gphtap

#endif  // GPHTAP_PLAN_PLANNER_H_
