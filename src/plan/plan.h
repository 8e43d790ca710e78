// Physical plan representation. Motion nodes cut the tree into slices; every
// slice executes SPMD on its gang (all segments, one segment under direct
// dispatch, or the coordinator for the top slice) — Section 3.2.
#ifndef GPHTAP_PLAN_PLAN_H_
#define GPHTAP_PLAN_PLAN_H_

#include <memory>
#include <string>
#include <vector>

#include "catalog/schema.h"
#include "plan/expr.h"

namespace gphtap {

enum class PlanKind : uint8_t {
  kSeqScan,
  kIndexScan,
  kVirtualScan,  // coordinator-only system-view scan (Cluster::SystemViewRows)
  kFunctionScan,  // generate_series() calls, zipped; computable on any node
  kFilter,
  kProject,
  kHashJoin,
  kNestLoop,
  kHashAgg,
  kSort,
  kLimit,
  kMotion,  // receive side; the child subtree is the send-side slice
  kModifyTable,  // UPDATE / DELETE root over its scan; runs on every gang member
};

enum class MotionKind : uint8_t {
  kGather,        // N senders -> 1 receiver (coordinator)
  kRedistribute,  // N senders -> N receivers by hash of keys
  kBroadcast,     // N senders -> every receiver gets every row
};

enum class AggFunc : uint8_t { kCountStar, kCount, kSum, kAvg, kMin, kMax };

const char* AggFuncName(AggFunc fn);

struct AggSpec {
  AggFunc fn = AggFunc::kCountStar;
  ExprPtr arg;  // null for COUNT(*)
};

enum class AggPhase : uint8_t { kSingle, kPartial, kFinal };

struct SortKey {
  int column = 0;
  bool ascending = true;
};

/// One physical plan node. A single struct with per-kind fields keeps the
/// executor's dispatch simple; unused fields stay default.
struct PlanNode {
  PlanKind kind = PlanKind::kSeqScan;
  std::vector<std::unique_ptr<PlanNode>> children;

  // kSeqScan / kIndexScan
  TableId table = 0;
  std::vector<int> scan_cols;  // projection pushed into the scan (empty = all)
  ExprPtr filter;              // also used by kFilter / join filters
  int index_col = -1;          // kIndexScan
  ExprPtr index_key;           // kIndexScan: a constant or a parameter, read once at scan start
  // The scan feeds a ModifyTable: it takes no lock of its own and appends two
  // junk columns to each row, the version's TupleId (PostgreSQL's ctid) and
  // the index of the partition leaf holding it (0 for an unpartitioned table).
  bool emit_tid = false;

  // kProject; kFunctionScan: the start and end of each series it zips, in
  // pairs; kModifyTable: the UPDATE's new row, one expression per column over
  // the old row, null where the old value stays (empty for DELETE). A
  // ModifyTable's `filter` is the WHERE clause, rechecked against a version
  // a concurrent UPDATE produced.
  std::vector<ExprPtr> exprs;

  // kHashJoin / kNestLoop: children[0]=outer/probe, children[1]=inner/build
  std::vector<int> left_keys, right_keys;
  bool prefetch_inner = true;  // Appendix B: materialize inner before outer

  // kHashAgg
  std::vector<int> group_cols;
  std::vector<AggSpec> aggs;
  AggPhase agg_phase = AggPhase::kSingle;

  // kSort / kLimit
  std::vector<SortKey> sort_keys;
  int64_t limit = -1;

  // kMotion
  MotionKind motion = MotionKind::kGather;
  std::vector<int> hash_cols;  // kRedistribute
  int motion_id = -1;

  /// Number of columns this node produces (filled in by the planner).
  int output_arity = 0;

  /// Pre-order id the planner assigns (AssignPlanNodeIds); -1 = unassigned.
  /// Keys the EXPLAIN ANALYZE per-operator actuals (StatementRecord::Operator).
  int node_id = -1;

  /// Marked by the planner when this subtree runs on the vectorized batch
  /// engine (src/vec/). Unmarked nodes run tuple-at-a-time; the executor
  /// bridges at marked/unmarked boundaries.
  bool vectorize = false;

  /// Scan nodes only: which store serves the scan ("heap", "ao-row",
  /// "ao-column", "delta-merged", ...). Labeled by the planner, rendered by
  /// EXPLAIN so delta coverage is visible per query.
  std::string scan_store;

  std::string ToString(int indent = 0) const;
};

using PlanPtr = std::unique_ptr<PlanNode>;

/// A distribution key pinned by parameters (`k = $1`): one value expression
/// per key column and the table's routing modulus. The statement's gang spans
/// the table until EXECUTE substitutes the values, which then hash to the one
/// segment holding the key (planner.h BindPlanParams).
struct ParamDispatch {
  std::vector<ExprPtr> key;  // empty: the gang is final
  int span = 0;
};

/// Assigns pre-order node ids starting at `next_id`; returns the next free id.
int AssignPlanNodeIds(PlanNode* root, int next_id = 0);

/// Convenience builders used by the planner and tests.
PlanPtr MakeSeqScan(TableId table, int arity, ExprPtr filter = nullptr);
PlanPtr MakeVirtualScan(TableId table, int arity, ExprPtr filter = nullptr);
/// `bounds`: start and end of each zipped series, in pairs (none: one empty row).
PlanPtr MakeFunctionScan(std::vector<ExprPtr> bounds, ExprPtr filter = nullptr);
PlanPtr MakeIndexScan(TableId table, int arity, int col, ExprPtr key,
                      ExprPtr filter = nullptr);
PlanPtr MakeMotion(MotionKind kind, PlanPtr child, int motion_id,
                   std::vector<int> hash_cols = {});

/// Number of output columns contributed by one aggregate's partial state.
int AggStateArity(AggFunc fn);

/// Deep-copies `e` with every kParam node replaced by Const(params[param]).
/// Subtrees without parameters are shared, not copied (Expr is immutable).
/// Returns an error if a parameter position is outside `params`.
StatusOr<ExprPtr> CloneExprWithParams(const ExprPtr& e,
                                      const std::vector<Datum>& params);

/// Deep-copies a (cached/prepared) plan tree, substituting EXECUTE-time
/// parameter values into every expression. The node copy is required even
/// when no parameters appear under a node: callers execute the clone while
/// other sessions may concurrently clone the same cached original.
StatusOr<PlanPtr> ClonePlanWithParams(const PlanNode& node,
                                      const std::vector<Datum>& params);

}  // namespace gphtap

#endif  // GPHTAP_PLAN_PLAN_H_
