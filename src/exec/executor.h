// Push-based SPMD plan execution (Section 3.2): motion nodes cut the plan into
// slices; each (slice, gang member) runs as its own gang-runner task feeding a
// MotionExchange, and the top slice runs on the caller's thread, streaming rows
// into the caller's sink. An UPDATE / DELETE plan is one slice with a
// ModifyTable root, run once per gang member.
#ifndef GPHTAP_EXEC_EXECUTOR_H_
#define GPHTAP_EXEC_EXECUTOR_H_

#include <functional>

#include "exec/exec_context.h"
#include "plan/plan.h"

namespace gphtap {

/// Receives produced rows. Returning kStopIteration stops production early
/// (LIMIT); any other non-OK status aborts the query.
using RowSink = std::function<Status(Row&&)>;

/// Executes one plan node subtree within a slice, pushing rows into `sink`.
/// Exposed for unit tests; queries normally go through ExecutePlan.
Status ExecuteNode(const PlanNode& node, ExecContext& ctx, const RowSink& sink);

/// Resolves the plan node's table on the context's node. Shared with the
/// vectorized engine (src/vec/).
Status TableForNode(ExecContext& ctx, TableId id, Table** out);

/// Acquires the scan-level relation lock on this node (AccessShare), held to
/// transaction end per two-phase locking. Shared with src/vec/.
Status AcquireScanLock(ExecContext& ctx, TableId table);

/// The bounds of a scan node's filter (ExtractScanBounds), in table columns:
/// a filter column indexes the scan's output, which is `scan_cols` when the
/// scan projects. Shared with src/vec/.
ScanBounds ScanBoundsOf(const PlanNode& node);

/// Charges what a scan's bounds skipped — sealed column groups and partition
/// leaves — to gp_metrics (storage.groups_skipped, storage.leaves_skipped)
/// and to the node's EXPLAIN ANALYZE actuals. Shared with src/vec/.
void CountScanSkips(const PlanNode& node, ExecContext& ctx, uint64_t groups,
                    uint64_t leaves);

/// The ModifyTable node (exec/modify_table.cc), run on a segment: collects
/// every target version its scan child emits, then stamps each through its
/// storage kind, and pushes one row holding the affected count.
Status ExecModifyTable(const PlanNode& node, ExecContext& ctx, const RowSink& sink);

struct QueryPlan {
  /// Shared + immutable so a cached plan can be executed by many statements
  /// (plan cache, prepared statements) without copying the tree.
  std::shared_ptr<const PlanNode> root;
  /// Segments executing the leaf slices (all segments, or one under direct
  /// dispatch). The top slice always runs on the coordinator.
  std::vector<int> gang;
};

/// Runs the full sliced plan against the cluster. Producers run as gang tasks,
/// one per (motion, gang member); the caller's thread drives the top slice. A
/// ModifyTable root runs as one gang task per member, without a motion, and
/// the sink receives each member's affected count.
/// The caller's WaitContext::record, when set, collects the statement's slice
/// charges, motion bytes, operator actuals (when `analyze` is on) and spans
/// (when traced; slice spans hang under the caller's parent_span).
Status ExecutePlan(Cluster* cluster, const QueryPlan& plan, Gxid gxid,
                   const std::shared_ptr<LockOwner>& owner,
                   const DistributedSnapshot& snapshot, ResourceGroup* group,
                   QueryMemoryAccount* mem, const RowSink& sink);

}  // namespace gphtap

#endif  // GPHTAP_EXEC_EXECUTOR_H_
