// The system-view catalog: fixed virtual TableDefs (modeled on PostgreSQL /
// Greenplum's pg_stat_activity, pg_locks, gp_resgroup_status, ...) that the
// normal SQL path can bind, plan (PlanKind::kVirtualScan), and execute on the
// coordinator. The defs here are pure schema; row production lives in
// Cluster::SystemViewRows, which snapshots live cluster state at scan time.
#ifndef GPHTAP_CATALOG_SYSTEM_VIEWS_H_
#define GPHTAP_CATALOG_SYSTEM_VIEWS_H_

#include <string>
#include <vector>

#include "catalog/schema.h"

namespace gphtap {

/// System-view table ids live far above anything the user catalog assigns, so
/// id-space collisions are impossible and executors can recognize them.
constexpr TableId kSystemViewIdBase = 1'000'000'000u;

enum class SystemViewId : TableId {
  kStatActivity = kSystemViewIdBase + 0,   // gp_stat_activity
  kLocks = kSystemViewIdBase + 1,          // gp_locks
  kResgroupStatus = kSystemViewIdBase + 2, // gp_resgroup_status
  kSegmentStatus = kSystemViewIdBase + 3,  // gp_segment_status
  kWaitEvents = kSystemViewIdBase + 4,     // gp_wait_events
  kDistDeadlocks = kSystemViewIdBase + 5,  // gp_dist_deadlocks
  kDeltaStatus = kSystemViewIdBase + 6,    // gp_delta_status
  kStatStatements = kSystemViewIdBase + 7, // gp_stat_statements
  kStatHistory = kSystemViewIdBase + 8,    // gp_stat_history
  kStatProgress = kSystemViewIdBase + 9,   // gp_stat_progress
  kMetrics = kSystemViewIdBase + 10,       // gp_metrics
  kBackgroundTasks = kSystemViewIdBase + 11,  // gp_background_tasks
};

/// All system-view defs (is_system_view set, Replicated distribution — they
/// exist only on the coordinator and never move).
const std::vector<TableDef>& SystemViewDefs();

/// Lookup by view name (exact, lowercase). nullptr when not a system view.
const TableDef* FindSystemView(const std::string& name);

/// Lookup by reserved table id. nullptr when not a system view id.
const TableDef* FindSystemViewById(TableId id);

}  // namespace gphtap

#endif  // GPHTAP_CATALOG_SYSTEM_VIEWS_H_
