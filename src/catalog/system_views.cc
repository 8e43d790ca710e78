#include "catalog/system_views.h"

namespace gphtap {

namespace {

TableDef MakeView(SystemViewId id, std::string name, std::vector<Column> cols) {
  TableDef def;
  def.id = static_cast<TableId>(id);
  def.name = std::move(name);
  def.schema = Schema(std::move(cols));
  def.distribution = DistributionPolicy::Replicated();
  def.is_system_view = true;
  return def;
}

std::vector<TableDef> BuildDefs() {
  std::vector<TableDef> defs;

  // One row per connected session, with its live wait state.
  defs.push_back(MakeView(
      SystemViewId::kStatActivity, "gp_stat_activity",
      {{"sess_id", TypeId::kInt64},
       {"role", TypeId::kString},
       {"resgroup", TypeId::kString},
       {"gxid", TypeId::kInt64},
       {"state", TypeId::kString},  // idle | active | idle in transaction
       {"wait_event_class", TypeId::kString},
       {"wait_event", TypeId::kString},
       {"wait_us", TypeId::kInt64},  // how long the current wait has lasted
       {"query", TypeId::kString},
       // Resilience: time left before the statement deadline fires (-1 = no
       // deadline armed) and transparent retry count of the current statement.
       {"deadline_remaining_us", TypeId::kInt64},
       {"retries", TypeId::kInt64},
       // Front door: dispatch-queue depth this session's statement joined
       // behind (0 unless state = queued, wait frontend:dispatch).
       {"queue_depth", TypeId::kInt64}}));

  // Every grant and every queued waiter in every lock table (coordinator = -1).
  defs.push_back(MakeView(SystemViewId::kLocks, "gp_locks",
                          {{"node", TypeId::kInt64},
                           {"locktype", TypeId::kString},  // relation|tuple|transactionid
                           {"relation", TypeId::kInt64},
                           {"objid", TypeId::kInt64},
                           {"mode", TypeId::kString},
                           {"gxid", TypeId::kInt64},
                           {"granted", TypeId::kInt64}}));  // 1 granted, 0 waiting

  defs.push_back(MakeView(SystemViewId::kResgroupStatus, "gp_resgroup_status",
                          {{"name", TypeId::kString},
                           {"concurrency", TypeId::kInt64},
                           {"active", TypeId::kInt64},
                           {"cpu_rate_limit", TypeId::kDouble},
                           {"memory_limit_mb", TypeId::kInt64},
                           // Overload protection (admission queue) counters.
                           {"queued", TypeId::kInt64},
                           {"queued_total", TypeId::kInt64},
                           {"shed", TypeId::kInt64},
                           {"admission_timeouts", TypeId::kInt64}}));

  defs.push_back(MakeView(SystemViewId::kSegmentStatus, "gp_segment_status",
                          {{"segment", TypeId::kInt64},
                           {"up", TypeId::kInt64},
                           {"has_mirror", TypeId::kInt64},
                           {"mirror_promoted", TypeId::kInt64},
                           {"mirror_applied", TypeId::kInt64},
                           {"change_log_size", TypeId::kInt64},
                           {"ao_live_rows", TypeId::kInt64},
                           {"ao_dead_rows", TypeId::kInt64},
                           {"ao_reclaimed_groups", TypeId::kInt64}}));

  // Accumulated wait-event durations per (event, node, resource group).
  defs.push_back(MakeView(SystemViewId::kWaitEvents, "gp_wait_events",
                          {{"wait_event_class", TypeId::kString},
                           {"wait_event", TypeId::kString},
                           {"node", TypeId::kInt64},
                           {"resgroup", TypeId::kString},
                           {"count", TypeId::kInt64},
                           {"total_us", TypeId::kInt64},
                           {"max_us", TypeId::kInt64},
                           {"p95_us", TypeId::kInt64}}));

  // One row per surviving wait-for edge of each confirmed global deadlock.
  defs.push_back(MakeView(SystemViewId::kDistDeadlocks, "gp_dist_deadlocks",
                          {{"seq", TypeId::kInt64},
                           {"detected_at_us", TypeId::kInt64},
                           {"victim", TypeId::kInt64},
                           {"waiter", TypeId::kInt64},
                           {"holder", TypeId::kInt64},
                           {"node", TypeId::kInt64},
                           {"edge", TypeId::kString},      // solid | dotted
                           {"on_cycle", TypeId::kInt64},
                           {"iterations", TypeId::kInt64},
                           {"reason", TypeId::kString}}));

  // One row per (segment, delta-tracked heap table): change-log feed position
  // and the columnar delta store's shape on that segment.
  defs.push_back(MakeView(SystemViewId::kDeltaStatus, "gp_delta_status",
                          {{"segment", TypeId::kInt64},
                           {"table_name", TypeId::kString},
                           {"log_size", TypeId::kInt64},
                           {"applied", TypeId::kInt64},
                           {"lag", TypeId::kInt64},  // log records not yet applied
                           {"open_rows", TypeId::kInt64},
                           {"sealed_groups", TypeId::kInt64},
                           {"sealed_rows", TypeId::kInt64},
                           {"freed_groups", TypeId::kInt64},
                           {"deletes", TypeId::kInt64},
                           {"pending_frees", TypeId::kInt64}}));

  // Cumulative per-fingerprint statement statistics (pg_stat_statements
  // analogue): latency distribution plus gang-aggregated resource usage.
  defs.push_back(MakeView(SystemViewId::kStatStatements, "gp_stat_statements",
                          {{"fingerprint", TypeId::kString},
                           {"calls", TypeId::kInt64},
                           {"rows", TypeId::kInt64},
                           {"errors", TypeId::kInt64},
                           {"timeouts", TypeId::kInt64},
                           {"retries", TypeId::kInt64},
                           {"plan_cache_hits", TypeId::kInt64},
                           {"total_us", TypeId::kInt64},
                           {"min_us", TypeId::kInt64},
                           {"max_us", TypeId::kInt64},
                           {"p95_us", TypeId::kInt64},
                           // p95 of per-slice (gang member) wall time, merged
                           // across every gang the fingerprint ever ran.
                           {"gang_p95_us", TypeId::kInt64},
                           {"vec_batches", TypeId::kInt64},
                           {"vec_fallbacks", TypeId::kInt64},
                           {"exec_cpu_ns", TypeId::kInt64},
                           {"net_bytes", TypeId::kInt64},
                           {"buffer_hits", TypeId::kInt64},
                           {"buffer_misses", TypeId::kInt64},
                           {"top_wait", TypeId::kString},
                           {"top_wait_us", TypeId::kInt64}}));

  // Periodic snapshots of the metrics registry: one row per (tick, metric)
  // whose value or delta was nonzero at capture time.
  defs.push_back(MakeView(SystemViewId::kStatHistory, "gp_stat_history",
                          {{"tick", TypeId::kInt64},
                           {"at_us", TypeId::kInt64},
                           {"metric", TypeId::kString},
                           {"value", TypeId::kInt64},
                           {"delta", TypeId::kInt64}}));

  // Live + recently finished maintenance commands (VACUUM / CLUSTER /
  // REBALANCE TABLE / delta seal daemon) with phase and unit counters.
  defs.push_back(MakeView(SystemViewId::kStatProgress, "gp_stat_progress",
                          {{"op_id", TypeId::kInt64},
                           {"kind", TypeId::kString},
                           {"target", TypeId::kString},
                           {"node", TypeId::kInt64},
                           {"phase", TypeId::kString},
                           {"units_done", TypeId::kInt64},
                           {"units_total", TypeId::kInt64},
                           {"elapsed_us", TypeId::kInt64},
                           {"finished", TypeId::kInt64}}));

  // Raw dump of every counter and gauge in the metrics registry.
  defs.push_back(MakeView(SystemViewId::kMetrics, "gp_metrics",
                          {{"name", TypeId::kString},
                           {"kind", TypeId::kString},  // counter | gauge
                           {"value", TypeId::kInt64}}));

  // One row per background task (GDD, FTS, DTX recovery, maintenance, delta
  // seal, stats history, front-door sweeper) that this cluster runs.
  defs.push_back(MakeView(SystemViewId::kBackgroundTasks, "gp_background_tasks",
                          {{"name", TypeId::kString},
                           {"period_us", TypeId::kInt64},
                           {"runs", TypeId::kInt64},
                           // Since the last completed pass started (-1 = none yet).
                           {"last_run_age_us", TypeId::kInt64},
                           {"last_run_us", TypeId::kInt64},  // that pass's duration
                           {"p95_run_us", TypeId::kInt64}}));

  return defs;
}

}  // namespace

const std::vector<TableDef>& SystemViewDefs() {
  static const std::vector<TableDef>* defs = new std::vector<TableDef>(BuildDefs());
  return *defs;
}

const TableDef* FindSystemView(const std::string& name) {
  for (const TableDef& def : SystemViewDefs()) {
    if (def.name == name) return &def;
  }
  return nullptr;
}

const TableDef* FindSystemViewById(TableId id) {
  if (id < kSystemViewIdBase) return nullptr;
  for (const TableDef& def : SystemViewDefs()) {
    if (def.id == id) return &def;
  }
  return nullptr;
}

}  // namespace gphtap
