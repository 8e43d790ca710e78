// The cluster: coordinator state (catalog, distributed transactions, GDD
// daemon, resource groups) plus the worker segments, all in one process with
// simulated wire and disk costs.
#ifndef GPHTAP_CLUSTER_CLUSTER_H_
#define GPHTAP_CLUSTER_CLUSTER_H_

#include <atomic>
#include <deque>
#include <memory>
#include <mutex>
#include <set>
#include <string>
#include <unordered_map>
#include <vector>

#include "cluster/circuit_breaker.h"
#include "cluster/dtx_recovery.h"
#include "delta/delta_index.h"
#include "cluster/fts.h"
#include "cluster/mirror.h"
#include "cluster/segment.h"
#include "cluster/session_registry.h"
#include "common/fault_injector.h"
#include "common/gang_runner.h"
#include "common/metrics.h"
#include "common/periodic_task.h"
#include "frontend/frontend_options.h"
#include "common/trace.h"
#include "common/wait_event.h"
#include "gdd/gdd_daemon.h"
#include "net/sim_net.h"
#include "plan/plan_cache.h"
#include "resgroup/resource_group.h"
#include "stats/metrics_history.h"
#include "stats/progress.h"
#include "stats/statement_stats.h"
#include "txn/distributed_txn_manager.h"

namespace gphtap {

class FrontDoor;
class FrontendSession;
class MotionExchange;
class Session;

struct ClusterOptions {
  int num_segments = 4;

  // --- The paper's three contributions, as switches (GPDB5 = all three off,
  // --- modulo resource groups which GPDB5 lacked in this form).
  bool gdd_enabled = true;             // off => DML takes table ExclusiveLock
  bool one_phase_commit_enabled = true;
  bool resource_groups_enabled = false;

  // --- Figure 11 "future optimization" switches (Section 5.3): for implicit
  // --- (single-statement) transactions the commit decision is known when the
  // --- statement is dispatched, so protocol messages can ride along with it.
  // 11(a): segments PREPARE as part of executing the final statement; the
  // coordinator skips the separate PREPARE broadcast (acks still flow back).
  bool auto_prepare_enabled = false;
  // 11(b): a single-segment statement carries its own COMMIT; the coordinator
  // skips the commit round trip entirely.
  bool onephase_piggyback_enabled = false;

  int64_t gdd_period_us = 50'000;      // wait-for graph collection period
  bool direct_dispatch_enabled = true; // single-segment routing for point queries

  // Cost model.
  int64_t net_latency_us = 0;
  int64_t fsync_cost_us = 0;
  BufferPool::Options buffer_pool;
  LockManager::Options locks;

  // Resource-group machinery sizing.
  int total_cores = 32;
  int64_t global_shared_mem_mb = 256;

  // Planner: false = fast heuristic ("PostgreSQL-style"), true = cost-based
  // join ordering and motion choice ("Orca-style").
  bool use_orca = false;

  // Vectorized batch execution (src/vec/) over AO-column scans; false pins
  // every plan to the tuple-at-a-time row engine (the ablation switch).
  bool vectorized_execution_enabled = true;

  // Coordinator plan cache: planned SELECTs memoized by SQL text, invalidated
  // by catalog-version bumps (DDL / expansion / rebalance). 0 disables.
  size_t plan_cache_capacity = 64;

  // In-memory columnar delta store (src/delta/): every plain heap table gets a
  // per-segment column index tailing the change log, and heap scans run as
  // vectorized delta-merged scans after a freshness wait. Segments keep a
  // change log, so crashed segments can also be recovered.
  bool delta_store_enabled = false;
  // Seal-daemon period: seal cold delta runs + reclaim all-dead groups on
  // every segment this often. 0 = no daemon (SealDeltaNow still works).
  int64_t delta_seal_period_us = 20'000;
  // How long a delta-merged scan waits for the feed to reach the log position
  // captured at scan start before falling back to the row engine.
  int64_t delta_freshness_timeout_us = 200'000;

  // Interconnect buffering (rows per receiver queue) for motions.
  size_t motion_buffer_rows = 8192;

  // Simulated per-row executor CPU work, charged to the session's resource
  // group (0 = off). This is what makes OLAP queries "heavy" in HTAP benches.
  int64_t exec_cpu_ns_per_row = 0;

  // Background horizon maintenance period: each pass truncates every
  // segment's local->distributed xid map (TruncateXidMaps); 0 = off. The map
  // holds 8 bytes per local xid; truncation gives back the memory below its
  // oldest kept entry, so without it the map grows by 8 bytes for every
  // transaction that wrote to the segment.
  int64_t maintenance_period_us = 0;

  // High availability: give every primary segment a mirror that continuously
  // replays its change log (Section 3.1). Mirrors do not serve queries.
  bool mirrors_enabled = false;

  // Crash recovery: segments keep a change log even without mirrors so a
  // "crashed" segment can be rebuilt (Segment::Recover). Implied by mirrors.
  bool crash_recovery_enabled = false;

  // Fault Tolerance Service (Section 3.1): probe segments over the simulated
  // interconnect and promote mirrors of unresponsive primaries.
  bool fts_enabled = false;
  int64_t fts_period_us = 10'000;
  int fts_misses_before_failover = 2;

  // Coordinator retry policy for the post-commit-record half of 2PC: COMMIT
  // PREPARED is retried with capped exponential backoff until the deadline
  // (the paper's coordinator "retries forever"; tests need a horizon).
  int64_t commit_retry_initial_backoff_us = 500;
  int64_t commit_retry_max_backoff_us = 50'000;
  int64_t commit_retry_deadline_us = 10'000'000;

  // --- Observability ---
  // Trace every query executed by every session (per-session enable also
  // exists: Session::set_trace_enabled).
  bool trace_queries = false;
  // Statements slower than this land in the slow-query log; 0 = disabled.
  int64_t slow_query_threshold_us = 0;
  // Cumulative per-fingerprint statement statistics (gp_stat_statements):
  // every Session::Execute records into the cluster StatementStatsRegistry.
  bool stats_enabled = true;
  // Metrics history daemon (gp_stat_history): snapshot the MetricsRegistry
  // every period into a bounded ring of per-metric deltas. 0 = daemon off
  // (Cluster::CaptureHistoryTick still works for manual capture).
  int64_t stats_history_period_us = 0;

  // --- Query-lifecycle resilience ---
  // Cluster-wide defaults for the session timeout GUCs (SET statement_timeout
  // / lock_timeout / admission_timeout override per session). 0 = disabled.
  int64_t statement_timeout_us = 0;  // whole-statement absolute deadline
  int64_t lock_timeout_us = 0;       // per individual lock wait
  int64_t admission_timeout_us = 0;  // resource-group queue wait

  // Coordinator statement retry: read-only statements failing with a
  // retryable kUnavailable (segment crash, failover in flight) are re-planned
  // and re-dispatched with a fresh snapshot under capped exponential backoff.
  // Writes are never silently retried. <= 1 attempts disables retry.
  int statement_retry_max_attempts = 3;
  int64_t statement_retry_initial_backoff_us = 2'000;
  int64_t statement_retry_max_backoff_us = 200'000;

  // Per-segment circuit breaker: after `breaker_failure_threshold` consecutive
  // kUnavailable dispatch failures, fail fast for `breaker_cooldown_us` before
  // letting a probe through (half-open). Reset on recovery/failover.
  bool breaker_enabled = false;
  int breaker_failure_threshold = 3;
  int64_t breaker_cooldown_us = 200'000;

  // Resource-group admission overload protection: bound the per-group wait
  // queue (0 = unbounded; overflow is shed with kResourceExhausted), or shed
  // immediately whenever no slot is free (shed-on-saturation mode).
  int resgroup_max_queue = 0;
  bool resgroup_shed_on_saturation = false;

  // --- Million-session front door (src/frontend/) ---
  // Thread-decoupled logical sessions over a bounded worker pool, with
  // bounded accept/dispatch queues, per-resgroup backpressure, shed/retry-
  // after overload degradation and idle/login timeouts. Off by default;
  // direct Connect() sessions work the same either way.
  FrontDoorOptions frontend;
};

/// Point-in-time health of one segment (cluster health API).
struct SegmentHealthInfo {
  int index = 0;
  bool up = true;
  bool has_mirror = false;
  bool mirror_promoted = false;    // mirror already consumed by a failover
  uint64_t mirror_applied = 0;     // change records the mirror has replayed
  uint64_t change_log_size = 0;    // change records the primary has produced
  Status mirror_health;            // sticky replay error, OK when healthy
  // AO bloat (summed over the segment's AO / AO-column tables): rows whose
  // latest state is visible-committed vs. rows dead under clog rules, plus
  // how many whole row groups reclamation already freed.
  uint64_t ao_live_rows = 0;
  uint64_t ao_dead_rows = 0;
  uint64_t ao_reclaimed_groups = 0;
};

struct ClusterHealth {
  std::vector<SegmentHealthInfo> segments;
  FtsDaemon::Stats fts;
};

/// Catalog + distributed-transaction brain + segments.
class Cluster {
 public:
  explicit Cluster(ClusterOptions options);
  ~Cluster();

  Cluster(const Cluster&) = delete;
  Cluster& operator=(const Cluster&) = delete;

  const ClusterOptions& options() const { return options_; }

  /// Hard ceiling on the segment count; segment slots are pre-allocated so the
  /// registry can grow at runtime without locking the read path.
  static constexpr int kMaxSegments = 64;

  /// Segments currently serving queries. Grows via AddSegments.
  int num_segments() const { return serving_segments_.load(std::memory_order_acquire); }
  Segment* segment(int i) { return segments_[static_cast<size_t>(i)].get(); }

  // ---- Online expansion ----
  /// Registers `count` new (empty) segments at runtime: each gets every
  /// catalog table, a mirror and a circuit breaker when those are enabled, and
  /// joins FTS probing. Existing tables keep routing to their original span
  /// (TableDef::dist_segments) until Session::RebalanceTable migrates them.
  /// Returns the new serving count.
  StatusOr<int> AddSegments(int count);

  /// Per-table distribution span as the router must see it *now* (the catalog
  /// entry a session cached at plan time may predate an expansion).
  struct TableDistInfo {
    int dist_segments = 0;  // 0 = all serving segments (system views, legacy)
    bool rebalancing = false;
  };
  TableDistInfo TableDist(TableId id) const;
  Status SetTableDistSegments(const std::string& name, int dist_segments);
  Status SetTableRebalancing(const std::string& name, bool rebalancing);

  // ---- Catalog (coordinator-owned, replicated implicitly to segments) ----
  /// Assigns `def.id` and creates the table on every segment.
  Status CreateTable(TableDef def);
  Status DropTable(const std::string& name);
  /// Adds a hash index on `column` of `table` (catalog + every segment's heap).
  Status CreateIndex(const std::string& table, const std::string& column);
  StatusOr<TableDef> LookupTable(const std::string& name) const;
  StatusOr<TableDef> LookupTableById(TableId id) const;
  std::vector<TableDef> ListTables() const;

  // ---- Sessions ----
  std::unique_ptr<Session> Connect(const std::string& role = "");

  /// Front-door connect (options.frontend.enabled): a lightweight logical
  /// session multiplexed over the bounded worker pool. Under saturation this
  /// sheds with a retryable kUnavailable + retry-after hint instead of
  /// blocking; kNotSupported when the front door is off.
  StatusOr<std::shared_ptr<FrontendSession>> ConnectLogical(const std::string& role = "");

  /// The front door, or null when options.frontend.enabled is false.
  FrontDoor* frontend() { return frontend_.get(); }

  // ---- Distributed transaction machinery ----
  DistributedTxnManager& dtm() { return dtm_; }
  LockManager& coordinator_locks() { return coordinator_locks_; }
  LocalTxnManager& coordinator_txns() { return coordinator_txns_; }
  CommitLog& coordinator_clog() { return coordinator_clog_; }
  DistributedLog& coordinator_dlog() { return coordinator_dlog_; }
  SimNet& net() { return net_; }
  GddDaemon* gdd() { return gdd_.get(); }
  Wal& coordinator_wal() { return coordinator_wal_; }

  /// Writes (and fsyncs) the coordinator's distributed-commit record — the 2PC
  /// commit point between PREPARE and COMMIT PREPARED (Figure 10), and the
  /// authority for resolving in-doubt prepared transactions after a crash.
  void CoordinatorCommitRecord(Gxid gxid) {
    coordinator_wal_.RecordDistributedCommit(gxid);
  }

  /// True once the 2PC commit point for `gxid` is durable on the coordinator.
  bool HasDistributedCommitRecord(Gxid gxid) const {
    return coordinator_wal_.HasDistributedCommit(gxid);
  }

  // ---- Fault injection + crash recovery + failover ----
  FaultInjector& faults() { return faults_; }

  /// Simulated crash of a primary segment (volatile state lost, service down).
  Status CrashSegment(int index);

  /// Restarts a crashed segment from its change log (Segment::Recover).
  /// In-doubt prepared transactions are resolved against the coordinator's
  /// distributed commit record (ResolveInDoubt).
  Status RecoverSegment(int index);

  /// Promotes segment `index`'s mirror: the primary is fenced (crashed if still
  /// up), the mirror catches up and stops, and the primary is rebuilt from the
  /// log the mirror replayed, through the same Segment::Recover as
  /// RecoverSegment. Called by the FTS daemon; also callable directly.
  Status FailoverToMirror(int index);

  /// Recovery policy for a prepared transaction found in a crashed segment's
  /// log: commit if the coordinator's commit record exists, keep prepared if
  /// the coordinator still runs it (phase two will arrive), abort otherwise.
  Segment::InDoubtDecision ResolveInDoubt(Gxid gxid);

  /// Background completion of committed-but-unacked 2PC transactions (the
  /// session hands over when CommitSegmentWithRetry exhausts its deadline).
  DtxRecoveryDaemon& dtx_recovery() { return *dtx_recovery_; }

  /// Per-segment up/down + mirror replication lag + FTS counters.
  ClusterHealth Health();

  // ---- Background tasks ----
  /// Starts `pass` as a background task named `name`, listed in
  /// gp_background_tasks and stopped by ~Cluster right after the front door.
  /// Call only while the cluster is being built (the constructor and the
  /// front door it creates), so readers of the list need no lock.
  PeriodicTask* AddTask(std::string name, int64_t period_us, PeriodicTask::Pass pass);

  // ---- Observability ----
  MetricsRegistry& metrics() { return metrics_; }
  /// The one place that starts threads for statements and commits.
  GangRunner& gangs() { return gangs_; }
  SlowQueryLog& slow_query_log() { return slow_query_log_; }
  /// Monotonic id source for per-query traces.
  uint64_t NextTraceId() { return next_trace_id_.fetch_add(1) + 1; }

  /// Cluster-wide accumulated wait-event statistics (gp_wait_events).
  WaitEventRegistry& wait_events() { return wait_events_; }
  /// Live session directory (gp_stat_activity).
  SessionRegistry& sessions() { return sessions_; }

  /// Keeps a finished query trace for later export (bounded ring; oldest
  /// evicted). Sessions call this for every traced query.
  void RetainTrace(std::shared_ptr<Trace> trace);
  std::vector<std::shared_ptr<Trace>> RetainedTraces() const;
  /// Renders every retained trace — query/slice spans and their wait
  /// intervals — as Chrome trace_event JSON (load in Perfetto / about:tracing).
  std::string ChromeTraceJson() const;
  /// ChromeTraceJson() written to `path`.
  Status DumpChromeTrace(const std::string& path) const;

  /// Produces the current rows of one system view (catalog/system_views.h) from
  /// live cluster state. Coordinator-only; executed by PlanKind::kVirtualScan.
  StatusOr<std::vector<Row>> SystemViewRows(TableId view_id);

  /// Point-in-time copy of every registered metric, with liveness gauges
  /// (running distributed txns, resident buffer pages) refreshed first.
  MetricsSnapshot StatsSnapshot();
  /// Human-readable text dump of StatsSnapshot().
  std::string StatsDump();

  /// Cumulative per-fingerprint statement statistics (gp_stat_statements).
  StatementStatsRegistry& statement_stats() { return statement_stats_; }
  /// Metrics-history ring (gp_stat_history), fed by the history daemon.
  MetricsHistory& metrics_history() { return metrics_history_; }
  /// Maintenance progress registry (gp_stat_progress).
  ProgressRegistry& progress() { return progress_; }
  /// Takes one history tick now (what the daemon does every period); the
  /// manual path for tests and deployments with the daemon off.
  void CaptureHistoryTick();
  /// Writes MetricsHistory::ToCsv() to `path` for offline plotting.
  Status DumpHistoryCsv(const std::string& path);

  /// Cancels a transaction everywhere: flags its owner, wakes any lock wait it
  /// is parked in (coordinator or segments), and aborts the query's registered
  /// motion exchanges so receivers parked in Recv/RecvBatch wake promptly.
  /// Used by the GDD kill hook and by statement-error propagation.
  void CancelTxn(Gxid gxid, Status reason);

  // ---- Query-lifecycle resilience ----
  /// Registers a running query's motion exchanges under its gxid so CancelTxn
  /// (GDD kill, statement timeout, user cancel) can abort them. The executor
  /// registers after creating the exchanges and unregisters before returning;
  /// weak_ptrs keep the registry from extending exchange lifetime.
  void RegisterExchanges(Gxid gxid, std::vector<std::weak_ptr<MotionExchange>> exchanges);
  void UnregisterExchanges(Gxid gxid);

  /// Breaker-guarded segment entry for dispatch paths: while segment `index`'s
  /// breaker is open this fails fast with kUnavailable (no service-lock probe);
  /// otherwise delegates to Segment::Pin and feeds the outcome back into the
  /// breaker. With the breaker disabled it is exactly Segment::Pin.
  StatusOr<SegmentPin> PinSegment(int index);

  /// The per-segment breaker, or null when options.breaker_enabled is false.
  CircuitBreaker* breaker(int index) {
    return breakers_[static_cast<size_t>(index)].get();
  }

  /// All local wait-for graphs (coordinator node id -1 plus each segment).
  std::vector<LocalWaitGraph> CollectWaitGraphs();

  /// Truncates every segment's local->distributed xid map below the oldest
  /// gxid any live snapshot can see (Section 5.1 horizon maintenance).
  uint64_t TruncateXidMaps();

  // ---- Resource groups ----
  ResourceGroupRegistry& resgroups() { return resgroups_; }
  CpuGovernor& governor() { return governor_; }
  VmemTracker& vmem() { return vmem_; }

  /// Segment index that hash value `h` routes to across all serving segments.
  int SegmentForHash(uint64_t h) const {
    return static_cast<int>(h % static_cast<uint64_t>(num_segments()));
  }

  /// Same, over an explicit span (a table's dist_segments modulus).
  static int SegmentForHash(uint64_t h, int modulus) {
    return static_cast<int>(h % static_cast<uint64_t>(modulus));
  }

  /// Monotonic motion-exchange id source.
  int NextMotionId() { return next_motion_id_.fetch_add(1); }

  // ---- Plan cache ----
  /// Coordinator plan cache (SELECTs keyed by SQL text). Entries planned at an
  /// older catalog_version() miss and are evicted at lookup.
  PlanCache& plan_cache() { return *plan_cache_; }
  /// Monotonic catalog version: bumped by any change that can invalidate a
  /// cached plan — CREATE/DROP TABLE, CREATE INDEX, segment expansion, and
  /// distribution-span changes during rebalance.
  uint64_t catalog_version() const {
    return catalog_version_.load(std::memory_order_acquire);
  }
  void BumpCatalogVersion() {
    catalog_version_.fetch_add(1, std::memory_order_acq_rel);
  }

  // ---- Delta store (when options.delta_store_enabled) ----
  /// Segment `i`'s delta index, or null when the feature is off.
  DeltaIndex* delta_index(int i) const {
    return delta_indexes_[static_cast<size_t>(i)].get();
  }
  /// One synchronous seal+reclaim pass over segment `index`'s delta stores
  /// (what the seal daemon runs every delta_seal_period_us). Blocks behind a
  /// recovering segment (kDeltaSealStall) and fails fast on a down one.
  Status SealDeltaNow(int index);

  // ---- Mirrors (when options.mirrors_enabled) ----
  MirrorSegment* mirror(int i) { return mirrors_[static_cast<size_t>(i)].get(); }
  /// Waits for every mirror to apply everything its primary produced.
  Status CatchUpMirrors(int64_t timeout_ms = 5000);
  /// Quiesced-state check: every mirrored table's visible contents match the
  /// primary's, per segment. Call with no transactions in flight.
  Status VerifyMirrorsConsistent();

 private:
  /// The table defs segment `index` was created with (external paths are only
  /// materialized on segment 0); used to rebuild the schema during recovery.
  std::vector<TableDef> DefsForSegment(int index) const;

  /// Builds segment slot `index` (segment + mirror + breaker per options) but
  /// does not publish it. Requires expand_mu_ held.
  Status BuildSegmentSlot(int index, const std::vector<TableDef>& defs);

  const ClusterOptions options_;
  Segment::Options seg_options_;  // stashed so AddSegments builds equal segments

  // Declared before every consumer: subsystems resolve metric pointers into
  // this registry at construction and may update them until their own dtors.
  MetricsRegistry metrics_;
  // Worker threads for gang slices and commit fan-outs. Destroyed after
  // the ~Cluster body has stopped the front door, so no task is running.
  GangRunner gangs_;
  SlowQueryLog slow_query_log_;
  std::atomic<uint64_t> next_trace_id_{0};
  WaitEventRegistry wait_events_;
  SessionRegistry sessions_;
  StatementStatsRegistry statement_stats_;
  ProgressRegistry progress_;
  MetricsHistory metrics_history_;
  mutable std::mutex traces_mu_;
  std::deque<std::shared_ptr<Trace>> retained_traces_;  // newest at the back
  static constexpr size_t kRetainedTraceCapacity = 256;

  // Coordinator node state (node id -1).
  CommitLog coordinator_clog_;
  DistributedLog coordinator_dlog_;
  Wal coordinator_wal_;
  LockManager coordinator_locks_;
  LocalTxnManager coordinator_txns_;
  DistributedTxnManager dtm_;
  SimNet net_;
  FaultInjector faults_;

  // Fixed-capacity slot arrays (kMaxSegments) so readers index without locks:
  // AddSegments fills a slot, then publishes it by bumping serving_segments_
  // (release); every reader bounds its loop by num_segments() (acquire).
  // Slots for mirrors/breakers stay null when the feature is disabled.
  std::vector<std::unique_ptr<Segment>> segments_;
  std::vector<std::unique_ptr<MirrorSegment>> mirrors_;
  std::vector<std::unique_ptr<CircuitBreaker>> breakers_;
  // Declared after segments_: a delta index tails its segment's change log,
  // so it must be destroyed (and is stopped) first.
  std::vector<std::unique_ptr<DeltaIndex>> delta_indexes_;
  std::atomic<int> serving_segments_{0};
  // Serializes expansion against catalog DDL's per-segment fanout, so every
  // table lands on every segment exactly once.
  mutable std::mutex expand_mu_;

  mutable std::mutex exchanges_mu_;
  std::unordered_map<Gxid, std::vector<std::weak_ptr<MotionExchange>>> query_exchanges_;

  mutable std::mutex catalog_mu_;
  std::unordered_map<std::string, TableDef> catalog_;
  TableId next_table_id_ = 1;
  // Bumped by every catalog change that can invalidate a cached plan.
  std::atomic<uint64_t> catalog_version_{1};
  // Constructed after metrics_ (binds plan_cache.* counters into it).
  std::unique_ptr<PlanCache> plan_cache_;

  CpuGovernor governor_;
  VmemTracker vmem_;
  ResourceGroupRegistry resgroups_;

  std::unique_ptr<GddDaemon> gdd_;
  std::unique_ptr<FtsDaemon> fts_;
  std::unique_ptr<DtxRecoveryDaemon> dtx_recovery_;
  std::atomic<int> next_motion_id_{0};
  std::mutex failover_mu_;  // serializes FTS-driven and manual failovers

  // Every periodic daemon, in start order. Declared after everything a pass
  // touches; ~Cluster stops them all before any member is destroyed.
  std::vector<std::unique_ptr<PeriodicTask>> tasks_;

  // Constructed last (its sessions touch every subsystem) and stopped first
  // in ~Cluster, before anything its in-flight statements could be using.
  std::unique_ptr<FrontDoor> frontend_;
};

}  // namespace gphtap

#endif  // GPHTAP_CLUSTER_CLUSTER_H_
