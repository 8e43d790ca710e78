// A client session: transaction lifecycle (distributed snapshots, 1PC/2PC),
// statement locking, planning and dispatch (SELECT, and UPDATE / DELETE as
// ModifyTable plans), INSERT routing, and resource-group admission.
#ifndef GPHTAP_CLUSTER_SESSION_H_
#define GPHTAP_CLUSTER_SESSION_H_

#include <atomic>
#include <functional>
#include <memory>
#include <mutex>
#include <optional>
#include <set>
#include <string>
#include <unordered_map>
#include <vector>

#include "cluster/cluster.h"
#include "common/wait_event.h"
#include "plan/planner.h"
#include "plan/select_query.h"
#include "stats/statement_record.h"

namespace gphtap {

struct PreparedStatement;  // sql/prepared_statement.h (opaque to the session)

struct QueryResult {
  std::vector<std::string> columns;
  std::vector<Row> rows;
  int64_t affected = 0;

  std::string ToString() const;
};

/// Outcome of one online table rebalance (REBALANCE TABLE <name>).
struct RebalanceReport {
  uint64_t rows_moved = 0;       // copies staged onto new home segments
  uint64_t catchup_records = 0;  // change-log records that landed mid-copy
  int64_t copy_us = 0;           // online copy phase (writers keep flowing)
  int64_t cutover_us = 0;        // AccessExclusive cutover window
  bool cutover_complete = false; // distribution span flipped to the new width
  bool horizon_cleared = false;  // rebalancing flag dropped (DD re-enabled)
};

class Session {
 public:
  Session(Cluster* cluster, std::string role);
  ~Session();

  Session(const Session&) = delete;
  Session& operator=(const Session&) = delete;

  /// Parses and executes one SQL statement (see sql/ for the dialect).
  StatusOr<QueryResult> Execute(const std::string& sql);

  // ---- Programmatic statement API (what the SQL layer lowers into) ----
  Status Begin();
  Status Commit();
  Status Rollback();
  bool in_txn() const { return gxid_ != kInvalidGxid; }
  Gxid current_gxid() const { return gxid_; }

  /// Plans a bound SELECT (PlanSelect), or an UPDATE (`sets` non-null) or
  /// DELETE (PlanModify), against the live cluster, stamped with the catalog
  /// version it was planned at. Parameters stay placeholders: PREPARE keeps
  /// the plan and every EXECUTE binds its values into it (BindPlanParams).
  StatusOr<std::shared_ptr<const CachedPlan>> PlanQuery(const SelectQuery& query);
  StatusOr<std::shared_ptr<const CachedPlan>> PlanDml(
      const TableDef& def, const std::vector<std::pair<int, ExprPtr>>* sets,
      const ExprPtr& where);
  /// Supplies a statement's plan once the statement's coordinator locks are
  /// held: a fresh plan, or a prepared one with EXECUTE's values bound.
  using PlanSupplier = std::function<StatusOr<std::shared_ptr<const CachedPlan>>()>;

  /// Plans and executes a bound SELECT. When `cache_sql` is set, the freshly
  /// planned tree is published to the cluster plan cache under that text.
  StatusOr<QueryResult> ExecuteSelect(const SelectQuery& query,
                                      const std::string* cache_sql = nullptr);
  /// Executes an already-planned SELECT (plan-cache hit or EXECUTE of a
  /// prepared statement): skips parse/analyze/plan, re-acquires the
  /// parse-analyze locks, and runs the shared immutable plan tree.
  StatusOr<QueryResult> ExecuteCachedPlan(std::shared_ptr<const CachedPlan> plan);
  /// EXPLAIN: plans the query and returns the plan text, without executing.
  /// EXPLAIN ANALYZE (`analyze`): executes it (discarding its rows) and
  /// returns the plan annotated with per-operator actual rows / time.
  StatusOr<QueryResult> ExplainSelect(const SelectQuery& query, bool analyze = false);
  /// EXPLAIN [ANALYZE] of an UPDATE (`sets` non-null) or DELETE. ANALYZE
  /// modifies the rows, as the statement itself would.
  StatusOr<QueryResult> ExplainModify(const TableDef& def,
                                      const std::vector<std::pair<int, ExprPtr>>* sets,
                                      const ExprPtr& where, bool analyze = false);
  /// Widens ints bound for double columns before storage checks the rows.
  StatusOr<QueryResult> ExecuteInsert(const TableDef& def, const std::vector<Row>& rows);
  /// INSERT ... SELECT as one statement: under the insert's lock, runs the
  /// SELECT `select` supplies and inserts its rows, output column i at schema
  /// position `positions[i]`.
  StatusOr<QueryResult> ExecuteInsertSelect(const TableDef& def,
                                            const std::vector<int>& positions,
                                            const PlanSupplier& select);
  /// UPDATE / DELETE run as a ModifyTable plan (plan/planner.h PlanModify).
  /// `affected` counts rows, not copies, for a replicated table.
  StatusOr<QueryResult> ExecuteUpdate(const TableDef& def,
                                      const std::vector<std::pair<int, ExprPtr>>& sets,
                                      const ExprPtr& where);
  StatusOr<QueryResult> ExecuteDelete(const TableDef& def, const ExprPtr& where);
  /// UPDATE or DELETE of `def` running the ModifyTable plan `plan` supplies.
  /// The supplier runs once the coordinator relation lock is granted and the
  /// snapshot retaken (lock-then-rescan), so a plan checked against the
  /// catalog there never carries a gang that a rebalance cutover replaced
  /// while the statement waited. `analyze`: EXPLAIN ANALYZE.
  StatusOr<QueryResult> ExecuteDml(const TableDef& def, const PlanSupplier& plan,
                                   bool analyze = false);
  Status LockTable(const TableDef& def, LockMode mode);
  StatusOr<QueryResult> ExecuteVacuum(const TableDef& def);
  /// CLUSTER <table> [USING <col>]: transactionally rewrites every visible row
  /// into fresh storage (ordered by `order_col` when >= 0, storage order
  /// otherwise) and deletes the originals under MVCC, all in the surrounding
  /// transaction — BEGIN; CLUSTER; ABORT leaves the table untouched and the
  /// statement retryable. On AO/AO-column tables the rewrite drains dead-heavy
  /// row groups into fresh sealed groups; the emptied groups are reclaimed by
  /// the next VACUUM. Takes ExclusiveLock: readers keep flowing.
  StatusOr<QueryResult> ExecuteCluster(const TableDef& def, int order_col);
  /// Online rebalance: migrates a table's rows onto [0, num_segments()) —
  /// snapshot copy while writers keep flowing, change-log catchup, then a
  /// brief AccessExclusive cutover. Idempotent and retryable after abort or
  /// crash (the rebalancing flag keeps reads full-fan-out until a successful
  /// run completes and the snapshot horizon passes the cutover).
  StatusOr<RebalanceReport> RebalanceTable(const std::string& name);
  /// SQL surface of RebalanceTable (REBALANCE TABLE <name>).
  StatusOr<QueryResult> ExecuteRebalance(const std::string& name);
  /// TRUNCATE: discards all contents under AccessExclusiveLock. Immediate (not
  /// MVCC / not rollbackable), as a bulk maintenance operation.
  StatusOr<QueryResult> ExecuteTruncate(const TableDef& def);

  /// Changes the active role (SET ROLE), re-resolving the resource group.
  void SetRole(const std::string& role);
  const std::string& role() const { return role_; }

  // ---- Query-lifecycle timeouts (SET statement_timeout / lock_timeout /
  // admission_timeout). 0 disables; defaults come from ClusterOptions. The
  // statement timeout becomes an absolute deadline armed at statement start
  // and enforced at every blocking point (executor ticks, lock waits, motion
  // send/recv, resource-group admission, WAL fsync).
  void set_statement_timeout_us(int64_t us) { statement_timeout_us_ = us; }
  int64_t statement_timeout_us() const { return statement_timeout_us_; }
  void set_lock_timeout_us(int64_t us) { lock_timeout_us_ = us; }
  int64_t lock_timeout_us() const { return lock_timeout_us_; }
  void set_admission_timeout_us(int64_t us) { admission_timeout_us_ = us; }
  int64_t admission_timeout_us() const { return admission_timeout_us_; }

  // SET vectorized_execution = on/off/default: per-session override of the
  // cluster-wide vectorization switch (and with it the delta-merged scan
  // path, which requires vectorize). nullopt = follow ClusterOptions.
  void set_vectorize_override(std::optional<bool> v) { vectorize_override_ = v; }
  // Plans shaped by a session override must not land in (or be served from)
  // the shared plan cache keyed by SQL text alone.
  bool PlanCacheEligible() const { return !vectorize_override_.has_value(); }

  Cluster* cluster() { return cluster_; }

  /// This session's gp_stat_activity entry. The front door publishes queued /
  /// dispatch state into it while the session has no thread of its own.
  const std::shared_ptr<SessionInfo>& session_info() const { return info_; }

  // ---- Prepared statements (PREPARE / EXECUTE / DEALLOCATE) ----
  // Session-local named statements, managed by the SQL driver; the session
  // only owns the storage so their lifetime matches the connection.
  std::shared_ptr<PreparedStatement> GetPrepared(const std::string& name) const;
  void PutPrepared(const std::string& name, std::shared_ptr<PreparedStatement> ps);
  bool RemovePrepared(const std::string& name);
  void ClearPrepared();

  // ---- Tracing ----
  /// Traces every subsequent query in this session (also on cluster-wide via
  /// ClusterOptions::trace_queries).
  void set_trace_enabled(bool on) { trace_enabled_ = on; }
  /// The most recent query's trace; null when tracing was off.
  std::shared_ptr<Trace> last_trace() const { return last_trace_; }

  // ---- Statistics (per session) ----
  struct Stats {
    uint64_t txns_committed = 0;
    uint64_t txns_aborted = 0;
    uint64_t one_phase_commits = 0;
    uint64_t two_phase_commits = 0;
    uint64_t piggybacked_commits = 0;  // Figure 11(b) fast path taken
    uint64_t auto_prepares = 0;        // Figure 11(a) fast path taken
    // Commit/commit-prepared resends. Atomic: the 2PC commit fanout retries
    // concurrently from one thread per participant.
    std::atomic<uint64_t> commit_retries{0};
    uint64_t statements = 0;
    uint64_t statement_retries = 0;    // transparent read-only re-dispatches
    uint64_t statement_timeouts = 0;   // statements that failed with kTimedOut
  };
  const Stats& stats() const { return stats_; }

  // ---- Statement identity hooks (gp_stat_statements, slow-query log) ----
  // Called by the SQL driver during dispatch; they set the statement record.
  /// The statement was served from the plan cache (or a prepared statement's
  /// generic plan) instead of being planned fresh.
  void NoteStmtPlanCacheHit() { record_.plan_cache_hit = true; }
  /// Overrides the fingerprint the statement is accumulated under (EXECUTE of
  /// a prepared statement attributes to the prepared text).
  void SetStmtFingerprint(const std::string& fp) { record_.fingerprint = fp; }

 private:
  // Wraps a statement in an implicit transaction when none is open.
  template <typename Fn>
  StatusOr<QueryResult> RunStatement(Fn&& fn);

  // Type-erased RunStatement for callers outside session.cc (the template
  // body lives there); reorg.cc drives CLUSTER / REBALANCE through this.
  StatusOr<QueryResult> RunStatementErased(
      const std::function<StatusOr<QueryResult>()>& fn);

  // Statement retry policy (read-only dispatch): reruns `fn` — a full
  // RunStatement invocation, so each attempt gets a fresh transaction,
  // snapshot and plan — when it fails with a retryable kUnavailable (segment
  // crashed, failover in flight) under capped exponential backoff. Only
  // implicit (single-statement) attempts retry; explicit-block failures and
  // writes always surface. Never retries past the statement deadline.
  template <typename Fn>
  StatusOr<QueryResult> RunReadOnlyStatement(Fn&& fn);

  // Planner inputs resolved from live cluster state (shared by every
  // statement that plans).
  PlannerOptions MakePlannerOptions();

  // Parse-analyze AccessShare locks on the coordinator for a SELECT's tables.
  Status LockForRead(const std::vector<TableDef>& tables);

  // SELECT: coordinator locks, plan, run — or, with `analyze`, run and render
  // the plan with its actuals (EXPLAIN ANALYZE).
  StatusOr<QueryResult> RunSelect(const SelectQuery& query, const std::string* cache_sql,
                                  bool analyze);
  // Routes `rows` to their segments and inserts them; the caller holds the
  // coordinator RowExclusive lock on `def`.
  StatusOr<QueryResult> InsertRows(const TableDef& def, const std::vector<Row>& rows);

  // The dispatch/trace/execute tail of every planned statement: fresh,
  // cached and EXPLAIN ANALYZE SELECTs, INSERT's SELECT, UPDATE and DELETE.
  // Runs inside RunStatement. Without `keep_rows` the rows are only counted
  // (EXPLAIN ANALYZE discards them); a ModifyTable plan returns only its count.
  StatusOr<QueryResult> RunPlan(const CachedPlan& plan, bool keep_rows);
  // EXPLAIN ANALYZE: runs the plan and renders it with per-operator actuals.
  StatusOr<QueryResult> RunAnalyzed(const CachedPlan& plan);

  // Arms/disarms the per-statement absolute deadline + lock timeout on the
  // transaction's LockOwner and publishes it to gp_stat_activity.
  void ArmStatementDeadline();
  void DisarmStatementDeadline();

  // The ambient wait-event context this session's statements install
  // (thread-local, via WaitContextGuard) so blocking points below attribute
  // to this session / resource group.
  WaitContext MakeWaitContext();

  Status EnsureTxn();
  Status TakeStatementSnapshot();
  // Declares `seg` a write participant: transaction lock + local xid.
  Status EnsureSegmentWrite(Segment* seg);
  // Relation lock on the coordinator at parse-analyze time (Section 4.2).
  Status LockRelationCoordinator(const TableDef& def, LockMode mode);
  Status LockRelationSegment(Segment* seg, const TableDef& def, LockMode mode);

  // ---- Online reorg / expansion internals (cluster/reorg.cc) ----
  // AO/AO-column VACUUM: frees all-dead sealed row groups, then rewrites the
  // live rows out of dead-heavy groups into fresh groups under the vacuum's
  // own transaction.
  Status VacuumAppendOptimizedSegment(Segment* seg, const TableDef& def, Table* table,
                                      int64_t* reclaimed);
  // Per-segment CLUSTER rewrite: collect visible rows, optionally sort, then
  // delete + re-insert under this transaction's xid.
  Status ClusterSegment(Segment* seg, const TableDef& def, int order_col,
                        int64_t* rewritten);
  // Rebalance bodies, one distributed transaction each. Run inside
  // RunStatement by RebalanceTable, which owns the gp_stat_progress handle the
  // bodies advance (per staged row in the copy phase).
  Status RebalanceHashTable(const TableDef& def, int new_span, RebalanceReport* report,
                            ProgressRegistry::Handle* progress);
  Status RebalanceReplicatedTable(const TableDef& def, int new_span,
                                  RebalanceReport* report,
                                  ProgressRegistry::Handle* progress);
  // Deletes `tid` with `xid` on any storage kind; callers hold locks strong
  // enough that the tuple cannot be concurrently write-locked.
  Status MarkDeletedResolved(Table* table, TupleId tid, LocalXid xid);

  // Commit protocols (Section 5.2, Figure 10).
  Status CommitProtocol();
  // Delivers COMMIT (one_phase) or COMMIT PREPARED to one segment, retrying
  // retryable failures (segment down, message dropped) with capped exponential
  // backoff until the configured deadline. Evaluates the commit-side crash
  // fault points. `piggyback_first`: the first attempt rides the statement
  // dispatch (Figure 11(b)) and skips the wire round trip.
  Status CommitSegmentWithRetry(int seg_index, bool one_phase, bool piggyback_first);
  void AbortProtocol();
  void ReleaseAllLocks();
  /// ReleaseAllLocks minus `keep_segments` — the 2PC participants whose
  /// prepared state (and therefore pre-image locks) outlives the session call,
  /// owned by the dtx recovery daemon from then on.
  void ReleaseLocksExcept(const std::vector<int>& keep_segments);
  void ClearTxnState();

  int RouteInsert(const TableDef& def, const Row& row,
                  const Cluster::TableDistInfo& dist);

  Cluster* const cluster_;
  std::string role_;
  std::shared_ptr<ResourceGroup> group_;  // never null (default group)

  // Per-session timeout GUCs (microseconds; 0 = disabled).
  int64_t statement_timeout_us_ = 0;
  int64_t lock_timeout_us_ = 0;
  int64_t admission_timeout_us_ = 0;

  // Per-session engine override; nullopt follows the cluster option.
  std::optional<bool> vectorize_override_;

  // Transaction state.
  Gxid gxid_ = kInvalidGxid;
  std::shared_ptr<LockOwner> owner_;
  DistributedSnapshot snapshot_;
  std::set<int> write_segments_;
  bool explicit_txn_ = false;
  bool txn_failed_ = false;
  // After an error inside BEGIN...COMMIT the transaction is rolled back
  // immediately (locks released, like PostgreSQL's AbortTransaction), but the
  // session stays in a failed block until COMMIT/ROLLBACK.
  bool failed_block_ = false;
  bool admitted_ = false;
  // True while committing an implicit (single-statement) transaction: the
  // Figure 11 piggyback optimizations only apply there.
  bool implicit_commit_ = false;
  uint64_t insert_round_robin_ = 0;

  Stats stats_;

  // Cluster-wide txn.* counters mirroring Stats (resolved once; never null).
  struct TxnMetrics {
    Counter* committed = nullptr;
    Counter* aborted = nullptr;
    Counter* one_phase = nullptr;
    Counter* two_phase = nullptr;
    Counter* piggybacked = nullptr;
    Counter* auto_prepares = nullptr;
    Counter* retries = nullptr;
    Counter* statements = nullptr;
    Counter* stmt_retries = nullptr;   // resilience.statement_retries
    Counter* stmt_timeouts = nullptr;  // resilience.statement_timeouts
  };
  TxnMetrics m_;

  bool trace_enabled_ = false;
  std::shared_ptr<Trace> last_trace_;

  mutable std::mutex prepared_mu_;
  std::unordered_map<std::string, std::shared_ptr<PreparedStatement>> prepared_;

  // Published live state (gp_stat_activity) — registered at connect,
  // unregistered at disconnect. Never null after construction.
  std::shared_ptr<SessionInfo> info_;
  // The current statement's record, carried on the wait context so slices,
  // the buffer pool and motion charge it ambiently. Reset by
  // Execute() at statement start and rendered at statement end.
  StatementRecord record_;
};

}  // namespace gphtap

#endif  // GPHTAP_CLUSTER_SESSION_H_
