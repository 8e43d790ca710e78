#include "cluster/session.h"

#include <algorithm>
#include <cstdio>
#include <deque>

#include "common/clock.h"
#include "exec/executor.h"
#include "sql/driver.h"
#include "sql/prepared_statement.h"
#include "stats/fingerprint.h"
#include "stats/statement_stats.h"
#include "storage/heap_table.h"

namespace gphtap {

std::string QueryResult::ToString() const {
  std::string out;
  for (size_t i = 0; i < columns.size(); ++i) {
    if (i) out += " | ";
    out += columns[i];
  }
  if (!columns.empty()) out += "\n";
  for (const Row& r : rows) {
    out += RowToString(r);
    out += "\n";
  }
  if (columns.empty()) out += "affected: " + std::to_string(affected) + "\n";
  return out;
}

Session::Session(Cluster* cluster, std::string role)
    : cluster_(cluster), role_(std::move(role)) {
  SetRole(role_);
  info_ = cluster_->sessions().Register(role_, group_->name());
  const ClusterOptions& opts = cluster_->options();
  statement_timeout_us_ = opts.statement_timeout_us;
  lock_timeout_us_ = opts.lock_timeout_us;
  admission_timeout_us_ = opts.admission_timeout_us;
  MetricsRegistry& metrics = cluster_->metrics();
  m_.committed = metrics.counter("txn.committed");
  m_.aborted = metrics.counter("txn.aborted");
  m_.one_phase = metrics.counter("txn.one_phase_commits");
  m_.two_phase = metrics.counter("txn.two_phase_commits");
  m_.piggybacked = metrics.counter("txn.piggybacked_commits");
  m_.auto_prepares = metrics.counter("txn.auto_prepares");
  m_.retries = metrics.counter("txn.commit_retries");
  m_.statements = metrics.counter("txn.statements");
  m_.stmt_retries = metrics.counter("resilience.statement_retries");
  m_.stmt_timeouts = metrics.counter("resilience.statement_timeouts");
}

Session::~Session() {
  if (in_txn()) Rollback();
  cluster_->sessions().Unregister(info_->id);
}

void Session::SetRole(const std::string& role) {
  role_ = role;
  group_ = nullptr;
  if (cluster_->options().resource_groups_enabled && !role_.empty()) {
    group_ = cluster_->resgroups().GroupForRole(role_);
  }
  if (group_ == nullptr) group_ = cluster_->resgroups().Get("default_group");
  if (info_ != nullptr) {
    std::string group_name = group_->name();
    info_->SetStrings(&role_, &group_name, nullptr);
  }
}

std::shared_ptr<PreparedStatement> Session::GetPrepared(
    const std::string& name) const {
  std::lock_guard<std::mutex> g(prepared_mu_);
  auto it = prepared_.find(name);
  return it == prepared_.end() ? nullptr : it->second;
}

void Session::PutPrepared(const std::string& name,
                          std::shared_ptr<PreparedStatement> ps) {
  std::lock_guard<std::mutex> g(prepared_mu_);
  prepared_[name] = std::move(ps);
}

bool Session::RemovePrepared(const std::string& name) {
  std::lock_guard<std::mutex> g(prepared_mu_);
  return prepared_.erase(name) > 0;
}

void Session::ClearPrepared() {
  std::lock_guard<std::mutex> g(prepared_mu_);
  prepared_.clear();
}

WaitContext Session::MakeWaitContext() {
  WaitContext ctx;
  ctx.registry = &cluster_->wait_events();
  ctx.session = &info_->wait;
  // The statement record rides along so slices / buffer pool / motion charge
  // this statement without explicit plumbing.
  ctx.record = &record_;
  ctx.node = -1;  // coordinator; gang tasks override per segment
  ctx.group = group_->name();
  // Ambient interruption: blocking points poll this owner's cancellation /
  // statement deadline. Null before the first transaction begins; RunStatement
  // patches the installed context once EnsureTxn creates the owner.
  ctx.owner = owner_.get();
  return ctx;
}

void Session::ArmStatementDeadline() {
  if (owner_ == nullptr) return;
  int64_t deadline = 0;
  if (statement_timeout_us_ > 0) deadline = MonotonicMicros() + statement_timeout_us_;
  owner_->set_deadline_us(deadline);
  owner_->set_lock_timeout_us(lock_timeout_us_);
  info_->deadline_us.store(deadline, std::memory_order_release);
}

void Session::DisarmStatementDeadline() {
  if (owner_ != nullptr) owner_->set_deadline_us(0);
  info_->deadline_us.store(0, std::memory_order_release);
}

// ---------------------------------------------------------------------------
// Transaction lifecycle
// ---------------------------------------------------------------------------

Status Session::EnsureTxn() {
  if (failed_block_) {
    return Status::Aborted(
        "current transaction is aborted, commands ignored until end of block");
  }
  if (in_txn()) {
    if (txn_failed_) {
      return Status::Aborted(
          "current transaction is aborted, commands ignored until end of block");
    }
    if (owner_->cancelled()) {
      txn_failed_ = true;
      return owner_->cancel_reason();
    }
    return Status::OK();
  }
  owner_ = cluster_->dtm().BeginTxn(&gxid_, MonotonicMicros());
  info_->gxid.store(gxid_, std::memory_order_release);
  txn_failed_ = false;
  write_segments_.clear();
  // The statement deadline covers admission queueing too: arm it before
  // Admit() so a saturated group evicts this request on time.
  ArmStatementDeadline();
  if (cluster_->options().resource_groups_enabled && !admitted_) {
    ResourceGroup::AdmitRequest req;
    req.owner = owner_.get();
    req.queue_timeout_us = admission_timeout_us_;
    req.max_queue = cluster_->options().resgroup_max_queue;
    req.shed_on_saturation = cluster_->options().resgroup_shed_on_saturation;
    Status s = group_->Admit(req);
    if (!s.ok()) {
      cluster_->dtm().MarkAborted(gxid_);
      gxid_ = kInvalidGxid;
      info_->gxid.store(gxid_, std::memory_order_release);
      owner_.reset();
      info_->deadline_us.store(0, std::memory_order_release);
      return s;
    }
    admitted_ = true;
  }
  return Status::OK();
}

Status Session::TakeStatementSnapshot() {
  // Read committed: a fresh distributed snapshot per statement.
  snapshot_ = cluster_->dtm().TakeSnapshot(gxid_);
  return Status::OK();
}

Status Session::Begin() {
  WaitContextGuard wait_guard(MakeWaitContext(), /*only_if_absent=*/true);
  if (failed_block_) {
    return Status::Aborted(
        "current transaction is aborted, commands ignored until end of block");
  }
  if (in_txn()) return Status::InvalidArgument("transaction already in progress");
  GPHTAP_RETURN_IF_ERROR(EnsureTxn());
  explicit_txn_ = true;
  return Status::OK();
}

Status Session::Commit() {
  WaitContextGuard wait_guard(MakeWaitContext(), /*only_if_absent=*/true);
  if (failed_block_) {
    // COMMIT of a failed block is a no-op rollback acknowledgement.
    failed_block_ = false;
    return Status::OK();
  }
  if (!in_txn()) return Status::OK();
  if (txn_failed_ || owner_->cancelled()) {
    // COMMIT of a failed transaction is a rollback (PostgreSQL semantics).
    AbortProtocol();
    return Status::OK();
  }
  Status s = CommitProtocol();
  // Past the commit point CommitProtocol cleans up itself (in_txn() is false)
  // and the error is informational; before it, the transaction aborts.
  if (!s.ok() && in_txn()) AbortProtocol();
  return s;
}

Status Session::Rollback() {
  if (failed_block_) {
    failed_block_ = false;
    return Status::OK();
  }
  if (!in_txn()) return Status::OK();
  AbortProtocol();
  return Status::OK();
}

namespace {

// Errors that mean "the segment did not act on the message" or "the outcome is
// unknown": segment down, message dropped, wait cancelled by a crash. The
// coordinator retries these after the commit point; everything else (Aborted,
// Internal, ...) is a definitive verdict. Shares the classification with the
// statement retry policy (common/status.h) so the two can't drift.
bool RetryableCommitError(const Status& s) { return IsRetryableFailure(s); }

// Runs `fn` on scope exit (statement-state restoration on every return path).
template <typename Fn>
class ScopeExit {
 public:
  explicit ScopeExit(Fn fn) : fn_(std::move(fn)) {}
  ~ScopeExit() { fn_(); }
  ScopeExit(const ScopeExit&) = delete;
  ScopeExit& operator=(const ScopeExit&) = delete;

 private:
  Fn fn_;
};

}  // namespace

Status Session::CommitSegmentWithRetry(int seg_index, bool one_phase,
                                       bool piggyback_first) {
  SimNet& net = cluster_->net();
  FaultInjector& faults = cluster_->faults();
  const ClusterOptions& opts = cluster_->options();
  Segment* seg = cluster_->segment(seg_index);
  const char* crash_point =
      one_phase ? fault_points::kCrashBeforeCommit : fault_points::kCrashAfterPrepare;
  const char* ack_crash_point = one_phase ? fault_points::kCrashBeforeCommitAck
                                          : fault_points::kCrashBeforeCommitPreparedAck;
  int64_t backoff_us = opts.commit_retry_initial_backoff_us;
  int64_t deadline = MonotonicMicros() + opts.commit_retry_deadline_us;
  // The coordinator is blocked on this segment's commit ack for the whole
  // retry loop (both 1PC COMMIT and 2PC COMMIT PREPARED acks count here).
  WaitEventScope ack_wait(WaitEvent::kCommitPreparedAck, seg_index);
  bool first_attempt = true;
  while (true) {
    // The segment dies before acting on this commit message. For 1PC this
    // loses the transaction; for 2PC the prepared transaction is in doubt and
    // recovery resolves it from the coordinator's commit record.
    if (faults.Evaluate(crash_point, seg_index)) seg->Crash();
    bool piggyback = piggyback_first && first_attempt;
    first_attempt = false;
    Status s = Status::OK();
    if (!piggyback && !net.Deliver(MsgKind::kCommit)) {
      s = Status::Unavailable("commit message to segment " + std::to_string(seg_index) +
                              " dropped");
    } else if (auto pin = seg->Pin(); !pin.ok()) {
      s = pin.status();
    } else {
      s = one_phase ? seg->txns().Commit(gxid_) : seg->txns().CommitPrepared(gxid_);
      if (s.ok()) {
        // Commit is durable on the segment but the ack never arrives; the
        // retry must land on the idempotent already-finished path.
        if (faults.Evaluate(ack_crash_point, seg_index)) {
          seg->Crash();
          s = Status::Unavailable("segment " + std::to_string(seg_index) +
                                  " crashed before commit ack");
        } else if (!piggyback && !net.Deliver(MsgKind::kCommitAck)) {
          s = Status::Unavailable("commit ack from segment " +
                                  std::to_string(seg_index) + " dropped");
        }
      }
    }
    if (s.ok() || !RetryableCommitError(s)) return s;
    if (MonotonicMicros() >= deadline) {
      return Status::TimedOut("commit retry deadline exceeded for segment " +
                              std::to_string(seg_index) + ": " + s.message());
    }
    ++stats_.commit_retries;
    m_.retries->Add(1);
    PreciseSleepUs(backoff_us);
    backoff_us = std::min(backoff_us * 2, opts.commit_retry_max_backoff_us);
  }
}

Status Session::CommitProtocol() {
  SimNet& net = cluster_->net();
  FaultInjector& faults = cluster_->faults();
  std::vector<int> participants(write_segments_.begin(), write_segments_.end());

  // The statement deadline is honored up to — but never past — the commit
  // decision point. Checked here, before any commit record or 1PC dispatch:
  // once the decision is durable the transaction IS committed and phase two
  // runs to completion regardless of deadlines (retrying, never aborting).
  if (owner_ != nullptr && owner_->DeadlineExpired(MonotonicMicros())) {
    Status timeout = Status::TimedOut("statement timeout before commit point");
    owner_->Cancel(timeout);
    return timeout;
  }

  if (participants.empty()) {
    // Read-only: nothing to make durable.
    cluster_->dtm().MarkCommitted(gxid_);
  } else if (participants.size() == 1 && cluster_->options().one_phase_commit_enabled) {
    // One-phase commit (Section 5.2): skip PREPARE; one round trip, one
    // segment fsync, no coordinator commit record. With the Figure 11(b)
    // optimization, an implicit transaction's COMMIT rides on the statement
    // dispatch itself and the round trip disappears too.
    int seg_index = participants[0];
    bool piggyback = implicit_commit_ && cluster_->options().onephase_piggyback_enabled;
    GPHTAP_RETURN_IF_ERROR(
        CommitSegmentWithRetry(seg_index, /*one_phase=*/true, piggyback));
    cluster_->dtm().MarkCommitted(gxid_);
    ++stats_.one_phase_commits;
    m_.one_phase->Add(1);
    if (piggyback) {
      ++stats_.piggybacked_commits;
      m_.piggybacked->Add(1);
    }
  } else {
    // Two-phase commit: PREPARE everywhere, coordinator commit record, then
    // COMMIT PREPARED everywhere. Phases fan out in parallel, as the real
    // dispatcher does.
    auto fanout = [&](auto&& fn) {
      std::vector<Status> results(participants.size());
      cluster_->gangs().FanOut(participants,
                               [&](size_t i) { results[i] = fn(participants[i]); });
      return results;
    };

    // Figure 11(a): for an implicit transaction the segments already know the
    // statement they just ran was the last one, so they prepare on their own —
    // the coordinator skips the PREPARE broadcast and only collects acks.
    bool auto_prepare = implicit_commit_ && cluster_->options().auto_prepare_enabled;
    std::vector<Status> prepared = fanout([&](int seg_index) -> Status {
      // The whole exchange is the coordinator waiting on this segment's ack.
      WaitEventScope ack_wait(WaitEvent::kPrepareAck, seg_index);
      Segment* seg = cluster_->segment(seg_index);
      if (faults.Evaluate(fault_points::kCrashBeforePrepare, seg_index)) seg->Crash();
      if (!auto_prepare && !net.Deliver(MsgKind::kPrepare)) {
        return Status::Unavailable("prepare message to segment " +
                                   std::to_string(seg_index) + " dropped");
      }
      auto pin = seg->Pin();
      if (!pin.ok()) return pin.status();  // down: no process to answer
      Status s = seg->txns().Prepare(gxid_);
      if (s.ok() && faults.Evaluate(fault_points::kCrashBeforePrepareAck, seg_index)) {
        // PREPARE is durable but the coordinator never hears about it: the
        // transaction aborts here and recovery resolves the orphan.
        seg->Crash();
        return Status::Unavailable("segment " + std::to_string(seg_index) +
                                   " crashed before prepare ack");
      }
      // The (possibly negative) ack crosses the wire; a drop means the
      // coordinator cannot tell success from failure and must abort.
      if (!net.Deliver(MsgKind::kPrepareAck) && s.ok()) {
        s = Status::Unavailable("prepare ack from segment " +
                                std::to_string(seg_index) + " dropped");
      }
      return s;
    });
    // ANY prepare failure aborts the whole transaction — the caller's
    // AbortProtocol() sends ABORT to every reachable participant, including
    // those whose PREPARE succeeded.
    for (const Status& s : prepared) {
      GPHTAP_RETURN_IF_ERROR(s);
    }
    if (auto_prepare) {
      ++stats_.auto_prepares;
      m_.auto_prepares->Add(1);
    }

    // Prepare fsyncs are interruptible (the sleep is cut short once the
    // deadline passes, with the record already appended), so re-check the
    // deadline here — still strictly before the commit record, where aborting
    // is legal. The prepared participants roll back via AbortProtocol.
    if (owner_ != nullptr && owner_->DeadlineExpired(MonotonicMicros())) {
      Status timeout = Status::TimedOut("statement timeout during prepare");
      owner_->Cancel(timeout);
      return timeout;
    }

    // The distributed commit record is the commit point: from here the
    // transaction IS committed, and phase two is retried, never aborted.
    cluster_->CoordinatorCommitRecord(gxid_);

    // CommitSegmentWithRetry opens its own kCommitPreparedAck scope.
    std::vector<Status> committed = fanout([&](int seg_index) -> Status {
      return CommitSegmentWithRetry(seg_index, /*one_phase=*/false,
                                    /*piggyback_first=*/false);
    });
    Status worst = Status::OK();
    std::vector<int> unacked;
    for (size_t i = 0; i < committed.size(); ++i) {
      if (!committed[i].ok()) {
        worst = committed[i];
        unacked.push_back(participants[static_cast<size_t>(i)]);
      }
    }
    if (unacked.empty()) {
      cluster_->dtm().MarkCommitted(gxid_);
    } else {
      // The transaction is durably committed (the commit record exists), but
      // some participant never acked COMMIT PREPARED and may still hold it
      // *prepared*. It must stay in the distributed in-progress set —
      // invisible to every snapshot — until each such segment has a durable
      // outcome, or a concurrent scan would see the acked half only
      // (visibility defers to segment-local clog state once a snapshot says
      // "finished"). The dtx recovery daemon completes phase two in the
      // background, releases the locks still pinning the pre-images on those
      // segments, and then marks the transaction committed.
      cluster_->dtx_recovery().Enqueue(gxid_, owner_, unacked);
    }
    ++stats_.two_phase_commits;
    m_.two_phase->Add(1);
    if (!worst.ok()) {
      // Informational: the commit decision is durable, but an ack is still
      // outstanding. Clean up (keeping the unacked segments' locks for the
      // recovery daemon) so the session is usable.
      ReleaseLocksExcept(unacked);
      ++stats_.txns_committed;
      m_.committed->Add(1);
      ClearTxnState();
      return worst;
    }
  }

  ReleaseAllLocks();
  ++stats_.txns_committed;
  m_.committed->Add(1);
  ClearTxnState();
  return Status::OK();
}

void Session::AbortProtocol() {
  SimNet& net = cluster_->net();
  // Record the abort verdict on the coordinator FIRST: a segment recovering
  // concurrently resolves in-doubt prepared transactions by asking the
  // coordinator, and must not re-prepare one we are about to abort.
  cluster_->dtm().MarkAborted(gxid_);
  for (int seg_index : write_segments_) {
    Segment* seg = cluster_->segment(seg_index);
    auto pin = seg->Pin();
    if (!pin.ok()) continue;  // down: recovery aborts it via the coordinator
    net.Deliver(MsgKind::kAbort);
    seg->txns().Abort(gxid_);
    net.Deliver(MsgKind::kAbortAck);
  }
  ReleaseAllLocks();
  ++stats_.txns_aborted;
  m_.aborted->Add(1);
  ClearTxnState();
}

void Session::ReleaseAllLocks() { ReleaseLocksExcept({}); }

void Session::ReleaseLocksExcept(const std::vector<int>& keep_segments) {
  cluster_->coordinator_locks().ReleaseAll(*owner_);
  for (int i = 0; i < cluster_->num_segments(); ++i) {
    if (std::find(keep_segments.begin(), keep_segments.end(), i) !=
        keep_segments.end()) {
      // Still prepared there: the locks keep concurrent writers off the
      // pre-images until the dtx recovery daemon lands COMMIT PREPARED (a
      // lock-free write would branch the update chain and lose one delta).
      continue;
    }
    cluster_->segment(i)->locks().ReleaseAll(*owner_);
  }
}

void Session::ClearTxnState() {
  gxid_ = kInvalidGxid;
  info_->gxid.store(gxid_, std::memory_order_release);
  // The ambient wait context may still point at this owner; clear it before
  // the owner handle drops so no blocking point polls a dead pointer.
  if (WaitContext* cur = CurrentWaitContext()) cur->owner = nullptr;
  info_->deadline_us.store(0, std::memory_order_release);
  owner_.reset();
  write_segments_.clear();
  explicit_txn_ = false;
  txn_failed_ = false;
  if (admitted_) {
    group_->Leave();
    admitted_ = false;
  }
}

// ---------------------------------------------------------------------------
// Statement plumbing
// ---------------------------------------------------------------------------

template <typename Fn>
StatusOr<QueryResult> Session::RunStatement(Fn&& fn) {
  ++stats_.statements;
  m_.statements->Add(1);
  // only_if_absent: Execute() installs the context for the SQL path; direct
  // programmatic calls install it here.
  WaitContextGuard wait_guard(MakeWaitContext(), /*only_if_absent=*/true);
  info_->state.store(static_cast<int>(SessionState::kActive), std::memory_order_release);
  ScopeExit state_reset([this] {
    info_->state.store(static_cast<int>(in_txn() ? SessionState::kIdleInTransaction
                                                 : SessionState::kIdle),
                       std::memory_order_release);
  });
  bool implicit = !in_txn();
  // Re-arm the deadline for a statement inside an explicit transaction (the
  // timeout is per statement, measured from statement start) BEFORE admission
  // and lock acquisition; EnsureTxn arms a freshly created owner itself.
  ArmStatementDeadline();
  ScopeExit deadline_reset([this] { DisarmStatementDeadline(); });
  GPHTAP_RETURN_IF_ERROR(EnsureTxn());
  // The wait context was installed before the owner existed (first statement
  // of a transaction); patch the live one so blocking points see the owner.
  if (WaitContext* cur = CurrentWaitContext()) cur->owner = owner_.get();
  GPHTAP_RETURN_IF_ERROR(TakeStatementSnapshot());
  StatusOr<QueryResult> result = fn();
  if (!result.ok()) {
    // Errors abort the transaction right away, releasing every lock (as
    // PostgreSQL's AbortTransaction does); an explicit block additionally
    // rejects statements until the user ends it.
    AbortProtocol();
    if (!implicit) failed_block_ = true;
    if (result.status().code() == StatusCode::kTimedOut) {
      ++stats_.statement_timeouts;
      m_.stmt_timeouts->Add(1);
    }
    return result;
  }
  if (implicit) {
    implicit_commit_ = true;
    Status commit = Commit();
    implicit_commit_ = false;
    if (!commit.ok()) {
      if (commit.code() == StatusCode::kTimedOut) {
        ++stats_.statement_timeouts;
        m_.stmt_timeouts->Add(1);
      }
      return commit;
    }
  }
  return result;
}

StatusOr<QueryResult> Session::RunStatementErased(
    const std::function<StatusOr<QueryResult>()>& fn) {
  return RunStatement(fn);
}

template <typename Fn>
StatusOr<QueryResult> Session::RunReadOnlyStatement(Fn&& fn) {
  const ClusterOptions& opts = cluster_->options();
  // The retry budget shares the statement deadline: attempts stop once the
  // user's own timeout would have fired, whatever the attempt cap says.
  const int64_t overall_deadline =
      statement_timeout_us_ > 0 ? MonotonicMicros() + statement_timeout_us_ : 0;
  info_->retries.store(0, std::memory_order_release);
  int64_t backoff_us = opts.statement_retry_initial_backoff_us;
  for (int attempt = 1;; ++attempt) {
    bool was_implicit = !in_txn();
    StatusOr<QueryResult> result = fn();
    if (result.ok()) return result;
    // Only implicit (single-statement) read-only dispatches retry: a failure
    // inside an explicit block must surface (the block is failed), and writes
    // never reach this wrapper. kUnavailable means a segment crashed or a
    // failover is in flight — replanning against the recovered/promoted
    // cluster with a fresh snapshot is transparent to the client.
    if (!was_implicit || !IsRetryableStatementFailure(result.status())) return result;
    if (attempt >= opts.statement_retry_max_attempts) return result;
    if (overall_deadline != 0 && MonotonicMicros() >= overall_deadline) return result;
    ++stats_.statement_retries;
    m_.stmt_retries->Add(1);
    info_->retries.fetch_add(1, std::memory_order_acq_rel);
    // A shed response carries the producer's own backoff estimate (front-door
    // retry-after hint); never retry sooner than the producer asked.
    PreciseSleepUs(std::max(backoff_us, result.status().retry_after_us()));
    backoff_us = std::min(backoff_us * 2, opts.statement_retry_max_backoff_us);
  }
}

Status Session::EnsureSegmentWrite(Segment* seg) {
  if (write_segments_.count(seg->index())) return Status::OK();
  // Transaction lock: every writer holds ExclusiveLock on its own transaction
  // on that segment; blocked updaters take ShareLock on it (solid wait edges).
  // Acquiring our own transaction lock never blocks.
  GPHTAP_RETURN_IF_ERROR(seg->locks().Acquire(owner_, LockTag::Transaction(gxid_),
                                              LockMode::kExclusive));
  GPHTAP_RETURN_IF_ERROR(seg->txns().AssignXid(gxid_).status());
  write_segments_.insert(seg->index());
  return Status::OK();
}

Status Session::LockRelationCoordinator(const TableDef& def, LockMode mode) {
  return cluster_->coordinator_locks().Acquire(owner_, LockTag::Relation(def.id), mode);
}

Status Session::LockRelationSegment(Segment* seg, const TableDef& def, LockMode mode) {
  return seg->locks().Acquire(owner_, LockTag::Relation(def.id), mode);
}

// ---------------------------------------------------------------------------
// SELECT
// ---------------------------------------------------------------------------

PlannerOptions Session::MakePlannerOptions() {
  PlannerOptions popts;
  popts.num_segments = cluster_->num_segments();
  popts.use_orca = cluster_->options().use_orca;
  popts.direct_dispatch = cluster_->options().direct_dispatch_enabled;
  popts.vectorize =
      vectorize_override_.value_or(cluster_->options().vectorized_execution_enabled);
  // Delta-merged scans ride the vectorized engine: both switches must be on.
  popts.delta_store = cluster_->options().delta_store_enabled && popts.vectorize;
  popts.next_motion_id = [this] { return cluster_->NextMotionId(); };
  popts.table_dist = [this](TableId id) {
    Cluster::TableDistInfo d = cluster_->TableDist(id);
    return std::make_pair(d.dist_segments, d.rebalancing);
  };
  popts.row_estimate = [this](TableId id) -> uint64_t {
    Segment* seg0 = cluster_->segment(0);
    auto pin = seg0->Pin();
    if (!pin.ok()) return 1000;  // down: fall back to a default estimate
    Table* t = seg0->GetTable(id);
    if (t == nullptr) return 1000;
    return t->StoredVersionCount() * static_cast<uint64_t>(cluster_->num_segments()) + 1;
  };
  return popts;
}

Status Session::LockForRead(const std::vector<TableDef>& tables) {
  // System views are lock-free snapshots of live state — observing a stuck
  // cluster must not itself queue behind anything — and a function scan has
  // no relation to lock.
  for (const TableDef& t : tables) {
    if (t.is_system_view || t.is_function_scan) continue;
    GPHTAP_RETURN_IF_ERROR(LockRelationCoordinator(t, LockMode::kAccessShare));
  }
  return Status::OK();
}

StatusOr<QueryResult> Session::RunPlan(const CachedPlan& plan, bool keep_rows) {
  // Per-query distributed trace: a root "query" span on the coordinator;
  // ExecutePlan opens one child span per slice (coordinator + segments).
  std::shared_ptr<Trace> trace;
  uint64_t root_span = 0;
  WaitContext* cur = CurrentWaitContext();  // installed by RunStatement
  if (trace_enabled_ || cluster_->options().trace_queries) {
    trace = std::make_shared<Trace>(cluster_->NextTraceId());
    root_span = trace->StartSpan("query");
    last_trace_ = trace;
    // Coordinator-side waits during this query (locks, commit acks) become
    // wait-interval child spans of the root; ExecutePlan re-parents per
    // slice for the producer threads.
    record_.trace = trace.get();
    cur->parent_span = root_span;
  }

  // UPDATE / DELETE: every gang member answers with its affected count.
  const bool modify = plan.root->kind == PlanKind::kModifyTable;
  for (size_t i = 0; i < plan.gang.size(); ++i) cluster_->net().Deliver(MsgKind::kDispatch);
  auto mem = group_->NewMemoryAccount();
  QueryResult result;
  result.columns = plan.columns;
  QueryPlan qp;
  qp.root = plan.root;
  qp.gang = plan.gang;
  Status s = ExecutePlan(cluster_, qp, gxid_, owner_, snapshot_, group_.get(),
                         mem.get(), [&](Row&& row) -> Status {
                           if (modify) {
                             result.affected += row[0].int_val();
                             return Status::OK();
                           }
                           ++result.affected;
                           if (keep_rows) result.rows.push_back(std::move(row));
                           return Status::OK();
                         });
  // One result per member for a write, one gathered stream for a read.
  for (size_t i = 0; i < (modify ? plan.gang.size() : 1); ++i) {
    cluster_->net().Deliver(MsgKind::kResult);
  }
  if (trace) {
    if (s.ok()) {
      trace->EndSpan(root_span, result.affected);
    } else {
      // Aborted queries used to leak open spans (producers bail between
      // StartSpan and EndSpan); close them all and flag them aborted.
      trace->CloseOpenSpans(/*mark_aborted=*/true);
    }
    record_.trace = nullptr;
    cur->parent_span = 0;
    cluster_->RetainTrace(trace);
  }
  GPHTAP_RETURN_IF_ERROR(s);
  return result;
}

// Both stamp the catalog version before planning: a concurrent DDL landing
// mid-plan leaves the plan stale-stamped, so its next use re-plans.
StatusOr<std::shared_ptr<const CachedPlan>> Session::PlanQuery(const SelectQuery& query) {
  const uint64_t catalog_version = cluster_->catalog_version();
  GPHTAP_ASSIGN_OR_RETURN(CachedPlan plan, PlanSelect(query, MakePlannerOptions()));
  plan.catalog_version = catalog_version;
  return std::make_shared<const CachedPlan>(std::move(plan));
}

StatusOr<std::shared_ptr<const CachedPlan>> Session::PlanDml(
    const TableDef& def, const std::vector<std::pair<int, ExprPtr>>* sets,
    const ExprPtr& where) {
  const uint64_t catalog_version = cluster_->catalog_version();
  GPHTAP_ASSIGN_OR_RETURN(CachedPlan plan, PlanModify(def, sets, where, MakePlannerOptions()));
  plan.catalog_version = catalog_version;
  return std::make_shared<const CachedPlan>(std::move(plan));
}

StatusOr<QueryResult> Session::ExecuteSelect(const SelectQuery& query,
                                             const std::string* cache_sql) {
  return RunSelect(query, cache_sql, /*analyze=*/false);
}

StatusOr<QueryResult> Session::RunSelect(const SelectQuery& query,
                                         const std::string* cache_sql, bool analyze) {
  return RunReadOnlyStatement([&] {
    return RunStatement([&]() -> StatusOr<QueryResult> {
      GPHTAP_RETURN_IF_ERROR(LockForRead(query.tables));
      GPHTAP_ASSIGN_OR_RETURN(std::shared_ptr<const CachedPlan> plan, PlanQuery(query));
      if (analyze) return RunAnalyzed(*plan);
      if (cache_sql != nullptr && PlanCacheEligible()) {
        cluster_->plan_cache().Insert(*cache_sql, plan);
      }
      return RunPlan(*plan, /*keep_rows=*/true);
    });
  });
}

StatusOr<QueryResult> Session::ExecuteCachedPlan(
    std::shared_ptr<const CachedPlan> plan) {
  return RunReadOnlyStatement([&] {
    return RunStatement([&]() -> StatusOr<QueryResult> {
      // Same parse-analyze locks a fresh plan would take; the plan tree itself
      // is immutable shared state.
      GPHTAP_RETURN_IF_ERROR(LockForRead(plan->tables));
      return RunPlan(*plan, /*keep_rows=*/true);
    });
  });
}

namespace {

// EXPLAIN's first line: the gang the leaf slices dispatch to.
std::string GangLine(const std::vector<int>& gang) {
  std::string line = "gang: segments {";
  for (size_t i = 0; i < gang.size(); ++i) {
    if (i) line += ",";
    line += std::to_string(gang[i]);
  }
  line += gang.size() == 1 ? "}  (direct dispatch)" : "}";
  return line;
}

// What EXPLAIN ANALYZE measured for `node`: rows, loops and time inclusive of
// children (push-model pipeline), summed across gang members.
std::string ActualsText(const PlanNode& node, const OperatorActuals& os) {
  std::string line;
  // A labeled scan's batch count rides directly on the store label
  // ("store=delta-merged (vectorized) batches=12"), answering which engine
  // served the scan and how in one glance.
  bool store_batches = os.batches > 0 && !node.scan_store.empty();
  if (store_batches) line += " batches=" + std::to_string(os.batches);
  char buf[128];
  if (os.batches > 0 && !store_batches) {
    std::snprintf(buf, sizeof(buf), "  (actual rows=%lld batches=%lld loops=%lld time=%.3f ms)",
                  static_cast<long long>(os.rows), static_cast<long long>(os.batches),
                  static_cast<long long>(os.executions),
                  static_cast<double>(os.total_time_us) / 1000.0);
  } else {
    std::snprintf(buf, sizeof(buf), "  (actual rows=%lld loops=%lld time=%.3f ms)",
                  static_cast<long long>(os.rows), static_cast<long long>(os.executions),
                  static_cast<double>(os.total_time_us) / 1000.0);
  }
  line += buf;
  if (!os.store_rows.empty()) {
    // Visible rows the scan drew from each physical store, pre-filter.
    line += "  (stores:";
    for (const auto& [store, n] : os.store_rows) line += " " + store + "=" + std::to_string(n);
    line += ")";
  }
  if (node.kind == PlanKind::kMotion) {
    // Time spent blocked on the exchange, reported separately from the
    // inclusive operator time: send = producers on a full queue, recv =
    // consumers on an empty one.
    std::snprintf(buf, sizeof(buf), "  (motion wait: send=%.3f ms recv=%.3f ms)",
                  static_cast<double>(os.send_wait_us) / 1000.0,
                  static_cast<double>(os.recv_wait_us) / 1000.0);
    line += buf;
  }
  return line;
}

// EXPLAIN output: the gang line, then one line per plan node in pre-order,
// each annotated with its actuals under EXPLAIN ANALYZE (`actuals` set).
QueryResult RenderPlan(const std::vector<int>& gang, const PlanNode& root,
                       const StatementRecord* actuals) {
  QueryResult result;
  result.columns = {"QUERY PLAN"};
  result.rows.push_back(Row{Datum(GangLine(gang))});
  auto emit = [&](auto&& self, const PlanNode& node, int indent) -> void {
    std::string text = node.ToString(indent);
    std::string line = text.substr(0, text.find('\n'));
    if (actuals != nullptr) line += ActualsText(node, actuals->Operator(node.node_id));
    result.rows.push_back(Row{Datum(line)});
    for (const auto& child : node.children) self(self, *child, indent + 1);
  };
  emit(emit, root, 0);
  result.affected = static_cast<int64_t>(result.rows.size());
  return result;
}

}  // namespace

StatusOr<QueryResult> Session::ExplainSelect(const SelectQuery& query, bool analyze) {
  if (analyze) return RunSelect(query, nullptr, /*analyze=*/true);
  GPHTAP_ASSIGN_OR_RETURN(std::shared_ptr<const CachedPlan> plan, PlanQuery(query));
  return RenderPlan(plan->gang, *plan->root, nullptr);
}

StatusOr<QueryResult> Session::ExplainModify(
    const TableDef& def, const std::vector<std::pair<int, ExprPtr>>* sets,
    const ExprPtr& where, bool analyze) {
  if (analyze) return ExecuteDml(def, [&] { return PlanDml(def, sets, where); }, true);
  GPHTAP_ASSIGN_OR_RETURN(std::shared_ptr<const CachedPlan> plan, PlanDml(def, sets, where));
  return RenderPlan(plan->gang, *plan->root, nullptr);
}

StatusOr<QueryResult> Session::RunAnalyzed(const CachedPlan& plan) {
  record_.BeginAnalyze();
  Stopwatch sw;
  StatusOr<QueryResult> run = RunPlan(plan, /*keep_rows=*/false);
  const int64_t total_us = sw.ElapsedMicros();
  record_.analyze = false;
  GPHTAP_RETURN_IF_ERROR(run.status());

  QueryResult result = RenderPlan(plan.gang, *plan.root, &record_);
  char total[64];
  std::snprintf(total, sizeof(total), "Execution time: %.3f ms (%lld rows)",
                static_cast<double>(total_us) / 1000.0,
                static_cast<long long>(run->affected));
  result.rows.push_back(Row{Datum(std::string(total))});
  result.affected = static_cast<int64_t>(result.rows.size());
  return result;
}

// ---------------------------------------------------------------------------
// INSERT
// ---------------------------------------------------------------------------

int Session::RouteInsert(const TableDef& def, const Row& row,
                         const Cluster::TableDistInfo& dist) {
  // Partitions with external leaves live on segment 0 only.
  if (def.partitions.has_value()) {
    const Datum& key = row[static_cast<size_t>(def.partitions->partition_col)];
    int leaf = def.partitions->RouteValue(key);
    if (leaf >= 0 &&
        def.partitions->ranges[static_cast<size_t>(leaf)].storage ==
            StorageKind::kExternal) {
      return 0;
    }
  }
  if (def.storage == StorageKind::kExternal) return 0;
  // Routing modulus is the table's own span (fresh from the catalog — the
  // session's cached def can be stale across a rebalance cutover), not the
  // live segment count: rows must keep landing where readers look for them
  // until a rebalance widens the span.
  int modulus = dist.dist_segments;
  if (modulus <= 0 || modulus > cluster_->num_segments()) {
    modulus = cluster_->num_segments();
  }
  switch (def.distribution.kind) {
    case DistributionKind::kHash:
      return Cluster::SegmentForHash(HashRowKey(row, def.distribution.key_cols),
                                     modulus);
    case DistributionKind::kRandom:
      return static_cast<int>(insert_round_robin_++ %
                              static_cast<uint64_t>(modulus));
    case DistributionKind::kReplicated:
      return -1;  // every segment carrying a copy
  }
  return 0;
}

StatusOr<QueryResult> Session::ExecuteInsert(const TableDef& def,
                                             const std::vector<Row>& rows) {
  return RunStatement([&]() -> StatusOr<QueryResult> {
    GPHTAP_RETURN_IF_ERROR(LockRelationCoordinator(def, LockMode::kRowExclusive));
    return InsertRows(def, rows);
  });
}

StatusOr<QueryResult> Session::ExecuteInsertSelect(const TableDef& def,
                                                   const std::vector<int>& positions,
                                                   const PlanSupplier& select) {
  return RunStatement([&]() -> StatusOr<QueryResult> {
    GPHTAP_RETURN_IF_ERROR(LockRelationCoordinator(def, LockMode::kRowExclusive));
    GPHTAP_ASSIGN_OR_RETURN(std::shared_ptr<const CachedPlan> plan, select());
    GPHTAP_RETURN_IF_ERROR(LockForRead(plan->tables));
    GPHTAP_ASSIGN_OR_RETURN(QueryResult selected, RunPlan(*plan, /*keep_rows=*/true));
    for (Row& row : selected.rows) {
      Row full(def.schema.num_columns(), Datum::Null());
      for (size_t i = 0; i < positions.size(); ++i) {
        full[static_cast<size_t>(positions[i])] = std::move(row[i]);
      }
      row = std::move(full);
    }
    return InsertRows(def, selected.rows);
  });
}

StatusOr<QueryResult> Session::InsertRows(const TableDef& def, const std::vector<Row>& rows) {
  // Bucket rows per target segment, then dispatch per segment. Distribution
  // info comes fresh from the catalog (under the coordinator relation lock,
  // so a concurrent rebalance cutover — which takes AccessExclusive —
  // cannot move the span mid-statement).
  Cluster::TableDistInfo dist = cluster_->TableDist(def.id);
  int replicated_span = dist.dist_segments;
  if (replicated_span <= 0 || replicated_span > cluster_->num_segments() ||
      dist.rebalancing) {
    // Mid-expansion, replicated writes fan to every serving segment so the
    // new copies never miss a row.
    replicated_span = cluster_->num_segments();
  }
  // A row with an int bound for a double column goes in as a widened copy
  // (widening keeps its hash and partition); anything still mistyped fails
  // before any segment sees it. Well-typed rows, a bulk load's, are not
  // copied.
  std::deque<Row> widened;
  std::map<int, std::vector<const Row*>> buckets;
  for (const Row& given : rows) {
    const Row* row = &given;
    if (!def.schema.CheckRow(given).ok()) {
      Row& copy = widened.emplace_back(given);
      def.schema.CoerceRow(&copy);
      GPHTAP_RETURN_IF_ERROR(def.schema.CheckRow(copy));
      row = &copy;
    }
    int target = RouteInsert(def, *row, dist);
    if (target < 0) {
      for (int s = 0; s < replicated_span; ++s) buckets[s].push_back(row);
    } else {
      buckets[target].push_back(row);
    }
  }

  int64_t inserted = 0;
  for (auto& [seg_index, seg_rows] : buckets) {
    // The per-segment apply is this statement's "slice": charged to the
    // record so DML shows exec CPU and per-segment skew in
    // gp_stat_statements just like gang-dispatched reads do.
    StatementRecord::SliceScope charge(&record_);
    Segment* seg = cluster_->segment(seg_index);
    cluster_->net().Deliver(MsgKind::kDispatch);
    GPHTAP_ASSIGN_OR_RETURN(SegmentPin pin, seg->Pin());
    GPHTAP_RETURN_IF_ERROR(LockRelationSegment(seg, def, LockMode::kRowExclusive));
    GPHTAP_RETURN_IF_ERROR(EnsureSegmentWrite(seg));
    Table* table = seg->GetTable(def.id);
    if (table == nullptr) return Status::NotFound("table missing on segment");
    GPHTAP_ASSIGN_OR_RETURN(LocalXid xid, seg->txns().AssignXid(gxid_));
    for (const Row* row : seg_rows) {
      GPHTAP_ASSIGN_OR_RETURN(TupleId tid, table->Insert(xid, *row));
      (void)tid;
      ++inserted;
    }
    cluster_->net().Deliver(MsgKind::kResult);
  }
  QueryResult r;
  r.affected = def.distribution.kind == DistributionKind::kReplicated
                   ? static_cast<int64_t>(rows.size())
                   : inserted;
  return r;
}

// ---------------------------------------------------------------------------
// UPDATE / DELETE
// ---------------------------------------------------------------------------

StatusOr<QueryResult> Session::ExecuteUpdate(
    const TableDef& def, const std::vector<std::pair<int, ExprPtr>>& sets,
    const ExprPtr& where) {
  return ExecuteDml(def, [&] { return PlanDml(def, &sets, where); });
}

StatusOr<QueryResult> Session::ExecuteDelete(const TableDef& def, const ExprPtr& where) {
  return ExecuteDml(def, [&] { return PlanDml(def, nullptr, where); });
}

StatusOr<QueryResult> Session::ExecuteDml(const TableDef& def, const PlanSupplier& supply,
                                          bool analyze) {
  return RunStatement([&]() -> StatusOr<QueryResult> {
    // The pre-GDD locking regime serializes writers on the whole relation;
    // append-optimized tables keep the ExclusiveLock even under GDD (as in
    // Greenplum: the visibility map is not safe for concurrent writers).
    LockMode mode = cluster_->options().gdd_enabled && !def.append_optimized()
                        ? LockMode::kRowExclusive
                        : LockMode::kExclusive;
    GPHTAP_RETURN_IF_ERROR(LockRelationCoordinator(def, mode));
    // Lock-then-rescan (read committed): the statement snapshot predates the
    // lock wait, so a rebalance cutover that committed while we queued would
    // leave the old-home versions visible but committed-dead — the write
    // would silently match zero rows. Re-snapshot now that the lock is held,
    // and only then take the plan, whose gang the cutover may have moved.
    GPHTAP_RETURN_IF_ERROR(TakeStatementSnapshot());
    GPHTAP_ASSIGN_OR_RETURN(std::shared_ptr<const CachedPlan> plan, supply());
    // Every gang member is a write participant. Registering one takes our own
    // transaction lock and assigns the local xid, neither of which blocks, so
    // it happens here, one segment after another, before dispatch.
    for (int seg_index : plan->gang) {
      GPHTAP_ASSIGN_OR_RETURN(SegmentPin pin, cluster_->PinSegment(seg_index));
      GPHTAP_RETURN_IF_ERROR(EnsureSegmentWrite(cluster_->segment(seg_index)));
    }
    return analyze ? RunAnalyzed(*plan) : RunPlan(*plan, /*keep_rows=*/false);
  });
}

// ---------------------------------------------------------------------------
// LOCK TABLE / VACUUM
// ---------------------------------------------------------------------------

Status Session::LockTable(const TableDef& def, LockMode mode) {
  ++stats_.statements;
  m_.statements->Add(1);
  WaitContextGuard wait_guard(MakeWaitContext(), /*only_if_absent=*/true);
  info_->state.store(static_cast<int>(SessionState::kActive), std::memory_order_release);
  ScopeExit state_reset([this] {
    info_->state.store(static_cast<int>(in_txn() ? SessionState::kIdleInTransaction
                                                 : SessionState::kIdle),
                       std::memory_order_release);
  });
  GPHTAP_RETURN_IF_ERROR(EnsureTxn());
  // LOCK TABLE only makes sense inside an explicit transaction (locks are
  // released at commit); we allow it implicitly too for symmetry.
  GPHTAP_RETURN_IF_ERROR(LockRelationCoordinator(def, mode));
  for (int i = 0; i < cluster_->num_segments(); ++i) {
    Segment* seg = cluster_->segment(i);
    auto pin = seg->Pin();
    if (!pin.ok()) {
      txn_failed_ = true;
      return pin.status();
    }
    Status s = seg->locks().Acquire(owner_, LockTag::Relation(def.id), mode);
    if (!s.ok()) {
      txn_failed_ = true;
      return s;
    }
  }
  if (!explicit_txn_) {
    return Commit();
  }
  return Status::OK();
}

StatusOr<QueryResult> Session::ExecuteVacuum(const TableDef& def) {
  return RunStatement([&]() -> StatusOr<QueryResult> {
    GPHTAP_RETURN_IF_ERROR(
        LockRelationCoordinator(def, LockMode::kShareUpdateExclusive));
    ProgressRegistry::Handle progress =
        cluster_->progress().Begin(ProgressOp::kVacuum, def.name);
    progress.SetTotal(cluster_->num_segments());
    int64_t reclaimed = 0;
    for (int i = 0; i < cluster_->num_segments(); ++i) {
      progress.SetNode(i);
      Segment* seg = cluster_->segment(i);
      GPHTAP_ASSIGN_OR_RETURN(SegmentPin pin, seg->Pin());
      GPHTAP_RETURN_IF_ERROR(
          LockRelationSegment(seg, def, LockMode::kShareUpdateExclusive));
      Table* table = seg->GetTable(def.id);
      if (table == nullptr) {
        progress.Advance();
        continue;
      }
      auto* heap = dynamic_cast<HeapTable*>(table);
      if (heap == nullptr) {
        // Append-optimized: free all-dead sealed groups, then compact
        // dead-heavy ones by rewriting their live rows into the open tail.
        progress.SetPhase("ao-reclaim");
        GPHTAP_RETURN_IF_ERROR(
            VacuumAppendOptimizedSegment(seg, table, &reclaimed));
        progress.Advance();
        continue;
      }
      progress.SetPhase("heap");
      // A deleted version is reclaimable only when every live distributed
      // snapshot already sees the deletion: read-only sessions never acquire a
      // local xid here, so the local running set alone is NOT a safe horizon.
      Gxid oldest_gxid = cluster_->dtm().OldestVisibleGxid();
      reclaimed += static_cast<int64_t>(
          heap->Vacuum([&](LocalXid xmax) {
            auto gxid = seg->dlog().Lookup(xmax);
            // Mapping truncated => the deleter predates every live snapshot.
            return !gxid.has_value() || *gxid < oldest_gxid;
          }));
      progress.Advance();
    }
    QueryResult r;
    r.affected = reclaimed;
    return r;
  });
}

StatusOr<QueryResult> Session::ExecuteTruncate(const TableDef& def) {
  return RunStatement([&]() -> StatusOr<QueryResult> {
    GPHTAP_RETURN_IF_ERROR(LockRelationCoordinator(def, LockMode::kAccessExclusive));
    for (int i = 0; i < cluster_->num_segments(); ++i) {
      Segment* seg = cluster_->segment(i);
      GPHTAP_ASSIGN_OR_RETURN(SegmentPin pin, seg->Pin());
      GPHTAP_RETURN_IF_ERROR(
          LockRelationSegment(seg, def, LockMode::kAccessExclusive));
      Table* table = seg->GetTable(def.id);
      if (table != nullptr) GPHTAP_RETURN_IF_ERROR(table->Truncate());
    }
    return QueryResult{};
  });
}

StatusOr<QueryResult> Session::Execute(const std::string& sql) {
  // Install the wait context for the whole statement (parse through commit)
  // and publish the query text for gp_stat_activity. It replaces the empty
  // context a front-door worker inherits from the gang runner.
  WaitContextGuard wait_guard(MakeWaitContext());
  record_.Reset();
  // Per-statement retry count: RunReadOnlyStatement resets it too, but write
  // statements never pass through there and must not inherit the previous
  // statement's count.
  info_->retries.store(0, std::memory_order_relaxed);
  info_->SetStrings(nullptr, nullptr, &sql);
  const int64_t threshold_us = cluster_->options().slow_query_threshold_us;
  const bool stats_enabled = cluster_->options().stats_enabled;
  Stopwatch sw;
  auto result = sql_driver::ExecuteSql(this, sql);
  const int64_t elapsed_us = sw.ElapsedMicros();
  const uint64_t retries = info_->retries.load(std::memory_order_relaxed);
  const bool slow = threshold_us > 0 && elapsed_us >= threshold_us;
  std::string fingerprint;
  if (stats_enabled || slow) {
    // EXECUTE of a prepared statement set an override so it accumulates under
    // the prepared text, not under "execute name($1)".
    fingerprint = !record_.fingerprint.empty() ? record_.fingerprint : FingerprintSql(sql);
  }
  if (stats_enabled) {
    StatementOutcome outcome;
    outcome.ok = result.ok();
    outcome.timed_out = !result.ok() && result.status().code() == StatusCode::kTimedOut;
    outcome.retries = retries;
    // Writes report affected rows; reads report returned rows.
    if (result.ok()) {
      outcome.rows = result->affected > 0 ? static_cast<uint64_t>(result->affected)
                                          : result->rows.size();
    }
    outcome.elapsed_us = elapsed_us;
    cluster_->statement_stats().Record(fingerprint, record_, outcome);
  }
  if (slow) {
    std::vector<SlowQueryLog::WaitItem> waits;
    for (const StatementRecord::Wait& w : record_.TopWaits(3)) {
      waits.push_back({std::string(WaitEventClassName(ClassOfEvent(w.event))) + ":" +
                           WaitEventName(w.event),
                       w.count, w.total_us});
    }
    cluster_->slow_query_log().Record(sql, elapsed_us, MonotonicMicros(),
                                      std::move(waits), fingerprint,
                                      record_.plan_cache_hit, retries);
  }
  // Errors that never reached the statement executor (parse/analyze time)
  // still abort an open explicit transaction, PostgreSQL-style.
  if (!result.ok() && in_txn()) {
    AbortProtocol();
    failed_block_ = true;
  }
  return result;
}

}  // namespace gphtap
