#include "txn/local_txn_manager.h"

namespace gphtap {

StatusOr<LocalXid> LocalTxnManager::AssignXid(Gxid gxid) {
  std::lock_guard<std::mutex> g(mu_);
  auto it = active_.find(gxid);
  if (it != active_.end()) return it->second;
  // A distributed transaction that crash recovery already finished here must
  // not restart. Its previous incarnation's writes were aborted when the
  // segment went down (they were only in-progress in the log), and the
  // coordinator does not know: if a later statement of the same transaction
  // were handed a fresh local xid, PREPARE/COMMIT would see a perfectly
  // healthy participant and commit the transaction with its earlier
  // statements' effects missing — a torn, half-applied transaction. The
  // statement must fail instead (the PostgreSQL analog: the gang's segment
  // backend died, so the whole transaction aborts).
  if (recovered_finished_.count(gxid) > 0) {
    return Status::Aborted("distributed txn " + std::to_string(gxid) +
                           " lost its local transaction in a segment crash");
  }
  LocalXid xid = next_xid_++;
  active_[gxid] = xid;
  running_local_[xid] = gxid;
  clog_->Register(xid);
  dlog_->Record(xid, gxid);
  Log(ChangeKind::kTxnBegin, xid, gxid);
  return xid;
}

std::optional<LocalXid> LocalTxnManager::LookupXid(Gxid gxid) const {
  std::lock_guard<std::mutex> g(mu_);
  auto it = active_.find(gxid);
  if (it == active_.end()) return std::nullopt;
  return it->second;
}

std::optional<Gxid> LocalTxnManager::GxidOfRunning(LocalXid xid) const {
  std::lock_guard<std::mutex> g(mu_);
  auto it = running_local_.find(xid);
  if (it == running_local_.end()) return std::nullopt;
  return it->second;
}

LocalSnapshot LocalTxnManager::TakeLocalSnapshot() const {
  std::lock_guard<std::mutex> g(mu_);
  LocalSnapshot snap;
  snap.xmax = next_xid_;
  snap.xmin = running_local_.empty() ? next_xid_ : running_local_.begin()->first;
  snap.in_progress.reserve(running_local_.size());
  for (const auto& [xid, gxid] : running_local_) snap.in_progress.push_back(xid);
  return snap;
}

Status LocalTxnManager::Prepare(Gxid gxid) {
  std::unique_lock<std::mutex> g(mu_);
  auto it = active_.find(gxid);
  if (it == active_.end()) {
    // Volatile state for this transaction is gone — it was lost in a crash
    // (recovery aborted it) or never wrote here. Either way it cannot prepare.
    return Status::Aborted("PREPARE for unknown distributed txn " + std::to_string(gxid) +
                           " (state lost in segment crash?)");
  }
  LocalXid xid = it->second;
  g.unlock();
  // The record and its fsync happen outside the manager mutex: prepare
  // latency must not block unrelated snapshots.
  Log(ChangeKind::kTxnPrepare, xid, gxid);
  wal_->Sync(Wal::SyncKind::kPrepare);
  clog_->SetState(xid, TxnState::kPrepared);
  return Status::OK();
}

Status LocalTxnManager::Finish(Gxid gxid, TxnState final_state) {
  std::unique_lock<std::mutex> g(mu_);
  auto it = active_.find(gxid);
  if (it == active_.end()) {
    // Crash recovery may already have resolved this transaction from the log
    // (and the coordinator's commit record). A retried commit for a
    // recovery-committed transaction is an idempotent OK; a commit for a
    // recovery-aborted transaction must report the loss, never pretend success.
    auto rit = recovered_finished_.find(gxid);
    if (rit != recovered_finished_.end()) {
      if (rit->second == final_state) return Status::OK();
      if (final_state == TxnState::kCommitted) {
        return Status::Aborted("distributed txn " + std::to_string(gxid) +
                               " was aborted during crash recovery");
      }
      return Status::OK();  // abort of a recovery-committed txn: caller's cleanup no-op
    }
    // A transaction that never wrote here has nothing to finish.
    return Status::OK();
  }
  LocalXid xid = it->second;
  g.unlock();
  // As in PostgreSQL: the record is durable before the outcome is visible.
  LogOutcome(xid, gxid, final_state);
  g.lock();
  // State flip and removal from the running set are atomic with respect to
  // TakeLocalSnapshot (both under mu_), so a snapshot never sees a committed
  // xid as still running.
  clog_->SetState(xid, final_state);
  active_.erase(gxid);
  running_local_.erase(xid);
  return Status::OK();
}

Status LocalTxnManager::CommitPrepared(Gxid gxid) {
  return Finish(gxid, TxnState::kCommitted);
}

Status LocalTxnManager::Commit(Gxid gxid) { return Finish(gxid, TxnState::kCommitted); }

Status LocalTxnManager::Abort(Gxid gxid) { return Finish(gxid, TxnState::kAborted); }

void LocalTxnManager::LogOutcome(LocalXid xid, Gxid gxid, TxnState final_state) {
  const bool commit = final_state == TxnState::kCommitted;
  Log(commit ? ChangeKind::kTxnCommit : ChangeKind::kTxnAbort, xid, gxid);
  if (commit) wal_->Sync(Wal::SyncKind::kCommit);
}

void LocalTxnManager::Log(ChangeKind kind, LocalXid xid, Gxid gxid) {
  if (change_log_ == nullptr) return;
  change_log_->Append(
      ChangeRecord{kind, 0, kInvalidTupleId, kInvalidTupleId, xid, {}, gxid});
}

bool LocalTxnManager::HasWritten(Gxid gxid) const {
  std::lock_guard<std::mutex> g(mu_);
  return active_.count(gxid) > 0;
}

size_t LocalTxnManager::NumRunning() const {
  std::lock_guard<std::mutex> g(mu_);
  return running_local_.size();
}

void LocalTxnManager::ResetForRecovery(
    LocalXid next_xid,
    const std::vector<std::pair<Gxid, LocalXid>>& reinstated_prepared,
    std::unordered_map<Gxid, TxnState> finished) {
  std::lock_guard<std::mutex> g(mu_);
  active_.clear();
  running_local_.clear();
  next_xid_ = next_xid;
  for (const auto& [gxid, xid] : reinstated_prepared) {
    active_[gxid] = xid;
    running_local_[xid] = gxid;
  }
  // Merge (keep earlier recoveries' verdicts; a double crash must not forget).
  for (auto& [gxid, state] : finished) recovered_finished_.emplace(gxid, state);
}

}  // namespace gphtap
