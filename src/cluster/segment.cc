#include "cluster/segment.h"

#include <algorithm>
#include <map>
#include <utility>

#include "storage/replay.h"

namespace gphtap {

Status Segment::Crash() {
  // try_lock, not lock: Crash() must never block (it is called from under
  // service pins), and if recovery holds the mutex the segment is already down
  // — crashing it again is a no-op.
  std::unique_lock<std::mutex> state(state_mu_, std::try_to_lock);
  if (!state.owns_lock() || !up()) return Status::OK();
  // Blocked lock waiters would otherwise sit until their timeout; a crashed
  // node answers nobody. Cancel them (and poison the table against late
  // arrivals) with a retryable error so their sessions abort promptly. Granted
  // locks die with the lock table in Recover(). This happens BEFORE the segment
  // is observably down: once up() is false a concurrent Recover() may start,
  // and it must not race with the teardown here.
  locks_.CancelAllWaiters(Status::Unavailable(
      "segment " + std::to_string(index_) + " crashed while transaction waited"));
  up_.store(false, std::memory_order_release);
  return Status::OK();
}

Status Segment::Recover(const std::vector<TableDef>& defs, const InDoubtResolver& resolver) {
  std::lock_guard<std::mutex> state(state_mu_);
  if (up()) {
    return Status::Internal("segment " + std::to_string(index_) +
                            ": Recover() on a segment that is up");
  }
  if (change_log_ == nullptr) {
    return Status::NotSupported("segment " + std::to_string(index_) +
                                ": recovery requires a change log "
                                "(Segment::Options::keep_change_log)");
  }
  // Drain in-flight pinned requests; new ones fail fast on the up_ check.
  std::unique_lock<std::shared_mutex> service(service_mu_);

  // --- Tear down all volatile state. ---
  {
    std::unique_lock<std::shared_mutex> g(tables_mu_);
    tables_.clear();
  }
  clog_.Reset();
  dlog_.Reset();
  locks_.Reset();

  // --- Recreate the schema, detached from the change log so replay does not
  // re-append history. Partitioned roots come back empty: leaf routing is not
  // in the log (documented data loss, matching the mirroring limitation). ---
  {
    std::unique_lock<std::shared_mutex> g(tables_mu_);
    for (const TableDef& def : defs) {
      tables_[def.id] = gphtap::CreateTable(def, &clog_, &pool_);
    }
  }

  // --- Replay the log: transaction records rebuild the transaction states,
  // data records the tables. Read up to the size at entry: resolution below
  // appends records that must not be replayed into the tables being rebuilt.
  struct TxnInfo {
    Gxid gxid = kInvalidGxid;
    TxnState state = TxnState::kInProgress;
  };
  std::map<LocalXid, TxnInfo> txns;
  const size_t end = change_log_->size();
  for (size_t pos = 0; pos < end; ++pos) {
    const ChangeRecord& rec = change_log_->At(pos);
    switch (rec.kind) {
      case ChangeKind::kTxnBegin:
        txns[rec.xid] = TxnInfo{rec.gxid, TxnState::kInProgress};
        break;
      case ChangeKind::kTxnPrepare:
        txns[rec.xid].state = TxnState::kPrepared;
        break;
      case ChangeKind::kTxnCommit:
        txns[rec.xid].state = TxnState::kCommitted;
        break;
      case ChangeKind::kTxnAbort:
        txns[rec.xid].state = TxnState::kAborted;
        break;
      default:
        // No table: a dropped table or a partitioned root.
        if (Table* table = GetTable(rec.table)) {
          GPHTAP_RETURN_IF_ERROR(ApplyDataChange(table, rec));
        }
        break;
    }
  }
  const LocalXid max_xid = txns.empty() ? 0 : txns.rbegin()->first;

  // --- Install transaction states and resolve what the log left open. ---
  std::vector<std::pair<Gxid, LocalXid>> reinstated;
  std::unordered_map<Gxid, TxnState> finished;
  auto finish = [&](LocalXid xid, Gxid gxid, TxnState state) {
    txns_.LogOutcome(xid, gxid, state);
    clog_.SetState(xid, state);
    if (gxid != kInvalidGxid) finished[gxid] = state;
  };
  for (const auto& [xid, info] : txns) {
    clog_.Register(xid);
    clog_.SetState(xid, info.state);
    if (info.gxid != kInvalidGxid) dlog_.Record(xid, info.gxid);
    switch (info.state) {
      case TxnState::kPrepared: {
        InDoubtDecision d =
            info.gxid != kInvalidGxid ? resolver(info.gxid) : InDoubtDecision::kAbort;
        if (d == InDoubtDecision::kCommit) {
          finish(xid, info.gxid, TxnState::kCommitted);
        } else if (d == InDoubtDecision::kAbort) {
          finish(xid, info.gxid, TxnState::kAborted);
        } else {
          reinstated.emplace_back(info.gxid, xid);
        }
        break;
      }
      case TxnState::kInProgress:
        // Volatile state (including any not-yet-prepared writes' fate) died
        // with the crash: the transaction aborts, as in PostgreSQL recovery.
        finish(xid, info.gxid, TxnState::kAborted);
        break;
      case TxnState::kCommitted:
      case TxnState::kAborted:
        break;  // already final
    }
  }
  txns_.ResetForRecovery(max_xid + 1, reinstated, std::move(finished));

  // --- Reconnect the change log and reopen for service. ---
  {
    std::unique_lock<std::shared_mutex> g(tables_mu_);
    for (const TableDef& def : defs) {
      auto it = tables_.find(def.id);
      if (it != tables_.end() && !def.partitions.has_value()) {
        it->second->SetChangeLog(change_log_.get());
      }
    }
  }
  up_.store(true, std::memory_order_release);
  return Status::OK();
}

}  // namespace gphtap
