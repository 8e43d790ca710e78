// Per-segment transaction bookkeeping: local xid assignment, in-progress set,
// local snapshots, and the local side of commit protocols.
#ifndef GPHTAP_TXN_LOCAL_TXN_MANAGER_H_
#define GPHTAP_TXN_LOCAL_TXN_MANAGER_H_

#include <map>
#include <mutex>
#include <optional>
#include <set>
#include <unordered_map>
#include <utility>
#include <vector>

#include "common/status.h"
#include "storage/change_log.h"
#include "txn/clog.h"
#include "txn/distributed_log.h"
#include "txn/snapshot.h"
#include "txn/wal.h"
#include "txn/xid.h"

namespace gphtap {

/// One per segment (and one on the coordinator for its own writes).
/// Thread-safe.
class LocalTxnManager {
 public:
  LocalTxnManager(CommitLog* clog, DistributedLog* dlog, Wal* wal)
      : clog_(clog), dlog_(dlog), wal_(wal) {}

  /// Returns the local xid of `gxid` on this node, assigning one on first use
  /// (i.e., when the distributed transaction first writes here). Records the
  /// local->distributed mapping. Fails with kAborted when `gxid` already had a
  /// local transaction here that crash recovery finished: its earlier writes
  /// died with the crash, and silently opening a fresh local xid would let the
  /// distributed transaction commit a torn subset of its statements.
  StatusOr<LocalXid> AssignXid(Gxid gxid);

  /// The local xid already assigned to `gxid`, if any.
  std::optional<LocalXid> LookupXid(Gxid gxid) const;

  /// The distributed xid of a *running* local transaction (used to translate
  /// tuple xmax values into lock-wait targets). nullopt once it finished.
  std::optional<Gxid> GxidOfRunning(LocalXid xid) const;

  /// PostgreSQL-style local snapshot of this node.
  LocalSnapshot TakeLocalSnapshot() const;

  /// 2PC phase one: durably records PREPARE. The transaction stays in-progress.
  Status Prepare(Gxid gxid);
  /// 2PC phase two.
  Status CommitPrepared(Gxid gxid);
  /// One-phase or local commit.
  Status Commit(Gxid gxid);
  /// Rolls back; also valid after Prepare (2PC abort path).
  Status Abort(Gxid gxid);

  /// True if the transaction obtained a local xid here (i.e., wrote here).
  bool HasWritten(Gxid gxid) const;

  /// Number of local transactions currently in progress.
  size_t NumRunning() const;

  /// Records that local transaction `xid` committed or aborted, synced when
  /// it committed. Finishing a transaction writes it, and so does crash
  /// recovery when it decides a transaction the log left open.
  void LogOutcome(LocalXid xid, Gxid gxid, TxnState final_state);

  /// Attaches the segment's change log, where each transaction event (begin,
  /// prepare, commit, abort) is recorded once. Without one (the coordinator,
  /// a segment that keeps no log) events are not recorded; prepares and
  /// commits are still synced.
  void set_change_log(ChangeLog* log) { change_log_ = log; }

  /// Crash recovery: discards all volatile bookkeeping and restarts xid
  /// assignment at `next_xid`. `reinstated_prepared` re-enters prepared
  /// transactions (gxid, xid) into the running set so the coordinator's retried
  /// COMMIT PREPARED / ABORT flows through the normal path. `finished` records
  /// the final state recovery assigned to each resolved distributed
  /// transaction, so a coordinator retrying a commit for a transaction whose
  /// volatile state died gets an idempotent OK (already durable here) or a
  /// definitive abort (lost in the crash) instead of a silent no-op.
  void ResetForRecovery(LocalXid next_xid,
                        const std::vector<std::pair<Gxid, LocalXid>>& reinstated_prepared,
                        std::unordered_map<Gxid, TxnState> finished);

 private:
  Status Finish(Gxid gxid, TxnState final_state);
  void Log(ChangeKind kind, LocalXid xid, Gxid gxid);

  CommitLog* const clog_;
  DistributedLog* const dlog_;
  Wal* const wal_;
  ChangeLog* change_log_ = nullptr;

  mutable std::mutex mu_;
  LocalXid next_xid_ = 1;
  std::unordered_map<Gxid, LocalXid> active_;   // running distributed -> local
  std::map<LocalXid, Gxid> running_local_;      // running local xids (sorted)
  // Final states assigned during crash recovery (see ResetForRecovery).
  std::unordered_map<Gxid, TxnState> recovered_finished_;
};

}  // namespace gphtap

#endif  // GPHTAP_TXN_LOCAL_TXN_MANAGER_H_
