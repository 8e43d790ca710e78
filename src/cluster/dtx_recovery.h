// Coordinator-side distributed-transaction recovery daemon.
//
// The 2PC commit fanout (Session::CommitSegmentWithRetry) retries COMMIT
// PREPARED with backoff, but only up to commit_retry_deadline_us — the session
// must eventually return to the client. If a participant still has not acked
// by then, the transaction is durably committed (the coordinator's commit
// record exists) but that segment still holds it *prepared*. The transaction
// must NOT leave the distributed in-progress set yet: the moment it does,
// snapshots treat it as finished and defer to segment-local clog state, which
// disagrees across segments — a concurrent scan would see the committed half
// on the acked segment and the pre-images on the prepared one (the
// MarkCommitted contract in distributed_txn_manager.h).
//
// This daemon is the release valve, modeling Greenplum's dtx recovery
// process: unacked (gxid, segment) pairs are handed here, COMMIT PREPARED is
// retried in the background until every participant has a durable outcome
// (segment recovery resolving in doubt from the commit record also counts —
// the retried commit then lands on the idempotent already-finished path);
// the transaction is then marked committed in the DTM, and only after that
// are its remaining per-segment locks released (so writers blocked on them
// — the write-dependency barrier — never resume while the gxid still looks
// in progress to new snapshots).
#ifndef GPHTAP_CLUSTER_DTX_RECOVERY_H_
#define GPHTAP_CLUSTER_DTX_RECOVERY_H_

#include <cstdint>
#include <functional>
#include <list>
#include <memory>
#include <mutex>
#include <stop_token>
#include <vector>

#include "common/metrics.h"
#include "common/status.h"
#include "lock/lock_owner.h"
#include "txn/xid.h"

namespace gphtap {

class PeriodicTask;

class DtxRecoveryDaemon {
 public:
  struct Hooks {
    /// One COMMIT PREPARED attempt against a segment (wire + pin + local
    /// commit). OK or a non-retryable verdict means the segment has a durable
    /// outcome; a retryable failure (down, message dropped) means try again
    /// next pass.
    std::function<Status(Gxid, int seg_index)> commit_segment;
    /// Releases the prepared transaction's locks on `seg_index`; called only
    /// after mark_committed so waiters blocked on its transaction locks never
    /// observe the gxid still in progress.
    std::function<void(const std::shared_ptr<LockOwner>&, int seg_index)> release_locks;
    /// Every participant finished: the transaction leaves the distributed
    /// in-progress set (DistributedTxnManager::MarkCommitted).
    std::function<void(Gxid)> mark_committed;
  };

  struct Stats {
    uint64_t enqueued = 0;   // transactions handed to the daemon
    uint64_t resolved = 0;   // transactions fully completed + marked committed
    uint64_t attempts = 0;   // individual per-segment commit attempts
  };

  /// Retry period while a transaction is pending.
  static constexpr int64_t kPeriodUs = 5'000;

  DtxRecoveryDaemon(Hooks hooks, MetricsRegistry* metrics);

  DtxRecoveryDaemon(const DtxRecoveryDaemon&) = delete;
  DtxRecoveryDaemon& operator=(const DtxRecoveryDaemon&) = delete;

  /// The task that runs RunOnce; Enqueue wakes it.
  void set_task(PeriodicTask* task) { task_ = task; }

  /// Hands over an in-doubt-committed transaction: `pending` lists the
  /// segments whose COMMIT PREPARED ack never arrived. The owner keeps the
  /// prepared transaction's locks alive until each segment resolves.
  void Enqueue(Gxid gxid, std::shared_ptr<LockOwner> owner, std::vector<int> pending);

  /// One COMMIT PREPARED attempt per pending (transaction, segment); returns
  /// whether any transaction is still pending. With none pending the task
  /// parks until the next Enqueue.
  bool RunOnce(std::stop_token stop);

  Stats stats() const;

 private:
  struct Entry {
    Gxid gxid = kInvalidGxid;
    std::shared_ptr<LockOwner> owner;
    std::vector<int> pending;
    // Original pending set: these segments' locks are released only after the
    // whole transaction is marked committed (write-dependency barrier).
    std::vector<int> held;
  };

  const Hooks hooks_;
  PeriodicTask* task_ = nullptr;
  Counter* m_enqueued_ = nullptr;
  Counter* m_resolved_ = nullptr;
  Counter* m_attempts_ = nullptr;

  mutable std::mutex mu_;
  std::list<Entry> entries_;
  Stats stats_;
};

}  // namespace gphtap

#endif  // GPHTAP_CLUSTER_DTX_RECOVERY_H_
