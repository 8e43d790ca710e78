// Coordinator-side distributed transaction registry: gxid assignment,
// distributed snapshots, and the truncation horizon for the xid mapping.
#ifndef GPHTAP_TXN_DISTRIBUTED_TXN_MANAGER_H_
#define GPHTAP_TXN_DISTRIBUTED_TXN_MANAGER_H_

#include <map>
#include <memory>
#include <mutex>

#include "lock/lock_owner.h"
#include "txn/snapshot.h"
#include "txn/xid.h"

namespace gphtap {

class DistributedTxnManager {
 public:
  /// Starts a distributed transaction; returns its gxid and registers the
  /// LockOwner so the GDD can find and cancel it.
  Gxid Begin(const std::shared_ptr<LockOwner>& owner);

  /// Starts a transaction and mints a LockOwner carrying the new gxid and
  /// `start_time_us` (used by the youngest-victim policy).
  std::shared_ptr<LockOwner> BeginTxn(Gxid* gxid_out, int64_t start_time_us = 0);

  /// Takes a distributed snapshot. With `pin` set, the first snapshot of
  /// transaction `pin` also pins the truncation horizon of the
  /// local->distributed maps at its gxmin, under the same lock, so no
  /// transaction the snapshot holds running can lose its mapping first.
  DistributedSnapshot TakeSnapshot(Gxid pin = kInvalidGxid);

  /// Removes the transaction from the in-progress set. For commits this must be
  /// called only after every participant acknowledged (the paper: a one-phase
  /// commit transaction appears in-progress to concurrent snapshots until the
  /// "Commit Ok" arrives) — that ordering is what makes segment-local clog
  /// states authoritative once a snapshot says "finished".
  void MarkCommitted(Gxid gxid);
  void MarkAborted(Gxid gxid);

  bool IsRunning(Gxid gxid) const;
  std::shared_ptr<LockOwner> OwnerOf(Gxid gxid) const;

  /// Oldest gxid any live snapshot may still see as running; local->distributed
  /// maps can be truncated below this.
  Gxid OldestVisibleGxid() const;

  Gxid max_committed() const;
  size_t NumRunning() const;

 private:
  struct TxnInfo {
    std::shared_ptr<LockOwner> owner;
    Gxid snapshot_gxmin = 0;  // 0 = no snapshot pinned yet
  };

  mutable std::mutex mu_;
  Gxid next_gxid_ = 1;
  Gxid max_committed_ = 0;
  std::map<Gxid, TxnInfo> running_;  // sorted for cheap gxmin
};

}  // namespace gphtap

#endif  // GPHTAP_TXN_DISTRIBUTED_TXN_MANAGER_H_
