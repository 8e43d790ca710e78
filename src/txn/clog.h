// Per-segment commit log (PostgreSQL "clog"): the durable record of each local
// transaction's final state.
#ifndef GPHTAP_TXN_CLOG_H_
#define GPHTAP_TXN_CLOG_H_

#include <atomic>
#include <cstdint>
#include <mutex>

#include "txn/xid.h"
#include "txn/xid_table.h"

namespace gphtap {

/// Thread-safe map LocalXid -> TxnState, one byte per xid. Xid 0 is invalid
/// and never used. An xid at or below the highest one registered or set that
/// was never registered reads kInProgress; an xid above it reads kAborted.
/// Reads take no lock; writers serialize on a mutex.
class CommitLog {
 public:
  /// Registers a new in-progress transaction; `xid` values must arrive in
  /// ascending order (they are assigned by a single counter).
  void Register(LocalXid xid) { SetState(xid, TxnState::kInProgress); }

  void SetState(LocalXid xid, TxnState s) {
    std::lock_guard<std::mutex> g(mu_);
    states_.Store(xid, s);
    // The state is in place before the new bound makes it readable.
    if (xid >= end_.load(std::memory_order_relaxed)) {
      end_.store(uint64_t{xid} + 1, std::memory_order_release);
    }
  }

  TxnState GetState(LocalXid xid) const {
    if (xid == kInvalidLocalXid || xid >= end_.load(std::memory_order_acquire)) {
      return TxnState::kAborted;
    }
    return states_.Load(xid);
  }

  bool IsCommitted(LocalXid xid) const { return GetState(xid) == TxnState::kCommitted; }

  /// Crash recovery: discards all state so the change-log replay can rebuild it.
  void Reset() {
    std::lock_guard<std::mutex> g(mu_);
    end_.store(1, std::memory_order_release);
    states_.Clear();
  }

 private:
  static_assert(TxnState{} == TxnState::kInProgress, "an unset slot reads in-progress");

  // What readers load comes first; the writers' mutex sits on its own cache
  // line, so taking it does not evict the readers' copy.
  XidTable<TxnState> states_;
  std::atomic<uint64_t> end_{1};  // one past the highest xid registered or set
  alignas(64) std::mutex mu_;
};

}  // namespace gphtap

#endif  // GPHTAP_TXN_CLOG_H_
