// Per-segment log: the one record of what the segment did, and the in-process
// stand-in for its WAL (Section 3.1: "mirrors receive WAL logs from their
// corresponding primary segments continuously and replay the logs on the
// fly"). Storage appends data records and the transaction manager appends
// transaction records. Its readers: the mirror replayer and the delta feed
// (each a LogTailer, storage/log_tailer.h), restart and failover recovery
// (Segment::Recover) and rebalance catch-up.
#ifndef GPHTAP_STORAGE_CHANGE_LOG_H_
#define GPHTAP_STORAGE_CHANGE_LOG_H_

#include <condition_variable>
#include <deque>
#include <mutex>
#include <stop_token>

#include "catalog/datum.h"
#include "catalog/schema.h"
#include "storage/tuple.h"
#include "txn/xid.h"

namespace gphtap {

enum class ChangeKind : uint8_t {
  kTxnBegin,    // xid registered
  kInsert,      // tuple version created at tid
  kSetXmax,     // delete/update stamped xmax=xid on tid
  kLink,        // ctid chain: tid -> tid2
  kFreeSlot,    // vacuum reclaimed tid
  kTxnCommit,   // local transaction committed
  kTxnAbort,    // local transaction aborted
  kTruncate,    // table contents discarded
  kTxnPrepare,  // local transaction PREPAREd (2PC phase one)
  kFreeGroup,   // AO reclamation freed a whole row group (`tid` = group index)
};

struct ChangeRecord {
  ChangeKind kind = ChangeKind::kInsert;
  TableId table = 0;
  TupleId tid = kInvalidTupleId;
  TupleId tid2 = kInvalidTupleId;  // kLink target
  LocalXid xid = kInvalidLocalXid;
  Row row;  // kInsert payload
  // Distributed xid for transaction records; lets a promoted mirror resolve
  // in-doubt prepared transactions against the coordinator's commit record.
  Gxid gxid = kInvalidGxid;
};

/// Unbounded ordered log. Appenders may hold storage latches while appending
/// (the log never takes storage locks). Readers read records in place by
/// position: std::deque::push_back never moves an existing element and
/// nothing erases from the log, so a reference taken under the mutex stays
/// valid for the log's lifetime.
class ChangeLog {
 public:
  void Append(ChangeRecord record) {
    {
      std::lock_guard<std::mutex> g(mu_);
      records_.push_back(std::move(record));
    }
    cv_.notify_all();
  }

  size_t size() const {
    std::lock_guard<std::mutex> g(mu_);
    return records_.size();
  }

  /// Record `position`, which must be below size().
  const ChangeRecord& At(size_t position) const {
    std::lock_guard<std::mutex> g(mu_);
    return records_[position];
  }

  /// Record `position`, blocking until it is appended; null if `stop` is
  /// requested while it waits.
  const ChangeRecord* Await(size_t position, std::stop_token stop) const {
    std::unique_lock<std::mutex> lk(mu_);
    if (!cv_.wait(lk, stop, [&] { return position < records_.size(); })) return nullptr;
    return &records_[position];
  }

 private:
  mutable std::mutex mu_;
  mutable std::condition_variable_any cv_;  // an append, or a reader's stop
  std::deque<ChangeRecord> records_;
};

}  // namespace gphtap

#endif  // GPHTAP_STORAGE_CHANGE_LOG_H_
