// One worker segment: an "enhanced PostgreSQL instance" (Section 3.1) with its
// own lock table, transaction manager, commit log, change log (its WAL), buffer
// cache, and the shard of every table's data.
//
// Segments can "crash" (Crash(): volatile state — running transactions, the
// lock table, table data — becomes untrustworthy and all service stops) and be
// recovered (Recover(): one pass over the change log rebuilds the tables, the
// commit log and the xid map, and prepared-but-unresolved transactions are
// reinstated or resolved against the coordinator's distributed commit
// record). Sessions enter a segment through Pin(), which holds off recovery
// while a request is in flight and fails fast with a retryable error when the
// segment is down.
#ifndef GPHTAP_CLUSTER_SEGMENT_H_
#define GPHTAP_CLUSTER_SEGMENT_H_

#include <atomic>
#include <functional>
#include <memory>
#include <mutex>
#include <shared_mutex>
#include <unordered_map>
#include <vector>

#include "common/metrics.h"
#include "lock/lock_manager.h"
#include "storage/buffer_pool.h"
#include "storage/table.h"
#include "storage/table_factory.h"
#include "txn/clog.h"
#include "txn/distributed_log.h"
#include "txn/local_txn_manager.h"
#include "txn/wal.h"

namespace gphtap {

/// RAII service pin: while alive, the segment cannot enter recovery (shared
/// side of the service lock). Obtained via Segment::Pin(); movable only.
class SegmentPin {
 public:
  SegmentPin() = default;
  explicit SegmentPin(std::shared_mutex& mu) : lock_(mu) {}
  SegmentPin(SegmentPin&&) = default;
  SegmentPin& operator=(SegmentPin&&) = default;

 private:
  std::shared_lock<std::shared_mutex> lock_;
};

class Segment {
 public:
  struct Options {
    BufferPool::Options buffer_pool;
    int64_t fsync_cost_us = 0;
    LockManager::Options locks;
    // Keep a change log: mirrors, crash recovery and the delta feed read it.
    bool keep_change_log = false;
    MetricsRegistry* metrics = nullptr;  // cluster-wide observability (optional)
  };

  /// What recovery should do with a prepared transaction whose outcome is not
  /// decided by this segment's own log.
  enum class InDoubtDecision { kCommit, kAbort, kKeepPrepared };
  using InDoubtResolver = std::function<InDoubtDecision(Gxid)>;

  Segment(int index, const Options& options)
      : index_(index),
        wal_(options.fsync_cost_us),
        pool_(options.buffer_pool),
        locks_(index, options.locks),
        txns_(&clog_, &dlog_, &wal_) {
    if (options.keep_change_log) {
      change_log_ = std::make_unique<ChangeLog>();
      txns_.set_change_log(change_log_.get());
    }
    if (options.metrics != nullptr) {
      wal_.set_metrics(options.metrics);
      pool_.set_metrics(options.metrics);
      locks_.set_metrics(options.metrics);
    }
  }

  int index() const { return index_; }

  CommitLog& clog() { return clog_; }
  DistributedLog& dlog() { return dlog_; }
  Wal& wal() { return wal_; }
  BufferPool& pool() { return pool_; }
  LockManager& locks() { return locks_; }
  LocalTxnManager& txns() { return txns_; }
  /// The change log, or null when the segment keeps none.
  ChangeLog* change_log() { return change_log_.get(); }

  bool up() const { return up_.load(std::memory_order_acquire); }

  /// Enters the segment for one request. Fails with kUnavailable (retryable)
  /// when the segment is down. Pins must not nest (a second shared lock on the
  /// same thread can deadlock behind a queued recovery writer) — pin only at
  /// outermost entry points.
  StatusOr<SegmentPin> Pin() {
    SegmentPin pin(service_mu_);
    if (!up()) {
      return Status::Unavailable("segment " + std::to_string(index_) +
                                 " is down (retry after recovery)");
    }
    return pin;
  }

  /// Simulated crash: service stops immediately and every blocked lock waiter
  /// is cancelled with a retryable error. Non-blocking and idempotent; the
  /// actual teardown of volatile state is deferred to Recover().
  Status Crash();

  /// Rebuilds the segment from its change log, after a restart or a failover
  /// alike. `defs` recreates the schema, one pass over the log replays the
  /// data and the transaction states, and `resolver` decides in-doubt
  /// prepared transactions (normally backed by the coordinator's distributed
  /// commit record). Blocks until in-flight pinned requests drain. Requires
  /// the segment to be down and a change log kept.
  Status Recover(const std::vector<TableDef>& defs, const InDoubtResolver& resolver);

  Status CreateTable(const TableDef& def) {
    if (!up()) return Status::Unavailable("segment " + std::to_string(index_) + " is down");
    std::unique_lock<std::shared_mutex> g(tables_mu_);
    if (tables_.count(def.id)) return Status::AlreadyExists("table id in segment");
    auto table = gphtap::CreateTable(def, &clog_, &pool_);
    // Partitioned roots are not mirrored (leaf routing is not in the log).
    if (change_log_ != nullptr && !def.partitions.has_value()) {
      table->SetChangeLog(change_log_.get());
    }
    tables_[def.id] = std::move(table);
    return Status::OK();
  }

  Status DropTable(TableId id) {
    if (!up()) return Status::Unavailable("segment " + std::to_string(index_) + " is down");
    std::unique_lock<std::shared_mutex> g(tables_mu_);
    if (tables_.erase(id) == 0) return Status::NotFound("table id in segment");
    return Status::OK();
  }

  Table* GetTable(TableId id) {
    std::shared_lock<std::shared_mutex> g(tables_mu_);
    auto it = tables_.find(id);
    return it == tables_.end() ? nullptr : it->second.get();
  }

 private:
  const int index_;
  CommitLog clog_;
  DistributedLog dlog_;
  Wal wal_;
  BufferPool pool_;
  LockManager locks_;
  LocalTxnManager txns_;
  std::unique_ptr<ChangeLog> change_log_;

  std::atomic<bool> up_{true};
  // Serializes the Crash()/Recover() state transitions themselves: without it a
  // fast Recover() racing a still-running Crash() could have its fresh lock
  // table poisoned by the tail of the crash. Crash() only try_locks (it must
  // never block); Recover() holds it for the whole rebuild.
  std::mutex state_mu_;
  // Shared side: one in-flight request (SegmentPin). Exclusive side: Recover().
  std::shared_mutex service_mu_;

  std::shared_mutex tables_mu_;
  std::unordered_map<TableId, std::unique_ptr<Table>> tables_;
};

}  // namespace gphtap

#endif  // GPHTAP_CLUSTER_SEGMENT_H_
