// Mirror segments (Section 3.1): each primary's change log (its "WAL") is
// replayed on the fly, by a LogTailer, onto the mirror's own replica of the
// data. Mirrors do not participate in computing; they exist so that this
// repository models the paper's high-availability substrate and so tests can
// verify that replay reproduces the primary bit-for-bit.
//
// Partitioned roots are not mirrored (see DESIGN.md out-of-scope notes).
#ifndef GPHTAP_CLUSTER_MIRROR_H_
#define GPHTAP_CLUSTER_MIRROR_H_

#include <atomic>
#include <memory>
#include <shared_mutex>
#include <stop_token>
#include <unordered_map>

#include "common/fault_injector.h"
#include "storage/heap_table.h"
#include "storage/log_tailer.h"
#include "storage/table_factory.h"
#include "txn/clog.h"

namespace gphtap {

class MirrorSegment {
 public:
  explicit MirrorSegment(int primary_index) : primary_index_(primary_index) {}
  ~MirrorSegment() { Stop(); }

  MirrorSegment(const MirrorSegment&) = delete;
  MirrorSegment& operator=(const MirrorSegment&) = delete;

  int primary_index() const { return primary_index_; }

  /// Mirrors hold the same tables as their primary (created empty; data
  /// arrives through replay).
  Status CreateTable(const TableDef& def);
  Status DropTable(TableId id);
  Table* GetTable(TableId id);
  CommitLog& clog() { return clog_; }

  /// Starts continuous replay from the primary's log. Call once, before the
  /// mirror is shared.
  void Start(const ChangeLog* source);
  void Stop();

  /// Blocks until everything currently in the source log has been applied.
  Status CatchUp(int64_t timeout_ms = 5000);

  uint64_t applied() const { return replayer_ != nullptr ? replayer_->applied() : 0; }
  /// Replay errors are sticky; a healthy mirror reports OK.
  Status health() const { return replayer_ != nullptr ? replayer_->error() : Status::OK(); }

  /// Attaches the cluster's fault injector; the "mirror.replay_stall" point
  /// (scoped by primary index) pauses replay to simulate a lagging mirror.
  void set_fault_injector(FaultInjector* faults) { faults_ = faults; }

  /// Failover bookkeeping: once promoted, the mirror's log has been used to
  /// rebuild the primary in place and this replica must not be promoted again.
  void MarkPromoted() { promoted_.store(true, std::memory_order_release); }
  bool promoted() const { return promoted_.load(std::memory_order_acquire); }

 private:
  Status Apply(const ChangeRecord& record, std::stop_token stop);

  const int primary_index_;
  CommitLog clog_;

  std::shared_mutex tables_mu_;
  std::unordered_map<TableId, std::unique_ptr<Table>> tables_;

  const ChangeLog* source_ = nullptr;
  FaultInjector* faults_ = nullptr;
  std::atomic<bool> promoted_{false};
  std::unique_ptr<LogTailer> replayer_;  // last: stops before the tables go
};

}  // namespace gphtap

#endif  // GPHTAP_CLUSTER_MIRROR_H_
