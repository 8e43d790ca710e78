// Per-segment delta index: its feed, a LogTailer on the segment's change log
// (the log the mirror replays), applies every heap-table data record to that
// table's DeltaStore, so the columnar deltas trail the row store by the
// feed's apply latency — milliseconds, not a batch ETL window. The log
// survives Crash/Recover, so the feed keeps its position and stores across
// both.
//
// Freshness contract: kInsert / kSetXmax records are appended at statement
// execution time, before the writing transaction commits. A scan that first
// waits for `applied >= log.size()` (WaitForApplied) therefore sees every
// record of every transaction its snapshot can see — the delta-merged scan is
// snapshot-exact, never "eventually consistent".
#ifndef GPHTAP_DELTA_DELTA_INDEX_H_
#define GPHTAP_DELTA_DELTA_INDEX_H_

#include <functional>
#include <map>
#include <memory>
#include <shared_mutex>
#include <string>
#include <vector>

#include "common/metrics.h"
#include "delta/delta_store.h"
#include "storage/log_tailer.h"

namespace gphtap {

class DeltaIndex {
 public:
  using TableDefLookup = std::function<StatusOr<TableDef>(TableId)>;

  /// How long a delta-merged scan waits for the feed to reach the log
  /// position captured at scan start before the row engine serves it.
  static constexpr int64_t kFreshnessTimeoutUs = 200'000;

  DeltaIndex(int segment_index, TableDefLookup lookup, MetricsRegistry* metrics);
  ~DeltaIndex();

  /// Starts the feed on `log`, which outlives this index (the segment owns
  /// it). Call once, before the index is shared.
  void Start(const ChangeLog* log);
  void Stop();

  /// Number of log records applied so far.
  uint64_t applied() const { return feed_ != nullptr ? feed_->applied() : 0; }

  /// Blocks until `applied() >= target` (TimedOut after `timeout_us`).
  Status WaitForApplied(uint64_t target, int64_t timeout_us);

  /// The table's delta store, or null when the table has none here (not a
  /// plain heap table, or no record touched it yet — i.e. it is empty).
  DeltaStore* store(TableId id) const;

  struct TableStatus {
    TableId id = 0;
    std::string name;
    DeltaStoreStats stats;
  };
  std::vector<TableStatus> TableStatuses() const;

  /// One seal-daemon pass over every store: seal cold runs, then reclaim
  /// all-dead groups, logging kFreeGroup records to `log`.
  DeltaSealResult SealAndReclaim(const CommitLog* clog, ChangeLog* log,
                                 const AoRowDeadFn& dead);

 private:
  void ApplyRecord(const ChangeRecord& rec);
  DeltaStore* StoreForRecord(TableId table);

  const int segment_index_;
  const TableDefLookup lookup_;
  MetricsRegistry* const metrics_;
  Counter* applied_records_ = nullptr;
  Counter* rows_ = nullptr;
  Counter* deletes_ = nullptr;

  mutable std::shared_mutex stores_mu_;
  // nullptr marks "seen and not tracked" (AO / partitioned / virtual tables)
  // so the catalog lookup happens once per table.
  std::map<TableId, std::unique_ptr<DeltaStore>> stores_;

  std::unique_ptr<LogTailer> feed_;  // last: stops before the stores go
};

}  // namespace gphtap

#endif  // GPHTAP_DELTA_DELTA_INDEX_H_
