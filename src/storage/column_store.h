// Append-optimized column-oriented storage: each column lives in its own
// stream of compressed blocks ("each column is allotted a separate file"),
// so projected scans read only the touched columns (Section 3.4).
#ifndef GPHTAP_STORAGE_COLUMN_STORE_H_
#define GPHTAP_STORAGE_COLUMN_STORE_H_

#include <atomic>
#include <functional>
#include <shared_mutex>
#include <vector>

#include "storage/column_group_store.h"
#include "storage/table.h"

namespace gphtap {

/// Receives one decoded batch per row group; return false to stop the scan.
using BatchScanCallback = std::function<bool(ColumnBatch&&)>;

class AoColumnTable : public Table {
 public:
  static constexpr size_t kRowGroupSize = ColumnGroupStore::kGroupRows;

  explicit AoColumnTable(TableDef def);

  StatusOr<TupleId> Insert(LocalXid xid, const Row& row) override;
  Status Scan(const VisibilityContext& ctx, const ScanCallback& fn) override;
  Status ScanColumns(const VisibilityContext& ctx, const std::vector<int>& cols,
                     const ScanCallback& fn) override;
  Status Truncate() override;
  uint64_t StoredVersionCount() const override;
  uint64_t BytesScanned() const override;

  /// Vectorized scan: each row group, sealed or open, arrives as one
  /// ColumnBatch of its touched columns whose selection vector holds the
  /// visible rows. The row scans materialize the same batches.
  Status ScanBatches(const VisibilityContext& ctx, const std::vector<int>& cols,
                     const BatchScanCallback& fn);

  /// Number of sealed row groups. The snapshot is stable for a scan's
  /// purposes: groups sealed afterwards hold rows the scan's snapshot cannot
  /// see.
  size_t NumSealedGroups() const;

  /// Decodes row group `gi` into `batch` (typed columns + visibility
  /// selection), the unit of work of a scan. Returns false — with `batch`
  /// untouched — when the group is reclaimed or has no visible rows.
  /// Thread-safe: any number of groups may decode concurrently.
  StatusOr<bool> DecodeGroupBatch(size_t gi, const VisibilityContext& ctx,
                                  const std::vector<int>& cols, ColumnBatch* batch);

  /// Compressed footprint of one column's sealed blocks, in bytes.
  uint64_t ColumnCompressedBytes(int col) const;

  /// Stamps the row's xmax (see AoRowTable::MarkDeleted).
  Status MarkDeleted(TupleId tid, LocalXid xid) override;

  /// Per-group occupancy under the caller's dead-row predicate (bloat
  /// reporting and the compaction trigger). The open tail reports unsealed.
  std::vector<AoGroupInfo> GroupInfos(const AoRowDeadFn& dead) const;

  /// Frees every sealed group whose rows are all dead per `dead` ("dead to
  /// every snapshot"): drops the compressed blocks, keeps the group slot so
  /// tids stay stable. One kFreeGroup record per freed group. Callers hold
  /// ShareUpdateExclusiveLock.
  AoReclaimResult ReclaimDeadGroups(const AoRowDeadFn& dead);

  /// Replay-side free (crash recovery / mirrors): no change record emitted.
  Status ApplyFreeGroup(size_t group_index);

 private:
  // Decodes every group that exists when the scan starts, in order, and hands
  // each batch with its group index to `fn`; stops when `fn` returns false.
  Status ScanGroups(const VisibilityContext& ctx, const std::vector<int>& cols,
                    const std::function<bool(size_t, ColumnBatch&&)>& fn);

  // tid == store position. Every store access holds latch_: unique for
  // writes, shared for reads — each group decodes under its own shared hold,
  // so concurrent scans decode in parallel.
  mutable std::shared_mutex latch_;
  ColumnGroupStore store_;
  // Atomic: concurrent scans account under the shared latch.
  mutable std::atomic<uint64_t> bytes_scanned_{0};
};

}  // namespace gphtap

#endif  // GPHTAP_STORAGE_COLUMN_STORE_H_
